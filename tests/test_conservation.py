import itertools
from fractions import Fraction

import numpy as np
import pytest

from crncount.conservation import (
    MassVector,
    MassVerdict,
    _normalize,
    _simplex_min,
    check_mass_vector,
    conservation_report,
    conserved_mass_vector,
)
from crncount.dsl import ParseError, parse_network
from crncount.fixtures import NETWORK_FIXTURES, fixture_network
from crncount.network import NetworkError

from census_reference import ring
from conservation_reference import reference_check_mass_vector, reference_normalize, reference_simplex_min

NET_61 = "A+B -> P\nB+C -> Q\nC -> 2A\n"
NET_T2 = "A+B <-> P\nB+C <-> Q\nC+D <-> R\nD <-> 2A\n"
NET_T5 = "A+B <-> F\nA+C <-> G\nC+D <-> B\nC+E <-> D\n"


def _by_name(net, table):
    return [table[name] for name in net.names]


def test_example_61_mass_vector():
    net = parse_network(NET_61)
    assert check_mass_vector(net, _by_name(net, {"A": 1, "B": 1, "C": 2, "P": 2, "Q": 3})) is MassVerdict.CONSERVED
    m = conserved_mass_vector(net)
    assert m is not None
    assert check_mass_vector(net, m.entries) is MassVerdict.CONSERVED


def test_table1_ii_mass_vector():
    net = parse_network(NET_T2)
    cand = _by_name(net, {"A": 1, "B": 1, "C": 1, "D": 2, "P": 2, "Q": 2, "R": 3})
    assert check_mass_vector(net, cand) is MassVerdict.CONSERVED
    m = conserved_mass_vector(net)
    assert check_mass_vector(net, m.entries) is MassVerdict.CONSERVED


def test_table1_v_mass_vector():
    net = parse_network(NET_T5)
    cand = _by_name(net, {"A": 1, "B": 3, "C": 1, "D": 2, "E": 1, "F": 4, "G": 2})
    assert check_mass_vector(net, cand) is MassVerdict.CONSERVED
    m = conserved_mass_vector(net)
    assert check_mass_vector(net, m.entries) is MassVerdict.CONSERVED


def test_autocatalytic_network_not_conservative():
    # A -> 2A forces m_A = 0
    assert conserved_mass_vector(parse_network("A -> 2A\n")) is None


def test_dissipating_candidate():
    net = parse_network("A+B -> P\n")
    assert check_mass_vector(net, [1, 1, 1]) is MassVerdict.DISSIPATING


def test_neither_candidate():
    net = parse_network("A+B -> P\n")
    assert check_mass_vector(net, [1, 1, 3]) is MassVerdict.NEITHER  # dot = +1
    assert check_mass_vector(net, [1, -1, 1]) is MassVerdict.NEITHER  # nonpositive entry


def test_candidate_length_mismatch():
    net = parse_network(NET_61)
    with pytest.raises(NetworkError, match="length"):
        check_mass_vector(net, [1, 1, 1])


def test_flow_reactions_rejected():
    # A conservative network has no flows, and no network may contain any.
    with pytest.raises(ParseError, match="line 4: networks must not contain flow reactions"):
        parse_network(NET_61 + "A -> 0\n")


def test_feasibility_invariant_under_permutations():
    lines = NET_61.strip().splitlines()
    for perm in itertools.permutations(lines):
        net = parse_network("\n".join(perm) + "\n")
        assert conserved_mass_vector(net) is not None
    assert conserved_mass_vector(parse_network("A -> 2A\nA -> B\n")) is None


def test_conservative_implies_rank_deficient():
    for text in (NET_61, NET_T2, NET_T5):
        net = parse_network(text)
        vecs = [r.reaction_vector(net.n) for r in net.reactions]
        assert np.linalg.matrix_rank(np.array(vecs, dtype=float)) <= net.n - 1


def test_returned_vector_is_normalized_integer():
    m = conserved_mass_vector(parse_network(NET_61))
    assert all(e.denominator == 1 for e in m.entries)
    values = [int(e) for e in m.entries]
    g = 0
    for v in values:
        g = np.gcd(g, v)
    assert g == 1


def test_mass_vector_positivity_enforced():
    with pytest.raises(ValueError):
        MassVector((Fraction(1), Fraction(0)))


def test_dissipating_bounds_rate_combinations():
    # For a dissipating m, m . g(c) <= 0 for any nonnegative reaction
    # rates, since every reaction vector has nonpositive dot with m.
    net = parse_network("A+B -> P\nP -> A\n")
    m = [2, 1, 3]
    assert check_mass_vector(net, m) is MassVerdict.DISSIPATING
    vecs = np.array([r.reaction_vector(net.n) for r in net.reactions], dtype=float)
    rng = np.random.default_rng(0)
    for _ in range(200):
        rates = rng.uniform(0, 5, size=len(vecs))
        assert float(np.array(m) @ (rates @ vecs)) <= 1e-12


def test_conservation_report_json():
    net = parse_network(NET_61)
    report = conservation_report(net, candidate=[1, 1, 2, 2, 3])
    assert report == {
        "conservative": True,
        "mass_vector": ["1", "1", "2", "2", "3"],
        "verdict_for_candidate": "conserved",
    }
    report2 = conservation_report(parse_network("A -> 2A\n"))
    assert report2 == {"conservative": False, "mass_vector": None}


def test_mass_vector_renders_fractions():
    assert MassVector((Fraction(3), Fraction(1, 2), Fraction(7, 3))).render() == ["3", "1/2", "7/3"]


# The simplex pivots its reduced-cost row with the tableau; the reference
# re-prices every column at every step.  Both follow Bland's rule over exact
# Fractions, so they must take the same pivots and return the same x.


def _mass_system(vectors):
    """conserved_mass_vector's program: m = 1 + x, so rows.x = -rows.1."""
    rows = [[Fraction(int(v)) for v in vec] for vec in vectors]
    return rows, [-sum(row) for row in rows]


def _assert_matches_reference(vectors):
    rows, rhs = _mass_system(vectors)
    x = _simplex_min(rows, rhs)
    assert x == reference_simplex_min([Fraction(1)] * len(rows[0]), rows, rhs)
    if x is not None:
        m = [1 + v for v in x]
        assert _normalize(m) == reference_normalize(m)
    return x


@pytest.mark.parametrize("name", sorted(NETWORK_FIXTURES))
def test_simplex_matches_reference_on_fixtures(name):
    net = fixture_network(name)
    x = _assert_matches_reference([r.reaction_vector(net.n) for r in net.reactions])
    assert (x is None) == (conserved_mass_vector(net) is None)


@pytest.mark.parametrize("n", range(5, 17, 2))
def test_simplex_matches_reference_on_rings(n):
    net = ring(n)
    assert _assert_matches_reference([r.reaction_vector(net.n) for r in net.reactions]) is not None


def test_simplex_breaks_ratio_ties_like_reference():
    # Programs with several optimal vertices, where a ratio tie broken
    # toward the largest basic index ends at another optimal x.
    programs = [
        ([[2, 1, 1, 0, -1], [2, 1, 2, 1, -1], [1, 1, -1, -1, 1]], [1, 2, 1]),
        ([[-1, -1, 0, 2, 2], [1, 0, 0, 2, 0], [2, 1, -1, 1, -1]], [2, 1, 2]),
        ([[1, -1, 0, 1, 1], [1, 1, 0, -1, -1], [2, -1, 0, 1, 2], [1, 1, 1, 1, -1]], [1, 0, 2, 1]),
    ]
    for rows, rhs in programs:
        rows = [[Fraction(v) for v in row] for row in rows]
        rhs = [Fraction(v) for v in rhs]
        assert _simplex_min(rows, rhs) == reference_simplex_min([Fraction(1)] * len(rows[0]), rows, rhs)


def _random_stoichiometry(rng, conservative):
    """Nonzero integer reaction vectors on 2-7 species.

    A conservative system combines vectors m_j e_i - m_i e_j, each orthogonal
    to a drawn m > 0.  Either kind may gain the reverse of a row (a
    reversible pair) and the sum of two rows (a linearly dependent row).
    """
    n = int(rng.integers(2, 8))
    m = rng.integers(1, 5, size=n)
    vectors = []
    while len(vectors) < int(rng.integers(1, n + 2)):
        if conservative:
            v = np.zeros(n, dtype=int)
            for _ in range(int(rng.integers(1, 3))):
                i, j = rng.choice(n, size=2, replace=False)
                c = int(rng.choice([-2, -1, 1, 2]))
                v[i] += c * m[j]
                v[j] -= c * m[i]
        else:
            v = rng.integers(-2, 3, size=n)
        if v.any():
            vectors.append(v)
    if rng.random() < 0.5:
        vectors.append(-vectors[int(rng.integers(len(vectors)))])
    if len(vectors) > 1 and rng.random() < 0.5:
        i, j = rng.choice(len(vectors), size=2, replace=False)
        if (vectors[i] + vectors[j]).any():
            vectors.append(vectors[i] + vectors[j])
    rng.shuffle(vectors)
    return vectors


def test_simplex_matches_reference_on_random_stoichiometries():
    rng = np.random.default_rng(14)
    feasible = dependent = 0
    for trial in range(1200):
        conservative = trial % 4 == 0  # 300 conservative by construction
        vectors = _random_stoichiometry(rng, conservative)
        x = _assert_matches_reference(vectors)
        assert x is not None or not conservative
        if x is not None:
            feasible += 1
            # Rank below the row count leaves an artificial basic at zero
            # after phase 1: the drive-out runs and a redundant row is dropped.
            dependent += np.linalg.matrix_rank(np.array(vectors, dtype=float)) < len(vectors)
    assert feasible >= 400 and 1200 - feasible >= 200
    assert dependent >= 200


def _wide_stoichiometry(rng, conservative):
    """Reaction vectors whose entries reach the DSL's cap of 2^31 - 1.

    A conservative row is m_j e_i - m_i e_j for a drawn m > 0 with entries up
    to the cap; any system may gain the reverse of a row, a linearly
    dependent row that sends phase 1 through the drive-out.
    """
    cap = 2**31 - 1
    n = int(rng.integers(2, 7))
    m = [int(v) for v in rng.integers(1, cap, size=n, endpoint=True)]
    vectors = []
    for _ in range(int(rng.integers(1, n + 2))):
        if conservative:
            i, j = (int(k) for k in rng.choice(n, size=2, replace=False))
            v = [0] * n
            v[i], v[j] = m[j], -m[i]
        else:
            v = [int(x) for x in rng.integers(-cap, cap, size=n, endpoint=True)]
        vectors.append(v)
    if rng.random() < 0.5:
        vectors.append([-x for x in vectors[int(rng.integers(len(vectors)))]])
    return vectors


def test_integer_simplex_divides_exactly_at_the_coefficient_cap():
    # Every tableau update divides by the last pivot; an inexact division
    # would floor silently and end at another x.  Entries near 2^31 make
    # the subdeterminants, and any remainder, large.
    rng = np.random.default_rng(17)
    feasible = 0
    for trial in range(300):
        x = _assert_matches_reference(_wide_stoichiometry(rng, conservative=trial % 2 == 0))
        assert x is not None or trial % 2
        feasible += x is not None
    assert 150 <= feasible < 300
    net = ring(17)
    assert _assert_matches_reference([r.reaction_vector(net.n) for r in net.reactions]) is not None


def _candidate_network(rng):
    """A DSL network conserving integer weights w, maybe with one reaction
    that lowers (dissipates) or raises w.c, and the weights by species name.

    Species S0 is a catalyst of every reaction, so no line is a flow.
    """
    n = int(rng.integers(2, 6))
    w = [int(v) for v in rng.integers(1, 6, size=n)]
    vectors = []
    for _ in range(int(rng.integers(1, n + 1))):
        i, j = (int(k) for k in rng.choice(n, size=2, replace=False))
        c = int(rng.choice([-2, -1, 1, 2]))
        v = [0] * n
        v[i], v[j] = c * w[j], -c * w[i]
        if v not in vectors:  # the DSL rejects a duplicate reaction
            vectors.append(v)
    extra = rng.choice(["none", "lower", "raise"])
    if extra != "none":
        v = [0] * n
        v[int(rng.integers(n))] = -1 if extra == "lower" else 1
        vectors.append(v)

    def side(coeffs):
        return " + ".join(f"{c} S{k}" for k, c in enumerate(coeffs) if c)

    lines = []
    for v in vectors:
        source = [max(-x, 0) + (k == 0) for k, x in enumerate(v)]
        target = [max(x, 0) + (k == 0) for k, x in enumerate(v)]
        lines.append(f"{side(source)} -> {side(target)}")
    return parse_network("\n".join(lines) + "\n"), {f"S{k}": v for k, v in enumerate(w)}


def test_check_mass_vector_matches_fraction_dot_products():
    rng = np.random.default_rng(23)
    seen = {verdict: 0 for verdict in MassVerdict}
    for _ in range(600):
        net, weights = _candidate_network(rng)
        scale = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50)))
        candidate = [weights[name] * scale for name in net.names]
        kind = rng.integers(4)
        if kind == 1:  # perturb one entry by a random rational, either sign
            k = int(rng.integers(net.n))
            candidate[k] += Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
        elif kind == 2:  # a zero or negative entry
            candidate[int(rng.integers(net.n))] = -Fraction(int(rng.integers(0, 5)), int(rng.integers(1, 5)))
        elif kind == 3:  # unrelated rationals, given as ints, Fractions or strings
            candidate = [Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 20))) for _ in net.names]
            candidate = [int(v) if v.denominator == 1 else str(v) if rng.random() < 0.5 else v for v in candidate]
        verdict = check_mass_vector(net, candidate)
        assert verdict is reference_check_mass_vector(net, candidate)
        seen[verdict] += 1
    assert min(seen.values()) >= 50, seen
