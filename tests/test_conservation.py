import itertools
from fractions import Fraction

import numpy as np
import pytest

from crncount.conservation import MassVector, MassVerdict, check_mass_vector, conservation_report, conserved_mass_vector
from crncount.dsl import ParseError, parse_network
from crncount.network import NetworkError, reaction_vectors, stoichiometric_rank

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
        assert stoichiometric_rank(net) <= net.n - 1


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
    vecs = np.array(reaction_vectors(net), dtype=float)
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
