import pickle
import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crncount import polynomial
from crncount.dsl import parse_network
from crncount.fixtures import NETWORK_FIXTURES, fixture_network
from crncount.jacobian import (
    SYMBOLIC_OUTFLOW,
    UNIT_OUTFLOW,
    augmented_mass_action_jacobian,
    build_general_jacobian,
    dominance_conditions,
    outflow_constant,
    sign_census,
)
from crncount.network import with_general_kinetics
from crncount.polynomial import (
    CONCENTRATION,
    KINETIC_PARTIAL,
    RATE_CONSTANT,
    DeterminantSizeError,
    Indeterminate,
    PackedTerms,
    Polynomial,
    _exponent_fields,
    _frontier_order,
    _level_counts,
    _permutation_sign,
    _rank_one_blocks,
    _split_level,
    concentration,
    determinant_expand,
    differentiate,
    evaluate,
    kinetic_partial,
    mono_div,
    mono_divides,
    mono_mul,
    rate_constant,
    substitute,
)

from census_reference import dp_level_masks, mono_sign, ring

X = concentration(0, "x")
Y = concentration(1, "y")
Z = concentration(2, "z")
PV = Polynomial.variable
ONE = Polynomial.constant(1)


def test_difference_of_squares():
    assert (PV(X) + PV(Y)) * (PV(X) - PV(Y)) == PV(X) * PV(X) - PV(Y) * PV(Y)


def test_additive_inverse_gives_empty_term_map():
    p = PV(X) * PV(Y) * 3 + Polynomial.constant(7)
    assert (p + (-p)).is_zero
    assert (p - p).terms == {}


def test_product_of_distinct_variables_is_one_monomial():
    ks = [rate_constant(f"r{i}") for i in range(3)]
    p = PV(ks[0]) * PV(ks[1]) * PV(ks[2])
    assert len(p) == 1
    ((mono, coeff),) = p.terms.items()
    assert coeff == 1
    assert mono == tuple((k, 1) for k in sorted(ks))


def test_power():
    p = PV(X) + ONE
    assert p**3 == p * p * p
    assert p**0 == ONE


def test_differentiate_monomial_rule():
    k = rate_constant("A+B->P")
    p = PV(k) * PV(X) * PV(Y)
    assert differentiate(p, X) == PV(k) * PV(Y)


def test_differentiate_power():
    assert differentiate(PV(X) * PV(X), X) == 2 * PV(X)


def test_differentiate_unknown_variable_is_zero():
    assert differentiate(PV(X), Y).is_zero


def test_substitute_integer_and_polynomial():
    p = PV(X) * PV(X) * PV(Y) + PV(Y)
    assert substitute(p, {X: 2}) == 4 * PV(Y) + PV(Y)
    assert substitute(p, {Y: PV(X)}) == PV(X) ** 3 + PV(X)


def test_evaluate():
    p = 2 * PV(X) * PV(Y) - Polynomial.constant(3)
    assert evaluate(p, {X: 0.5, Y: 4.0}) == pytest.approx(1.0)


def test_determinant_1x1_and_2x2():
    a, b, c, d = (PV(rate_constant(s)) for s in "abcd")
    assert determinant_expand([[a]]) == a
    assert determinant_expand([[a, b], [c, d]]) == a * d - b * c


def test_determinant_cyclic_feedback_3x3():
    # [[-a1, 0, -b3], [b1, -a2, 0], [0, b2, -a3]] expands to
    # -(a1*a2*a3 + b1*b2*b3): one sign for all nonnegative entries.
    a = [PV(rate_constant(f"a{i}")) for i in range(1, 4)]
    b = [PV(rate_constant(f"b{i}")) for i in range(1, 4)]
    zero = Polynomial.zero()
    M = [[-a[0], zero, -b[2]], [b[0], -a[1], zero], [zero, b[1], -a[2]]]
    assert determinant_expand(M) == -(a[0] * a[1] * a[2] + b[0] * b[1] * b[2])


def test_determinant_rejects_nonsquare_and_oversize():
    with pytest.raises(ValueError):
        determinant_expand([[ONE, ONE]])
    with pytest.raises(ValueError):
        determinant_expand([])
    big = [[ONE for _ in range(17)] for _ in range(17)]
    with pytest.raises(DeterminantSizeError, match="exceeds"):
        determinant_expand(big)
    # the cap is configuration, not a hard limit
    three = [[ONE if i == j else Polynomial.zero() for j in range(3)] for i in range(3)]
    with pytest.raises(DeterminantSizeError):
        determinant_expand(three, max_dim=2)


def _random_poly_matrix(rng, n, variables):
    def entry():
        p = Polynomial.zero()
        for _ in range(rng.integers(0, 3)):
            v = variables[rng.integers(len(variables))]
            p = p + int(rng.integers(-3, 4)) * PV(v)
        if rng.random() < 0.5:
            p = p + Polynomial.constant(int(rng.integers(-2, 3)))
        return p

    return [[entry() for _ in range(n)] for _ in range(n)]


def test_determinant_matches_numeric_lu_up_to_7x7():
    rng = np.random.default_rng(123)
    variables = [concentration(i, f"v{i}") for i in range(4)]
    for n in range(1, 8):
        for _ in range(8):
            M = _random_poly_matrix(rng, n, variables)
            values = {v: float(rng.uniform(0.1, 2.0)) for v in variables}
            det = determinant_expand(M)
            assert det.terms == _reference_expand(M).terms
            sym = evaluate(det, values)
            num = np.linalg.det(np.array([[evaluate(e, values) for e in row] for row in M]))
            assert sym == pytest.approx(num, rel=1e-9, abs=1e-9)


def test_determinant_transpose_duplicate_and_diagonal():
    rng = np.random.default_rng(5)
    variables = [concentration(i, f"v{i}") for i in range(3)]
    M = _random_poly_matrix(rng, 4, variables)
    Mt = [[M[j][i] for j in range(4)] for i in range(4)]
    assert determinant_expand(M) == determinant_expand(Mt)

    M_dup = [row[:] for row in M]
    M_dup[2] = M_dup[0][:]
    assert determinant_expand(M_dup).is_zero

    d = [PV(rate_constant(f"d{i}")) for i in range(4)]
    diag = [[d[i] if i == j else Polynomial.zero() for j in range(4)] for i in range(4)]
    assert determinant_expand(diag) == d[0] * d[1] * d[2] * d[3]


def test_row_scaling_by_fresh_indeterminate():
    rng = np.random.default_rng(6)
    variables = [concentration(i, f"v{i}") for i in range(3)]
    M = _random_poly_matrix(rng, 3, variables)
    t = PV(rate_constant("fresh"))
    M_scaled = [row[:] for row in M]
    M_scaled[1] = [t * e for e in M_scaled[1]]
    assert determinant_expand(M_scaled) == t * determinant_expand(M)


def test_monomial_sign_with_declared_signs():
    neg = kinetic_partial("A->B", 0, "A", -1)
    unk = kinetic_partial("A->B", 1, "B", 0)
    pos = kinetic_partial("A->B", 2, "C", +1)
    cases = {
        ((neg, 1), (pos, 1)): -1,
        ((neg, 2),): 1,
        ((neg, 3), (pos, 2)): -1,
        ((unk, 1), (pos, 1)): 0,
        ((unk, 2),): 0,
    }
    for m, sign in cases.items():
        assert mono_sign(m) == sign


def test_rendering_format():
    k = rate_constant("C->2A")
    b = concentration(1, "B")
    p = -1 * PV(k) * PV(b) + PV(b) * PV(b) * 2
    assert str(p) == "-1*c[B]*k[C->2A] + 2*c[B]^2"
    assert str(Polynomial.zero()) == "0"


def test_indeterminate_identity_order_and_repr():
    c0, c1 = concentration(0, "A"), concentration(1, "B")
    k, k_out = rate_constant("C->2A"), outflow_constant("C")
    K = kinetic_partial("C->2A", 2, "C", +1)
    # Canonical order is (kind, key): concentrations, rate constants, partials.
    assert sorted([K, k, c1, k_out, c0]) == [c0, c1, k_out, k, K]
    assert (c0.kind, c0.key, c0.sign, c0.name) == (CONCENTRATION, (0,), 1, "c[A]")
    # Equal iff kind, key and sign match; the display name is not identity.
    assert K == kinetic_partial("C->2A", 2, "renamed", +1)
    assert hash(K) == hash(kinetic_partial("C->2A", 2, "renamed", +1))
    assert K != kinetic_partial("C->2A", 2, "C", -1)
    assert K != kinetic_partial("C->2A", 1, "C", +1)
    assert Indeterminate(RATE_CONSTANT, (0,), 1) != Indeterminate(CONCENTRATION, (0,), 1)
    assert k_out == rate_constant("C->0")
    assert [repr(x) for x in (c0, k, k_out, K)] == ["c[A]", "k[C->2A]", "k[C->0]", "K[C->2A;C]"]
    assert repr(Indeterminate(KINETIC_PARTIAL, ("r", 3), 0)) == "Indeterminate(2, ('r', 3))"
    assert [(y, y.name) for y in pickle.loads(pickle.dumps([c0, K]))] == [(c0, "c[A]"), (K, "K[C->2A;C]")]
    with pytest.raises(AttributeError):
        c0.name = "c[B]"
    # Fresh symbols from the factories key holds_at's value maps.
    net = parse_network("A+B -> P\nB+C -> Q\nC -> 2A\n")
    det = determinant_expand(augmented_mass_action_jacobian(net, outflow=SYMBOLIC_OUTFLOW))
    (cond,) = dominance_conditions(det, sign_census(det, net.n))
    assert cond.holds_at({rate_constant("C->2A"): 0.5, outflow_constant("C"): 1.0})
    assert not cond.holds_at({rate_constant("C->2A"): 2.0, outflow_constant("C"): 1.0})
    general = fixture_network("table1-v")
    det = determinant_expand(build_general_jacobian(with_general_kinetics(general)))
    (cond,) = dominance_conditions(det, sign_census(det, general.n))
    K_AF = kinetic_partial("A+B->F", general.names.index("A"), "A", +1)
    assert cond.holds_at({K_AF: 0.5}) and not cond.holds_at({K_AF: 1.5})


_pool = [concentration(0, "x"), concentration(1, "y"), rate_constant("r")]


@st.composite
def _polys(draw):
    n_terms = draw(st.integers(0, 4))
    p = Polynomial.zero()
    for _ in range(n_terms):
        coeff = draw(st.integers(-5, 5))
        term = Polynomial.constant(coeff)
        for v in _pool:
            term = term * PV(v) ** draw(st.integers(0, 2))
        p = p + term
    return p


@given(_polys(), _polys(), _polys())
@settings(max_examples=80, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def _reference_expand(matrix):
    """The subset-DP Laplace expansion on tuple monomials (mono_mul), the
    form determinant_expand took before its packed-integer kernel."""
    n = len(matrix)
    row_terms = [[row[j].terms for j in range(n)] for row in matrix]
    order = sorted(range(n), key=lambda i: sum(1 for t in row_terms[i] if t))
    level = {0: {(): 1}}
    for k, i in enumerate(order):
        nxt = {}
        for mask, minor in level.items():
            below = 0
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    below += 1
                    continue
                entry = row_terms[i][j]
                if not entry:
                    continue
                sign = -1 if (k + below) & 1 else 1
                acc = nxt.setdefault(mask | bit, {})
                for m1, c1 in entry.items():
                    c1s = c1 * sign
                    for m2, c2 in minor.items():
                        m = mono_mul(m1, m2)
                        s = acc.get(m, 0) + c1s * c2
                        if s:
                            acc[m] = s
                        else:
                            del acc[m]
        level = {mask: terms for mask, terms in nxt.items() if terms}
    return Polynomial(level.get((1 << n) - 1, {})) * _permutation_sign(order)


def _jacobian(net, kinetics, outflow):
    if kinetics == "general":
        return build_general_jacobian(with_general_kinetics(net), outflow=outflow)
    return augmented_mass_action_jacobian(net, outflow=outflow)


BOTH_OUTFLOWS = (UNIT_OUTFLOW, SYMBOLIC_OUTFLOW)


@pytest.mark.parametrize("name", sorted(NETWORK_FIXTURES))
def test_determinant_matches_reference_on_fixtures(name):
    net = fixture_network(name)
    for kinetics in ("mass-action", "general"):
        for outflow in BOTH_OUTFLOWS:
            J = _jacobian(net, kinetics, outflow)
            assert determinant_expand(J).terms == _reference_expand(J).terms, (kinetics, outflow)


# The ring family on n = 5, 7, 9 species is fixtures table1-i, ii, iii, which
# the fixture test runs in every variant.  Above them: the census benchmark's
# n=11 variants (mass-action only) and ring 13 at unit outflow.
@pytest.mark.parametrize("n, outflow", [(11, UNIT_OUTFLOW), (11, SYMBOLIC_OUTFLOW), (13, UNIT_OUTFLOW)])
def test_determinant_matches_reference_on_ring_family(n, outflow):
    J = augmented_mass_action_jacobian(ring(n), outflow=outflow)
    assert determinant_expand(J).terms == _reference_expand(J).terms


def _supports(matrix):
    return [sum(1 << j for j, entry in enumerate(row) if not entry.is_zero) for row in matrix]


def _fewest_nonzeros_order(supports):
    """The row order determinant_expand took before its frontier order."""
    return sorted(range(len(supports)), key=lambda i: supports[i].bit_count())


def _assert_order_independent(J, monkeypatch, seed):
    """determinant_expand gives the same packed terms under the fewest-nonzeros
    row order and under 5 seeded shuffles as under the frontier order."""
    det = determinant_expand(J).packed.coefficients
    supports = _supports(J)
    n = len(J)
    rng = random.Random(seed)
    orders = [_fewest_nonzeros_order(supports)] + [rng.sample(range(n), n) for _ in range(5)]
    for order in orders:
        monkeypatch.setattr(polynomial, "_frontier_order", lambda _, order=order: order)
        assert determinant_expand(J).packed.coefficients == det, order
    monkeypatch.undo()


@pytest.mark.parametrize("name", sorted(NETWORK_FIXTURES))
def test_determinant_is_independent_of_row_order_on_fixtures(name, monkeypatch):
    net = fixture_network(name)
    for kinetics in ("mass-action", "general"):
        for outflow in BOTH_OUTFLOWS:
            _assert_order_independent(_jacobian(net, kinetics, outflow), monkeypatch, seed=net.n)


@pytest.mark.parametrize("n", [11, 13])
def test_determinant_is_independent_of_row_order_on_ring_family(n, monkeypatch):
    for kinetics in ("mass-action", "general"):
        for outflow in BOTH_OUTFLOWS:
            _assert_order_independent(_jacobian(ring(n), kinetics, outflow), monkeypatch, seed=n)


def _for_every_split(J, monkeypatch):
    """determinant_expand(J) once per split level h = 1..n (n: one-sided)."""
    dets = []
    for h in range(1, len(J) + 1):
        monkeypatch.setattr(polynomial, "_split_level", lambda rows, closed, h=h: h)
        dets.append(determinant_expand(J))
    monkeypatch.undo()
    return dets


def _planted_blocks_matrix(rng, n, blocks):
    """An n x n matrix holding ``blocks`` rank-one blocks u z^T in up to three
    rate constants each, with pairwise non-parallel integer u, over
    unstructured entries in concentrations, a stray rate constant and a
    product of two rate constants; returns (matrix, the block symbol sets)."""
    conc = [concentration(i, f"v{i}") for i in range(3)]
    monomials = [(), ((conc[0], 1),), ((conc[1], 1),), ((conc[0], 1), (conc[2], 1)), ((conc[1], 2),)]
    J = [[Polynomial.zero() for _ in range(n)] for _ in range(n)]
    directions, planted = set(), []
    for b in range(blocks):
        while True:
            u = [int(rng.integers(-2, 3)) if rng.random() < 0.6 else 0 for _ in range(n)]
            nonzero = [c for c in u if c]
            if len(nonzero) >= 2:
                g = np.gcd.reduce(nonzero)
                key = tuple(c // g * (1 if nonzero[0] > 0 else -1) for c in u)
                if key not in directions:
                    directions.add(key)
                    break
        xs = [rate_constant(f"b{b}x{t}") for t in range(3)]
        used = set()
        for i in range(n):
            z = Polynomial.zero()
            for x in xs:
                if rng.random() < 0.4:
                    mono = monomials[int(rng.integers(len(monomials)))]
                    z = z + int(rng.integers(1, 4)) * Polynomial.term(1, mono) * PV(x)
                    used.add(x)
            for j in range(n):
                J[j][i] = J[j][i] + u[j] * z
        if used:
            planted.append(frozenset(used))
    stray, other = rate_constant("stray"), rate_constant("other")
    for j in range(n):
        for i in range(n):
            if rng.random() < 0.5:
                mono = monomials[int(rng.integers(len(monomials)))]
                J[j][i] = J[j][i] + int(rng.integers(-3, 4)) * Polynomial.term(1, mono)
    J[int(rng.integers(n))][int(rng.integers(n))] += PV(stray)
    J[int(rng.integers(n))][int(rng.integers(n))] += 2 * PV(stray) * PV(other)
    return J, planted


def _block_symbols(J):
    """The symbol sets of the rank-one blocks that determinant_expand finds in J."""
    packed = PackedTerms(_exponent_fields(J))
    rows = [[(1 << j, {packed.encode(m): c for m, c in entry.terms.items()}) for j, entry in enumerate(row) if entry]
            for row in J]
    keep = ~packed.concentration_mask

    def symbol(m):
        ((x, _),) = packed.decode(m & keep)  # the one non-concentration factor
        return x

    return {frozenset(symbol(m) for _, m in places) for places in _rank_one_blocks(packed, rows)}


@pytest.mark.parametrize("seed", range(6))
def test_planted_rank_one_blocks_match_reference_for_every_split(seed, monkeypatch):
    # Seeded matrices on n = 4..7 rows with one to three planted blocks:
    # every split level, the one-sided DP included, gives the reference
    # expansion, and the blocks found are the planted ones.
    rng = np.random.default_rng(seed)
    for n in range(4, 8):
        J, planted = _planted_blocks_matrix(rng, n, 1 + (seed + n) % 3)
        assert _block_symbols(J) == set(planted)
        expected = _reference_expand(J).terms
        for h, det in enumerate(_for_every_split(J, monkeypatch), start=1):
            assert det.terms == expected, (n, h)


def test_symbols_that_break_a_block_keep_their_terms(monkeypatch):
    # The x-part [[x, x], [x, -x]] has rank 2.  In the second and third
    # matrices x's first column is rank one, but x also appears times w, or
    # squared.  In each, x is no block, and both splits keep the terms of
    # degree 2 or more in x.
    x, w = PV(rate_constant("x")), PV(rate_constant("w"))
    for J, det in [([[x, x], [x, -x]], -2 * x * x),
                   ([[x, x * w], [x, ONE]], x - x * x * w),
                   ([[x, x * x], [x, ONE]], x - x * x * x)]:
        assert _block_symbols(J) == set()
        assert _for_every_split(J, monkeypatch) == [det] * 2


def test_ring_13_blocks_are_the_reversible_pairs():
    net = ring(13)
    pairs = {}
    for r in net.reactions:
        v = tuple(r.reaction_vector(net.n))
        pairs.setdefault(max(v, tuple(-c for c in v)), set()).add(rate_constant(r.label))
    assert len(pairs) == 7 and all(len(pair) == 2 for pair in pairs.values())
    assert _block_symbols(augmented_mass_action_jacobian(net)) == {frozenset(pair) for pair in pairs.values()}


def _split_of(supports):
    """_split_level on the nonzero pattern ``supports``, in frontier order."""
    order = _frontier_order(supports)
    n = len(supports)
    rows = [[(1 << j, None) for j in range(n) if supports[i] >> j & 1] for i in order]
    closed = [(1 << n) - 1] * n
    for k in range(n - 2, -1, -1):
        closed[k] = closed[k + 1] & ~supports[order[k + 1]]
    return list(_level_counts(rows, closed)), _split_level(rows, closed)


@pytest.mark.parametrize("name", [*sorted(NETWORK_FIXTURES), "ring-11", "ring-13"])
def test_level_counts_are_the_dp_levels(name):
    net = ring(int(name[5:])) if name.startswith("ring-") else fixture_network(name)
    supports = _supports(augmented_mass_action_jacobian(net))
    assert _split_of(supports)[0] == dp_level_masks(supports, _frontier_order(supports))


def test_split_level_takes_the_narrow_level_nearest_the_middle():
    # Ring n alternates 10 and 24 minors in its middle levels: the split
    # takes the narrow level nearest n / 2.
    for n, h in [(7, 4), (9, 4), (11, 6), (13, 6), (15, 8), (17, 8), (19, 10)]:
        counts, split = _split_of(_supports(augmented_mass_action_jacobian(ring(n))))
        assert split == h and counts[h - 1] == 10, n
    # No narrowing: ring 5 ([3, 6, 10, 5, 1]) and a dense matrix rise and
    # then fall; a lower-triangular matrix holds one minor per level.
    assert _split_of(_supports(augmented_mass_action_jacobian(ring(5)))) == ([3, 6, 10, 5, 1], 5)
    assert _split_of([0b111111] * 6) == ([6, 15, 20, 15, 6, 1], 6)
    assert _split_of([(2 << i) - 1 for i in range(6)]) == ([1] * 6, 6)
    # Two and three rows never split: each half keeps two rows.
    assert _split_of([0b11, 0b11])[1] == 2 and _split_of([0b111] * 3)[1] == 3


def test_frontier_order_breaks_ties_by_nonzeros_then_index():
    # Fewest new columns first: row 2, then rows 0 and 1 each add two.
    # Row 1 has fewer nonzeros, so it goes before row 0.
    assert _frontier_order([0b0111, 0b0011, 0b0100]) == [2, 1, 0]
    # Rows 0 and 3 tie on both counts, so the lower index goes first.
    assert _frontier_order([0b0011, 0b1000, 0b1100, 0b0011]) == [1, 2, 0, 3]


# Ring 13/15/17 under the fewest-nonzeros order held 553/1451/3802 masks in
# one level; the frontier order holds 24 at each n.
@pytest.mark.parametrize("n, bound", [(13, 150), (15, 200), (17, 250)])
def test_frontier_order_bounds_dp_levels_on_ring_family(n, bound):
    supports = _supports(augmented_mass_action_jacobian(ring(n)))
    assert max(dp_level_masks(supports, _fewest_nonzeros_order(supports))) > bound
    assert max(dp_level_masks(supports, _frontier_order(supports))) <= bound


def _power(x, e):
    return Polynomial.term(1, ((x, e),))


@pytest.mark.parametrize("second_row_x, width", [(3, 3), (4, 4)])
def test_exponent_field_holds_its_bound_without_carry(second_row_x, width):
    # x's bound is 4 + second_row_x: 7 = 2^3 - 1 fills a 3-bit field, 8 = 2^3
    # needs 4 bits.  y sits in the next field, where a carry out of x^7 or
    # x^8 would land.
    M = [
        [_power(X, 4) + PV(Y), PV(X) * PV(Y)],
        [_power(X, second_row_x) * PV(Y), _power(X, second_row_x) + PV(Y)],
    ]
    assert [(x, ones.bit_length()) for x, _, ones in _exponent_fields(M)] == [(X, width), (Y, 2)]
    det = determinant_expand(M)
    assert det.terms == _reference_expand(M).terms
    assert det == M[0][0] * M[1][1] - M[0][1] * M[1][0]
    assert det.terms[((X, 4 + second_row_x),)] == 1


def test_exponent_fields_widen_for_huge_exponents():
    big = 2**40
    assert determinant_expand([[_power(X, big)]]) == _power(X, big)
    M = [[_power(X, big), PV(Y)], [PV(Y), _power(X, big) * PV(Y)]]
    det = determinant_expand(M)
    assert det.terms == _reference_expand(M).terms
    assert det == _power(X, 2 * big) * PV(Y) - PV(Y) * PV(Y)


def test_packed_decode_and_single_quotient_match_tuple_monomials():
    # Every monomial under the fields of x^3 y^2 z (widths 2, 2 and 1 bits):
    # decode inverts encode, and single_quotient agrees with the tuple
    # divisibility test on every pair, including the field borrows of
    # x^1 / x^2 and y^0 / y^1.
    packed = (PV(X) ** 3 * PV(Y) ** 2 * PV(Z)).packed
    monomials = [tuple((v, e) for v, e in zip((X, Y, Z), exps) if e)
                 for exps in product(range(4), range(3), range(2))]
    for a in monomials:
        assert packed.decode(packed.encode(a)) == a
        for p in monomials:
            quotient = mono_div(a, p) if mono_divides(p, a) else ()
            expected = packed.encode(quotient) if len(quotient) == 1 else 0
            assert packed.single_quotient(packed.encode(a), packed.encode(p)) == expected, (a, p)


def _int_det(rows):
    """Exact determinant of a small integer matrix (Bareiss elimination)."""
    a = [list(row) for row in rows]
    k = len(a)
    sign, prev = 1, 1
    for i in range(k - 1):
        if not a[i][i]:
            swap = next((r for r in range(i + 1, k) if a[r][i]), None)
            if swap is None:
                return 0
            a[i], a[swap] = a[swap], a[i]
            sign = -sign
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return sign * a[-1][-1] if k else 1


def _cauchy_binet(net, outflow):
    """det(N diag(k c^Y) Y diag(1/c) - diag(outflow)) summed term by term.

    Expanding along the outflow diagonal and then by Cauchy-Binet gives
    one monomial per species subset S and reaction subset R, |R| = |S|:
    (-1)^(n-|S|) det N[S,R] det Y[R,S] prod_{r in R} k_r c^{y_r} / prod_{s in S} c_s,
    times prod_{j not in S} k[j->0] under symbolic outflow.
    """
    n = net.n
    conc = [concentration(i, net.names[i]) for i in range(n)]
    N = [r.reaction_vector(n) for r in net.reactions]  # N[r][s]
    Y = [dict(r.source.coeffs) for r in net.reactions]  # Y[r][s]
    terms = {}
    for size in range(n + 1):
        for S in combinations(range(n), size):
            live = [r for r in range(len(N)) if any(N[r][s] for s in S) and any(s in Y[r] for s in S)]
            for R in combinations(live, size):
                coeff = _int_det([[N[r][s] for r in R] for s in S])
                if coeff:
                    coeff *= _int_det([[Y[r].get(s, 0) for s in S] for r in R])
                if not coeff:
                    continue
                exps = {}
                for r in R:
                    exps[rate_constant(net.reactions[r].label)] = 1
                    for s, e in Y[r].items():
                        exps[conc[s]] = exps.get(conc[s], 0) + e
                for s in S:
                    exps[conc[s]] -= 1
                if outflow == SYMBOLIC_OUTFLOW:
                    for j in set(range(n)) - set(S):
                        exps[outflow_constant(net.names[j])] = 1
                mono = tuple(sorted((x, e) for x, e in exps.items() if e))
                terms[mono] = terms.get(mono, 0) + (-1) ** (n - size) * coeff
    return {m: c for m, c in terms.items() if c}


# Every network fixture is mass-action; table1-i, ii, iii are the rings n=5, 7, 9.
# Ring 11 is the largest ring this oracle expands in about a second.
@pytest.mark.parametrize("name", [*sorted(NETWORK_FIXTURES), "ring-11"])
def test_determinant_matches_cauchy_binet(name):
    net = ring(11) if name == "ring-11" else fixture_network(name)
    for outflow in BOTH_OUTFLOWS:
        J = augmented_mass_action_jacobian(net, outflow=outflow)
        assert determinant_expand(J).terms == _cauchy_binet(net, outflow), outflow
