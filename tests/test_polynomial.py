import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crncount.polynomial import (
    DeterminantSizeError,
    Polynomial,
    concentration,
    determinant_expand,
    differentiate,
    evaluate,
    kinetic_partial,
    mono_sign,
    rate_constant,
    substitute,
)

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
            sym = evaluate(determinant_expand(M), values)
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
    assert mono_sign(((neg, 1), (pos, 1))) == -1
    assert mono_sign(((neg, 2),)) == 1
    assert mono_sign(((unk, 1), (pos, 1))) == 0


def test_rendering_format():
    k = rate_constant("C->2A")
    b = concentration(1, "B")
    p = -1 * PV(k) * PV(b) + PV(b) * PV(b) * 2
    assert str(p) == "-1*c[B]*k[C->2A] + 2*c[B]^2"
    assert str(Polynomial.zero()) == "0"


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
