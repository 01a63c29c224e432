import copy
from fractions import Fraction

import numpy as np
import pytest

from crncount import numeric
from crncount.conservation import conserved_mass_vector
from crncount.dsl import parse_network
from crncount.fixtures import NETWORK_FIXTURES, fixture_network, mapk_cube, thron_box, thron_cascade, unit_cube
from crncount.jacobian import augmented_mass_action_jacobian, outflow_constant
from crncount.network import FlowAugmentation, NetworkError
from crncount.numeric import (
    BOX_ZERO_TOL,
    CLOSURE_TOL,
    COUNT_TOL,
    LAMBDA_GRID,
    NEWTON_MAX_ITER,
    BoxDomain,
    MassActionField,
    MassDomain,
    NumericSystem,
    PathTrackingError,
    boundary_audit,
    box_audit,
    count_equilibria,
    default_domain,
    flow_system,
    make_domain,
    match_endpoint,
    newton_solve,
    numeric_system_from_network,
    search_multistationarity,
    track_homotopy,
)
from crncount.numeric import _newton, _orthant_step
from crncount.polynomial import concentration, rate_constant

from numeric_reference import (
    reference_contains,
    reference_correct,
    reference_merge_roots,
    reference_step_fraction,
    reference_track_homotopy,
)

NET_61 = "A+B -> P\nB+C -> Q\nC -> 2A\n"


def _system_61(k3=0.5, k1=1.0, k2=1.0, inflow=1.0):
    net = fixture_network("example-6.1")
    flows = FlowAugmentation.uniform(net.n, inflow=inflow)
    sys = numeric_system_from_network(net, {"A+B->P": k1, "B+C->Q": k2, "C->2A": k3}, flows)
    m = conserved_mass_vector(net)
    return net, sys, default_domain(m, flows), m


def _flow_only(inflow=(1.0, 2.0, 3.0), outflow=(1.0, 0.5, 2.0)):
    return flow_system(FlowAugmentation(inflow, outflow))


def _vec(c, *entries):
    """The (..., n) value at the points c (shape (..., n)) of the NumericSystem
    evaluator contract, from scalars or arrays over c's leading axes."""
    return np.stack([np.broadcast_to(e, c.shape[:-1]) for e in entries], axis=-1)


def _mat(c, *rows):
    """The (..., n, n) Jacobian value at the points c, from rows of entries."""
    return np.stack([_vec(c, *row) for row in rows], axis=-2)


def _finite_difference_jacobian(f, c, scale=1e-6):
    """Central-difference Jacobian with step scale*(1+|c_i|) per coordinate."""
    J = np.zeros((len(c), len(c)))
    for i in range(len(c)):
        h = scale * (1.0 + abs(c[i]))
        step = np.zeros(len(c))
        step[i] = h
        J[:, i] = (f(c + step) - f(c - step)) / (2 * h)
    return J


# --- domains ---------------------------------------------------------------


def test_make_domain_simple():
    flows = FlowAugmentation.uniform(2)
    dom = make_domain([1.0, 1.0], flows, 3.0)
    assert dom.contains(np.array([1.0, 1.0]))
    assert not dom.contains(np.array([2.0, 1.5]))  # sum = 3.5 >= 3
    assert not dom.contains(np.array([0.0, 1.0]))  # boundary
    assert dom.contains(np.array([0.0, 1.0]), closed=True)


def test_make_domain_rejects_small_bound():
    flows = FlowAugmentation.uniform(2)
    with pytest.raises(ValueError, match="M > m . c_in"):
        make_domain([1.0, 1.0], flows, 2.0)  # M == m.c_in exactly
    with pytest.raises(ValueError, match="= 2.0"):
        make_domain([1.0, 1.0], flows, 1.0)


def test_example_61_default_domain_bound():
    net = fixture_network("example-6.1")
    m = conserved_mass_vector(net)
    flows = FlowAugmentation.uniform(net.n)
    # m . c_in = 1+1+2+2+3 = 9, so M = 10 is already valid
    make_domain(m, flows, 10.0)
    assert default_domain(m, flows).bound == pytest.approx(90.0)


def test_mass_domain_samples_inside():
    dom = MassDomain([1.0, 2.0, 1.0], [1.0, 1.0, 2.0], 5.0)
    pts = dom.sample_interior(200, seed=1)
    assert pts.shape == (200, 3)
    assert all(dom.contains(p) for p in pts)
    outer = dom.sample_outer(50, seed=2)
    assert np.allclose(outer @ dom.weights, 5.0)
    side = dom.sample_side(1, 50, seed=3)
    assert np.all(side[:, 1] == 0)
    assert np.all(side @ dom.weights < 5.0)


def test_box_domain():
    box = BoxDomain([0.0, 0.0], [1.0, 2.0])
    pts = box.sample_interior(100, seed=0)
    assert all(box.contains(p) for p in pts)
    face = box.sample_face(0, upper=True, count=10, seed=1)
    assert np.all(face[:, 0] == 1.0)


# --- newton ----------------------------------------------------------------


def test_newton_linear_system_one_step():
    sys = _flow_only()
    res = newton_solve(sys, [5.0, 5.0, 5.0])
    assert res.converged and res.iterations <= 2
    assert np.allclose(res.point, [1.0, 4.0, 1.5])


def test_newton_thron_closed_form():
    sys = thron_cascade([1.0] * 6, 0.5)
    res = newton_solve(sys, [0.9, 0.9, 0.9], tol=1e-12)
    assert res.converged
    assert np.allclose(res.point, [1 / 3, 1 / 3, 0.5], atol=1e-9)


def test_newton_singular_jacobian_reported():
    # rootless parabola whose Jacobian vanishes at the start point
    sys = NumericSystem(1, f=lambda c: _vec(c, (c[..., 0] - 1.0) ** 2 + 1.0), jac=lambda c: _mat(c, [2 * (c[..., 0] - 1.0)]))
    res = newton_solve(sys, [1.0])
    assert not res.converged
    assert res.status == "singular-jacobian"


def test_newton_requires_positive_start():
    with pytest.raises(ValueError, match="strictly positive"):
        newton_solve(_flow_only(), [1.0, -1.0, 1.0])


def test_newton_stays_in_orthant():
    # root at 0.01; large start forces damped steps that must not cross 0
    sys = NumericSystem(1, f=lambda c: _vec(c, np.log(c[..., 0] / 0.01)), jac=lambda c: _mat(c, [1 / c[..., 0]]))
    res = newton_solve(sys, [50.0])
    assert res.converged
    assert res.point[0] == pytest.approx(0.01, rel=1e-8)


# --- lockstep Newton ----------------------------------------------------------

# bench/workloads.plant_witness: the first draw of the acceptance box whose
# example-6.1 cubic has three positive roots.
PLANTED_61 = {
    "k": {"A+B->P": 34.92352548238317, "B+C->Q": 535.3181054699224, "C->2A": 268.3785217473073},
    "inflow": {"A": 0.1760964527220542, "B": 23.27267744456192, "P": 1.0, "C": 15.143039485949508, "Q": 1.0},
}
# The benchmark's "slow" mapk-cube rate set, on which most Newton starts crawl.
CUBE_SLOW = [2.92, 0.32, 0.24, 0.44, 0.15, 7.43, 0.54, 0.22, 0.10, 0.13, 0.27, 0.68, 1.6, 9.16]


def _serial_newton(sys, x0, tol):
    """The one-start damped Newton loop that the lockstep kernel replaced,
    kept as its reference: (status, iterations, point or None)."""
    x = np.array(x0, dtype=float)
    fx = sys.f(x)
    r = float(np.linalg.norm(fx))
    if not np.isfinite(r):
        return "non-finite", 0, None
    for it in range(1, NEWTON_MAX_ITER + 1):
        if r <= tol:
            return "converged", it - 1, x
        try:
            step = np.linalg.solve(sys.jac(x), -fx)
        except np.linalg.LinAlgError:
            return "singular-jacobian", it - 1, None
        if not np.all(np.isfinite(step)):
            return "singular-jacobian", it - 1, None
        negative = step < 0
        alpha = min(1.0, 0.95 * float(np.min(x[negative] / -step[negative]))) if np.any(negative) else 1.0
        while alpha > numeric.NEWTON_MIN_STEP:
            f_new = sys.f(x + alpha * step)
            r_new = float(np.linalg.norm(f_new))
            if np.isfinite(r_new) and r_new < r:
                x, fx, r = x + alpha * step, f_new, r_new
                break
            alpha *= 0.5
        else:
            return "no-descent", it, None
        if np.any(np.abs(x) > 1e14):
            return "diverged", it, None
    return ("converged", NEWTON_MAX_ITER, x) if r <= tol else ("max-iterations", NEWTON_MAX_ITER, None)


def _batch_case(name):
    """A system and the domain its 240 lockstep test starts are drawn from."""
    if name == "planted-6.1":
        net = fixture_network("example-6.1")
        flows = FlowAugmentation(tuple(PLANTED_61["inflow"][s] for s in net.names), (1.0,) * net.n)
        return numeric_system_from_network(net, PLANTED_61["k"], flows), default_domain(conserved_mass_vector(net), flows)
    if name == "cube-slow":
        v = CUBE_SLOW
        return mapk_cube(v[0:3], v[3:6], v[6:9], v[9:12], v[12], v[13]), unit_cube()
    net = fixture_network("ctf06-4")
    rng = np.random.default_rng(6)
    flows = FlowAugmentation.uniform(net.n)
    k = {r.label: 10 ** rng.uniform(-1, 1) for r in net.reactions}
    return numeric_system_from_network(net, k, flows), default_domain(conserved_mass_vector(net), flows)


@pytest.mark.parametrize("name", ["planted-6.1", "cube-slow", "ctf06-4"])
def test_lockstep_newton_matches_one_start_runs(name):
    # Every start ends as it does alone: the same status and iteration count
    # from the batch, from newton_solve and from the serial reference loop.
    # Converged points agree to 1e-12 relative; for n >= 7 the stacked
    # evaluators sum in another order and differ in the last bits.
    sys, domain = _batch_case(name)
    X = domain.sample_interior(240, seed=17)
    with np.errstate(over="ignore", invalid="ignore"):
        reference = [_serial_newton(sys, x0, COUNT_TOL) for x0 in X]
    points, residuals, statuses, iterations = _newton(sys, X, COUNT_TOL)
    assert len(set(statuses)) >= 2  # the batch mixes converged and failed starts
    for i, x0 in enumerate(X):
        solo = newton_solve(sys, x0, tol=COUNT_TOL)
        status, its, point = reference[i]
        assert (statuses[i], iterations[i]) == (solo.status, solo.iterations) == (status, its), i
        assert solo.converged == (status == "converged")
        if solo.converged:
            assert residuals[i] <= COUNT_TOL
            np.testing.assert_allclose(points[i], solo.point, rtol=1e-12, atol=0)
            np.testing.assert_allclose(points[i], point, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name, fewest_saved", [("planted-6.1", 0.25), ("cube-slow", 0.0), ("ctf06-4", 0.25)])
def test_newton_step_floor_keeps_every_root(name, fewest_saved, monkeypatch):
    # A start retired at the sqrt(eps) step floor is one that a 1e-13 floor
    # would only have walked further onto a face: the same starts converge,
    # to the same points, and the statuses tally alike, save that a
    # max-iterations start may now end no-descent.  The floor saves at least
    # a quarter of the iterations where most starts fail.
    sys, domain = _batch_case(name)
    X = domain.sample_interior(240, seed=17)
    points, _, statuses, iterations = _newton(sys, X, COUNT_TOL, domain)
    monkeypatch.setattr(numeric, "NEWTON_MIN_STEP", 1e-13)
    old_points, _, old_statuses, old_iterations = _newton(sys, X, COUNT_TOL, domain)
    converged = statuses == "converged"
    assert np.array_equal(converged, old_statuses == "converged") and converged.any()
    np.testing.assert_allclose(points[converged], old_points[converged], rtol=1e-12, atol=0)
    moved = (old_statuses == "max-iterations") & (statuses == "no-descent")
    assert np.array_equal(statuses[~moved], old_statuses[~moved])
    assert iterations.sum() <= (1 - fewest_saved) * old_iterations.sum()


def _never_called(*args):
    raise AssertionError("evaluated outside the system's single evaluation")


def _counting(sys, calls):
    """A copy of sys with its evaluation wrapped to record each call's stack
    length and whether it asked for the terms; f, jac and g refuse to be
    called on their own."""

    def evaluate(c, terms=False):
        calls.append((len(c) if np.ndim(c) == 2 else 1, terms))
        return sys.evaluate(c, terms)

    counted = copy.copy(sys)
    counted.evaluate, counted.f, counted.jac, counted.g = evaluate, _never_called, _never_called, _never_called
    return counted


def test_lockstep_newton_evaluates_once_per_trial():
    # One evaluation of the 240 starts, then one per line-search trial, so
    # the rows evaluated add up to the serial reference's f evaluations; J
    # comes from those evaluations, never from a jac call of its own.
    sys, domain = _batch_case("planted-6.1")
    X = domain.sample_interior(240, seed=17)
    calls, serial_rows = [], []
    points, residuals, statuses, iterations = _newton(_counting(sys, calls), X, COUNT_TOL)
    serial = copy.copy(sys)
    serial.f = lambda c: serial_rows.append(1) or sys.f(c)
    with np.errstate(over="ignore", invalid="ignore"):
        for x0 in X:
            _serial_newton(serial, x0, COUNT_TOL)
    assert calls[0] == (240, False) and not any(terms for _, terms in calls)
    assert sum(rows for rows, _ in calls) == len(serial_rows) > 2 * 240
    reference = _newton(sys, X, COUNT_TOL)
    assert np.array_equal(points, reference[0]) and np.array_equal(residuals, reference[1])
    assert statuses.tolist() == reference[2].tolist() and np.array_equal(iterations, reference[3])


def test_homotopy_evaluates_once_at_zero_and_once_per_corrector_iterate(monkeypatch):
    # A corrector that accepts after i Newton steps has evaluated i + 1
    # iterates; track_homotopy itself evaluates only the start at lambda=0.
    _, sys, dom, _ = _system_61(k3=0.5)  # certified: k[C->2A] <= 1
    calls, corrections = [], []
    correct = numeric._correct

    def recorded(sys_, x0, lam):
        before = len(calls)
        out = correct(sys_, x0, lam)
        corrections.append((out[0], out[2], len(calls) - before))
        return out

    monkeypatch.setattr(numeric, "_correct", recorded)
    path = track_homotopy(_counting(sys, calls), dom)
    assert corrections and all(ok for ok, _, _ in corrections)
    assert [evaluations for _, _, evaluations in corrections] == [iters + 1 for _, iters, _ in corrections]
    assert len(calls) == 1 + sum(evaluations for _, _, evaluations in corrections)
    assert all(terms for _, terms in calls) and path.steps == len(corrections)
    plain = track_homotopy(sys, dom)
    assert (path.endpoint, path.endpoint_residual) == (plain.endpoint, plain.endpoint_residual)


def _dyadic(rng, low, high, size):
    """Rationals j/1024 in [low, high), exact as floats."""
    return [Fraction(int(j), 1024) for j in rng.integers(int(low * 1024), int(high * 1024), size)]


def _exact(poly, values):
    """A polynomial's value in exact Fraction arithmetic."""
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        term = Fraction(coeff)
        for x, e in mono:
            term *= values[x] ** e
        total += term
    return total


def _column_rates(sys, c):
    """The rates as a product of one gathered factor column at a time, the
    padding slots reading a constant 1."""
    padded = np.concatenate([c, np.ones(np.shape(c)[:-1] + (1,))], axis=-1)
    factors = np.where(sys.real_factors, sys.factors, sys.n)
    product = padded[..., factors[:, 0]]
    for column in factors.T[1:]:
        product = product * padded[..., column]
    return sys.k * product


@pytest.mark.parametrize("name", sorted(NETWORK_FIXTURES))
def test_mass_action_rates_match_column_products_bit_for_bit(name):
    # The one-gather product reduces each source's factors in the order of
    # the column loop, so the rates are the same floats, on a stack and on
    # one point.
    net = fixture_network(name)
    rng = np.random.default_rng(sorted(NETWORK_FIXTURES).index(name))
    k = {r.label: 10 ** rng.uniform(-1, 1) for r in net.reactions}
    sys = numeric_system_from_network(net, k, FlowAugmentation.uniform(net.n))
    stack = 10 ** rng.uniform(-3, 3, size=(240, net.n))
    for c in (stack, stack[0]):
        assert np.array_equal(sys.rates(c), _column_rates(sys, c))


@pytest.mark.parametrize("name", sorted(NETWORK_FIXTURES))
def test_mass_action_field_matches_exact_values(name):
    # The compiled field against exact values at rational points: f, g and
    # the term magnitudes from the reactions, J from the symbolic Jacobian
    # with symbolic outflows.
    # network-5.1, table1-vii and table1-viii have 2A and 3A sources.
    net = fixture_network(name)
    rng = np.random.default_rng(sorted(NETWORK_FIXTURES).index(name))
    k = dict(zip((r.label for r in net.reactions), _dyadic(rng, 0.1, 10, len(net.reactions))))
    c_in, outflow = _dyadic(rng, 0.1, 10, net.n), _dyadic(rng, 0.1, 10, net.n)
    sys = numeric_system_from_network(net, {label: float(v) for label, v in k.items()},
                                      FlowAugmentation(tuple(map(float, c_in)), tuple(map(float, outflow))))
    jacobian = augmented_mass_action_jacobian(net, outflow="symbolic")
    points = [_dyadic(rng, 0.05, 4, net.n) for _ in range(6)]
    exact_f, exact_g, exact_magnitudes, exact_J = [], [], [], []
    for c in points:
        g, magnitudes = [Fraction(0)] * net.n, [Fraction(0)] * net.n
        for r in net.reactions:
            rate = k[r.label]
            for i, e in r.source.coeffs:
                rate *= c[i] ** e
            for j, v in enumerate(r.reaction_vector(net.n)):
                g[j] += v * rate
                magnitudes[j] += abs(v) * rate
        exact_f.append([float(c_in[j] - outflow[j] * c[j] + g[j]) for j in range(net.n)])
        exact_g.append([float(v) for v in g])
        exact_magnitudes.append([float(v) for v in magnitudes])
        values = {rate_constant(label): v for label, v in k.items()}
        values.update({concentration(i, s): c[i] for i, s in enumerate(net.names)})
        values.update({outflow_constant(s): outflow[i] for i, s in enumerate(net.names)})
        exact_J.append([[float(_exact(entry, values)) for entry in row] for row in jacobian])
    X = np.array(points, dtype=float)
    F, jac, G, magnitudes = sys.evaluate(X, terms=True)
    np.testing.assert_allclose(F, exact_f, rtol=1e-13, atol=0)
    np.testing.assert_allclose(G, exact_g, rtol=1e-13, atol=0)
    np.testing.assert_allclose(magnitudes, exact_magnitudes, rtol=1e-13, atol=0)
    np.testing.assert_allclose(jac(), exact_J, rtol=1e-13, atol=0)
    np.testing.assert_allclose(jac([1, 4]), np.array(exact_J)[[1, 4]], rtol=1e-13, atol=0)
    for x, f, J in zip(X, exact_f, exact_J):
        F1, jac1 = sys.evaluate(x)
        np.testing.assert_allclose(F1, f, rtol=1e-13, atol=0)
        np.testing.assert_allclose(jac1(), J, rtol=1e-13, atol=0)
        np.testing.assert_allclose(sys.f(x), f, rtol=1e-13, atol=0)
        np.testing.assert_allclose(sys.jac(x), J, rtol=1e-13, atol=0)


def test_lockstep_newton_isolates_a_singular_row():
    # f_0 = (c_0 - 1)^2 - 1/4 has roots 1/2 and 3/2, and its derivative
    # vanishes at c_0 = 1: the middle start's Jacobian is singular, which
    # makes the stacked solve raise for the whole batch.
    sys = NumericSystem(
        2,
        f=lambda c: _vec(c, (c[..., 0] - 1.0) ** 2 - 0.25, c[..., 1] - 2.0),
        jac=lambda c: _mat(c, [2 * (c[..., 0] - 1.0), 0.0], [0.0, 1.0]),
    )
    X = np.array([[2.0, 1.0], [1.0, 3.0], [0.2, 5.0]])
    points, residuals, statuses, iterations = _newton(sys, X, COUNT_TOL)
    assert statuses[1] == "singular-jacobian" and iterations[1] == 0
    assert residuals[1] == pytest.approx(np.hypot(0.25, 1.0))
    for i, root in ((0, [1.5, 2.0]), (2, [0.5, 2.0])):
        solo = newton_solve(sys, X[i], tol=COUNT_TOL)
        assert solo.converged and (statuses[i], iterations[i]) == ("converged", solo.iterations)
        assert np.array_equal(points[i], solo.point)
        np.testing.assert_allclose(points[i], root)


def test_lockstep_newton_rejects_a_pointwise_evaluator():
    # f written for one point, c[0] being its first coordinate, returns the
    # wrong shape on a stack of starts and must not be misread.
    sys = NumericSystem(1, f=lambda c: np.array([(c[0] - 1.0) * (c[0] - 3.0)]), jac=lambda c: np.array([[2 * c[0] - 4.0]]))
    with pytest.raises(ValueError, match=r"maps \(P, n\) = \(30, 1\) to \(1, 1\)"):
        count_equilibria(sys, MassDomain([1.0], [1.0], 10.0), starts=30, seed=0)


def test_orthant_step_is_row_wise_and_ignores_zero_components():
    # A zero or positive step component crosses no plane and divides nothing.
    x = np.array([[1.0, 2.0], [1.0, 1.0], [4.0, 1.0]])
    step = np.array([[0.0, -4.0], [0.0, 0.0], [-2.0, 3.0]])
    assert _orthant_step(x, step).tolist() == [0.475, 1.0, 1.0]
    assert _orthant_step(x[0], step[0]) == 0.475


def _assert_fraction_reaches_nearest_face(domain, x, step, alpha):
    # x + alpha*step stays in the open domain; where the step is cut short,
    # going a little past alpha/0.95 of it leaves the domain, so alpha is
    # 0.95 of the way to the nearest face crossed.
    assert domain.contains(x + alpha[:, None] * step).all()
    short = alpha < 1
    assert short.any() and not domain.contains(x[short] + (alpha[short] / 0.95 * (1 + 1e-9))[:, None] * step[short]).any()


def test_mass_step_fraction_is_row_wise_and_stops_at_every_face():
    # Weights m*outflow = (1, 1): the domain is {c > 0 : c0 + c1 < 4}.
    domain = MassDomain([1.0, 2.0], [1.0, 0.5], 4.0)
    x = np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 0.5], [1.0, 1.0]])
    step = np.array([[0.0, 0.0], [4.0, 0.0], [-4.0, 2.0], [4.0, -1.0]])
    with np.errstate(all="raise"):  # zero components divide nothing
        alpha = domain.step_fraction(x, step)
        # none, the outer plane at 1/2, the side c0 = 0 at 3/4 (the step
        # moves off the plane), the plane at 2/3 before the side at 1
        np.testing.assert_allclose(alpha, [1.0, 0.475, 0.7125, 0.95 * 2 / 3], rtol=1e-15)
        assert [domain.step_fraction(xi, si) for xi, si in zip(x, step)] == alpha.tolist()
    rng = np.random.default_rng(41)
    x = domain.sample_interior(500, seed=3)
    step = rng.normal(size=x.shape) * 10 ** rng.uniform(-2, 2, (500, 1))
    step[::5, 0] = 0.0
    _assert_fraction_reaches_nearest_face(domain, x, step, domain.step_fraction(x, step))


def test_box_step_fraction_is_row_wise_and_stops_at_every_face():
    box = BoxDomain([0.0, 1.0], [2.0, 5.0])
    x = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    step = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, -2.0], [-4.0, 4.0]])
    with np.errstate(all="raise"):  # zero components divide nothing
        alpha = box.step_fraction(x, step)
        # none, the upper face c0 = 2 at 1/2, the lower face c1 = 1 at 1/2,
        # the lower face c0 = 0 at 1/4 before the upper face c1 = 5 at 3/4
        assert alpha.tolist() == [1.0, 0.475, 0.475, 0.2375]
        assert [box.step_fraction(xi, si) for xi, si in zip(x, step)] == alpha.tolist()
    rng = np.random.default_rng(42)
    x = box.sample_interior(500, seed=4)
    step = rng.normal(size=x.shape) * 10 ** rng.uniform(-2, 2, (500, 1))
    step[::5, 1] = 0.0
    _assert_fraction_reaches_nearest_face(box, x, step, box.step_fraction(x, step))


def _face_cases(kind, n, rng):
    """A domain of ``kind`` in R^n (None: the orthant) and a seeded (P, n)
    stack of points and steps.  Some points lie on a face: a coordinate
    plane, a box face, or (to rounding) the outer plane; some steps have
    0.0 and -0.0 components, and some move parallel to the outer plane."""
    if kind == "mass":
        domain = MassDomain(10 ** rng.uniform(-2, 2, n), 10 ** rng.uniform(-1, 1, n), 10 ** rng.uniform(-3, 3))
        x = np.vstack([domain.sample_interior(150, seed=n), domain.sample_outer(30, seed=n)])
    elif kind == "box":
        lo = rng.uniform(-1, 1, n)
        domain = BoxDomain(lo, lo + 10 ** rng.uniform(-2, 2, n))
        x = domain.sample_interior(180, seed=n)
        x[::7, 0], x[3::7, -1] = domain.lo[0], domain.hi[-1]
    else:
        domain = None
        x = 10 ** rng.uniform(-6, 6, (180, n))
    if kind != "box":
        x[::5, n // 2] = 0.0
    step = rng.normal(size=x.shape) * 10 ** rng.uniform(-6, 6, (len(x), 1))
    step[1::6, 0], step[2::6, -1] = 0.0, -0.0
    if n > 1 and kind == "mass":
        step[4::6] = 0.0
        step[4::6, 0], step[4::6, 1] = domain.weights[1], -domain.weights[0]  # along the outer plane
    return domain, x, step


@pytest.mark.parametrize("kind", ["orthant", "mass", "box"])
def test_face_step_fraction_matches_the_per_domain_formulas_bit_for_bit(kind):
    # The one step rule over a domain's faces (A, b) gives the same floats,
    # signed zeros included, as the per-domain formulas it replaced, on a
    # stack and on each of its rows.
    rng = np.random.default_rng(["orthant", "mass", "box"].index(kind))
    bits = lambda a: np.asarray(a, dtype=float).view(np.uint64)
    for n in range(1, 10):
        domain, x, step = _face_cases(kind, n, rng)
        rule = _orthant_step if domain is None else domain.step_fraction
        with np.errstate(over="ignore", under="ignore"):
            alpha = rule(x, step)
            np.testing.assert_array_equal(bits(alpha), bits(reference_step_fraction(domain, x, step)))
            for i in range(0, len(x), 11):
                assert bits(rule(x[i], step[i])) == bits(reference_step_fraction(domain, x[i], step[i]))
        assert np.any(alpha == 0.0) and np.any(alpha == 1.0) and np.any((0 < alpha) & (alpha < 1))


@pytest.mark.parametrize("kind", ["mass", "box"])
def test_face_membership_matches_the_per_domain_tests(kind):
    # The one membership rule over a domain's faces gives the booleans of the
    # per-domain tests it replaced, open and closed, on a stack and on each
    # of its rows: points on a face, +-0.0 coordinates, and points outside
    # by less and by more than the closed slack.
    rng = np.random.default_rng(["mass", "box"].index(kind))
    for n in range(1, 8):
        if kind == "mass":
            domain = MassDomain(10 ** rng.uniform(-2, 2, n), 10 ** rng.uniform(-1, 1, n), 10 ** rng.uniform(-3, 3))
            x = np.vstack([domain.sample_interior(40, seed=n), domain.sample_outer(40, seed=n), domain.sample_side(0, 20, seed=n)])
            slack = CLOSURE_TOL * (1.0 + domain.bound)
            x[1::9] *= 1 + 0.5 * slack / domain.bound  # past the outer plane, within the slack
            x[2::9] *= 1 + 4.0 * slack / domain.bound
        else:
            lo = np.where(np.arange(n) % 2, rng.uniform(0, 1, n), 0.0)
            domain = BoxDomain(lo, lo + 10 ** rng.uniform(-2, 2, n))
            x = domain.sample_interior(100, seed=n)
            slack = CLOSURE_TOL * (1.0 + np.max(domain.hi))
            x[::7, 0], x[3::7, -1] = domain.lo[0], domain.hi[-1]
            x[1::9, -1], x[2::9, 0] = domain.hi[-1] + 0.5 * slack, domain.lo[0] - 4.0 * slack
        x[4::9, -1], x[5::9, -1], x[6::9, 0] = 0.0, -0.0, -0.5 * slack
        for closed in (False, True):
            inside = domain.contains(x, closed)
            np.testing.assert_array_equal(inside, reference_contains(domain, x, closed))
            # A single point's outer-plane product is a dot product, which
            # need not round as the stack's matrix product does.
            assert [domain.contains(row, closed) for row in x] == [reference_contains(domain, row, closed) for row in x]
            assert inside.any() and not inside.all()
        assert (domain.contains(x, closed=True) & ~domain.contains(x)).any()  # the slack counts


@pytest.mark.parametrize("name", ["cube-slow", "planted-6.1"])
def test_newton_in_a_domain_ends_every_start_inside_it(name):
    # Whatever its status, every start of the counting kernel ends strictly
    # inside the counting domain.  On the cube, starts left free wander past
    # c = 1 towards the drive term's pole and end max-iterations.
    sys, domain = _batch_case(name)
    X = domain.sample_interior(240, seed=17)
    points, residuals, statuses, iterations = _newton(sys, X, COUNT_TOL, domain)
    assert domain.contains(points).all()
    if name == "cube-slow":
        assert set(statuses) == {"converged"}
        assert "max-iterations" in _newton(sys, X, COUNT_TOL)[2]
    else:
        assert len(set(statuses)) >= 2  # failed starts end inside too


def test_evaluators_map_stacks_row_by_row():
    # The NumericSystem contract: f maps (..., n) to (..., n) and jac to
    # (..., n, n), each point as if evaluated alone.
    rng = np.random.default_rng(8)
    net = fixture_network("ctf06-4")
    network = numeric_system_from_network(net, {r.label: 10 ** rng.uniform(-1, 1) for r in net.reactions},
                                          FlowAugmentation.uniform(net.n))
    cases = [
        (network, rng.uniform(0.1, 3.0, (6, net.n))),
        (_flow_only(), rng.uniform(0.1, 3.0, (6, 3))),
        (thron_cascade(10 ** rng.uniform(-1, 1, 6), 0.7), rng.uniform(0.1, 250.0, (6, 3))),
        (mapk_cube(*(10 ** rng.uniform(-1, 1, 3) for _ in range(4)), 1.3, 0.8), rng.uniform(0.05, 0.95, (6, 3))),
    ]
    for sys, X in cases:
        evaluators = [sys.f, sys.jac] + ([sys.g, lambda c: sys.f_lambda(c, 0.5)] if sys.g else [])
        for evaluate in evaluators:
            rows = np.array([evaluate(x) for x in X])
            stacked = evaluate(X.reshape(2, 3, sys.n))
            assert stacked.shape == (2, 3) + rows.shape[1:]
            np.testing.assert_allclose(stacked.reshape(rows.shape), rows, rtol=1e-13, atol=1e-13 * np.abs(rows).max())


# --- count_equilibria -------------------------------------------------------


def test_flow_only_count_and_degree():
    sys = _flow_only()
    dom = make_domain([1.0, 1.0, 1.0], FlowAugmentation((1.0, 2.0, 3.0), (1.0, 0.5, 2.0)), 60.0)
    rep = count_equilibria(sys, dom, starts=40, seed=0)
    assert rep.count == 1
    assert np.allclose(rep.equilibria[0].point, [1.0, 4.0, 1.5])
    assert rep.degree_estimate == -1  # (-1)^3


def test_count_example_61_unique():
    _, sys, dom, _ = _system_61(k3=0.5)
    rep = count_equilibria(sys, dom, starts=80, seed=3)
    assert rep.count == 1
    assert rep.degree_estimate == -1
    assert rep.equilibria[0].residual <= 1e-10
    assert dom.contains(np.array(rep.equilibria[0].point))


def test_count_seed_determinism():
    _, sys, dom, _ = _system_61(k3=0.8)
    rep1 = count_equilibria(sys, dom, starts=50, seed=11)
    rep2 = count_equilibria(sys, dom, starts=50, seed=11)
    assert rep1.to_dict() == rep2.to_dict()


def test_count_reports_both_roots_of_a_two_root_system():
    # two-root scalar system: f = (c-1)(c-3) has roots 1, 3 inside the domain
    sys = NumericSystem(
        1,
        f=lambda c: _vec(c, (c[..., 0] - 1.0) * (c[..., 0] - 3.0)),
        jac=lambda c: _mat(c, [2 * c[..., 0] - 4.0]),
    )
    dom = MassDomain([1.0], [1.0], 10.0)
    rep = count_equilibria(sys, dom, starts=30, seed=0)
    assert rep.count == 2
    assert rep.degree_estimate == 0
    assert rep.newton_statuses == {"converged": 30}


@pytest.mark.parametrize("name", ["planted-6.1", "mapk-thron"])
def test_count_merges_roots_as_the_reference_loop(name):
    # The row walk with cached radii keeps the representatives, points and
    # residuals of the per-root loop, on the planted three-root witness and
    # on a cascade where nearly every start converges.
    if name == "mapk-thron":
        sys, domain = thron_cascade([1.0] * 6, 1.0), thron_box()
    else:
        sys, domain = _batch_case(name)
    rep = count_equilibria(sys, domain, starts=240, seed=17)
    points, residuals, statuses, _ = _newton(sys, domain.sample_interior(240, seed=17), COUNT_TOL, domain)
    converged = statuses == "converged"
    inside = domain.contains(points[converged])
    roots = points[converged][inside], residuals[converged][inside]
    reference = reference_merge_roots(*roots)
    assert len(reference) == (3 if name == "planted-6.1" else 1) < len(roots[0])
    assert [(e.point, e.residual) for e in rep.equilibria] == [(tuple(p.tolist()), r) for p, r in reference]


def test_count_requires_positive_starts():
    with pytest.raises(ValueError):
        count_equilibria(_flow_only(), MassDomain([1.0] * 3, [1.0] * 3, 50.0), starts=0, seed=0)


def test_jacobian_consistency_fixtures():
    rng = np.random.default_rng(9)
    systems = [
        thron_cascade(10 ** rng.uniform(-1, 1, 6), 0.7),
        mapk_cube(*(10 ** rng.uniform(-1, 1, 3) for _ in range(4)), 1.3, 0.8),
        _system_61(k3=0.4)[1],
    ]
    boxes = [thron_box(0.4), unit_cube(), None]
    for sys, box in zip(systems, boxes):
        for _ in range(100):
            if box is not None:
                c = box.lo + rng.uniform(0.05, 0.95, sys.n) * (box.hi - box.lo)
            else:
                c = rng.uniform(0.1, 3.0, sys.n)
            J = sys.jac(c)
            J_fd = _finite_difference_jacobian(sys.f, c)
            assert np.allclose(J, J_fd, rtol=1e-6, atol=1e-6 * (1 + np.abs(J).max()))


def test_positive_invariance_at_sides():
    # g_j(c) >= 0 whenever c_j = 0 for mass-action kinetics
    net, sys, dom, _ = _system_61(k3=2.0, k1=3.0, k2=0.5)
    rng = np.random.default_rng(4)
    for _ in range(200):
        c = rng.uniform(0, 2.0, net.n)
        j = rng.integers(net.n)
        c[j] = 0.0
        assert sys.g(c)[j] >= 0


def test_general_kinetics_rejected():
    net = parse_network("A -> B ; kinetics=general\n")
    with pytest.raises(NetworkError, match="reaction A->B does not have mass-action kinetics"):
        numeric_system_from_network(net, {}, FlowAugmentation.uniform(2))


def test_missing_rate_constant_rejected():
    net = fixture_network("example-6.1")
    with pytest.raises(NetworkError, match="missing parameter binding"):
        numeric_system_from_network(net, {"A+B->P": 1.0}, FlowAugmentation.uniform(5))


def test_one_signed_census_implies_unique_equilibrium():
    # table1-iv censuses with no anomalous terms, so every parameter draw
    # must yield exactly one equilibrium.
    from crncount.jacobian import augmented_mass_action_jacobian, sign_census
    from crncount.polynomial import determinant_expand

    net = fixture_network("table1-iv")
    det = determinant_expand(augmented_mass_action_jacobian(net))
    assert sign_census(det, net.n).certified_one_signed
    m = conserved_mass_vector(net)
    flows = FlowAugmentation.uniform(net.n)
    dom = default_domain(m, flows)
    rng = np.random.default_rng(21)
    for draw in range(20):
        k = {r.label: 10 ** rng.uniform(-1, 1) for r in net.reactions}
        sys = numeric_system_from_network(net, k, flows)
        rep = count_equilibria(sys, dom, starts=60, seed=draw)
        assert rep.count == 1
        assert rep.degree_estimate == -1


# --- homotopy ---------------------------------------------------------------


def test_homotopy_constant_path_for_zero_g():
    sys = _flow_only()
    dom = make_domain([1.0] * 3, FlowAugmentation((1.0, 2.0, 3.0), (1.0, 0.5, 2.0)), 60.0)
    path = track_homotopy(sys, dom)
    expected = np.array([1.0, 4.0, 1.5])
    assert np.allclose(path.endpoint, expected)
    for lam, point, _ in path.samples:
        assert np.allclose(point, expected, atol=1e-8)
    lams = [s[0] for s in path.samples]
    assert lams == sorted(lams) and lams[0] == 0.0 and lams[-1] == pytest.approx(1.0)
    assert path.steps == 1  # the whole path at once


def test_homotopy_matches_multistart_on_example_61():
    _, sys, dom, _ = _system_61(k3=0.5)
    rep = count_equilibria(sys, dom, starts=80, seed=1)
    path = track_homotopy(sys, dom)
    assert rep.count == 1
    assert path.endpoint_residual <= 1e-9
    assert match_endpoint(rep, path.endpoint) == 0
    # endpoint is an equilibrium of the full system and det has sign (-1)^5
    sign, _ = np.linalg.slogdet(sys.jac(np.array(path.endpoint)))
    assert sign == -1


@pytest.mark.parametrize("draw", [0, 1])
@pytest.mark.parametrize("name", NETWORK_FIXTURES)
def test_adaptive_homotopy_matches_fixed_ramp_reference(name, draw):
    # Both trackers reach lambda = 1 or both stall; reached endpoints agree
    # to 1e-9 relative in every coordinate, and the adaptive rule takes no
    # more steps than the fixed ramp.
    net = fixture_network(name)
    rng = np.random.default_rng(draw)
    k = {r.label: 10 ** rng.uniform(-1, 1) for r in net.reactions}
    flows = FlowAugmentation.uniform(net.n)
    sys = numeric_system_from_network(net, k, flows)
    dom = default_domain(conserved_mass_vector(net), flows)
    paths = []
    for tracker in (track_homotopy, reference_track_homotopy):
        try:
            paths.append(tracker(sys, dom))
        except PathTrackingError:
            paths.append(None)
    path, reference = paths
    assert (path is None) == (reference is None)
    if path is not None:
        np.testing.assert_allclose(path.endpoint, reference.endpoint, rtol=1e-9, atol=0)
        assert path.steps <= reference.steps


def test_corrector_gives_up_when_newton_steps_grow():
    # f_lambda = 1 - c + lambda*g with f_1 = cbrt(c - 100): from c = 101 each
    # Newton step on f_1 is -2 times the one before it.
    sys = NumericSystem(
        1,
        f=lambda c: np.cbrt(c - 100.0),
        jac=lambda c: _mat(c, [np.abs(c[..., 0] - 100.0) ** (-2.0 / 3.0) / 3.0]),
        g=lambda c: np.cbrt(c - 100.0) - 1.0 + c,
        c_in=np.array([1.0]),
        outflow=np.array([1.0]),
    )
    calls = []
    counted = copy.copy(sys)
    counted.evaluate = lambda c, terms=False: calls.append(1) or sys.evaluate(c, terms)
    ok, _, _, at = numeric._correct(counted, np.array([101.0]), 1.0)
    assert not ok and at is None and 2 <= len(calls) <= 3
    calls.clear()
    assert not reference_correct(counted, np.array([101.0]), 1.0)[0]
    assert len(calls) == numeric.CORRECTOR_MAX_ITER + 1  # the corrector without the test runs to its cap


def test_homotopy_aborts_when_path_leaves_domain():
    n = 1
    sys = NumericSystem(
        n,
        f=lambda c: _vec(c, 1.0 - c[..., 0] + 5.0),
        jac=lambda c: _mat(c, [-1.0]),
        g=lambda c: _vec(c, 5.0),
        c_in=np.array([1.0]),
        outflow=np.array([1.0]),
    )
    dom = MassDomain([1.0], [1.0], 3.0)
    with pytest.raises(PathTrackingError, match="left the domain"):
        track_homotopy(sys, dom)


def test_homotopy_stalls_at_fold():
    # f_lambda = 1 - c + lambda c^2 loses its real root past lambda = 1/4
    sys = NumericSystem(
        1,
        f=lambda c: _vec(c, 1.0 - c[..., 0] + c[..., 0] ** 2),
        jac=lambda c: _mat(c, [-1.0 + 2 * c[..., 0]]),
        g=lambda c: _vec(c, c[..., 0] ** 2),
        c_in=np.array([1.0]),
        outflow=np.array([1.0]),
    )
    dom = MassDomain([1.0], [1.0], 1000.0)
    with pytest.raises(PathTrackingError, match="stalled") as err:
        track_homotopy(sys, dom)
    assert err.value.last_lambda == pytest.approx(0.25, abs=0.02)


def test_homotopy_requires_flow_structure():
    sys = thron_cascade([1.0] * 6, 1.0)
    with pytest.raises(ValueError, match="lacks inflow/outflow structure"):
        track_homotopy(sys, thron_box(0.25))


# --- audits ------------------------------------------------------------------


def test_boundary_audit_flow_only():
    sys = _flow_only()
    dom = make_domain([1.0] * 3, FlowAugmentation((1.0, 2.0, 3.0), (1.0, 0.5, 2.0)), 60.0)
    audit = boundary_audit(sys, dom, samples=400, seed=2)
    assert audit.clean


def test_boundary_audit_example_61_large_sample():
    _, sys, dom, _ = _system_61(k3=1.7, k1=2.2, k2=0.3)
    audit = boundary_audit(sys, dom, samples=10000, seed=7)
    assert audit.clean
    assert audit.samples >= 10000 // 2


def test_boundary_audit_detects_planted_violation():
    # g pushes species 0 inward-negative at the side c_0 = 0: f_0 < 0 there
    n = 2
    sys = NumericSystem(
        n,
        f=lambda c: _vec(c, 1.0 - c[..., 0] - 3.0, 1.0 - c[..., 1]),
        jac=lambda c: _mat(c, [-1.0, 0.0], [0.0, -1.0]),
        g=lambda c: _vec(c, -3.0, 0.0),
        c_in=np.array([1.0, 1.0]),
        outflow=np.array([1.0, 1.0]),
    )
    dom = make_domain([1.0, 1.0], FlowAugmentation.uniform(2), 21.0)
    audit = boundary_audit(sys, dom, samples=200, seed=0)
    assert audit.violations
    assert any(v["face"] == "c[0]=0" for v in audit.violations)


def test_boundary_audit_lists_violations_point_by_point():
    # The pointwise loop that the array audit replaced is the reference:
    # faces in turn, each sampled point at every lambda, and a margin that
    # is not > 0 a violation.  Side c_0 = 0 fails from lambda = 1/3 on.
    flows = FlowAugmentation.uniform(2)
    sys = NumericSystem(
        2,
        f=lambda c: _vec(c, 1.0 - c[..., 0] - 3.0, 1.0 - c[..., 1]),
        jac=lambda c: _mat(c, [-1.0, 0.0], [0.0, -1.0]),
        g=lambda c: _vec(c, -3.0, 0.0),
        c_in=np.array([1.0, 1.0]),
        outflow=np.array([1.0, 1.0]),
    )
    dom = make_domain([1.0, 1.0], flows, 21.0)
    faces = [(f"c[{j}]=0", dom.sample_side(j, 50, seed=j + 1), lambda fc, j=j: fc[j]) for j in range(2)]
    faces.append(("outer", dom.sample_outer(100, seed=0), lambda fc: -(dom.m @ fc)))
    reference = []
    for face, points, margin in faces:
        for c in points:
            for lam in LAMBDA_GRID:
                value = float(margin(sys.f_lambda(c, lam)))
                if not value > 0:
                    reference.append({"face": face, "lambda": lam, "c": list(c), "margin": value})
    assert len(reference) == 150 and {v["lambda"] for v in reference} == {0.5, 0.75, 1.0}
    assert boundary_audit(sys, dom, samples=200, seed=0).violations == reference


def test_boundary_audit_reaches_the_one_f_lambda(monkeypatch):
    # Network and flow-only systems are NumericSystems that inherit
    # f_lambda, so a counter patched onto the class sees both audits.
    calls = []
    f_lambda = NumericSystem.f_lambda

    def counted(sys_, c, lam):
        calls.append(sys_.provenance)
        return f_lambda(sys_, c, lam)

    monkeypatch.setattr(NumericSystem, "f_lambda", counted)
    _, network, dom, _ = _system_61(k3=0.5)
    assert boundary_audit(network, dom, samples=100, seed=0).clean
    flows = FlowAugmentation((1.0, 2.0, 3.0), (1.0, 0.5, 2.0))
    assert boundary_audit(flow_system(flows), make_domain([1.0] * 3, flows, 60.0), samples=100, seed=0).clean
    # One call per face (n sides and the outer face) and lambda.
    assert calls == ["network"] * len(LAMBDA_GRID) * 6 + ["flow-only"] * len(LAMBDA_GRID) * 4


def test_flow_system_is_the_field_without_reactions():
    flows = FlowAugmentation((1.0, 2.0, 3.0), (1.0, 0.5, 2.0))
    sys = flow_system(flows)
    assert isinstance(sys, MassActionField) and sys.provenance == "flow-only"
    assert (sys.n, sys.k.shape, sys.V.shape) == (3, (0,), (0, 3))
    c_in, outflow = np.array(flows.inflow), np.array(flows.outflow)
    stack = np.random.default_rng(5).uniform(0.1, 5.0, (2, 3, 3))
    for c in (stack, stack[1, 2]):
        f, jacobian, g, magnitudes = sys.evaluate(c, terms=True)
        assert np.array_equal(f, c_in - outflow * c) and np.array_equal(sys.f(c), f)
        J = np.broadcast_to(-np.diag(outflow), c.shape + (3,))
        assert np.array_equal(jacobian(), J) and np.array_equal(sys.jac(c), J)
        assert g.shape == magnitudes.shape == c.shape
        assert not g.any() and not magnitudes.any() and not sys.g(c).any()


def test_box_audit_reports_planted_violations():
    # f = (1 - c_1) * (c_0 - 1/2, 1) on the unit square: f_0 < 0 on the
    # lower face c_0 = 0 and f = 0 on the whole upper face c_1 = 1; the
    # faces c_1 = 0 and c_0 = 1 are clean.
    sys = NumericSystem(
        2,
        f=lambda c: _vec(c, (1.0 - c[..., 1]) * (c[..., 0] - 0.5), 1.0 - c[..., 1]),
        jac=lambda c: _mat(c, [1.0 - c[..., 1], 0.5 - c[..., 0]], [0.0, -1.0]),
    )
    audit = box_audit(sys, BoxDomain([0.0, 0.0], [1.0, 1.0]), samples=40, seed=0)
    assert not audit.clean and audit.samples == 40
    assert all(set(v) == {"face", "lambda", "c", "margin"} and v["lambda"] == 1.0 for v in audit.violations)
    lower = [v for v in audit.violations if v["face"] == "c[0]=lo"]
    upper = [v for v in audit.violations if v["face"] == "c[1]=hi"]
    assert len(lower) == len(upper) == 10 and len(audit.violations) == 20
    for v in lower:
        assert v["c"][0] == 0.0 and v["margin"] == pytest.approx(-0.5 * (1.0 - v["c"][1])) and v["margin"] < 0
    for v in upper:
        assert v["c"][1] == 1.0 and v["margin"] == -BOX_ZERO_TOL


def test_box_audit_thron_case_analysis():
    delta = 0.25
    rng = np.random.default_rng(3)
    p = rng.uniform(delta, 1 / delta, 6)
    c0 = rng.uniform(delta, 1.0)
    sys = thron_cascade(p, c0)
    box = thron_box(delta)
    audit = box_audit(sys, box, samples=600, seed=5)
    assert audit.clean
    # the three outer-face exclusions, checked pointwise:
    pts = box.sample_face(0, upper=True, count=50, seed=8)
    assert all(sys.f(c)[0] < 0 for c in pts)  # c1 at the wall: decay wins
    pts = box.sample_face(1, upper=True, count=50, seed=9)
    assert all(sys.f(c)[2] > 0 for c in pts)  # c2 at the wall drives c3 up
    pts = box.sample_face(2, upper=True, count=50, seed=10)
    assert all(np.sum(sys.f(c)) < 0 for c in pts)  # total mass decreases


def test_box_audit_unit_cube_faces():
    rng = np.random.default_rng(12)
    sys = mapk_cube(*(10 ** rng.uniform(-1, 1, 3) for _ in range(4)), 2.0, 3.0)
    audit = box_audit(sys, unit_cube(), samples=600, seed=4)
    assert audit.clean
    # activation pushes inward on every lower face, decay on every upper face
    for j in range(3):
        for c in unit_cube().sample_face(j, upper=False, count=30, seed=20 + j):
            assert sys.f(c)[j] > 0
        for c in unit_cube().sample_face(j, upper=True, count=30, seed=30 + j):
            assert sys.f(c)[j] < 0


def _determinant_signs(sys, domain, samples, seed):
    """Histogram of sign(det jac) over sampled interior points."""
    signs = [int(np.linalg.slogdet(sys.jac(c))[0]) for c in domain.sample_interior(samples, seed)]
    return {s: signs.count(s) for s in set(signs)}


def test_determinant_sign_sampling():
    # within the certified region the sampled determinant has one sign
    _, sys, dom, _ = _system_61(k3=0.5)
    counts = _determinant_signs(sys, dom, samples=500, seed=1)
    assert set(counts) == {-1}
    # at multistationary parameters both signs appear inside the domain
    net = fixture_network("example-6.1")
    k = {"A+B->P": 39.804, "B+C->Q": 562.616, "C->2A": 336.416}
    inflow = {"A": 0.164, "B": 16.612, "C": 10.891, "P": 1.0, "Q": 1.0}
    flows = FlowAugmentation(tuple(inflow[s] for s in net.names), (1.0,) * 5)
    sys2 = numeric_system_from_network(net, k, flows)
    dom2 = default_domain(conserved_mass_vector(net), flows)
    counts2 = _determinant_signs(sys2, dom2, samples=2000, seed=2)
    assert counts2.get(1, 0) > 0 and counts2.get(-1, 0) > 0


# --- multistationarity search ------------------------------------------------


def test_search_skipped_for_one_signed_network():
    net = fixture_network("table1-iv")
    flows = FlowAugmentation.uniform(net.n)
    calls = []

    def sampler(rng):
        calls.append(1)
        return {"k": {}}

    assert search_multistationarity(net, flows, sampler, budget=5, seed=0) is None
    assert calls == []  # census certified, sampler never invoked


def test_search_finds_validated_witness():
    net = fixture_network("example-6.1")
    flows = FlowAugmentation.uniform(net.n)

    def sampler(rng):
        inflow = {
            "A": 10 ** rng.uniform(-0.9, -0.6),
            "B": 10 ** rng.uniform(1.1, 1.4),
            "C": 10 ** rng.uniform(0.9, 1.2),
            "P": 1.0,
            "Q": 1.0,
        }
        return {
            "k": {
                "A+B->P": 10 ** rng.uniform(1.4, 1.8),
                "B+C->Q": 10 ** rng.uniform(2.5, 2.9),
                "C->2A": 10 ** rng.uniform(2.3, 2.7),
            },
            "inflow": tuple(inflow[s] for s in net.names),
        }

    witness = search_multistationarity(net, flows, sampler, budget=20, seed=5, starts=120)
    assert witness is not None
    assert witness.report.count >= 2
    assert witness.report.count % 2 == 1
    assert witness.report.degree_estimate == -1  # (-1)^5
