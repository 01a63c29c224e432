import dataclasses

import numpy as np
import pytest

from crncount.conservation import conserved_mass_vector
from crncount.dsl import parse_network
from crncount.fixtures import fixture_network, mapk_cube, thron_box, thron_cascade, unit_cube
from crncount.network import FlowAugmentation, GeneralMonotone, NetworkError, ReactionNetwork
from crncount.numeric import (
    BOX_ZERO_TOL,
    BoxDomain,
    MassDomain,
    NumericSystem,
    PathTrackingError,
    UniqueEquilibriumError,
    boundary_audit,
    box_audit,
    count_equilibria,
    default_domain,
    finite_difference_jacobian,
    flow_system,
    make_domain,
    match_endpoint,
    newton_solve,
    numeric_system_from_network,
    search_multistationarity,
    track_homotopy,
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
    assert box.boundary_distance(np.array([0.25, 1.0])) == pytest.approx(0.25)
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
    sys = NumericSystem(1, f=lambda c: np.array([(c[0] - 1.0) ** 2 + 1.0]), jac=lambda c: np.array([[2 * (c[0] - 1.0)]]))
    res = newton_solve(sys, [1.0])
    assert not res.converged
    assert res.status == "singular-jacobian"


def test_newton_requires_positive_start():
    with pytest.raises(ValueError, match="strictly positive"):
        newton_solve(_flow_only(), [1.0, -1.0, 1.0])


def test_newton_stays_in_orthant():
    # root at 0.01; large start forces damped steps that must not cross 0
    sys = NumericSystem(1, f=lambda c: np.array([np.log(c[0] / 0.01)]), jac=lambda c: np.array([[1 / c[0]]]))
    res = newton_solve(sys, [50.0])
    assert res.converged
    assert res.point[0] == pytest.approx(0.01, rel=1e-8)


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


def test_count_expect_unique_violation():
    # two-root scalar system: f = (c-1)(c-3) has roots 1, 3 inside the domain
    sys = NumericSystem(
        1,
        f=lambda c: np.array([(c[0] - 1.0) * (c[0] - 3.0)]),
        jac=lambda c: np.array([[2 * c[0] - 4.0]]),
    )
    dom = MassDomain([1.0], [1.0], 10.0)
    rep = count_equilibria(sys, dom, starts=30, seed=0)
    assert rep.count == 2
    assert rep.degree_estimate == 0
    with pytest.raises(UniqueEquilibriumError):
        count_equilibria(sys, dom, starts=30, seed=0, expect_unique=True)


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
            J_fd = finite_difference_jacobian(sys.f, c)
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


def test_general_kinetics_evaluator_system():
    # single saturating conversion A -> B, rate c_A/(1+c_A)
    net = parse_network("A -> B ; kinetics=general\n")

    def evaluator(c):
        rate = c[0] / (1.0 + c[0])
        partials = np.array([1.0 / (1.0 + c[0]) ** 2, 0.0])
        return rate, partials

    reactions = tuple(
        dataclasses.replace(r, kinetics=GeneralMonotone(r.kinetics.partial_signs, evaluator))
        for r in net.reactions
    )
    net2 = ReactionNetwork(net.species, reactions)
    flows = FlowAugmentation.uniform(2)
    sys = numeric_system_from_network(net2, {}, flows)
    c = np.array([0.5, 0.25])
    assert np.allclose(sys.jac(c), finite_difference_jacobian(sys.f, c), rtol=1e-6)
    rep = count_equilibria(sys, make_domain([1.0, 1.0], flows, 10.0), starts=30, seed=1)
    assert rep.count == 1
    # equilibrium: c_B = 1 + rate, c_A solves 1 - c_A - c_A/(1+c_A) = 0
    cA, cB = rep.equilibria[0].point
    assert 1.0 - cA - cA / (1 + cA) == pytest.approx(0.0, abs=1e-10)
    assert cB == pytest.approx(1.0 + cA / (1 + cA), abs=1e-10)


def test_general_kinetics_requires_evaluator():
    net = parse_network("A -> B ; kinetics=general\n")
    with pytest.raises(NetworkError, match="numeric evaluator"):
        numeric_system_from_network(net, {}, FlowAugmentation.uniform(2))


def test_missing_rate_constant_rejected():
    net = fixture_network("example-6.1")
    with pytest.raises(NetworkError, match="missing parameter binding"):
        numeric_system_from_network(net, {"A+B->P": 1.0}, FlowAugmentation.uniform(5))


def test_one_signed_census_implies_unique_equilibrium():
    # table1-iv censuses with no anomalous terms, so every parameter draw
    # must yield exactly one equilibrium; expect_unique enforces it.
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
        rep = count_equilibria(sys, dom, starts=60, seed=draw, expect_unique=True)
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


def test_homotopy_matches_multistart_on_example_61():
    _, sys, dom, _ = _system_61(k3=0.5)
    rep = count_equilibria(sys, dom, starts=80, seed=1)
    path = track_homotopy(sys, dom)
    assert rep.count == 1
    assert path.endpoint_residual <= 1e-9
    assert match_endpoint(rep, path.endpoint, radius=1e-6) == 0
    # endpoint is an equilibrium of the full system and det has sign (-1)^5
    sign, _ = np.linalg.slogdet(sys.jac(np.array(path.endpoint)))
    assert sign == -1


def test_homotopy_aborts_when_path_leaves_domain():
    n = 1
    sys = NumericSystem(
        n,
        f=lambda c: np.array([1.0 - c[0] + 5.0]),
        jac=lambda c: np.array([[-1.0]]),
        g=lambda c: np.array([5.0]),
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
        f=lambda c: np.array([1.0 - c[0] + c[0] ** 2]),
        jac=lambda c: np.array([[-1.0 + 2 * c[0]]]),
        g=lambda c: np.array([c[0] ** 2]),
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
        f=lambda c: np.array([1.0, 1.0]) - c + np.array([-3.0, 0.0]),
        jac=lambda c: -np.eye(2),
        g=lambda c: np.array([-3.0, 0.0]),
        c_in=np.array([1.0, 1.0]),
        outflow=np.array([1.0, 1.0]),
    )
    dom = make_domain([1.0, 1.0], FlowAugmentation.uniform(2), 21.0)
    audit = boundary_audit(sys, dom, samples=200, seed=0)
    assert audit.violations
    assert any(v["face"] == "c[0]=0" for v in audit.violations)


def test_box_audit_reports_planted_violations():
    # f = (1 - c_1) * (c_0 - 1/2, 1) on the unit square: f_0 < 0 on the
    # lower face c_0 = 0 and f = 0 on the whole upper face c_1 = 1; the
    # faces c_1 = 0 and c_0 = 1 are clean.
    sys = NumericSystem(
        2,
        f=lambda c: (1.0 - c[1]) * np.array([c[0] - 0.5, 1.0]),
        jac=lambda c: np.array([[1.0 - c[1], 0.5 - c[0]], [0.0, -1.0]]),
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


def test_determinant_sign_sampling():
    from crncount.numeric import sample_determinant_signs

    # within the certified region the sampled determinant has one sign
    _, sys, dom, _ = _system_61(k3=0.5)
    counts = sample_determinant_signs(sys, dom, samples=500, seed=1)
    assert set(counts) == {-1}
    # at multistationary parameters both signs appear inside the domain
    net = fixture_network("example-6.1")
    k = {"A+B->P": 39.804, "B+C->Q": 562.616, "C->2A": 336.416}
    inflow = {"A": 0.164, "B": 16.612, "C": 10.891, "P": 1.0, "Q": 1.0}
    flows = FlowAugmentation(tuple(inflow[s] for s in net.names), (1.0,) * 5)
    sys2 = numeric_system_from_network(net, k, flows)
    dom2 = default_domain(conserved_mass_vector(net), flows)
    counts2 = sample_determinant_signs(sys2, dom2, samples=2000, seed=2)
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
