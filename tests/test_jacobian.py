import numpy as np
import pytest

from crncount.dsl import parse_network
from crncount.jacobian import (
    augmented_mass_action_jacobian,
    build_general_jacobian,
    build_mass_action_rate,
    census_report,
    dominance_conditions,
    sign_census,
    symbolic_jacobian,
)
from crncount.network import NetworkError, with_general_kinetics
from crncount.polynomial import (
    Polynomial,
    concentration,
    determinant_expand,
    differentiate,
    evaluate,
    kinetic_partial,
    mono_format,
    rate_constant,
    substitute,
)

PV = Polynomial.variable
NET_51 = "2A1 <-> A1+A2\nA1+A2 <-> 2A2\n2A2 <-> 2A1\n"
NET_61 = "A+B -> P\nB+C -> Q\nC -> 2A\n"


def test_rate_network_51_terms():
    net = parse_network(NET_51)
    rate = build_mass_action_rate(net)
    c1, c2 = concentration(0, "A1"), concentration(1, "A2")
    k_fwd = rate_constant("2A1->A1+A2")
    k_back = rate_constant("2A2->2A1")
    # dc_A1/dt carries -k_{2A1->A1+A2} c1^2 and +2 k_{2A2->2A1} c2^2.
    assert rate.entries[0].terms[((c1, 2), (k_fwd, 1))] == -1
    assert rate.entries[0].terms[((c2, 2), (k_back, 1))] == 2
    # conservation: the two entries sum to zero.
    assert (rate.entries[0] + rate.entries[1]).is_zero


def test_rate_simple_conversion():
    net = parse_network("A -> B\n")
    rate = build_mass_action_rate(net)
    k, cA = rate_constant("A->B"), concentration(0, "A")
    assert rate.entries[0] == -1 * PV(k) * PV(cA)
    assert rate.entries[1] == PV(k) * PV(cA)


def test_rate_requires_mass_action():
    net = with_general_kinetics(parse_network("A -> B\n"))
    with pytest.raises(NetworkError, match="mass-action"):
        build_mass_action_rate(net)


def test_augmented_rate_entry_with_symbolic_flows():
    # Row A of the augmented Jacobian: outflow -k[A->0] on the diagonal,
    # the network's terms elsewhere; the inflow constant drops out.
    net = parse_network(NET_61)
    J = augmented_mass_action_jacobian(net, outflow="symbolic")
    cA, cB = concentration(0, "A"), concentration(1, "B")
    assert J[0][0] == -1 * PV(rate_constant("A->0")) - PV(rate_constant("A+B->P")) * PV(cB)
    assert J[0][1] == -1 * PV(rate_constant("A+B->P")) * PV(cA)
    assert J[0][2].is_zero and J[0][4].is_zero


def test_differentiate_augmented_entry_wrt_c():
    # d/dc_C of the rate entry of A leaves only 2 k[C->2A], outflows or not
    net = parse_network(NET_61)
    rate = build_mass_action_rate(net)
    d = differentiate(rate.entries[0], concentration(3, "C"))
    assert d == 2 * PV(rate_constant("C->2A"))
    assert augmented_mass_action_jacobian(net, outflow="symbolic")[0][3] == d


def test_numeric_rate_constants_stay_symbolic():
    net = parse_network("A -> B ; k=2.5\n")
    rate = build_mass_action_rate(net)
    assert rate.entries[0] == -1 * PV(rate_constant("A->B")) * PV(concentration(0, "A"))


def test_symbolic_jacobian_simple():
    net = parse_network("A -> B\n")
    J = symbolic_jacobian(build_mass_action_rate(net))
    k, cA = rate_constant("A->B"), concentration(0, "A")
    assert J[0][0] == -1 * PV(k)
    assert J[1][0] == PV(k)
    assert J[0][1].is_zero and J[1][1].is_zero


def test_unit_flow_augmentation_folds_into_integers():
    # The augmented Jacobian is the network's own minus I (unit outflows,
    # folded into integer coefficients) or minus diag(k[X->0]) (symbolic).
    net = parse_network(NET_61)
    for mode in ("unit", "symbolic"):
        J = symbolic_jacobian(build_mass_action_rate(net))
        for j, name in enumerate(net.names):
            outflow = Polynomial.constant(1) if mode == "unit" else PV(rate_constant(f"{name}->0"))
            J[j][j] = J[j][j] - outflow
        assert J == augmented_mass_action_jacobian(net, outflow=mode)
    assert len(determinant_expand(augmented_mass_action_jacobian(net))) == 13


def test_symbolic_outflows_shift_the_dominance_bound():
    # Without the unit normalization, the condition compares the
    # autocatalytic rate constant to the matching outflow constant, for
    # the irreversible and the reversible network alike.
    for text in (NET_61, "A+B <-> P\nB+C <-> Q\nC <-> 2A\n"):
        net = parse_network(text)
        det = determinant_expand(augmented_mass_action_jacobian(net, outflow="symbolic"))
        assert rate_constant("A->0") in det.indeterminates()
        census = sign_census(det, net.n)
        assert census.anomalous_count == 1
        conds = dominance_conditions(det, census)
        assert [c.inequality for c in conds] == ["1*k[C->2A] <= 1*k[C->0]"]


def test_general_jacobian_single_reaction():
    net = with_general_kinetics(parse_network("A -> B\n"))
    J = build_general_jacobian(net)
    K = kinetic_partial("A->B", 0, "A", +1)
    assert J[0][0] == Polynomial.constant(-1) - PV(K)
    assert J[1][0] == PV(K)
    assert J[0][1].is_zero
    assert J[1][1] == Polynomial.constant(-1)


def test_general_jacobian_rejects_mass_action_core():
    net = parse_network("A -> B\n")
    with pytest.raises(NetworkError, match="general monotone"):
        build_general_jacobian(net)


def test_general_to_mass_action_substitution_identity():
    # Replacing each kinetic partial by the derivative of its mass-action
    # rate recovers the mass-action Jacobian exactly.
    net = parse_network("A+B <-> P\nB+C <-> Q\nC <-> 2A\n")
    J_mass = augmented_mass_action_jacobian(net)
    J_gen = build_general_jacobian(with_general_kinetics(net))
    names = net.names
    mapping = {}
    for r in net.reactions:
        mono = Polynomial.constant(1)
        for idx, e in r.source.coeffs:
            mono = mono * PV(concentration(idx, names[idx])) ** e
        rate = PV(rate_constant(r.label)) * mono
        for idx in r.source.support:
            partial = kinetic_partial(r.label, idx, names[idx], +1)
            mapping[partial] = differentiate(rate, concentration(idx, names[idx]))
    n = net.n
    for j in range(n):
        for i in range(n):
            assert substitute(J_gen[j][i], mapping) == J_mass[j][i]


def test_symbolic_jacobian_matches_finite_differences():
    net = parse_network(NET_61)
    rate = build_mass_action_rate(net)
    J = symbolic_jacobian(rate)
    rng = np.random.default_rng(2)
    names = net.names
    for _ in range(20):
        values = {rate_constant(r.label): rng.uniform(0.2, 3.0) for r in net.reactions}
        c = rng.uniform(0.2, 2.0, size=net.n)
        values.update({concentration(i, names[i]): c[i] for i in range(net.n)})

        def rate_at(cvec):
            vals = dict(values)
            vals.update({concentration(i, names[i]): cvec[i] for i in range(net.n)})
            return np.array([evaluate(e, vals) for e in rate.entries])

        J_num = np.array([[evaluate(J[j][i], values) for i in range(net.n)] for j in range(net.n)])
        for i in range(net.n):
            h = 1e-6 * (1 + abs(c[i]))
            up, dn = c.copy(), c.copy()
            up[i] += h
            dn[i] -= h
            fd = (rate_at(up) - rate_at(dn)) / (2 * h)
            assert np.allclose(J_num[:, i], fd, rtol=1e-6, atol=1e-8)


def test_census_counts_and_invariant():
    net = parse_network(NET_61)
    det = determinant_expand(augmented_mass_action_jacobian(net))
    census = sign_census(det, net.n)
    assert census.reference_sign == -1
    assert census.total_terms == 13
    assert census.coefficient_histogram == {-1: 12, 1: 1}
    assert census.total_terms == sum(census.coefficient_histogram.values()) + census.unknown_sign_terms
    assert census.anomalous_count == 1
    assert mono_format(census.anomalous_terms[0].concentration_part) == "c[B]*c[C]"


def test_census_invariant_under_line_permutation():
    base = ["A+B <-> P", "B+C <-> Q", "C <-> 2A"]
    counts = set()
    import itertools

    for perm in itertools.permutations(base):
        net = parse_network("\n".join(perm) + "\n")
        det = determinant_expand(augmented_mass_action_jacobian(net))
        counts.add(sign_census(det, net.n).anomalous_count)
    assert counts == {1}


def test_certified_one_signed_has_constant_numeric_sign():
    net = parse_network("A+B <-> P\nB+C <-> Q\nC <-> A\n")
    det = determinant_expand(augmented_mass_action_jacobian(net))
    census = sign_census(det, net.n)
    assert census.certified_one_signed
    rng = np.random.default_rng(0)
    variables = det.indeterminates()
    for _ in range(1000):
        values = {v: rng.uniform(0.01, 100.0) for v in variables}
        assert evaluate(det, values) < 0  # sign (-1)^5, never zero


def test_unknown_signs_counted_not_classified():
    net = parse_network("A -> B ; kinetics=general deps=A signs=?A\n")
    det = determinant_expand(build_general_jacobian(net))
    census = sign_census(det, net.n)
    assert census.unknown_sign_terms == 1
    assert census.total_terms == sum(census.coefficient_histogram.values()) + 1
    assert not census.certified_one_signed


def test_negative_declared_signs_census():
    # inhibition: rate decreasing in a non-source species
    net = parse_network("A -> B ; kinetics=general deps=A,C signs=+A,-C\nC -> B ; kinetics=general\n")
    det = determinant_expand(build_general_jacobian(net))
    census = sign_census(det, net.n)
    assert census.unknown_sign_terms == 0
    assert census.total_terms == sum(census.coefficient_histogram.values())


def test_dominance_example_condition():
    net = parse_network(NET_61)
    det = determinant_expand(augmented_mass_action_jacobian(net))
    census = sign_census(det, net.n)
    conds = dominance_conditions(det, census)
    assert len(conds) == 1
    assert conds[0].covered
    assert conds[0].inequality == "k[C->2A] <= 1"
    assert conds[0].alternatives == []
    assert conds[0].bound == 1
    k3 = rate_constant("C->2A")
    assert conds[0].quotient == ((k3, 1),)


def test_dominance_condition_interval_substitution():
    net = parse_network(NET_61)
    det = determinant_expand(augmented_mass_action_jacobian(net))
    (cond,) = dominance_conditions(det, sign_census(det, net.n))
    k3 = rate_constant("C->2A")
    assert cond.holds_at({k3: 0.5})
    assert not cond.holds_at({k3: 1.5})
    assert cond.holds_on({k3: (0.1, 0.9)})
    assert not cond.holds_on({k3: (0.5, 2.0)})
    # group-form conditions evaluate both sides at their worst endpoints
    det_sym = determinant_expand(augmented_mass_action_jacobian(net, outflow="symbolic"))
    (cond_sym,) = dominance_conditions(det_sym, sign_census(det_sym, net.n))
    k_out = rate_constant("C->0")
    assert cond_sym.holds_on({k3: (0.1, 0.9), k_out: (1.0, 4.0)})
    assert not cond_sym.holds_on({k3: (0.1, 2.0), k_out: (1.0, 4.0)})


def test_dominance_uncovered():
    # Hand-built expansion with a positive term and no partner sharing
    # its concentration monomial (n odd, reference -1).
    x = concentration(0, "A")
    k = rate_constant("r")
    det = PV(x) * PV(k) - Polynomial.constant(1)
    conds = dominance_conditions(det, sign_census(det, 1))
    assert len(conds) == 1
    assert not conds[0].covered
    assert conds[0].inequality is None


def test_dominance_shared_group():
    net = parse_network("S1+E <-> ES1\nS2+E <-> ES2\nS2+ES1 <-> ES1S2\nES1S2 <-> S1+ES2\nES1S2 -> E+P\n")
    det = determinant_expand(augmented_mass_action_jacobian(net))
    census = sign_census(det, net.n)
    conds = dominance_conditions(det, census)
    assert len(conds) == 2
    assert all(c.covered for c in conds)
    # both anomalous terms share one concentration monomial, hence one
    # joint group inequality
    assert conds[0].inequality == conds[1].inequality
    assert " + " in conds[0].inequality.split("<=")[0]


def test_census_report_shape():
    net = parse_network(NET_61)
    det = determinant_expand(augmented_mass_action_jacobian(net))
    census = sign_census(det, net.n)
    report = census_report(net, census, dominance_conditions(det, census))
    assert report["n"] == 5
    assert report["uniqueness_certified"] is False
    assert report["total_terms"] == 13
    assert report["histogram"] == {"-1": 12, "1": 1}
    assert report["anomalous"][0]["concentration_monomial"] == "c[B]*c[C]"
    assert report["dominance_conditions"] == [{"inequality": "k[C->2A] <= 1", "covered": True}]
    assert report["unknown_sign_terms"] == 0
    assert report["reference_sign"] == -1
