import pytest

from crncount.dsl import parse_network
from crncount.network import (
    Complex,
    FlowAugmentation,
    MassAction,
    NetworkError,
    Reaction,
    ReactionNetwork,
    Species,
    make_reaction,
    reaction_vectors,
    stoichiometric_rank,
    with_general_kinetics,
)
from crncount.numeric import numeric_system_from_network

NET_51 = "2A1 <-> A1+A2\nA1+A2 <-> 2A2\n2A2 <-> 2A1\n"
NET_61 = "A+B -> P\nB+C -> Q\nC -> 2A\n"


def test_reaction_vector_simple():
    net = parse_network("A+B -> P\n")
    assert reaction_vectors(net) == [(-1, -1, 1)]


def test_reaction_vector_c_to_2a():
    net = parse_network(NET_61)
    # species order (A, B, P, C, Q); C -> 2A contributes +2 to A.
    vec = net.reactions[2].reaction_vector(net.n)
    assert vec == (2, 0, 0, -1, 0)


def test_reaction_vector_vanishes_outside_supports():
    net = parse_network(NET_61)
    for r in net.reactions:
        support = set(r.source.support) | set(r.target.support)
        vec = r.reaction_vector(net.n)
        assert all(vec[i] == 0 for i in range(net.n) if i not in support)


def test_rank_network_51_is_one():
    assert stoichiometric_rank(parse_network(NET_51)) == 1


def test_rank_example_61_is_three():
    # Oracle: the 3x3 minor on columns (A, B, Q) of the reaction-vector
    # matrix has determinant -2, checked by integer cofactor expansion.
    net = parse_network(NET_61)
    vecs = reaction_vectors(net)
    cols = [net.species_index(s) for s in ("A", "B", "Q")]
    minor = [[v[c] for c in cols] for v in vecs]
    det = (
        minor[0][0] * (minor[1][1] * minor[2][2] - minor[1][2] * minor[2][1])
        - minor[0][1] * (minor[1][0] * minor[2][2] - minor[1][2] * minor[2][0])
        + minor[0][2] * (minor[1][0] * minor[2][1] - minor[1][1] * minor[2][0])
    )
    assert det == -2
    assert stoichiometric_rank(net) == 3


def test_flow_reaction_rejected():
    a, b = Complex.from_dict({0: 1}), Complex.from_dict({1: 1})
    zero = Complex(())
    for source, target in ((zero, a), (a, zero)):
        with pytest.raises(NetworkError, match="flow reactions"):
            make_reaction(source, target, MassAction(), ("A", "B"))
    # Only the single-species, unit-coefficient shape is a flow.
    for source, target in ((Complex.from_dict({0: 2}), zero), (zero, Complex.from_dict({0: 1, 1: 1}))):
        make_reaction(source, target, MassAction(), ("A", "B"))


def test_augment_flow_length_mismatch():
    with pytest.raises(NetworkError, match="length"):
        numeric_system_from_network(parse_network("A -> B ; k=1\n"), {}, FlowAugmentation.uniform(3))


def test_flow_augmentation_positive():
    with pytest.raises(NetworkError):
        FlowAugmentation((1.0, 0.0), (1.0, 1.0))
    with pytest.raises(NetworkError):
        FlowAugmentation((1.0,), (1.0, 1.0))


def test_self_loop_reaction_rejected():
    c = Complex.from_dict({0: 1})
    with pytest.raises(NetworkError, match="y -> y"):
        Reaction(c, c, MassAction(), "A->A")


def test_duplicate_reaction_rejected():
    sp = (Species("A", 0), Species("B", 1))
    r = make_reaction(Complex.from_dict({0: 1}), Complex.from_dict({1: 1}), MassAction(), ("A", "B"))
    with pytest.raises(NetworkError, match="duplicate"):
        ReactionNetwork(sp, (r, r))


def test_species_missing_from_all_complexes_rejected():
    sp = (Species("A", 0), Species("B", 1), Species("Z", 2))
    r = make_reaction(Complex.from_dict({0: 1}), Complex.from_dict({1: 1}), MassAction(), ("A", "B", "Z"))
    with pytest.raises(NetworkError, match="no complex"):
        ReactionNetwork(sp, (r,))


def test_complex_rejects_nonpositive_coefficients():
    with pytest.raises(NetworkError):
        Complex.from_dict({0: 0})
    with pytest.raises(NetworkError):
        Complex.from_dict({0: 2**31})


def test_mass_action_value_validation():
    with pytest.raises(NetworkError):
        MassAction(0.0)
    assert MassAction(2.5).value == 2.5
    assert MassAction().value is None


def test_with_general_kinetics_defaults_to_consumptively_increasing():
    net = with_general_kinetics(parse_network(NET_61))
    r = net.reactions[0]  # A+B -> P
    assert r.kinetics.dependencies == r.source.support
    assert all(s == 1 for _, s in r.kinetics.partial_signs)
    assert r.kinetics.monotonicity_class(r.source) == "consumptively-increasing"


def test_with_general_kinetics_sign_overrides():
    net = with_general_kinetics(parse_network(NET_61), signs={"A+B->P": {"A": 1, "C": -1}})
    r = net.reactions[0]
    assert r.kinetics.sign_of(net.species_index("C")) == -1
    assert r.kinetics.monotonicity_class(r.source) == "strictly-monotone"
