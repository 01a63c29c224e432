import math

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
    with_general_kinetics,
)
from crncount.numeric import numeric_system_from_network

NET_61 = "A+B -> P\nB+C -> Q\nC -> 2A\n"


def test_reaction_vector_simple():
    net = parse_network("A+B -> P\n")
    assert [r.reaction_vector(net.n) for r in net.reactions] == [(-1, -1, 1)]


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


def test_duplicate_reaction_label_rejected():
    # Two reactions under one label would share one rate constant k[r]
    # in the census and one binding in the numeric system.
    sp = (Species("A", 0), Species("B", 1), Species("C", 2))
    a, b, c = (Complex.from_dict({i: 1}) for i in range(3))
    reactions = (Reaction(a, b, MassAction(), "r"), Reaction(a, c, MassAction(), "r"))
    with pytest.raises(NetworkError, match="duplicate reaction label 'r'"):
        ReactionNetwork(sp, reactions)


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
    for value in (0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(NetworkError, match="must be finite and positive"):
            MassAction(value)
    assert MassAction(2.5).value == 2.5
    assert MassAction().value is None


def test_rate_constants_take_the_file_value_else_the_binding():
    net = parse_network("A+B -> P\nB+C -> Q ; k=3\nC -> 2A\n")
    bindings = {"A+B->P": 1.5, "B+C->Q": 7.0, "C->2A": 0.5}
    assert net.rate_constants(bindings) == (1.5, 3.0, 0.5)
    with pytest.raises(NetworkError, match=r"missing parameter binding for rate constant of C->2A"):
        net.rate_constants({"A+B->P": 1.5})
    for value in (0.0, math.nan, math.inf):
        with pytest.raises(NetworkError, match=r"rate constant of A\+B->P must be finite and > 0"):
            net.rate_constants({**bindings, "A+B->P": value})
    with pytest.raises(NetworkError, match="does not have mass-action kinetics"):
        with_general_kinetics(net).rate_constants(bindings)


def test_with_general_kinetics_defaults_to_consumptively_increasing():
    net = with_general_kinetics(parse_network(NET_61))
    r = net.reactions[0]  # A+B -> P
    assert r.kinetics.dependencies == r.source.support
    assert all(s == 1 for _, s in r.kinetics.partial_signs)


def test_with_general_kinetics_sign_overrides():
    # A law declared in the file is kept; only mass-action reactions are relaxed.
    net = with_general_kinetics(parse_network("A+B -> P ; kinetics=general deps=A,C signs=+A,-C\nB+C -> Q\nC -> 2A\n"))
    r = net.reactions[0]
    assert r.kinetics.dependencies == (net.species_index("A"), net.species_index("C"))
    assert r.kinetics.sign_of(net.species_index("A")) == 1
    assert r.kinetics.sign_of(net.species_index("C")) == -1
    assert net.reactions[1].kinetics.partial_signs == ((net.species_index("B"), 1), (net.species_index("C"), 1))
