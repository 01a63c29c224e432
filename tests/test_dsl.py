import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crncount.dsl import ParseError, parse_network, serialize_network
from crncount.network import GeneralMonotone, MassAction


def test_parse_example_network():
    net = parse_network("A+B -> P\nB+C -> Q\nC -> 2A\n")
    assert net.names == ("A", "B", "P", "C", "Q")
    assert len(net.reactions) == 3
    assert net.reactions[2].target.get(net.species_index("A")) == 2


def test_empty_input_is_an_error():
    with pytest.raises(ParseError, match="no reactions"):
        parse_network("")
    with pytest.raises(ParseError, match="no reactions"):
        parse_network("# only a comment\n\n")


def test_reversible_line_expands_to_two_reactions():
    net = parse_network("A+B <-> P\n")
    assert [r.label for r in net.reactions] == ["A+B->P", "P->A+B"]


def test_species_indexed_by_first_appearance():
    net = parse_network("X+Y -> Z\nW -> X\n")
    assert net.names == ("X", "Y", "Z", "W")


def test_comments_and_blank_lines_ignored():
    net = parse_network("# header\nA -> B  # trailing\n\nB -> C\n")
    assert len(net.reactions) == 2


def test_zero_complex():
    net = parse_network("2A -> 0\n0 -> A+B\n")
    assert net.reactions[0].target.is_empty
    assert net.reactions[1].source.is_empty
    with pytest.raises(ParseError, match="line 2: .*flow reactions"):
        parse_network("A -> B\nA -> 0\n")


def test_self_loop_reports_line_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_network("A -> B\nB -> B\n")


def test_zero_coefficient_rejected():
    with pytest.raises(ParseError, match="zero or negative"):
        parse_network("0A -> B\n")


def test_coefficient_beyond_32_bits_reports_line_number():
    with pytest.raises(ParseError) as err:
        parse_network("A + 3000000000B -> C\n")
    assert str(err.value) == "line 1: stoichiometric coefficient 3000000000 exceeds 32-bit range"
    with pytest.raises(ParseError, match="^line 2: stoichiometric coefficient 2147483648 "):
        parse_network("A -> B\nB <-> 2147483648C\n")


def test_missing_arrow_rejected():
    with pytest.raises(ParseError, match="arrow"):
        parse_network("A + B\n")


def test_double_arrow_rejected():
    with pytest.raises(ParseError, match="more than one arrow"):
        parse_network("A -> B -> C\n")


def test_unknown_annotation_rejected():
    with pytest.raises(ParseError, match="unknown kinetics annotation"):
        parse_network("A -> B ; q=2\n")
    with pytest.raises(ParseError, match="unknown kinetics annotation"):
        parse_network("A -> B ; kinetics=odd\n")


def test_numeric_rate_constant_annotation():
    net = parse_network("A -> B ; k=2.5\n")
    assert net.reactions[0].kinetics == MassAction(2.5)
    with pytest.raises(ParseError, match="positive"):
        parse_network("A -> B ; k=0\n")
    for value in ("inf", "Infinity", "1e400", "nan"):
        with pytest.raises(ParseError, match="^line 2: mass-action rate constant must be finite and positive, got "):
            parse_network(f"A -> B\nB -> C ; k={value}\n")
    with pytest.raises(ParseError, match="reversible"):
        parse_network("A <-> B ; k=2\n")


def test_general_kinetics_annotations():
    net = parse_network("A+B -> P ; kinetics=general\n")
    kin = net.reactions[0].kinetics
    assert isinstance(kin, GeneralMonotone)
    assert kin.dependencies == (0, 1)
    assert all(s == 1 for _, s in kin.partial_signs)


def test_general_kinetics_deps_and_signs():
    net = parse_network("A+B -> P ; kinetics=general deps=A,B,P signs=+A,-B,?P\n")
    kin = net.reactions[0].kinetics
    assert kin.dependencies == (0, 1, 2)
    assert kin.sign_of(1) == -1
    assert kin.sign_of(2) == 0


def test_signs_must_cover_dependencies():
    with pytest.raises(ParseError, match="cover every dependency"):
        parse_network("A+B -> P ; kinetics=general signs=+A\n")


def test_deps_require_general():
    with pytest.raises(ParseError, match="require kinetics=general"):
        parse_network("A+B -> P ; deps=A\n")


def test_roundtrip_fixture_networks():
    from crncount.fixtures import NETWORK_FIXTURES

    for text in NETWORK_FIXTURES.values():
        net = parse_network(text)
        assert parse_network(serialize_network(net)) == net


def test_roundtrip_preserves_annotations():
    text = "A+B -> P ; k=1.25\nA+B -> Q ; kinetics=general deps=A,P signs=-A,?P\nP -> A\n"
    net = parse_network(text)
    assert parse_network(serialize_network(net)) == net


_species_pool = ["A", "B", "C", "D", "E2", "X_1"]


@st.composite
def _random_network_text(draw):
    n_lines = draw(st.integers(1, 5))
    lines = []
    for _ in range(n_lines):
        def complex_text(exclude=None):
            size = draw(st.integers(0, 2))
            if size == 0:
                return "0", frozenset()
            terms = []
            names = draw(st.lists(st.sampled_from(_species_pool), min_size=size, max_size=size, unique=True))
            for name in names:
                coeff = draw(st.integers(1, 3))
                terms.append(f"{coeff if coeff > 1 else ''}{name}")
            return "+".join(terms), frozenset((nm, None) for nm in names)

        src, src_key = complex_text()
        tgt, tgt_key = complex_text()
        if src == tgt:
            tgt = tgt + "+E2" if tgt != "0" else "E2"
        arrow = draw(st.sampled_from(["->", "<->"]))
        lines.append(f"{src} {arrow} {tgt}")
    return "\n".join(lines) + "\n"


@given(_random_network_text())
@settings(max_examples=60, deadline=None)
def test_roundtrip_random_networks(text):
    try:
        net = parse_network(text)
    except ParseError:
        return  # e.g. duplicate reactions or coincidental y -> y after merging
    assert parse_network(serialize_network(net)) == net
