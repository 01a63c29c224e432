import json
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from crncount import cli
from crncount.cli import main
from crncount.conservation import conserved_mass_vector
from crncount.dsl import parse_network, serialize_network
from crncount.fixtures import NETWORK_FIXTURES, fixture_names, fixture_network, mapk_cube, unit_cube
from crncount.jacobian import augmented_mass_action_jacobian, build_general_jacobian, certify, sign_census
from crncount.network import FlowAugmentation
from crncount.numeric import (
    Equilibrium,
    EquilibriumReport,
    box_audit,
    boundary_audit,
    default_domain,
    numeric_system_from_network,
)
from crncount.polynomial import PackedTerms, determinant_expand

from census_reference import reference_partners, reference_sign_census, ring


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_census_clean_network_exits_zero(capsys):
    code, out, _ = _run(capsys, "census", "--fixture", "table1-iv")
    assert code == 0
    report = json.loads(out)
    assert report["anomalous"] == []
    assert report["total_terms"] == 35


def test_census_anomalous_network_exits_two(capsys):
    code, out, _ = _run(capsys, "census", "--fixture", "table1-vi")
    assert code == 2
    report = json.loads(out)
    assert len(report["anomalous"]) == 1


def test_census_malformed_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.crn"
    bad.write_text("A -> -> B\n")
    code, _, err = _run(capsys, "census", str(bad))
    assert code == 1
    assert "line 1" in err


def test_census_missing_input_exits_one(capsys):
    code, _, err = _run(capsys, "census")
    assert code == 1
    assert "network file" in err


def test_census_general_kinetics(capsys):
    code, out, _ = _run(capsys, "census", "--fixture", "table1-ii", "--kinetics", "general")
    assert code == 0
    report = json.loads(out)
    assert report["total_terms"] == 138
    assert report["histogram"] == {"-1": 96, "-2": 40, "-3": 2}


def test_census_reports_dominance_alternatives(capsys):
    # The paper's condition for table1-v under general kinetics,
    # K[B->C+D;B] <= 1, is one of the sharp form's alternatives, each
    # sufficient on its own.
    code, out, _ = _run(capsys, "census", "--fixture", "table1-v", "--kinetics", "general")
    assert code == 2
    assert json.loads(out)["dominance_conditions"] == [
        {
            "inequality": "K[A+B->F;A] <= 1",
            "covered": True,
            "alternatives": ["K[A+C->G;C] <= 1", "K[B->C+D;B] <= 1"],
        }
    ]


def test_census_decodes_only_reported_terms(tmp_path, capsys, monkeypatch):
    # The census classifies packed monomials.  On ring 13 (7173 terms) it
    # decodes each anomalous term and its concentration part, and the
    # partners in their groups; len() of the expansion decodes nothing.
    net = ring(13)
    det = determinant_expand(augmented_mass_action_jacobian(net))
    census = reference_sign_census(det, net.n)
    groups = reference_partners(det, census.reference_sign)
    partners = sum(len(groups.get(key, [])) for key in {t.concentration_part for t in census.anomalous_terms})
    decoded = []
    decode = PackedTerms.decode
    monkeypatch.setattr(PackedTerms, "decode", lambda self, m: decoded.append(m) or decode(self, m))
    assert len(determinant_expand(augmented_mass_action_jacobian(net))) == 7173
    assert decoded == []
    f = tmp_path / "ring13.crn"
    f.write_text(serialize_network(net))
    code, out, _ = _run(capsys, "census", str(f))
    assert code == 2
    assert len(json.loads(out)["anomalous"]) == census.anomalous_count >= 1
    assert 0 < len(decoded) <= 2 * census.anomalous_count + partners


DECLARED_SIGNS = "A+B -> P ; kinetics=general deps=A,B signs=+A,-B\nP -> A+B ; kinetics=general\n"


def test_census_general_kinetics_keeps_declared_signs(tmp_path, capsys):
    # --kinetics general relaxes mass-action reactions only: the file's own
    # signs=+A,-B give one anomalous term, so uniqueness is not certified.
    f = tmp_path / "signs.crn"
    f.write_text(DECLARED_SIGNS)
    code, out, _ = _run(capsys, "census", str(f), "--kinetics", "general")
    report = json.loads(out)
    census = sign_census(determinant_expand(build_general_jacobian(parse_network(DECLARED_SIGNS))), 3)
    assert code == 2
    assert report["total_terms"] == census.total_terms == 4
    assert [a["term"] for a in report["anomalous"]] == [t.render() for t in census.anomalous_terms]
    assert len(report["anomalous"]) == 1


def test_census_mass_action_on_general_file_names_general_kinetics(tmp_path, capsys):
    f = tmp_path / "signs.crn"
    f.write_text(DECLARED_SIGNS)
    code, out, err = _run(capsys, "census", str(f))
    assert code == 1
    assert out == ""
    assert err == (
        "error: census --kinetics mass-action needs mass-action kinetics; A+B->P is general "
        "(census-only: crn census --kinetics general)\n"
    )


def test_census_symbolic_outflows(capsys):
    code, out, _ = _run(capsys, "census", "--fixture", "example-6.1", "--outflow", "symbolic")
    assert code == 2
    report = json.loads(out)
    assert report["outflow"] == "symbolic"
    assert len(report["anomalous"]) == 1
    assert report["uniqueness_certified"] is False
    # without the unit normalization the bound becomes the outflow constant
    assert report["dominance_conditions"] == [
        {"inequality": "1*k[C->2A] <= 1*k[C->0]", "covered": True, "alternatives": []}
    ]


def test_census_rejects_network_files_with_flows(tmp_path, capsys):
    f = tmp_path / "flows.crn"
    f.write_text("A -> B\n0 -> A\n")
    code, _, err = _run(capsys, "census", str(f))
    assert code == 1
    assert "flow reactions" in err


def test_census_max_species_env_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CRN_MAX_SPECIES", "3")
    code, _, err = _run(capsys, "census", "--fixture", "example-6.1")
    assert code == 1
    assert "exceeds expansion cap" in err
    rates = ["--k", "A+B->P=1", "--k", "B+C->Q=1", "--k", "C->2A=0.5"]
    for value in ("abc", "0", "-3", "2.5"):
        monkeypatch.setenv("CRN_MAX_SPECIES", value)
        for argv in (["census"], ["count", *rates]):
            code, out, err = _run(capsys, *argv, "--fixture", "example-6.1")
            assert (code, out) == (1, ""), (value, argv[0])
            assert err == f"error: CRN_MAX_SPECIES must be an integer >= 1, got {value!r}\n"


def test_count_over_the_cap_is_uncertified(capsys, monkeypatch):
    # A network too large to census is counted as uncertified: multistart
    # Newton, with the homotopy endpoint among the listed roots.
    monkeypatch.setenv("CRN_MAX_SPECIES", "3")
    rates = ["--k", "A+B->P=1", "--k", "B+C->Q=1", "--k", "C->2A=0.5"]
    code, out, err = _run(capsys, "count", "--fixture", "example-6.1", *rates)
    assert code == 2, err
    report = json.loads(out)
    assert report["census"] is None
    matched = report["homotopy"]["matched_equilibrium"]
    assert isinstance(matched, int)
    c, endpoint = np.array(report["equilibria"][matched]["c"]), np.array(report["homotopy"]["endpoint"])
    assert np.linalg.norm(c - endpoint) <= 1e-6 * (1 + np.linalg.norm(c))


def test_conserve_fixture_and_candidate(capsys):
    code, out, _ = _run(capsys, "conserve", "--fixture", "example-6.1", "--check", "1,1,2,2,3")
    assert code == 0
    report = json.loads(out)
    assert report["conservative"] is True
    assert report["mass_vector"] == ["1", "1", "2", "2", "3"]
    assert report["verdict_for_candidate"] == "conserved"


def test_conserve_not_conservative(tmp_path, capsys):
    f = tmp_path / "auto.crn"
    f.write_text("A -> 2A\n")
    code, out, _ = _run(capsys, "conserve", str(f))
    assert code == 0
    assert json.loads(out)["conservative"] is False


def test_count_example_61_certified_by_dominance(capsys):
    code, out, _ = _run(
        capsys, "count", "--fixture", "example-6.1",
        "--k", "A+B->P=1", "--k", "B+C->Q=1", "--k", "C->2A=0.5",
        "--starts", "60", "--seed", "1",
    )
    report = json.loads(out)
    # k[C->2A] = 0.5 satisfies the emitted dominance condition, so the
    # run is certified despite the anomalous census term.
    assert code == 0
    assert report["census"]["conditions_hold_at_parameters"] is True
    assert len(report["equilibria"]) == 1
    assert report["degree_estimate"] == -1
    # A certified run reads its one equilibrium off the homotopy endpoint.
    assert report["equilibria"][0]["c"] == report["homotopy"]["endpoint"]
    assert report["boundary"]["certified"] is True


def test_count_example_61_uncertified_above_bound(capsys):
    code, out, _ = _run(
        capsys, "count", "--fixture", "example-6.1",
        "--k", "A+B->P=1", "--k", "B+C->Q=1", "--k", "C->2A=2.0",
        "--starts", "60", "--seed", "1",
    )
    report = json.loads(out)
    assert code == 2
    assert report["census"]["conditions_hold_at_parameters"] is False


def test_count_mapk_thron_fixture(capsys):
    code, out, _ = _run(capsys, "count", "--fixture", "mapk-thron", "--k", "c0=1", "--starts", "50")
    assert code == 0
    report = json.loads(out)
    assert len(report["equilibria"]) == 1
    assert np.allclose(report["equilibria"][0]["c"], [0.5, 0.5, 1.0], atol=1e-8)


def test_count_mapk_cube_fixture(capsys):
    code, out, _ = _run(capsys, "count", "--fixture", "mapk-cube", "--k", "mu=2", "--k", "k=0.5", "--starts", "50")
    assert code == 0
    report = json.loads(out)
    assert len(report["equilibria"]) == 1
    assert all(0 < x < 1 for x in report["equilibria"][0]["c"])


def test_count_flow_only(capsys):
    code, out, _ = _run(capsys, "count", "--flow-only", "--inflow", "2,3", "--outflow", "1,2", "--starts", "20")
    assert code == 0
    report = json.loads(out)
    assert np.allclose(report["equilibria"][0]["c"], [2.0, 1.5])
    assert report["degree_estimate"] == 1  # (-1)^2


def test_count_missing_binding_exits_one(capsys):
    code, _, err = _run(capsys, "count", "--fixture", "example-6.1", "--k", "A+B->P=1")
    assert code == 1
    assert "missing parameter binding" in err


def test_count_nonconservative_requires_mass(tmp_path, capsys):
    f = tmp_path / "auto.crn"
    f.write_text("A -> 2A\n")
    code, _, err = _run(capsys, "count", str(f), "--k", "A->2A=0.1")
    assert code == 1
    assert "not conservative" in err


def test_count_user_mass_vector(tmp_path, capsys):
    f = tmp_path / "dissip.crn"
    f.write_text("A+B -> P\n")
    code, out, _ = _run(capsys, "count", str(f), "--k", "A+B->P=1", "--mass", "1,1,1", "--starts", "40")
    report = json.loads(out)
    assert len(report["equilibria"]) == 1


def test_reports_are_byte_identical_across_reruns(capsys):
    args = ("count", "--fixture", "example-6.1", "--k", "A+B->P=1", "--k", "B+C->Q=1",
            "--k", "C->2A=0.5", "--starts", "40", "--seed", "9")
    _, out1, _ = _run(capsys, *args)
    _, out2, _ = _run(capsys, *args)
    assert out1 == out2


def test_json_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, "census", "--fixture", "table1-i", "--json", str(target))
    assert code == 2
    assert json.loads(target.read_text()) == json.loads(out)


def test_json_path_that_cannot_be_written_exits_one_before_printing(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = _run(capsys, "census", "--fixture", "table1-ii", "--json", str(target))
    assert (code, out) == (1, "")
    assert err == f"error: cannot write --json {target}: No such file or directory\n"
    code, out, err = _run(capsys, "census", "--fixture", "table1-ii", "--json", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"error: cannot write --json {tmp_path}: Is a directory\n"


def test_unknown_fixture_exits_one(capsys):
    code, _, err = _run(capsys, "census", "--fixture", "nope")
    assert code == 1
    assert err == f"error: unknown network fixture 'nope' (have: {', '.join(fixture_names())})\n"


def test_non_numeric_rate_binding_exits_one(capsys):
    code, out, err = _run(capsys, "count", "--fixture", "example-6.1", "--k", "C->2A=abc")
    assert (code, out) == (1, "")
    assert err == "error: --k expects NAME=VALUE with a numeric VALUE, got 'C->2A=abc'\n"


# The exact-vector options, each with a run that reaches its parse.
VECTOR_OPTIONS = {
    "--check": ("conserve", "--fixture", "example-6.1"),
    "--mass": ("count", "--fixture", "example-6.1", "--k", "A+B->P=1", "--k", "B+C->Q=1", "--k", "C->2A=0.5"),
}


@pytest.mark.parametrize("vector", ["1,a,1,1,1", "1,1/0,1,1,1"])
@pytest.mark.parametrize("option", sorted(VECTOR_OPTIONS))
def test_bad_mass_vector_exits_one_naming_option(capsys, option, vector):
    code, out, err = _run(capsys, *VECTOR_OPTIONS[option], option, vector)
    assert (code, out) == (1, "")
    assert err == f"error: bad {option} value {vector!r}\n"


@pytest.mark.parametrize(
    "vector, message",
    [
        ("1e400,1e400,2e400,2e400,3e400", "--mass entry '1e400' is out of float range"),
        ("1e-400,1e-400,2e-400,2e-400,3e-400", "--mass entry '1e-400' is out of float range"),
    ],
    ids=["overflow", "underflow"],
)
def test_mass_vector_beyond_float_range_exits_one_naming_mass(capsys, vector, message):
    # Both vectors are conserved: only their conversion to floats fails.
    code, out, err = _run(capsys, *VECTOR_OPTIONS["--mass"], "--mass", vector)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_numeric_fixture_rejected_for_census(capsys):
    code, _, err = _run(capsys, "census", "--fixture", "mapk-thron")
    assert code == 1
    assert "numeric model" in err


def test_count_non_unit_outflow_uses_symbolic_census(capsys):
    # The unit-outflow condition k[C->2A] <= 1 holds at 0.5, but with
    # outflow 0.25 the sound condition k[C->2A] <= k[C->0] fails.
    code, out, _ = _run(
        capsys, "count", "--fixture", "example-6.1",
        "--k", "A+B->P=1", "--k", "B+C->Q=1", "--k", "C->2A=0.5", "--outflow", "0.25",
    )
    report = json.loads(out)
    assert code == 2
    assert report["census"]["conditions_hold_at_parameters"] is False
    assert [c["inequality"] for c in report["census"]["dominance_conditions"]] == ["1*k[C->2A] <= 1*k[C->0]"]


@pytest.mark.parametrize("binding", ["typo=3", "C->2A=0", "C->2A=-0.5", "C->2A=nan", "C->2A=inf"])
def test_count_rejects_bad_rate_bindings(capsys, binding):
    # The bad binding takes the place of a valid one of the same name: a
    # name bound twice is refused on its own.
    rates = {"A+B->P": "1", "B+C->Q": "1", "C->2A": "0.5", **dict([binding.split("=")])}
    code, out, err = _run(capsys, "count", "--fixture", "example-6.1", *(f"--k={k}={v}" for k, v in rates.items()))
    assert code == 1
    assert out == ""
    assert ("left unbound by the network: typo" if binding.startswith("typo") else "must be finite and > 0") in err


def test_count_rejects_binding_of_rate_fixed_in_file(tmp_path, capsys):
    # The file's k=3 is the rate counted, so the census must not be
    # evaluated at the --k value instead.
    f = tmp_path / "fixed.crn"
    f.write_text("A+B -> P\nB+C -> Q\nC -> 2A ; k=3\n")
    code, out, err = _run(capsys, "count", str(f), "--k", "A+B->P=1", "--k", "B+C->Q=1", "--k", "C->2A=0.5")
    assert code == 1
    assert out == ""
    assert "left unbound by the network: C->2A" in err


@pytest.mark.parametrize(
    "extra",
    [["NETWORK"], ["--fixture", "example-6.1"], ["--fixture", "mapk-thron"], ["--k", "A->B=1"], ["--mass", "1,1"]],
    ids=["file", "fixture", "numeric-fixture", "k", "mass"],
)
def test_count_flow_only_rejects_network_arguments(tmp_path, capsys, extra):
    f = tmp_path / "net.crn"
    f.write_text("A -> B\n")
    argv = [str(f) if a == "NETWORK" else a for a in extra]
    code, out, err = _run(capsys, "count", "--flow-only", "--inflow", "1,2", *argv)
    assert code == 1
    assert out == ""
    assert "--flow-only takes no" in err


@pytest.mark.parametrize("fixture", ["mapk-thron", "mapk-cube"])
@pytest.mark.parametrize(
    "extra",
    [["NETWORK"], ["--inflow", "3"], ["--outflow", "5"], ["--mass", "1"]],
    ids=["file", "inflow", "outflow", "mass"],
)
def test_count_numeric_fixture_rejects_network_arguments(tmp_path, capsys, fixture, extra):
    # The cascades are fixed systems on a fixed box: flows and a mass vector
    # would be ignored, so they are refused.
    f = tmp_path / "net.crn"
    f.write_text("A -> B\n")
    argv = [str(f) if a == "NETWORK" else a for a in extra]
    code, out, err = _run(capsys, "count", "--fixture", fixture, *argv)
    assert code == 1
    assert out == ""
    assert f"--fixture {fixture} takes no network file" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--fixture", "example-6.1", "--k", "A+B->P=1", "--k", "B+C->Q=1", "--k", "C->2A=0.5", "--outflow", "inf"],
        ["--flow-only", "--inflow", "inf"],
    ],
    ids=["network-outflow", "flow-only-inflow"],
)
def test_count_rejects_non_finite_flows(capsys, argv):
    code, out, err = _run(capsys, "count", *argv)
    assert code == 1
    assert out == ""
    assert f"{argv[-2][2:]} rates must be finite and > 0, got inf" in err


def test_count_flow_only_without_species_exits_one(capsys):
    code, out, err = _run(capsys, "count", "--flow-only", "--inflow", ",", "--outflow", ",")
    assert (code, out) == (1, "")
    assert err == "error: --flow-only needs at least one species: --inflow and --outflow give no values\n"


_K_61 = ["--k", "A+B->P=1", "--k", "B+C->Q=1", "--k", "C->2A=0.5"]


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--starts", "-3", "--starts must be an integer >= 1, got -3"),
        ("--starts", "0", "--starts must be an integer >= 1, got 0"),
        ("--seed", "-1", "--seed must be an integer >= 0, got -1"),
    ],
)
@pytest.mark.parametrize(
    "run",
    [
        ["--fixture", "example-6.1", *_K_61],
        ["--fixture", "example-6.1", "--k", "A+B->P=1", "--k", "B+C->Q=1", "--k", "C->2A=2"],
        ["--fixture", "mapk-thron"],
        ["--flow-only"],
    ],
    ids=["certified", "uncertified", "cascade", "flow-only"],
)
def test_count_rejects_bad_starts_and_seed_on_every_path(capsys, run, option, value, message):
    # A certified run makes no Newton starts, but a bad --starts or --seed
    # is refused there too, before any system is built.
    code, out, err = _run(capsys, "count", *run, option, value)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--fixture", "example-6.1", *_K_61, "--k", "C->2A=3"], "C->2A"),
        (["--fixture", "example-6.1", *_K_61, "--k", "C->2A=0"], "C->2A"),
        (["--fixture", "example-6.1", "--k", "A+B->P=1", "--k", "A+B->P=1"], "A+B->P"),
        (["--fixture", "mapk-thron", "--k", "c0=2", "--k", "c0=3"], "c0"),
        (["--fixture", "mapk-cube", "--k", "mu=2", "--k", "mu=2"], "mu"),
    ],
    ids=["network-last-differs", "network-last-invalid", "network-same-value", "thron", "cube"],
)
def test_count_rejects_a_rate_bound_twice(capsys, argv, name):
    code, out, err = _run(capsys, "count", *argv)
    assert (code, out, err) == (1, "", f"error: --k binds {name} more than once\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--fixture", "example-6.1", *_K_61, "--inflow", "1e308"],
        ["--flow-only", "--inflow", "1e308,1e308"],
    ],
    ids=["network", "flow-only"],
)
def test_count_overflowing_inflow_exits_in_one_line(capsys, argv):
    # pytest turns numpy's overflow RuntimeWarning into an error, so a
    # warning on the way fails this test as well.
    code, out, err = _run(capsys, "count", *argv)
    inflow = ", ".join(["1e+308"] * (5 if "--fixture" in argv else 2))
    assert (code, out, err) == (1, "", f"error: m . c_in = inf overflows for inflow {inflow}\n")


def test_count_domain_bound_is_ten_times_the_mass_inflow(capsys):
    inflow = [0.1, 0.2, 0.3, 0.7, 1.3]
    code, out, _ = _run(capsys, "count", "--fixture", "example-6.1", *_K_61, "--inflow", ",".join(map(str, inflow)))
    m = conserved_mass_vector(fixture_network("example-6.1")).as_floats()
    assert code == 0
    assert json.loads(out)["domain"]["M"] == 10.0 * float(np.dot(m, inflow))


@pytest.mark.parametrize("extra", [["--inflow", "1e307"]], ids=["inflow-overflows-M"])
def test_count_rejects_non_finite_domain_bound(capsys, extra):
    code, out, err = _run(capsys, "count", "--fixture", "example-6.1", *_K_61, *extra)
    assert code == 1
    assert out == ""
    assert "bound M = inf must be finite" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mapk-thron", "--k", "c0=inf"], "parameter c0 must be finite and > 0, got inf"),
        (["mapk-thron", "--k", "p1=nan"], "parameter p1 must be finite and > 0, got nan"),
        (["mapk-cube", "--k", "mu=inf"], "parameter mu must be finite and > 0, got inf"),
        (["mapk-thron", "--k", "c0=1e12"], "unique equilibrium, found 0"),
        (["mapk-cube", "--k", "mu=1e9"], "unique equilibrium, found 0"),
    ],
    ids=["thron-c0-inf", "thron-p1-nan", "cube-mu-inf", "thron-c0-1e12", "cube-mu-1e9"],
)
def test_count_cascade_certifies_only_one_root(capsys, argv, message):
    # Each cascade has exactly one positive equilibrium for every positive
    # parameter set, so the count must find exactly one root in its box, as
    # on the network path; parameters that are not finite and > 0 are refused.
    code, out, err = _run(capsys, "count", "--fixture", *argv)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "signs, message",
    [
        ((-1, 1), "one-signed determinant guarantees a unique equilibrium, found 2; Newton starts: converged 30"),
        ((1,), "one-signed determinant has sign -1, but det J is 1 at the equilibrium"),
    ],
    ids=["two-roots", "wrong-sign"],
)
def test_count_cascade_enforces_the_degree_rule(monkeypatch, capsys, signs, message):
    # A certified cascade run must count exactly one equilibrium, where det J
    # has the sign (-1)^3; any other count fails in one line.
    roots = [Equilibrium((0.25 * (i + 1),) * 3, 0.0, sign) for i, sign in enumerate(signs)]
    monkeypatch.setattr(cli, "count_equilibria", lambda *a, **kw: EquilibriumReport(roots, 30, 0, {"converged": 30}))
    code, out, err = _run(capsys, "count", "--fixture", "mapk-thron")
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def _thron_c3(p, c0):
    """Bisection root of p1*c0/(p2+c3) = p5*c3/(p6+c3), whose difference
    decreases strictly in c3 from p1*c0/p2 > 0 towards -p5 < 0."""
    h = lambda c3: p[0] * c0 / (p[1] + c3) - p[4] * c3 / (p[5] + c3)
    lo, hi = 0.0, 1.0
    while h(hi) > 0:
        lo, hi = hi, 2 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if h(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def _bindings(names, values):
    return [a for name, value in zip(names, values) for a in ("--k", f"{name}={float(value)!r}")]


def test_count_thron_matches_scalar_equation(capsys):
    # The stated argument for mapk-thron: the one positive equilibrium has the
    # c3 solving the scalar equation.
    rng = np.random.default_rng(31)
    for draw in range(12):
        p, c0 = 10 ** rng.uniform(-1, 1, 6), 10 ** rng.uniform(-1, 0)
        c3 = _thron_c3(p, c0)
        c1 = p[0] * c0 / (p[2] * (p[1] + c3))
        assert max(c1, p[2] * c1 / p[3], c3) < 256  # inside the counting box (0, 256)^3
        argv = ["count", "--fixture", "mapk-thron", *_bindings([f"p{i}" for i in range(1, 7)] + ["c0"], [*p, c0])]
        code, out, err = _run(capsys, *argv, "--seed", str(draw))
        assert code == 0, (draw, err)
        report = json.loads(out)
        assert len(report["equilibria"]) == 1
        assert abs(report["equilibria"][0]["c"][2] - c3) <= 1e-9 * max(1.0, c3), draw
        assert report["boundary"]["argument"].startswith("every equilibrium solves p1*c0/(p2+c3) = p5*c3/(p6+c3)")


# The benchmark's "slow" mapk-cube rate set, on which most Newton starts crawl.
CUBE_SLOW = [2.92, 0.32, 0.24, 0.44, 0.15, 7.43, 0.54, 0.22, 0.10, 0.13, 0.27, 0.68, 1.6, 9.16]
CUBE_KEYS = [f"{stem}{i}" for stem in "abde" for i in (1, 2, 3)] + ["mu", "k"]


def test_count_cube_face_signs_hold(capsys):
    # The stated argument for mapk-cube: f_j >= 0 and f != 0 on each face
    # c_j = 0, f_j = -b_j/(1+a_j) < 0 on each face c_j = 1, det J < 0 inside.
    rng = np.random.default_rng(32)
    draws = [CUBE_SLOW] + [list(10 ** rng.uniform(-1, 1, 14)) for _ in range(8)]
    box = unit_cube()
    for draw, v in enumerate(draws):
        a, b = np.array(v[0:3]), np.array(v[3:6])
        sys_ = mapk_cube(v[0:3], v[3:6], v[6:9], v[9:12], v[12], v[13])
        assert box_audit(sys_, box, samples=600, seed=draw).clean, draw
        for j in range(3):
            for c in box.sample_face(j, upper=False, count=50, seed=10 * draw + j):
                f = sys_.f(c)
                assert f[j] >= 0 and np.max(np.abs(f)) > 0
            for c in box.sample_face(j, upper=True, count=50, seed=10 * draw + j):
                assert sys_.f(c)[j] == pytest.approx(-b[j] / (1 + a[j]), rel=1e-12) and sys_.f(c)[j] < 0
        for c in box.sample_interior(50, seed=draw):
            assert np.linalg.det(sys_.jac(c)) < 0
        code, out, err = _run(capsys, "count", "--fixture", "mapk-cube", *_bindings(CUBE_KEYS, v), "--seed", str(draw))
        assert code == 0, (draw, err)
        report = json.loads(out)
        assert len(report["equilibria"]) == 1 and report["degree_estimate"] == -1
        assert report["boundary"]["violations"] == []
        # Newton starts that wandered out of the cube crawled for the whole
        # iteration budget (CUBE_SLOW ended 28 of 100 starts that way).
        assert "max-iterations" not in report["newton_statuses"], draw


def test_count_mapk_cube_newton_stays_in_the_cube(capsys):
    # Newton starts left free in the orthant reached roots of the field's
    # continuation outside the cube; at these rates every converged start
    # did, and the certified run exited 1 with "found 0".
    v = [1.39858, 0.146751, 2.87924, 0.681638, 7.72358, 0.109182, 0.684679, 0.94059, 4.59374,
         0.023123, 0.296173, 0.0335811, 7.26609, 4.85598]
    code, out, err = _run(capsys, "count", "--fixture", "mapk-cube", *_bindings(CUBE_KEYS, v))
    assert code == 0, err
    (equilibrium,) = json.loads(out)["equilibria"]
    assert unit_cube().contains(np.array(equilibrium["c"]))


def test_count_samples_no_boundary(monkeypatch, capsys):
    # Every crn count certificate is a stated argument: no run may call a
    # sampled audit.
    def refuse(*args, **kwargs):
        raise AssertionError("crn count called a sampled boundary audit")

    for name, module in list(sys.modules.items()):
        if name == "crncount" or name.startswith("crncount."):
            for audit in ("box_audit", "boundary_audit"):
                if hasattr(module, audit):
                    monkeypatch.setattr(module, audit, refuse)
    for argv in (
        ["--fixture", "example-6.1", "--k", "A+B->P=1", "--k", "B+C->Q=1", "--k", "C->2A=0.5"],
        ["--flow-only", "--inflow", "2,3", "--outflow", "1,2"],
        ["--fixture", "mapk-thron", "--k", "c0=1"],
        ["--fixture", "mapk-cube", "--k", "mu=2"],
    ):
        code, out, err = _run(capsys, "count", *argv, "--starts", "30")
        assert code == 0, (argv, err)
        assert json.loads(out)["boundary"]["certified"] is True


def test_count_general_kinetics_file_points_to_census(tmp_path, capsys):
    # Numeric systems are mass-action only; general kinetics are census-only.
    f = tmp_path / "general.crn"
    f.write_text("A -> B ; kinetics=general\n")
    code, out, err = _run(capsys, "count", str(f))
    assert code == 1
    assert out == ""
    assert err == "error: count needs mass-action kinetics; A->B is general (census-only: crn census --kinetics general)\n"


def test_count_reports_newton_statuses(capsys):
    # An uncertified run's report tallies how every Newton start ended,
    # converged_runs among them.
    code, out, _ = _run(
        capsys, "count", "--fixture", "example-6.1", "--k", "A+B->P=1", "--k", "B+C->Q=1", "--k", "C->2A=2",
        "--starts", "60", "--seed", "1",
    )
    assert code == 2
    report = json.loads(out)
    statuses = report["newton_statuses"]
    assert sum(statuses.values()) == 60 and all(k > 0 for k in statuses.values())
    assert statuses["converged"] == report["converged_runs"]
    assert set(statuses) <= {"converged", "non-finite", "singular-jacobian", "no-descent", "diverged", "max-iterations"}


def _k_args(rates):
    return [a for label, value in rates.items() for a in ("--k", f"{label}={value!r}")]


def _unit_rates(fixture):
    return [a for r in fixture_network(fixture).reactions for a in ("--k", f"{r.label}=1")]


def test_count_certified_runs_take_the_homotopy_path(monkeypatch, capsys):
    # On a certified network or --flow-only run the lambda-path is the
    # count: multistart Newton must not run, and the report has no starts.
    def refuse(*args, **kwargs):
        raise AssertionError("a certified run called count_equilibria")

    monkeypatch.setattr(cli, "count_equilibria", refuse)
    for argv in (
        ["--fixture", "example-6.1", *_K_61],
        ["--fixture", "table1-ii", *_unit_rates("table1-ii")],
        ["--flow-only", "--inflow", "2,3", "--outflow", "1,2"],
    ):
        code, out, err = _run(capsys, "count", *argv)
        assert code == 0, (argv, err)
        report = json.loads(out)
        assert set(report) == {"domain", "equilibria", "degree_estimate", "tol", "homotopy", "boundary", "census"}
        assert set(report["homotopy"]) == {"endpoint", "endpoint_residual", "steps", "stalled"}
        (equilibrium,) = report["equilibria"]
        assert equilibrium["c"] == report["homotopy"]["endpoint"]
        assert equilibrium["residual"] == report["homotopy"]["endpoint_residual"]
        assert report["degree_estimate"] == equilibrium["det_sign"]


@pytest.mark.parametrize("outflow", ["1e-300", "1e-8"])
def test_count_overflowing_path_fails_in_one_line(capsys, outflow):
    # At outflow 1e-300 the path starts at c = c_in/outflow = 1e300, where
    # the mass-action terms overflow; at 1e-8 it starts at c = 1e8.  Either
    # run exits 0, or exits 1 with one error line and no numpy warning.
    code, out, err = _run(capsys, "count", "--fixture", "table1-iv", *_unit_rates("table1-iv"), "--outflow", outflow)
    if code == 0:
        assert len(json.loads(out)["equilibria"]) == 1
    else:
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if outflow == "1e-300":
        assert err == "error: non-finite f_lambda or J_lambda (last good lambda = 0)\n"


def _relative_residual(rates, flows, c):
    """||f(c)|| over the norm of f's term-wise magnitudes at c."""
    net = fixture_network("example-6.1")
    system = numeric_system_from_network(net, rates, flows)
    _, _, _, magnitudes = system.evaluate(c, terms=True)
    return np.linalg.norm(system.f(c)) / np.linalg.norm(system.c_in + system.outflow * c + magnitudes)


@pytest.mark.parametrize("inflow, steps", [("1e17", 35), ("1e50", 145)])
def test_count_strong_inflow_path_reaches_its_root(capsys, inflow, steps):
    # At a large inflow the zero moves over a lambda of about
    # ||c_in|| / ||g(c_in/outflow)||, far below 1e-10; the step floor scales
    # with that ratio, so the certified path reaches its root instead of
    # stalling at lambda = 0.
    code, out, err = _run(capsys, "count", "--fixture", "example-6.1", *_K_61, "--inflow", inflow)
    assert code == 0, err
    report = json.loads(out)
    assert report["homotopy"]["steps"] == steps
    (equilibrium,) = report["equilibria"]
    assert equilibrium["det_sign"] == -1
    flows = FlowAugmentation.uniform(5, inflow=float(inflow))
    assert _relative_residual({"A+B->P": 1, "B+C->Q": 1, "C->2A": 0.5}, flows, np.array(equilibrium["c"])) < 1e-15


def test_count_tiny_outflow_lists_the_path_root(capsys):
    # At outflow 1e-9 no Newton start converges; the lambda-path, whose step
    # floor scales with the strength of the system, reaches the one root,
    # with the degree (-1)^5.
    code, out, err = _run(capsys, "count", "--fixture", "example-6.1", *_K_61, "--outflow", "1e-9")
    assert code == 2, err
    report = json.loads(out)
    assert report["newton_statuses"] == {"max-iterations": 1, "no-descent": 99}
    assert (report["homotopy"]["steps"], report["homotopy"]["matched_equilibrium"]) == (44, 0)
    (equilibrium,) = report["equilibria"]
    assert equilibrium["c"] == report["homotopy"]["endpoint"]
    assert report["degree_estimate"] == equilibrium["det_sign"] == -1
    flows = FlowAugmentation.uniform(5, outflow=1e-9)
    assert _relative_residual({"A+B->P": 1, "B+C->Q": 1, "C->2A": 0.5}, flows, np.array(equilibrium["c"])) < 1e-15


def test_count_table1_iv_small_outflow(capsys):
    # Multistart Newton finds no root of this certified run; the lambda-path does.
    code, out, err = _run(capsys, "count", "--fixture", "table1-iv", *_unit_rates("table1-iv"), "--outflow", "1e-3")
    assert code == 0, err
    (equilibrium,) = json.loads(out)["equilibria"]
    assert np.allclose(equilibrium["c"], [501.5, 2.99, 1498.5, 501.5, 1498.5], rtol=2e-3)


def test_count_uncertified_lists_the_path_endpoint_newton_missed(capsys):
    # Draw 9 of example-6.1 in acceptance criterion 12's seed-5 sweep: the
    # census leaves it uncertified and every Newton start ends no-descent, so
    # the one root listed is the endpoint of the lambda-path.
    rates = {"A+B->P": 0.14989442646734086, "B+C->Q": 0.5942531689885499, "C->2A": 0.11111027383071961}
    outflow = 0.0015373277318452717
    code, out, err = _run(capsys, "count", "--fixture", "example-6.1", "--outflow", repr(outflow), *_k_args(rates))
    assert code == 2, err
    report = json.loads(out)
    assert report["newton_statuses"] == {"no-descent": 100}
    (equilibrium,) = report["equilibria"]
    assert report["homotopy"]["matched_equilibrium"] == 0
    assert equilibrium["c"] == report["homotopy"]["endpoint"]
    assert equilibrium["residual"] == report["homotopy"]["endpoint_residual"]
    assert report["degree_estimate"] == equilibrium["det_sign"] == -1
    net = fixture_network("example-6.1")
    system = numeric_system_from_network(net, rates, FlowAugmentation.uniform(net.n, outflow=outflow))
    c = np.array(equilibrium["c"])
    assert np.linalg.norm(system.f(c)) == pytest.approx(equilibrium["residual"])
    assert np.linalg.norm(system.f(c)) <= 1e-12 * np.linalg.norm(c)


def test_uncertified_counts_list_a_root_wherever_the_path_ends(capsys):
    # The degree (-1)^n guarantees a root.  In acceptance criterion 12's
    # seed-5 sweep, every draw the census leaves uncertified has a path that
    # reaches lambda = 1, so each report lists at least one equilibrium, the
    # endpoint matches one of them, and the degree is the sum of the signs.
    rng = np.random.default_rng(5)
    uncertified = 0
    for name in NETWORK_FIXTURES:
        net = fixture_network(name)
        for draw in range(20):
            k = {r.label: float(10 ** rng.uniform(-2, 2)) for r in net.reactions}
            outflow = float(10 ** rng.uniform(-3, 1))
            if certify(net, k, FlowAugmentation.uniform(net.n, outflow=outflow))[1]:
                continue
            uncertified += 1
            code, out, err = _run(capsys, "count", "--fixture", name, "--outflow", repr(outflow), *_k_args(k))
            assert code == 2, (name, draw, err)
            report = json.loads(out)
            equilibria, matched = report["equilibria"], report["homotopy"]["matched_equilibrium"]
            assert equilibria and isinstance(matched, int), (name, draw)
            c, endpoint = np.array(equilibria[matched]["c"]), np.array(report["homotopy"]["endpoint"])
            assert np.linalg.norm(c - endpoint) <= 1e-6 * (1 + np.linalg.norm(c)), (name, draw)
            assert report["degree_estimate"] == sum(e["det_sign"] for e in equilibria), (name, draw)
    assert uncertified == 138


def _boundary_cases():
    for index, name in enumerate(NETWORK_FIXTURES):
        rng = np.random.default_rng(index)
        k = {r.label: float(10 ** rng.uniform(-1, 1)) for r in fixture_network(name).reactions}
        for outflow in (1.0, 0.5):
            yield pytest.param(name, k, outflow, None, id=f"{name}-outflow-{outflow}")
    yield pytest.param("A+B -> P\n", {"A+B->P": 1.0}, 1.0, "1,1,1", id="dissipating-mass")


@pytest.mark.parametrize("network, k, outflow, mass", _boundary_cases())
def test_structural_boundary_agrees_with_sampled_audit(tmp_path, capsys, network, k, outflow, mass):
    # crn count states the boundary argument without sampling; a 2000-point
    # audit of the same system and domain must find it true.
    if mass is None:
        net, source = fixture_network(network), ["--fixture", network]
        m = conserved_mass_vector(net).as_floats()
    else:
        f = tmp_path / "net.crn"
        f.write_text(network)
        net, source = parse_network(network), [str(f), "--mass", mass]
        m = [float(x) for x in mass.split(",")]
    argv = ["count", *source, "--outflow", repr(outflow), "--starts", "20"]
    for label, value in k.items():
        argv += ["--k", f"{label}={value!r}"]
    code, out, _ = _run(capsys, *argv)
    assert code in (0, 2)
    report = json.loads(out)
    assert report["boundary"]["certified"] is True
    assert report["boundary"]["violations"] == []
    flows = FlowAugmentation.uniform(net.n, outflow=outflow)
    domain = default_domain(m, flows)
    assert report["domain"]["m"] == list(domain.m) and report["domain"]["M"] == domain.bound
    audit = boundary_audit(numeric_system_from_network(net, k, flows), domain, samples=2000)
    assert audit.clean, audit.violations[:3]


def test_readme_examples_exit_codes(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    checked, comment = 0, ""
    for line in examples.splitlines():
        if line.startswith("#"):
            comment += line
        elif line.startswith("crn "):
            stated = re.search(r"exit code (\d)", comment)
            if stated:
                code, _, err = _run(capsys, *shlex.split(line)[1:])
                assert code == int(stated.group(1)), (line, err)
                checked += 1
            comment = ""
    assert checked


def test_readme_python_api_runs():
    # The README's Python API block runs as written, so it cannot name a
    # deleted function.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Python API\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert namespace["census"].total_terms == 13
    assert namespace["report"].count == 1
    assert namespace["audit"].clean
    assert namespace["at"] is True and namespace["on"] is False


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call, SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_main_reuses_one_parser_across_calls(tmp_path, capsys):
    # The file fixes every rate but C->2A, so a --k binding left over from
    # an earlier call would turn the plain count's missing-binding error
    # into a count.
    f = tmp_path / "c2a.crn"
    f.write_text("A+B -> P ; k=1\nB+C -> Q ; k=1\nC -> 2A\n")
    bound = ("count", str(f), "--k", "C->2A=2", "--starts", "20", "--seed", "3")
    plain = ("count", str(f), "--starts", "20", "--seed", "3")
    bad = ("count", str(f), "--no-such-option")
    first = {}
    for argv in (bound, plain, bad):
        cli._build_parser.cache_clear()
        first[argv] = _outcome(capsys, argv)
    assert first[bound][0] == 2 and json.loads(first[bound][1])["census"]["conditions_hold_at_parameters"] is False
    assert first[plain][0] == 1 and "missing parameter binding" in first[plain][2]
    assert first[bad][0] == 2 and "--no-such-option" in first[bad][2]
    cli._build_parser.cache_clear()
    for argv in (bound, plain, bad, plain):
        assert _outcome(capsys, argv) == first[argv], argv
    assert cli._build_parser() is cli._build_parser()
