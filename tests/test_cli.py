import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from crncount.cli import main
from crncount.conservation import conserved_mass_vector
from crncount.dsl import parse_network
from crncount.fixtures import NETWORK_FIXTURES, fixture_network
from crncount.network import FlowAugmentation
from crncount.numeric import boundary_audit, default_domain, numeric_system_from_network


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


def test_census_symbolic_outflows(capsys):
    code, out, _ = _run(capsys, "census", "--fixture", "example-6.1", "--outflow", "symbolic")
    assert code == 2
    report = json.loads(out)
    assert report["outflow"] == "symbolic"
    assert len(report["anomalous"]) == 1
    assert report["uniqueness_certified"] is False
    # without the unit normalization the bound becomes the outflow constant
    assert report["dominance_conditions"] == [{"inequality": "1*k[C->2A] <= 1*k[C->0]", "covered": True}]


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
    assert report["homotopy"]["matched_equilibrium"] == 0
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


def test_unknown_fixture_exits_one(capsys):
    code, _, err = _run(capsys, "census", "--fixture", "nope")
    assert code == 1
    assert "unknown network fixture" in err


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
    code, out, err = _run(
        capsys, "count", "--fixture", "example-6.1", "--k", "A+B->P=1", "--k", "B+C->Q=1", "--k", "C->2A=0.5",
        "--k", binding,
    )
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
    [["NETWORK"], ["--inflow", "3"], ["--outflow", "5"], ["--mass", "1"], ["--domain-mult", "4"]],
    ids=["file", "inflow", "outflow", "mass", "domain-mult"],
)
def test_count_numeric_fixture_rejects_network_arguments(tmp_path, capsys, fixture, extra):
    # The cascades are fixed systems on a fixed box: flows, a mass vector
    # and a domain multiplier would be ignored, so they are refused.
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


_K_61 = ["--k", "A+B->P=1", "--k", "B+C->Q=1", "--k", "C->2A=0.5"]


@pytest.mark.parametrize(
    "extra", [["--domain-mult", "inf"], ["--inflow", "1e307"]], ids=["domain-mult-inf", "inflow-overflows-M"]
)
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
    # A clean box audit certifies a cascade, so the count must then find
    # exactly one root, as on the network path; parameters that are not
    # finite and > 0 are refused before the audit.
    code, out, err = _run(capsys, "count", "--fixture", *argv)
    assert code == 1
    assert out == ""
    assert message in err


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
