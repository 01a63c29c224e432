import json

import numpy as np
import pytest

from crncount.cli import main


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
    assert report["boundary_audit"]["side_violations"] == []


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
