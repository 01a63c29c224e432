import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_pairs(monkeypatch):
    module = _load("bench_pairs")

    def run_once(checkout, side, workload, seed, seconds):
        value = seed + (1.0 if side == "change" else 0.0)
        return {"correct": True, "failed": 0, "metrics": {"jobs_per_s": {"value": value, "unit": "1/s"}}}

    monkeypatch.setattr(module, "run_once", run_once)
    return module


def _run_seeds(bench_pairs, tmp_path, seeds):
    """bench_pairs.main on one workload at each seed in turn, into one --out file; the report."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir(exist_ok=True)
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": [{"name": "jobs_per_s", "better": "higher"}]}))
    out = tmp_path / "BENCH.json"
    for seed in seeds:
        argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "multistat",
                "--pairs", "2", "--seconds", "1", "--seed", str(seed), "--out", str(out)]
        assert bench_pairs.main(argv) == 0
    return json.loads(out.read_text())


def test_bench_pairs_keeps_every_seed(bench_pairs, tmp_path):
    # Two runs of one workload at seeds 7 and 3 into one --out file: the
    # second adds its entry beside the first instead of replacing it.
    report = _run_seeds(bench_pairs, tmp_path, (7, 3))
    assert sorted(report) == ["multistat seed 3", "multistat seed 7"]
    for seed in (7, 3):
        entry = report[f"multistat seed {seed}"]
        assert entry["seed"] == seed and entry["pairs"] == 2
        jobs = entry["metrics"]["jobs_per_s"]
        assert (jobs["parent"]["median"], jobs["change"]["median"], jobs["change"]["wins"]) == (seed, seed + 1, 2)


def test_bench_pairs_keeps_a_repeat_run(bench_pairs, tmp_path, capsys):
    # Three runs of one workload at one seed: each later run gets its own
    # "repeat k" entry instead of replacing the first.  The stub's change wins
    # every pair by 1 over a parent IQR of 0, so the claim rule is met.
    report = _run_seeds(bench_pairs, tmp_path, (7, 7, 7))
    assert sorted(report) == ["multistat seed 7", "multistat seed 7 repeat 2", "multistat seed 7 repeat 3"]
    for entry in report.values():
        assert entry["seed"] == 7 and entry["metrics"]["jobs_per_s"]["claim_met"] is True
    assert capsys.readouterr().out.count("claim met") == 3


def test_bench_pairs_claim_needs_a_gap_above_the_parent_iqr(bench_pairs):
    # The change wins all four pairs, but by 1 against a parent IQR of 1.5;
    # with lower-is-better the same figures are four parent wins.
    def runs(parent, change):
        return {side: [{"metrics": {"t": {"value": v, "unit": "s"}}} for v in values]
                for side, values in (("parent", parent), ("change", change))}
    higher = bench_pairs.compare(runs([10, 11, 12, 13], [11, 12, 13, 14]), [{"name": "t", "better": "higher"}])["t"]
    assert (higher["change"]["wins"], higher["parent"]["iqr"], higher["claim_met"]) == (4, 1.5, False)
    wide = bench_pairs.compare(runs([10, 11, 12, 13], [14, 15, 16, 17]), [{"name": "t", "better": "higher"}])["t"]
    assert wide["claim_met"] is True
    lower = bench_pairs.compare(runs([10, 11, 12, 13], [14, 15, 16, 17]), [{"name": "t", "better": "lower"}])["t"]
    assert (lower["parent"]["wins"], lower["claim_met"]) == (4, False)


@pytest.fixture
def job_diff(monkeypatch):
    # Each checkout's rows come from the census API in this process, with
    # three random networks, and every ring at n = 5: the larger rings take
    # most of a census pass.
    import census_reference

    module = _load("job_diff")
    ring = census_reference.ring(5)
    monkeypatch.setattr(module, "RANDOM_NETWORKS", 3)
    monkeypatch.setattr(census_reference, "ring", lambda n: ring)

    def run_checkout(checkout, seeds):
        return {(seed, job): ("census-api", code, text) for seed in seeds for job, code, text in module.censuses(seed)}

    monkeypatch.setattr(module, "run_checkout", run_checkout)
    return module


def test_job_diff_differences_name_each_leaf_path(job_diff):
    a = {"x": 1, "y": [1.0, {"z": "a"}], "w": [1, 2], "v": 2}
    b = {"x": 1, "y": [1.5, {"z": "b"}], "w": [1], "u": 3, "v": 2.0}
    assert list(job_diff.differences(a, b)) == [
        ("u", "<absent>", 3), ("v", 2, 2.0), ("w.length", 2, 1), ("y[0]", 1.0, 1.5), ("y[1].z", "a", "b"),
    ]
    assert job_diff.relative_change(1.0, 1.5) == 0.5 / 1.5 and job_diff.relative_change(2, 2.0) is None


def _summary(out, row):
    return [line for line in out.splitlines() if line.startswith(f"summary {row}:")]


def test_job_diff_identical_sides_exit_0(job_diff, capsys):
    assert job_diff.main(["parent", "parent", "5"]) == 0
    out = capsys.readouterr().out
    assert _summary(out, "census-api") == ["summary census-api: 0 of 80 jobs differ"]
    assert _summary(out, "count") == ["summary count: 0 of 0 jobs differ"]


def test_job_diff_names_a_census_change(job_diff, monkeypatch, capsys):
    # The change side writes its dominance inequalities with "=<": the
    # census-api row names the paths that moved, and main exits 1.
    from crncount import jacobian

    group_inequality, run_checkout = jacobian._group_inequality, job_diff.run_checkout

    def changed(*args):
        inequality, lhs, rhs = group_inequality(*args)
        return inequality.replace("<=", "=<"), lhs, rhs

    def run_side(checkout, seeds):
        with monkeypatch.context() as patch:
            if checkout.name == "change":
                patch.setattr(jacobian, "_group_inequality", changed)
            return run_checkout(checkout, seeds)

    monkeypatch.setattr(job_diff, "run_checkout", run_side)
    assert job_diff.main(["parent", "change", "5"]) == 1
    summary = _summary(capsys.readouterr().out, "census-api")
    assert summary[0].startswith("summary census-api: ") and summary[0].endswith(" of 80 jobs differ")
    assert int(summary[0].split()[2]) > 0
    assert summary[1:] == [
        "summary census-api: conditions[].inequality changed",
        "summary census-api: report.dominance_conditions[].inequality changed",
    ]
