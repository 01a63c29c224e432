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


def test_bench_pairs_keeps_every_seed(bench_pairs, tmp_path):
    # Two runs of one workload at seeds 7 and 3 into one --out file: the
    # second adds its entry beside the first instead of replacing it.
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": [{"name": "jobs_per_s", "better": "higher"}]}))
    out = tmp_path / "BENCH.json"
    for seed in (7, 3):
        argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "multistat",
                "--pairs", "2", "--seconds", "1", "--seed", str(seed), "--out", str(out)]
        assert bench_pairs.main(argv) == 0
    report = json.loads(out.read_text())
    assert sorted(report) == ["multistat seed 3", "multistat seed 7"]
    for seed in (7, 3):
        entry = report[f"multistat seed {seed}"]
        assert entry["seed"] == seed and entry["pairs"] == 2
        jobs = entry["metrics"]["jobs_per_s"]
        assert (jobs["parent"]["median"], jobs["change"]["median"], jobs["change"]["wins"]) == (seed, seed + 1, 2)
