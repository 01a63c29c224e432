"""Smoke test of the benchmark itself (about fifteen seconds):

    python3 -m pytest bench/test_smoke.py

Runs each workload on a few jobs, traced and untraced, and checks that the
metrics it emits are the ones BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_metrics_match_benchmark_json(workload, trace):
    metrics, loop, _ = run.execute(workload, seed=1, seconds=0, trace=trace, job_limit=3, setup_repeats=1)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: unit for name, (_, unit) in metrics.items()} == {m["name"]: m["unit"] for m in declared}
    assert loop.attempted == (6 if trace else 3)
    assert loop.failed == 0 and not loop.wrong


def test_fails_without_program_sources():
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=run.ROOT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        for path in BENCHMARK["paths"]:
            shutil.copytree(run.ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, *BENCHMARK["command"][1:], "--workload", "census", "--seed", "1", "--seconds", "1"]
        proc = subprocess.run(argv, cwd=tmp, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
