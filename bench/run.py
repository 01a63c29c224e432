"""crncount benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload census|count|multistat --seed N --seconds S --trace 0|1

A single-process closed loop with one client: the workload's seeded job
list is run pass after pass, each job only after the previous one ends,
until ``--seconds`` have passed (always whole passes).  Every output is
checked against independent references (``oracles``).  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  Job times are scaled to a
reference machine speed, measured by a fixed kernel of the benchmark's own
timed on either side of each job (``kernel_seconds``).  A job's time is the
median of its scaled repeats; ``job_p50_ms`` is the median of those over the
job list and ``job_tail_ms`` the highest percentile that leaves at least ten
jobs beyond it.  ``setup_s`` is the median over fresh interpreters of
importing crncount.cli and generating the inputs, in wall seconds.
--trace 1 runs each job untraced and then traced, and reports per-layer
metrics (totals per pass of the job list) and the tracing overhead; the
spans go to .bench_trace/<workload>-seed<N>.jsonl.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads (the machine has two cores).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("census", "count", "multistat")
SETUP_REPEATS = 3

# The machine is shared, and other tenants change its speed by up to 2x
# within seconds, in user and wall time alike.  Timing a fixed kernel before
# and after each job measures the speed the job ran at; reported times are
# scaled to the speed at which the kernel takes KERNEL_REFERENCE_S (its
# median on the 2-vCPU VM of the baseline in README.md).
KERNEL_REFERENCE_S = 2.3e-3

# A fresh interpreter that sets up one workload; the parent times it.
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import run; run.setup(sys.argv[2], int(sys.argv[3]))"


def load_program():
    """Import crncount.cli from this checkout's sources, before anything else that could load scipy."""
    src = ROOT / "src"
    if not (src / "crncount" / "cli.py").is_file():
        raise SystemExit(f"error: crncount sources not found under {src}")
    sys.path.insert(0, str(src))
    import crncount.cli

    if not Path(crncount.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported crncount from {crncount.cli.__file__}, not from {src}")


def setup(workload: str, seed: int):
    load_program()
    import workloads

    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as work:
        workloads.build(workload, seed, work)


def speed_kernel():
    """Fixed work that does not touch crncount: dict and tuple arithmetic, and small matrix products."""
    import numpy as np

    counts = {}
    for i in range(3000):
        key = (i * 7 % 41, i * 13 % 17)
        counts[key] = counts.get(key, 0) + 3 * i
    a = np.arange(64.0).reshape(8, 8)
    for _ in range(20):
        a = a @ a.T / 1e3 + 1.0
    return sorted(counts.items())


def kernel_seconds() -> float:
    """The machine's current speed, as the mean time of three runs of the kernel.

    The mean, not the fastest run: a job feels the machine's average speed
    over its run, short slowdowns included.
    """
    start = time.perf_counter()
    for _ in range(3):
        speed_kernel()
    return (time.perf_counter() - start) / 3


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """A time taken between two kernel timings, at the reference speed."""
    return seconds * 2 * KERNEL_REFERENCE_S / (kernel_before + kernel_after)


def time_setup(workload: str, seed: int) -> float:
    # Not scaled: kernel timings taken around a child process track its
    # time worse than the raw figure varies.
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(Path(__file__).resolve().parent), workload, str(seed)],
        cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


class Loop:
    """Runs a job list in whole passes and keeps every time and verdict."""

    def __init__(self, jobs, tracer=None):
        self.jobs = jobs
        self.tracer = tracer
        self.times = {job.name: [] for job in jobs}  # untraced seconds per repeat, scaled
        self.traced_seconds = 0.0  # traced repeats, and
        self.paired_seconds = 0.0  # the untraced repeats just before them
        self.passes = self.attempted = self.failed = 0
        self.first = {}  # job name -> output text of its first run
        self.wrong = {}  # job name -> problems
        self.known = {}  # job name -> its known defect, when shown

    def run(self, seconds: float):
        start = time.perf_counter()
        while self.passes == 0 or time.perf_counter() - start < seconds:
            before = kernel_seconds()
            for job in self.jobs:
                untraced = self._execute(job, traced=False)
                if self.tracer is None:
                    after = kernel_seconds()
                    if untraced is not None:
                        self.times[job.name].append(scaled(untraced, before, after))
                    before = after
                else:
                    traced = self._execute(job, traced=True)
                    if untraced is not None and traced is not None:
                        self.traced_seconds += traced
                        self.paired_seconds += untraced
            self.passes += 1

    def _execute(self, job, traced: bool):
        self.attempted += 1
        if traced:
            self.tracer.install(f"{self.passes}:{job.name}")
        start = time.perf_counter()
        try:
            result = job.run()
        except (Exception, SystemExit) as exc:
            result, error = None, repr(exc)
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.uninstall()
        if result is None or result.code == 1:
            self.failed += 1
            print(f"FAILED {job.name}: {error if result is None else 'exit 1'}", file=sys.stderr)
            return None
        self._judge(job, result)
        return elapsed

    def _judge(self, job, result):
        if job.name in self.first:
            if result.text != self.first[job.name]:
                self.wrong.setdefault(job.name, []).append("output differs between repeats")
            return
        self.first[job.name] = result.text
        try:
            problems = job.check(result)
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
        if problems and problems == [job.known_defect]:
            self.known[job.name] = job.known_defect
        elif problems:
            self.wrong[job.name] = problems

    @property
    def wrong_results(self) -> int:
        return len(self.wrong) + len(self.known)


def end_to_end(loop: Loop, setup_times):
    # A job's time is the median of its scaled repeats.
    medians = sorted(statistics.median(t) for t in loop.times.values() if t)
    jobs = len(medians)
    # Highest percentile with at least ten jobs beyond it (the maximum for short lists).
    tail = jobs - 11 if jobs > 10 else jobs - 1
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_s": (jobs / sum(medians), "1/s"),
        "job_p50_ms": (1000 * statistics.median(medians), "ms"),
        "job_tail_ms": (1000 * medians[tail], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    note = f"{jobs} jobs x {loop.passes} passes; job_tail_ms is p{100 * (tail + 1) / jobs:.1f}"
    return metrics, note


def execute(workload: str, seed: int, seconds: float, trace: bool, job_limit=None, setup_repeats=SETUP_REPEATS):
    """One run; returns (metrics {name: (value, unit)}, the loop, a note)."""
    load_program()
    import tracing
    import workloads

    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as work:
        jobs = workloads.build(workload, seed, work)[:job_limit]
        setup_times = [] if trace else [time_setup(workload, seed) for _ in range(setup_repeats)]
        tracer = tracing.Tracer() if trace else None
        loop = Loop(jobs, tracer)
        loop.run(seconds)
    if not trace:
        metrics, note = end_to_end(loop, setup_times)
        return metrics, loop, note
    metrics = tracer.metrics(loop.passes, loop.traced_seconds, loop.paired_seconds, loop.wrong_results)
    out = ROOT / ".bench_trace"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"{workload}-seed{seed}.jsonl")
    return metrics, loop, f"{len(jobs)} jobs x {loop.passes} passes, {len(tracer.spans)} spans"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    metrics, loop, note = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload} seed {args.seed}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"{'failed_ratio':48s} {loop.failed / loop.attempted:14.6g} ratio")
    print(f"{'wrong_results':48s} {loop.wrong_results:14d} count")
    for name, defect in loop.known.items():
        print(f"KNOWN DEFECT {name}: {defect}")
    for name, problems in loop.wrong.items():
        print(f"WRONG {name}: {'; '.join(problems)}")
    result = {
        "correct": not loop.wrong,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
