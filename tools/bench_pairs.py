"""Paired benchmark runs of two checkouts, for a before/after comparison.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--workload W2 ...] \
        --pairs N --seconds S [--seed 7] [--out BENCH.json]

For each workload in turn, runs the unmodified ``bench/run.py --workload W
--seed SEED --seconds S`` of each checkout, N times each, alternating which
side runs first, one run at a time.  Each run's last stdout line is its JSON
result.  For every end-to-end metric of the CHANGE checkout's
``BENCHMARK.json`` it reports, per side, the median, the quartiles and their
distance (IQR), and the number of pairs the side won by the metric's
``better`` direction (ties count for neither), and whether the change
meets the claim rule for a gain: it won at least nine tenths of the pairs,
and its median is better than the parent's by more than the parent's IQR.
The figures and every run's raw values are written under the key
``"<workload> seed <seed>"`` of the ``--out`` JSON file, which keeps the
other entries already in it, so runs of one workload at two seeds land side
by side; a later run of a workload and seed already in the file goes under
``"<workload> seed <seed> repeat <k>"``, k = 2, 3, ..., beside the first.
The file is rewritten after each workload, so an interrupted run keeps the
workloads it finished.  A run
that exits non-zero stops the tool with exit code 1, naming the workload and
side and printing the tail of that run's stderr.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


STDERR_TAIL = 20


class RunFailed(Exception):
    """One benchmark run exited non-zero."""


def run_once(checkout: Path, side: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        tail = "\n".join(out.stderr.splitlines()[-STDERR_TAIL:])
        raise RunFailed(f"workload {workload}, {side} side ({checkout}): bench/run.py exited {out.returncode}\n{tail}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values, wins: int) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "wins": wins}


def compare(runs: dict, metrics: list) -> dict:
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        margins = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        wins = {"parent": sum(m < 0 for m in margins), "change": sum(m > 0 for m in margins)}
        summary = {side: summarize(values[side], wins[side]) for side in SIDES}
        gap = sign * (summary["change"]["median"] - summary["parent"]["median"])
        out[name] = {
            "unit": runs["change"][0]["metrics"][name]["unit"],
            "better": metric["better"],
            **summary,
            # the claim rule: at least 9 pairs in 10 won, by a median gap above the parent's IQR
            "claim_met": 10 * wins["change"] >= 9 * len(margins) and gap > summary["parent"]["iqr"],
        }
    return out


def entry_key(report: dict, workload: str, seed: int) -> str:
    """The key of a new entry: ``"<workload> seed <seed>"``, or its first free
    ``repeat <k>`` when the report has that entry already."""
    key = f"{workload} seed {seed}"
    if key not in report:
        return key
    k = 2
    while f"{key} repeat {k}" in report:
        k += 1
    return f"{key} repeat {k}"


def run_workload(checkouts: dict, workload: str, args) -> dict:
    """Alternating pairs of runs of one workload: {side: [result, ...]}."""
    runs = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], side, workload, args.seed, args.seconds)
            runs[side].append(result)
            figures = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} pair {pair} {side}: correct={result['correct']} failed={result['failed']} {figures}", flush=True)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True, help="may be given more than once")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    for workload in args.workload:
        try:
            runs = run_workload(checkouts, workload, args)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report = json.loads(args.out.read_text()) if args.out.exists() else {}
        key = entry_key(report, workload, args.seed)
        report[key] = {
            "seed": args.seed,
            "seconds": args.seconds,
            "pairs": args.pairs,
            "order": "parent first in even pairs, change first in odd pairs",
            "correct": {side: all(run["correct"] for run in runs[side]) for side in SIDES},
            "failed": {side: sum(run["failed"] for run in runs[side]) for side in SIDES},
            "metrics": compare(runs, metrics),
            "runs": {side: [{k: v["value"] for k, v in run["metrics"].items()} for run in runs[side]] for side in SIDES},
        }
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        for name, row in report[key]["metrics"].items():
            p, c = row["parent"], row["change"]
            print(
                f"{workload} {name:12s} parent {p['median']:.4g} (IQR {p['iqr']:.3g}, wins {p['wins']})"
                f"  change {c['median']:.4g} (IQR {c['iqr']:.3g}, wins {c['wins']}) {row['unit']}"
                f"  claim {'met' if row['claim_met'] else 'not met'}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
