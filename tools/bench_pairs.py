"""Paired benchmark runs of two checkouts, for a before/after comparison.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S \
        [--seed 7] [--out BENCH.json]

Runs the unmodified ``bench/run.py --workload W --seed SEED --seconds S`` of
each checkout in turn, N times each, alternating which side runs first, one
run at a time.  Each run's last stdout line is its JSON result.  For every
end-to-end metric of the CHANGE checkout's ``BENCHMARK.json`` it reports, per
side, the median, the quartiles and their distance (IQR), and the number of
pairs the side won by the metric's ``better`` direction (ties count for
neither).  The figures and every run's raw values are written under the
workload's key of the ``--out`` JSON file, which keeps the other workloads
already in it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
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
        out[name] = {
            "unit": runs["change"][0]["metrics"][name]["unit"],
            "better": metric["better"],
            **{side: summarize(values[side], wins[side]) for side in SIDES},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], args.workload, args.seed, args.seconds)
            runs[side].append(result)
            figures = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"pair {pair} {side}: correct={result['correct']} failed={result['failed']} {figures}", flush=True)

    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report[args.workload] = {
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
    for name, row in report[args.workload]["metrics"].items():
        p, c = row["parent"], row["change"]
        print(
            f"{name:12s} parent {p['median']:.4g} (IQR {p['iqr']:.3g}, wins {p['wins']})"
            f"  change {c['median']:.4g} (IQR {c['iqr']:.3g}, wins {c['wins']}) {row['unit']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
