"""Compare the output of every benchmark job between two checkouts, value by value.

Usage, from anywhere:

    python3 tools/job_diff.py PARENT CHANGE 1 7

For each seed, builds the census, count and multistat job lists of each
checkout's ``bench/workloads.py`` and runs every job once, one checkout at a
time, each in a child process that imports the program from that
checkout's ``src``.  The child also runs the census API on every network
fixture and the Table-1 ring family at n = 5, 7, ..., 13 once, since no
seed changes them, and for each seed on RANDOM_NETWORKS networks from the
checkout's ``tests/census_reference.random_network_text`` (every third one
general), each in both kinetics and both outflow modes: each configuration
is one ``census-api`` job, ``name kinetics outflow``, whose output holds
every Jacobian entry, the sorted expansion terms, the ``SignSummary`` repr,
the fields of every ``DominanceCondition`` and the census report, or the
error it raises (exit 1).  For each job whose output differs it prints

    seed job: <exit> P -> C                    (when the exit codes differ)
    seed job: path P -> C [rel R]              (each differing JSON value)

where seed is left out for a fixture or ring configuration, path names the
value inside the job's JSON output (``homotopy.steps``, ``equilibria[0].c[2]``)
and a float pair carries its relative change |P - C| / max(|P|, |C|).  An
output that is not JSON is compared as text.
The last lines summarise, per workload and for ``census-api``, how many
jobs differ and, for each path that differs (list indices dropped), the
largest relative change of its floats, or that it changed.  Exit code 0
when every job matches, 1 when any differs, 2 on a usage error.

``--emit CHECKOUT SEED...`` is the child's mode: it prints one JSON line
{seed, workload, job, code, text} per job, with seed null where no seed
applies.
"""

import json
import math
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

WORKLOADS = ("census", "count", "multistat")
RANDOM_NETWORKS = 400


def emit(checkout: Path, seeds) -> None:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench"), str(checkout / "tests")]
    import workloads

    for seed in seeds:
        for workload in WORKLOADS:
            with tempfile.TemporaryDirectory() as work:
                for job in workloads.build(workload, seed, work):
                    result = job.run()
                    line = {"seed": seed, "workload": workload, "job": job.name, "code": result.code, "text": result.text}
                    print(json.dumps(line), flush=True)
    for seed, job, code, text in census_jobs(seeds):
        print(json.dumps({"seed": seed, "workload": "census-api", "job": job, "code": code, "text": text}), flush=True)


def census_jobs(seeds):
    """(seed, job, exit, output) of every census-api job: the fixtures and
    rings once, with seed None, then the random networks of each seed."""
    for seed in (None, *seeds):
        for job, code, text in censuses(seed):
            yield seed, job, code, text


def censuses(seed: Optional[int]):
    """(job, exit, output) of the census API on the random networks of one
    seed, or with seed None on the network fixtures and the ring family."""
    from census_reference import random_network_text, ring
    from crncount.dsl import parse_network
    from crncount.fixtures import NETWORK_FIXTURES, fixture_network
    from crncount.jacobian import augmented_mass_action_jacobian, build_general_jacobian
    from crncount.jacobian import census_report, dominance_conditions, sign_census
    from crncount.network import with_general_kinetics
    from crncount.polynomial import determinant_expand

    if seed is None:
        nets = [(name, fixture_network(name)) for name in sorted(NETWORK_FIXTURES)]
        nets += [(f"ring-{n}", ring(n)) for n in range(5, 14, 2)]
    else:
        rng = random.Random(seed)
        nets = [(f"random-{seed}-{i}", random_network_text(rng, general=i % 3 == 2)) for i in range(RANDOM_NETWORKS)]
    for name, net in nets:
        for kinetics in ("mass-action", "general"):
            for outflow in ("unit", "symbolic"):
                try:
                    net = parse_network(net) if isinstance(net, str) else net
                    J = (build_general_jacobian(with_general_kinetics(net), outflow) if kinetics == "general"
                         else augmented_mass_action_jacobian(net, outflow))
                    det = determinant_expand(J)
                    census = sign_census(det, net.n)
                    conditions = dominance_conditions(det, census)
                    # A monomial's indeterminates are (kind, key, sign) tuples,
                    # written as JSON lists; their repr is only the display name.
                    record = {
                        "jacobian": [[str(entry) for entry in row] for row in J],
                        "terms": det.sorted_terms(),
                        "census": repr(census),
                        "conditions": [vars(c) for c in conditions],
                        "report": census_report(net, census, conditions),
                    }
                except ValueError as exc:
                    yield f"{name} {kinetics} {outflow}", 1, f"{type(exc).__name__}: {exc}"
                else:
                    yield f"{name} {kinetics} {outflow}", 0, json.dumps(record, default=_plain)


def _plain(value):
    """JSON form of a census object json cannot write: a dataclass's fields, or a Fraction's text."""
    return vars(value) if hasattr(value, "__dict__") else str(value)


def run_checkout(checkout: Path, seeds) -> dict:
    """{(seed, job): (workload, code, text)} of one checkout, from a child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--emit", str(checkout), *map(str, seeds)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"job_diff: {checkout} exited {out.returncode}\n{out.stderr[-2000:]}")
    jobs = {}
    for line in out.stdout.splitlines():
        row = json.loads(line)
        jobs[row["seed"], row["job"]] = (row["workload"], row["code"], row["text"])
    return jobs


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return text


def differences(a, b, path: str = ""):
    """(path, a, b) for each leaf value that differs between two JSON values."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                yield sub, a.get(key, "<absent>"), b.get(key, "<absent>")
            else:
                yield from differences(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}[{i}]")
    elif isinstance(a, list) and isinstance(b, list):
        yield f"{path}.length", len(a), len(b)
    elif a != b or type(a) is not type(b):
        yield path, a, b


def relative_change(a, b):
    """|a - b| / max(|a|, |b|) of two finite floats, else None."""
    if not (isinstance(a, float) and isinstance(b, float) and math.isfinite(a) and math.isfinite(b)):
        return None
    return abs(a - b) / max(abs(a), abs(b))


def main(argv) -> int:
    if argv[:1] == ["--emit"] and len(argv) >= 3 and all(arg.isdigit() for arg in argv[2:]):
        emit(Path(argv[1]).resolve(), list(map(int, argv[2:])))
        return 0
    if len(argv) < 3 or not all(arg.isdigit() for arg in argv[2:]):
        print("usage: job_diff.py PARENT CHANGE SEED...", file=sys.stderr)
        return 2
    seeds = list(map(int, argv[2:]))
    parent, change = (run_checkout(Path(arg).resolve(), seeds) for arg in argv[:2])
    summary = {row: {"jobs": 0, "differ": 0, "paths": {}} for row in (*WORKLOADS, "census-api")}
    # Seed-free jobs first, then by seed and job.
    for key in sorted(set(parent) | set(change), key=lambda key: (key[0] is not None, key[0] or 0, key[1])):
        seed, job = key
        label = job if seed is None else f"{seed} {job}"
        if key not in parent or key not in change:
            print(f"{label}: only in {'change' if key in change else 'parent'}")
            continue
        (workload, code_p, text_p), (_, code_c, text_c) = parent[key], change[key]
        row = summary[workload]
        row["jobs"] += 1
        if (code_p, text_p) == (code_c, text_c):
            continue
        row["differ"] += 1
        changes = [("<exit>", code_p, code_c)] if code_p != code_c else []
        changes += differences(_parse(text_p), _parse(text_c))
        for path, a, b in changes:
            rel = relative_change(a, b)
            print(f"{label}: {path or '<text>'} {a!r} -> {b!r}" + ("" if rel is None else f" rel {rel:.2e}"))
            pattern = re.sub(r"\[\d+\]", "[]", path) or "<text>"
            seen = row["paths"].setdefault(pattern, rel)
            row["paths"][pattern] = None if seen is None or rel is None else max(seen, rel)
    for workload, row in summary.items():
        print(f"summary {workload}: {row['differ']} of {row['jobs']} jobs differ")
        for pattern, rel in sorted(row["paths"].items()):
            print(f"summary {workload}: {pattern} " + ("changed" if rel is None else f"largest change {rel:.2e} relative"))
    return int(any(row["differ"] for row in summary.values()) or set(parent) != set(change))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
