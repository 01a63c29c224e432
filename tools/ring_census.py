"""Time whole ``crn census`` on the Table-1 ring family, one fresh process per run.

Usage, from the root of a checkout:

    python3 tools/ring_census.py [--runs R] [N ...]

For each ring size N (default 13 15 17 19; the family S_i+S_{i+1} <-> X_i,
S_p <-> 2S_1 has n = 2p - 1 species, so N is odd) and each of R runs
(default 1), starts a fresh Python process that imports crncount from this
checkout's ``src``, runs ``crn census`` on the ring (mass-action, unit
outflow) in-process, and prints

    n terms exit seconds peak_rss_mb

where seconds is the wall time of the census call alone and peak_rss_mb is
the child's peak resident set, Python and numpy included.  Sizes above the
default expansion cap of 16 get ``CRN_MAX_SPECIES=N`` in the child's
environment only.
"""

import argparse
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CAP = 16


def child(n: int) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from crncount import cli
    from oracles import ring_network

    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / f"ring{n}.crn"
        path.write_text(ring_network((n + 1) // 2))
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out):
            code = cli.main(["census", str(path)])
        seconds = time.perf_counter() - start
    terms = json.loads(out.getvalue())["total_terms"] if code != 1 else None
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
    print(json.dumps({"n": n, "terms": terms, "exit": code, "seconds": seconds, "peak_rss_mb": peak_mb}))


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="time crn census on the ring family, one fresh process per run")
    parser.add_argument("sizes", nargs="*", type=int, default=[13, 15, 17, 19], metavar="N")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        child(args.child)
        return 0
    if args.runs < 1 or any(n < 3 or n % 2 == 0 for n in args.sizes):
        parser.error("ring sizes are odd and >= 3, and --runs is >= 1")
    print("n terms exit seconds peak_rss_mb")
    for n in args.sizes:
        env = dict(os.environ)
        if n > DEFAULT_CAP:
            env["CRN_MAX_SPECIES"] = str(n)
        for _ in range(args.runs):
            done = subprocess.run(
                [sys.executable, __file__, "--child", str(n)], env=env, capture_output=True, text=True, check=True
            )
            row = json.loads(done.stdout)
            print(row["n"], row["terms"], row["exit"], f"{row['seconds']:.3f}", f"{row['peak_rss_mb']:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
