"""Print a digest of every benchmark job's output, one line per job.

Usage, from the root of a checkout:

    python3 tools/job_digests.py 1 7 > digests.txt

For each seed, builds the census, count and multistat job lists of
``bench/workloads.py``, runs every job once and prints

    seed job exit sha256(output)[:16]

where output is the job's canonical text (stdout for the CLI jobs).  The
program comes from this checkout's ``src``, so two checkouts print the same
lines exactly when every job gives the same exit code and output:
``diff`` of the two files is the whole comparison.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

WORKLOADS = ("census", "count", "multistat")


def main(argv) -> int:
    if not argv or not all(arg.isdigit() for arg in argv):
        print("usage: job_digests.py SEED...", file=sys.stderr)
        return 2
    for seed in map(int, argv):
        for workload in WORKLOADS:
            with tempfile.TemporaryDirectory() as work:
                for job in workloads.build(workload, seed, work):
                    result = job.run()
                    digest = hashlib.sha256(result.text.encode()).hexdigest()[:16]
                    print(seed, job.name, result.code, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
