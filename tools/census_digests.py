"""Print a digest of every census configuration, one line each.

Usage, from the root of a checkout:

    python3 tools/census_digests.py 31 > digests.txt

The configurations are every network fixture, the Table-1 ring family at
n = 5, 7, ..., 13 and, for each seed, 400 networks drawn by
``random_network_text`` (every third one with general kinetics), each in
both kinetics (mass-action, general) and both outflow modes (unit,
symbolic), as ``crn census`` builds them.  For each one the tool prints

    name kinetics outflow sha256[:16]

hashing every Jacobian entry's ``str``, the sorted expansion terms, the
``SignSummary`` repr, every ``DominanceCondition`` field and the JSON
report, or the type and message of the error the configuration raises.
The program comes from this checkout's ``src``, so two checkouts print the
same lines exactly when every configuration gives the same census:
``diff`` of the two files is the whole comparison.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from census_reference import random_network_text, ring  # noqa: E402
from crncount.dsl import parse_network  # noqa: E402
from crncount.fixtures import NETWORK_FIXTURES, fixture_network  # noqa: E402
from crncount.jacobian import (  # noqa: E402
    augmented_mass_action_jacobian,
    build_general_jacobian,
    census_report,
    dominance_conditions,
    sign_census,
)
from crncount.network import with_general_kinetics  # noqa: E402
from crncount.polynomial import determinant_expand  # noqa: E402

RANDOM_NETWORKS = 400


def networks(seed: int):
    """(name, network text or network) of every configuration's network."""
    for name in sorted(NETWORK_FIXTURES):
        yield name, fixture_network(name)
    for n in range(5, 14, 2):
        yield f"ring-{n}", ring(n)
    rng = random.Random(seed)
    for i in range(RANDOM_NETWORKS):
        yield f"random-{seed}-{i}", random_network_text(rng, general=i % 3 == 2)


def census_text(net, kinetics: str, outflow: str) -> str:
    """Everything the census of one configuration gives, as text."""
    if isinstance(net, str):
        net = parse_network(net)
    if kinetics == "general":
        J = build_general_jacobian(with_general_kinetics(net), outflow)
    else:
        J = augmented_mass_action_jacobian(net, outflow)
    det = determinant_expand(J)
    census = sign_census(det, net.n)
    conditions = dominance_conditions(det, census)
    terms = [(tuple((tuple(x), e) for x, e in m), c) for m, c in det.sorted_terms()]
    parts = [
        repr([[str(entry) for entry in row] for row in J]),
        repr(terms),
        repr(census),
        repr([vars(c) for c in conditions]),
        json.dumps(census_report(net, census, conditions), sort_keys=True),
    ]
    return "\n".join(parts)


def main(argv) -> int:
    if not argv or not all(arg.isdigit() for arg in argv):
        print("usage: census_digests.py SEED...", file=sys.stderr)
        return 2
    seen = set()
    for seed in map(int, argv):
        for name, net in networks(seed):
            if name in seen:
                continue
            seen.add(name)
            for kinetics in ("mass-action", "general"):
                for outflow in ("unit", "symbolic"):
                    try:
                        text = census_text(net, kinetics, outflow)
                    except ValueError as exc:
                        text = f"{type(exc).__name__}: {exc}"
                    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
                    print(name, kinetics, outflow, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
