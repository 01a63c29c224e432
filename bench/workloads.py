"""Seeded job lists for the three workloads, and the checks on their outputs.

Each job calls a public entry point of crncount (mainly ``cli.main`` with
stdout captured) and returns its output.  Each check compares that output
with references from ``oracles``, which do not come from the code under
test.  Entry points are looked up on their modules at call time, so the
tracer's module-level wrappers see every call.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from crncount import cli, conservation, dsl, jacobian, network, numeric, polynomial

import oracles

RESIDUAL_TOL = 1e-8  # on ||f(c)||, evaluated by the benchmark's own vector field
MATCH_TOL = 1e-6  # relative distance between a reported and a reference equilibrium


@dataclass
class Result:
    code: int  # exit code; 1 means the job failed
    text: str  # canonical output, compared across repeats of the job
    data: object  # what the check reads


@dataclass
class Job:
    name: str
    run: Callable[[], Result]
    check: Callable[[Result], List[str]]  # problems found; empty when correct
    known_defect: Optional[str] = None  # the one problem this job is known to show


def build(workload: str, seed: int, workdir) -> List[Job]:
    """The fixed job list of one workload; ``seed`` draws every input."""
    job_lists = {"census": census_jobs, "count": count_jobs, "multistat": multistat_jobs}
    return job_lists[workload](np.random.default_rng(seed), Path(workdir))


def _cli(argv: List[str]) -> Callable[[], Result]:
    def run() -> Result:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        text = out.getvalue()
        return Result(code, text, json.loads(text) if code != 1 else None)

    return run


def _close(a, b, tol: float = MATCH_TOL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and float(np.linalg.norm(a - b)) <= tol * (1.0 + float(np.linalg.norm(b)))


def _degree(n: int) -> int:
    return -1 if n % 2 else 1


# ---------------------------------------------------------------------------
# census: `crn census` and `crn conserve` on the paper's networks and the ring family

RING_PAIRS = range(3, 8)  # n = 5, 7, 9, 11, 13 species


def _census_variants(n: int, ring: bool):
    """Kinetics/outflow variants per network.

    Rings skip the variants whose expansion grows past a few seconds
    (symbolic outflow at n=13 takes 3 s, general kinetics grows faster),
    which keeps one pass of the job list near 4 s.
    """
    if not ring:
        return [(k, o) for k in ("mass-action", "general") for o in ("unit", "symbolic")]
    variants = [("mass-action", "unit")]
    if n <= 11:
        variants.append(("mass-action", "symbolic"))
    if n <= 9:
        variants.append(("general", "unit"))
    return variants


def _pinned_census(name: str, kinetics: str, outflow: str) -> Dict[str, object]:
    """Values published for this census; rings n=5, 7, 9 are Table-1 i, ii, iii."""
    ring_alias = {"ring5": "table1-i", "ring7": "table1-ii", "ring9": "table1-iii"}
    name = ring_alias.get(name, name)
    if outflow != "unit":
        return {}
    if kinetics == "mass-action":
        pinned: Dict[str, object] = {}
        if name in oracles.TABLE1_ANOMALOUS:
            pinned["anomalous"] = oracles.TABLE1_ANOMALOUS[name]
        if name in oracles.ENZYME_ANOMALOUS:
            pinned["anomalous"] = oracles.ENZYME_ANOMALOUS[name]
        if name == "example-6.1":
            pinned.update(total_terms=13, anomalous=1, conditions=["k[C->2A] <= 1"])
        return pinned
    if name == "table1-ii":
        return {"total_terms": 138, "histogram": {"-1": 96, "-2": 40, "-3": 2}, "anomalous": 0}
    if name == "table1-v":
        return {"total_terms": 167, "histogram": {"-2": 20, "-1": 146, "1": 1}, "anomalous": 1}
    return {}


def _rational_point(rng, keys):
    """Exact symbol values a/D sharing one denominator D."""
    denominator = int(rng.integers(2, 1 << 10))
    return denominator, {key: int(rng.integers(1, 1 << 20)) for key in keys}


_SYMBOL_KIND = {polynomial.CONCENTRATION: "c", polynomial.RATE_CONSTANT: "k", polynomial.KINETIC_PARTIAL: "K"}


def _evaluate_exact(det: polynomial.Polynomial, point) -> Fraction:
    """Value of the expanded determinant at a point, in exact integers."""
    denominator, numerators = point
    terms = []
    for mono, coeff in det.terms.items():
        value, degree = coeff, 0
        for x, e in mono:
            value *= numerators[(_SYMBOL_KIND[x.kind], *x.key)] ** e
            degree += e
        terms.append((value, degree))
    top = max((d for _, d in terms), default=0)
    return Fraction(sum(v * denominator ** (top - d) for v, d in terms), denominator**top)


def check_census(name, text, net, kinetics, outflow, points, result) -> List[str]:
    """Checks a census report against an exactly verified expansion.

    The expansion comes from the public API (outside the timed job).  At
    each seeded rational point it must equal the exact determinant of the
    benchmark's own Jacobian; the report must then agree with the terms of
    that expansion and with the values the paper publishes.
    """
    if result.code not in (0, 2):
        return [f"exit {result.code}"]
    program_net = dsl.parse_network(text)
    if kinetics == "general":
        J = jacobian.build_general_jacobian(network.with_general_kinetics(program_net), outflow=outflow)
    else:
        J = jacobian.augmented_mass_action_jacobian(program_net, outflow=outflow)
    det = polynomial.determinant_expand(J, max_dim=net.n)
    problems = []
    for denominator, numerators in points:
        exact = {key: Fraction(a, denominator) for key, a in numerators.items()}
        if _evaluate_exact(det, (denominator, numerators)) != oracles.exact_determinant(
            net.exact_jacobian(exact, kinetics, outflow)
        ):
            problems.append("expanded determinant differs from exact elimination at a rational point")
    # Every symbol is positive, so a term is anomalous when its coefficient
    # has the sign opposite to (-1)^n.
    anomalous = sum(1 for c in det.terms.values() if (c > 0) == (_degree(net.n) < 0))
    histogram: Dict[str, int] = {}
    for c in sorted(det.terms.values()):
        histogram[str(c)] = histogram.get(str(c), 0) + 1
    rep = result.data
    expected = {
        "n": net.n,
        "total_terms": len(det),
        "histogram": histogram,
        "anomalous": anomalous,
        "unknown_sign_terms": 0,
        "uniqueness_certified": anomalous == 0,
        "exit": 0 if anomalous == 0 else 2,
        **_pinned_census(name, kinetics, outflow),
    }
    got = {
        "n": rep["n"],
        "total_terms": rep["total_terms"],
        "histogram": rep["histogram"],
        "anomalous": len(rep["anomalous"]),
        "unknown_sign_terms": rep["unknown_sign_terms"],
        "uniqueness_certified": rep["uniqueness_certified"],
        "exit": result.code,
        "conditions": [c["inequality"] for c in rep["dominance_conditions"]],
    }
    problems += [f"{key} {got[key]!r}, reference {value!r}" for key, value in expected.items() if got[key] != value]
    return problems


def check_conserve(net, candidate, result) -> List[str]:
    if result.code != 0:
        return [f"exit {result.code}"]
    rep = result.data
    problems = []
    if rep["conservative"] is not True:
        problems.append("network reported not conservative")
    m = [Fraction(x) for x in rep["mass_vector"] or []]
    if len(m) != net.n or not net.is_conserved(m):
        problems.append(f"mass vector {rep['mass_vector']} is not positive and conserved")
    if candidate is not None and rep.get("verdict_for_candidate") != "conserved":
        problems.append(f"published vector classified {rep.get('verdict_for_candidate')!r}")
    return problems


def census_jobs(rng, workdir: Path) -> List[Job]:
    sources = [(name, ["--fixture", name], text, False) for name, text in oracles.PAPER_NETWORKS.items()]
    for pairs in RING_PAIRS:
        text = oracles.ring_network(pairs)
        path = workdir / f"ring{2 * pairs - 1}.crn"
        path.write_text(text)
        sources.append((f"ring{2 * pairs - 1}", [str(path)], text, True))
    jobs = []
    for name, where, text, ring in sources:
        net = oracles.Network(text)
        for kinetics, outflow in _census_variants(net.n, ring):
            argv = ["census", *where, "--kinetics", kinetics, "--outflow", "1" if outflow == "unit" else "symbolic"]
            points = [_rational_point(rng, net.symbol_keys(kinetics, outflow)) for _ in range(2)]
            check = partial(check_census, name, text, net, kinetics, outflow, points)
            jobs.append(Job(f"census:{name}:{kinetics}:{outflow}", _cli(argv), check))
        jobs.append(Job(f"conserve:{name}", _cli(["conserve", *where]), partial(check_conserve, net, None)))
        published = oracles.PUBLISHED_MASS_VECTORS.get(name)
        if published:
            vector = [published[s] for s in net.names]
            argv = ["conserve", *where, "--check", ",".join(map(str, vector))]
            jobs.append(Job(f"conserve:{name}:published", _cli(argv), partial(check_conserve, net, vector)))
    return jobs


# ---------------------------------------------------------------------------
# count: `crn count` on every network fixture, the cascades and a pure-flow system

KNOWN_DEFECT_3A = "exit 0, reference 2"  # census for unit outflow applied at outflow 0.25

# mapk-cube at two fixed rate sets from the log-uniform box [0.1, 10].  Its
# cost depends on the rates alone: about one draw in five makes multistart
# Newton crawl (0.3-1.7 s instead of 0.07 s), so two seeded draws moved a
# pass's total work by 15% from seed to seed.  "slow" is such a draw (about
# 1 s, 73 of 100 starts converge), "fast" a typical one (0.07 s, 99 of 100).
CUBE_PARAMETERS = {
    "slow": dict(a1=2.92, a2=0.32, a3=0.24, b1=0.44, b2=0.15, b3=7.43, d1=0.54, d2=0.22, d3=0.10,
                 e1=0.13, e2=0.27, e3=0.68, mu=1.6, k=9.16),
    "fast": dict(a1=0.97, a2=0.13, a3=0.12, b1=1.15, b2=0.90, b3=4.64, d1=0.11, d2=1.30, d3=0.96,
                 e1=1.57, e2=2.88, e3=1.12, mu=1.34, k=0.96),
}


def _check_equilibria(rep, code: int, n: int) -> List[str]:
    problems = []
    if code not in (0, 2):
        problems.append(f"exit {code}")
    eqs = rep["equilibria"]
    if code == 0 and (len(eqs) != 1 or rep["degree_estimate"] != _degree(n)):
        problems.append(f"exit 0 with {len(eqs)} equilibria and degree {rep['degree_estimate']}")
    if rep["degree_estimate"] != sum(e["det_sign"] for e in eqs):
        problems.append("degree estimate is not the sum of the determinant signs")
    return problems


def check_count_network(fixture, net, k, outflow, result) -> List[str]:
    rep = result.data
    problems = _check_equilibria(rep, result.code, net.n)
    inflow, lam = np.ones(net.n), np.full(net.n, outflow)
    m, bound = np.array(rep["domain"]["m"]), rep["domain"]["M"]
    if np.any(m <= 0) or any(abs(m @ v) > 1e-9 * m.max() for v in np.array(net.vectors())):
        problems.append(f"domain mass vector {list(m)} is not positive and conserved")
    if abs(bound - 10.0 * float(m @ inflow)) > 1e-9 * bound:
        problems.append(f"domain bound {bound} is not 10 m.c_in")
    eqs = rep["equilibria"]
    for e in eqs:
        c = np.array(e["c"])
        if np.any(c <= 0) or float((m * lam) @ c) >= bound:
            problems.append(f"equilibrium {e['c']} outside the domain")
            continue
        residual = float(np.linalg.norm(net.field(c, k, inflow, lam)))
        if residual > RESIDUAL_TOL:
            problems.append(f"equilibrium {e['c']} has residual {residual:.3g}")
        if e["det_sign"] != int(np.sign(np.linalg.det(net.jacobian(c, k, lam)))):
            problems.append(f"det_sign {e['det_sign']} at {e['c']} disagrees with the Jacobian")
    if not eqs:
        problems.append("no equilibrium found; the degree (-1)^n guarantees one")
    if fixture == "example-6.1":
        reference = oracles.example61_equilibria(k, inflow, lam)
        if any(not any(_close(e["c"], r) for r in reference) for e in eqs):
            problems.append("an equilibrium is not a root of the example-6.1 cubic")
        if len(reference) == 1 and len(eqs) != 1:
            problems.append(f"{len(eqs)} equilibria, the cubic has 1")
        # Dominance condition of the paper: k[C->2A] <= k[C->0].
        expected = 0 if k["C->2A"] <= outflow else 2
        if result.code != expected:
            problems.append(f"exit {result.code}, reference {expected}")
    if fixture in ("table1-ii", "table1-iv"):  # no anomalous term: unique for every rate
        if result.code != 0:
            problems.append(f"exit {result.code}, reference 0")
        if len(eqs) != 1:
            problems.append(f"{len(eqs)} equilibria, reference 1")
    return problems


def _count_network_job(name, fixture, net, k, outflow, seed, known_defect=None) -> Job:
    argv = ["count", "--fixture", fixture, "--seed", str(seed), "--outflow", repr(outflow)]
    for label, value in k.items():
        argv += ["--k", f"{label}={value!r}"]
    return Job(name, _cli(argv), partial(check_count_network, fixture, net, k, outflow), known_defect)


def check_cascade(field, closed_form, box_hi, result) -> List[str]:
    """The cascades have a negative Jacobian determinant everywhere: one root, degree -1."""
    rep = result.data
    problems = _check_equilibria(rep, result.code, 3)
    if result.code != 0:
        problems.append(f"exit {result.code}, reference 0")
    eqs = rep["equilibria"]
    if len(eqs) != 1:
        return problems + [f"{len(eqs)} equilibria, reference 1"]
    c = np.array(eqs[0]["c"])
    if np.any(c <= 0) or np.any(c >= box_hi) or rep["domain"]["box_hi"] != [box_hi] * 3:
        problems.append(f"equilibrium {list(c)} outside (0, {box_hi})^3")
    residual = float(np.linalg.norm(field(c)))
    if residual > RESIDUAL_TOL:
        problems.append(f"residual {residual:.3g}")
    if closed_form is not None and np.max(np.abs(c - closed_form)) > 1e-9:
        problems.append(f"equilibrium {list(c)}, closed form {list(closed_form)}")
    if eqs[0]["det_sign"] != -1:
        problems.append("det_sign is not -1")
    return problems


def check_flow_only(inflow, outflow, result) -> List[str]:
    rep = result.data
    problems = _check_equilibria(rep, result.code, len(inflow))
    eqs = rep["equilibria"]
    if result.code != 0 or len(eqs) != 1 or not _close(eqs[0]["c"], np.array(inflow) / np.array(outflow), 1e-9):
        problems.append(f"exit {result.code} with {len(eqs)} equilibria, reference one at c_in/outflow")
    return problems


def count_jobs(rng, workdir: Path) -> List[Job]:
    def log_uniform(size=None):
        return 10 ** rng.uniform(-1, 1, size)

    def seed():
        return int(rng.integers(1_000_000))

    jobs = []
    for fixture, text in oracles.PAPER_NETWORKS.items():
        net = oracles.Network(text)
        for draw in range(2):
            k = {label: float(log_uniform()) for label in net.labels}
            jobs.append(_count_network_job(f"count:{fixture}:{draw}", fixture, net, k, 1.0, seed()))
    net61 = oracles.Network(oracles.PAPER_NETWORKS["example-6.1"])
    k61 = {"A+B->P": 1.0, "B+C->Q": 1.0, "C->2A": 0.5}
    jobs.append(_count_network_job("count:example-6.1:certified", "example-6.1", net61, k61, 1.0, seed()))
    # ROADMAP 3a: the census is taken at unit outflow although the outflow
    # is 0.25, so k[C->2A] = 0.5 <= 1 is wrongly certified.
    jobs.append(
        _count_network_job("count:example-6.1:outflow-0.25", "example-6.1", net61, k61, 0.25, seed(), KNOWN_DEFECT_3A)
    )

    thron_hi = 256.0  # the CLI's box (0, 1/delta^4)^3 with delta = 1/4
    c0 = float(10 ** rng.uniform(-1, 0.3))
    closed = np.array([c0 / (1 + c0), c0 / (1 + c0), c0])
    check = partial(check_cascade, partial(oracles.thron_field, p=[1.0] * 6, c0=c0), closed, thron_hi)
    jobs.append(Job("count:mapk-thron:unit", _cli(["count", "--fixture", "mapk-thron", "--k", f"c0={c0!r}", "--seed", str(seed())]), check))
    for draw in range(2):
        p, c0 = [float(x) for x in log_uniform(6)], float(10 ** rng.uniform(-1, 0))
        argv = ["count", "--fixture", "mapk-thron", "--seed", str(seed()), "--k", f"c0={c0!r}"]
        argv += [a for i, v in enumerate(p, 1) for a in ("--k", f"p{i}={v!r}")]
        check = partial(check_cascade, partial(oracles.thron_field, p=p, c0=c0), None, thron_hi)
        jobs.append(Job(f"count:mapk-thron:{draw}", _cli(argv), check))
    for label, params in CUBE_PARAMETERS.items():
        argv = ["count", "--fixture", "mapk-cube", "--seed", str(seed())]
        argv += [a for name, v in params.items() for a in ("--k", f"{name}={v!r}")]
        abde = [[params[f"{stem}{i}"] for i in (1, 2, 3)] for stem in "abde"]
        field = partial(oracles.cube_field, a=abde[0], b=abde[1], d=abde[2], e=abde[3], mu=params["mu"], k=params["k"])
        jobs.append(Job(f"count:mapk-cube:{label}", _cli(argv), partial(check_cascade, field, None, 1.0)))
    inflow, outflow = [float(x) for x in rng.uniform(0.5, 2, 3)], [float(x) for x in rng.uniform(0.5, 2, 3)]
    argv = ["count", "--flow-only", "--seed", str(seed())]
    argv += ["--inflow", ",".join(map(repr, inflow)), "--outflow", ",".join(map(repr, outflow))]
    jobs.append(Job("count:flow-only", _cli(argv), partial(check_flow_only, inflow, outflow)))
    return jobs


# ---------------------------------------------------------------------------
# multistat: Newton on the multistationary example 6.1

# A search job takes about 0.13 s, or 0.6 s when its trial finds two roots
# and retries at four times the start count, which depends on the seed.  Two
# searches against 20 start sets keep one retry near 5% of a pass.
SEARCHES = 2
START_SETS = 20
WITNESS_STARTS = (30, 60, 120, 240)


def acceptance_sample(rng, names) -> dict:
    """The parameter box of the acceptance test's multistationarity search."""
    inflow = {"A": 10 ** rng.uniform(-0.9, -0.6), "B": 10 ** rng.uniform(1.1, 1.4),
              "C": 10 ** rng.uniform(0.9, 1.2), "P": 1.0, "Q": 1.0}
    return {
        "k": {"A+B->P": 10 ** rng.uniform(1.4, 1.8), "B+C->Q": 10 ** rng.uniform(2.5, 2.9),
              "C->2A": 10 ** rng.uniform(2.3, 2.7)},
        "inflow": tuple(inflow[s] for s in names),
    }


def plant_witness(net) -> dict:
    """First draw of the acceptance box (fixed seed) whose cubic has three positive roots."""
    rng = np.random.default_rng(0)
    while True:
        params = acceptance_sample(rng, net.names)
        if len(oracles.example61_equilibria(params["k"], params["inflow"], np.ones(net.n))) == 3:
            return params


def _check_against_cubic(report, params, n, reference=None) -> List[str]:
    reference = reference or oracles.example61_equilibria(params["k"], params["inflow"], np.ones(n))
    problems = []
    net = oracles.Network(oracles.PAPER_NETWORKS["example-6.1"])
    for e in report.equilibria:
        point = [float(x) for x in e.point]
        if not any(_close(point, r) for r in reference):
            problems.append(f"equilibrium {point} is not a root of the cubic")
        residual = float(np.linalg.norm(net.field(point, params["k"], params["inflow"], np.ones(n))))
        if residual > RESIDUAL_TOL:
            problems.append(f"equilibrium {point} has residual {residual:.3g}")
        if e.det_sign != int(np.sign(np.linalg.det(net.jacobian(point, params["k"], np.ones(n))))):
            problems.append(f"det_sign {e.det_sign} at {point} disagrees with the Jacobian")
    if report.count > len(reference):
        problems.append(f"{report.count} equilibria, the cubic has {len(reference)}")
    if report.count == len(reference) and report.degree_estimate != _degree(n):
        problems.append(f"all roots found but degree {report.degree_estimate}")
    return problems


def check_search(n, result) -> List[str]:
    draws, witness = result.data
    if witness is None:
        return []  # a missed witness is a coverage figure, not a wrong answer
    reference = oracles.example61_equilibria(draws[-1]["k"], draws[-1]["inflow"], np.ones(n))
    problems = _check_against_cubic(witness.report, draws[-1], n, reference)
    if witness.report.count != len(reference):
        problems.append(f"witness with {witness.report.count} equilibria, the cubic has {len(reference)}")
    return problems


def check_witness(params, n, result) -> List[str]:
    return _check_against_cubic(result.data, params, n)


def multistat_jobs(rng, workdir: Path) -> List[Job]:
    net = oracles.Network(oracles.PAPER_NETWORKS["example-6.1"])
    program_net = dsl.parse_network(oracles.PAPER_NETWORKS["example-6.1"])
    flows = network.FlowAugmentation.uniform(net.n)

    def search(seed):
        def run() -> Result:
            draws = []

            def sampler(r):
                draws.append(acceptance_sample(r, net.names))
                return draws[-1]

            # One trial per job keeps the work per job independent of how
            # soon a witness turns up.
            witness = numeric.search_multistationarity(program_net, flows, sampler, budget=1, seed=seed, starts=120)
            text = json.dumps(None if witness is None else [witness.parameters, witness.report.to_dict()], sort_keys=True)
            return Result(0, text, (draws, witness))

        return run

    jobs = []
    for _ in range(SEARCHES):
        seed = int(rng.integers(1_000_000))
        jobs.append(Job(f"search:{seed}", search(seed), partial(check_search, net.n)))

    params = plant_witness(net)
    witness_flows = network.FlowAugmentation(params["inflow"], flows.outflow)
    system = numeric.numeric_system_from_network(program_net, params["k"], witness_flows)
    domain = numeric.default_domain(conservation.conserved_mass_vector(program_net), witness_flows)

    def count(starts, seed):
        def run() -> Result:
            report = numeric.count_equilibria(system, domain, starts, seed=seed)
            return Result(0, json.dumps(report.to_dict(), sort_keys=True), report)

        return run

    for _ in range(START_SETS):
        seed = int(rng.integers(1_000_000))
        for starts in WITNESS_STARTS:
            jobs.append(Job(f"witness:{starts}:{seed}", count(starts, seed), partial(check_witness, params, net.n)))
    return jobs
