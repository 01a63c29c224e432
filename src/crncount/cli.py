"""Command line front end: ``crn census | conserve | count``.

Every command emits one JSON report on stdout (optionally also to a file
via --json) and uses the exit-code contract: 0 = clean / uniqueness
certified, 2 = analysis complete but uniqueness not certified, 1 = error.
Reruns with identical arguments and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional

from . import fixtures
from .conservation import check_mass_vector, conservation_report, conserved_mass_vector
from .dsl import ParseError, parse_network
from .jacobian import (
    SYMBOLIC_OUTFLOW,
    UNIT_OUTFLOW,
    augmented_mass_action_jacobian,
    build_general_jacobian,
    census_report,
    dominance_conditions,
    sign_census,
)
from .network import FlowAugmentation, MassAction, NetworkError, with_general_kinetics
from .numeric import (
    PathTrackingError,
    box_audit,
    count_equilibria,
    default_domain,
    flow_system,
    match_endpoint,
    numeric_system_from_network,
    track_homotopy,
)
from .polynomial import DEFAULT_MAX_DETERMINANT_DIM, DeterminantSizeError, determinant_expand, rate_constant

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNCERTIFIED = 2


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.handler(args)
    except (ParseError, NetworkError, DeterminantSizeError, ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crn", description="Equilibrium analysis for reaction networks with inflows and outflows")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", nargs="?", help="network file in the reaction DSL")
        p.add_argument("--fixture", help="built-in fixture name instead of a file")
        p.add_argument("--json", help="also write the JSON report to this path")

    census = sub.add_parser("census", help="sign census of the Jacobian determinant expansion")
    add_common(census)
    census.add_argument("--kinetics", choices=["mass-action", "general"], default="mass-action")
    census.add_argument("--outflow", default="1", help="'1'/'unit' (fold outflow constants) or 'symbolic'")
    census.set_defaults(handler=_cmd_census)

    conserve = sub.add_parser("conserve", help="decide conservativity and emit a mass vector")
    add_common(conserve)
    conserve.add_argument("--check", help="comma-separated candidate mass vector to classify")
    conserve.set_defaults(handler=_cmd_conserve)

    count = sub.add_parser("count", help="count equilibria numerically in a bounded domain")
    add_common(count)
    count.add_argument("--inflow", help="scalar or comma-separated inflow rates (default 1)")
    count.add_argument("--outflow", help="scalar or comma-separated outflow rates (default 1)")
    count.add_argument("--k", action="append", default=[], metavar="NAME=VALUE", help="rate constant or fixture parameter binding")
    count.add_argument("--mass", help="dissipating mass vector override (comma-separated)")
    count.add_argument("--flow-only", action="store_true", help="no reactions beyond the flows themselves")
    count.add_argument("--starts", type=int, default=100)
    count.add_argument("--seed", type=int, default=0)
    count.add_argument("--domain-mult", type=float, help="M = R * m.c_in (default 10)")
    count.set_defaults(handler=_cmd_count)
    return parser


def _max_dim() -> int:
    value = os.environ.get("CRN_MAX_SPECIES")
    return int(value) if value else DEFAULT_MAX_DETERMINANT_DIM


def _load_network(args):
    if args.fixture:
        if args.fixture in fixtures.NUMERIC_FIXTURES:
            raise NetworkError(f"fixture {args.fixture!r} is a numeric model, not a network")
        return fixtures.fixture_network(args.fixture)
    if not args.file:
        raise NetworkError("give a network file or --fixture NAME")
    with open(args.file) as fh:
        return parse_network(fh.read())


def _parse_vector(text: str, n: int, what: str):
    parts = [p for p in text.split(",") if p]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"bad {what} value {text!r}")
    if len(values) == 1:
        return tuple(values * n)
    if len(values) != n:
        raise ValueError(f"{what} needs 1 or {n} values, got {len(values)}")
    return tuple(values)


def _cmd_census(args):
    net = _load_network(args)
    outflow_mode = {"1": "unit", "unit": "unit", "symbolic": "symbolic"}.get(args.outflow)
    if outflow_mode is None:
        raise ValueError("census supports --outflow 1/unit or symbolic")
    if args.kinetics == "general":
        J = build_general_jacobian(with_general_kinetics(net), outflow=outflow_mode)
    else:
        J = augmented_mass_action_jacobian(net, outflow=outflow_mode)
    census, _, report = _census(net, J)
    report["kinetics"] = args.kinetics
    report["outflow"] = outflow_mode
    code = EXIT_OK if census.certified_one_signed else EXIT_UNCERTIFIED
    return report, code


def _census(net, J):
    """Expand det J and census its signs: (census, dominance conditions, report)."""
    det = determinant_expand(J, max_dim=_max_dim())
    census = sign_census(det, net.n)
    conditions = dominance_conditions(det, census)
    return census, conditions, census_report(net, census, conditions)


def _cmd_conserve(args):
    net = _load_network(args)
    candidate = None
    if args.check:
        candidate = [Fraction(part) for part in args.check.split(",")]
    report = conservation_report(net, candidate)
    return report, EXIT_OK


def _parse_bindings(pairs):
    out = {}
    for pair in pairs:
        name, eq, value = pair.partition("=")
        if not eq:
            raise ValueError(f"--k expects NAME=VALUE, got {pair!r}")
        out[name] = float(value)
    return out


# Every system _cmd_count builds is c_in - outflow*c + g(c) with mass-action
# g at finite positive rates, positive flows, a positive m that is conserved
# or dissipating, and M > m.c_in; these make the boundary zero-free.
_STRUCTURAL_ARGUMENT = (
    "f_lambda_j >= c_in_j > 0 where c_j = 0 (every term consuming j has the factor c_j); "
    "m.f_lambda <= m.c_in - M < 0 where m.(outflow*c) = M (m conserved or dissipating)"
)
_SAMPLED_ARGUMENT = "sampled box faces: f_j > 0 on each lower face, no zero of f on any face"


def _cmd_count(args):
    if args.flow_only and (args.file or args.fixture or args.k or args.mass):
        raise ValueError("--flow-only takes no network file, --fixture, --k or --mass")
    if args.fixture in fixtures.NUMERIC_FIXTURES:
        return _count_numeric_fixture(args)
    inflow = "1" if args.inflow is None else args.inflow
    outflow = "1" if args.outflow is None else args.outflow
    domain_mult = 10.0 if args.domain_mult is None else args.domain_mult
    if args.flow_only:
        n = max(len([p for p in inflow.split(",") if p]), len([p for p in outflow.split(",") if p]))
        flows = FlowAugmentation(_parse_vector(inflow, n, "inflow"), _parse_vector(outflow, n, "outflow"))
        sys_ = flow_system(flows)
        m_floats = [1.0] * n
        census_block, certified = None, True
    else:
        net = _load_network(args)
        flows = FlowAugmentation(_parse_vector(inflow, net.n, "inflow"), _parse_vector(outflow, net.n, "outflow"))
        bindings = _parse_bindings(args.k)
        # A rate fixed by k= in the file wins over --k, so binding it would be ignored.
        free = {r.label for r in net.reactions if isinstance(r.kinetics, MassAction) and r.kinetics.value is None}
        unknown = set(bindings) - free
        if unknown:
            raise ValueError(f"--k names no rate constant left unbound by the network: {', '.join(sorted(unknown))}")
        sys_ = numeric_system_from_network(net, bindings, flows)
        if args.mass:
            m = [Fraction(p) for p in args.mass.split(",")]
            verdict = check_mass_vector(net, m)
            if verdict.value == "neither":
                raise NetworkError("--mass vector is neither conserved nor dissipating for this network")
            m_floats = [float(x) for x in m]
        else:
            mv = conserved_mass_vector(net)
            if mv is None:
                raise NetworkError("network is not conservative; supply a dissipating --mass vector")
            m_floats = list(mv.as_floats())
        census_block, certified = _count_census(net, bindings, flows)

    domain = default_domain(m_floats, flows, domain_mult)
    report_eq = count_equilibria(sys_, domain, starts=args.starts, seed=args.seed, expect_unique=certified)
    homotopy: dict
    try:
        path = track_homotopy(sys_, domain)
        homotopy = {**path.to_dict(), "matched_equilibrium": match_endpoint(report_eq, path.endpoint)}
    except PathTrackingError as exc:
        homotopy = {"stalled": True, "reason": str(exc), "last_lambda": exc.last_lambda}

    report = {
        "domain": {"m": m_floats, "M": domain.bound, "outflow": list(flows.outflow)},
        **report_eq.to_dict(),
        "homotopy": homotopy,
        "boundary": {"certified": True, "argument": _STRUCTURAL_ARGUMENT, "violations": []},
        "census": census_block,
    }
    code = EXIT_OK if certified else EXIT_UNCERTIFIED
    return report, code


def _count_census(net, bindings, flows):
    """Census block and certification verdict of a network at bound parameters.

    Outflows other than 1 need the symbolic-outflow census: the unit one
    folds terms whose outflow monomials differ, so its dominance
    conditions hold only for unit outflows.  Returns (None, False) when
    the network is too large to census or not mass-action.
    """
    outflow = UNIT_OUTFLOW if all(lam == 1.0 for lam in flows.outflow) else SYMBOLIC_OUTFLOW
    try:
        census, conditions, census_block = _census(net, augmented_mass_action_jacobian(net, outflow=outflow))
    except (DeterminantSizeError, NetworkError):
        return None, False
    certified = census.certified_one_signed
    if not certified and conditions and census.unknown_sign_terms == 0:
        # A one-signed determinant also follows when every dominance
        # condition holds at the bound parameter values.
        values = {rate_constant(r.label): bindings.get(r.label, r.kinetics.value) for r in net.reactions}
        values.update({rate_constant(f"{name}->0"): lam for name, lam in zip(net.names, flows.outflow)})
        certified = all(c.holds_at(values) for c in conditions)
        census_block["conditions_hold_at_parameters"] = certified
    return census_block, certified


_THRON_KEYS = ("p1", "p2", "p3", "p4", "p5", "p6")
_CUBE_KEYS = ("a1", "a2", "a3", "b1", "b2", "b3", "d1", "d2", "d3", "e1", "e2", "e3", "mu", "k")


def _count_numeric_fixture(args):
    if any(value is not None for value in (args.file, args.inflow, args.outflow, args.mass, args.domain_mult)):
        raise ValueError(f"--fixture {args.fixture} takes no network file, --inflow, --outflow, --mass or --domain-mult")
    bindings = _parse_bindings(args.k)
    if args.fixture == "mapk-thron":
        unknown = set(bindings) - set(_THRON_KEYS) - {"c0"}
        if unknown:
            raise ValueError(f"unknown mapk-thron parameters: {', '.join(sorted(unknown))}")
        p = [bindings.get(key, 1.0) for key in _THRON_KEYS]
        c0 = bindings.get("c0", 1.0)
        sys_ = fixtures.thron_cascade(p, c0)
        box = fixtures.thron_box()
    else:
        unknown = set(bindings) - set(_CUBE_KEYS)
        if unknown:
            raise ValueError(f"unknown mapk-cube parameters: {', '.join(sorted(unknown))}")
        get3 = lambda stem: [bindings.get(f"{stem}{i}", 1.0) for i in (1, 2, 3)]
        sys_ = fixtures.mapk_cube(get3("a"), get3("b"), get3("d"), get3("e"), bindings.get("mu", 1.0), bindings.get("k", 1.0))
        box = fixtures.unit_cube()
    audit = box_audit(sys_, box, samples=600, seed=args.seed)
    # The cyclic-feedback fixtures have a one-signed Jacobian determinant
    # for every positive parameter choice, so a clean audit certifies.
    report_eq = count_equilibria(sys_, box, starts=args.starts, seed=args.seed, expect_unique=audit.clean)
    report = {
        "domain": {"box_lo": list(box.lo), "box_hi": list(box.hi)},
        **report_eq.to_dict(),
        "boundary": {"certified": audit.clean, "argument": _SAMPLED_ARGUMENT, "violations": audit.violations},
        "fixture": args.fixture,
    }
    return report, EXIT_OK if audit.clean else EXIT_UNCERTIFIED


if __name__ == "__main__":
    sys.exit(main())
