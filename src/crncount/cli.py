"""Command line front end: ``crn census | conserve | count``.

Every command emits one JSON report on stdout (optionally also to a file
via --json) and uses the exit-code contract: 0 = clean / uniqueness
certified, 2 = analysis complete but uniqueness not certified, 1 = error.
Reruns with identical arguments and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional

from . import fixtures
from .conservation import check_mass_vector, conservation_report, conserved_mass_vector
from .dsl import parse_network
from .jacobian import augmented_mass_action_jacobian, build_general_jacobian, census_of, certify
from .network import FlowAugmentation, MassAction, NetworkError, with_general_kinetics
from .numeric import (
    CORRECTOR_TOL,
    Equilibrium,
    PathTrackingError,
    UniqueEquilibriumError,
    count_equilibria,
    default_domain,
    flow_system,
    match_endpoint,
    numeric_system_from_network,
    track_homotopy,
)
from .polynomial import DEFAULT_MAX_DETERMINANT_DIM

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNCERTIFIED = 2


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, code = args.handler(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        # str(KeyError) quotes its message; print the message as written.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_ERROR
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.json:
        # Written before stdout, so a failed write prints no report.
        try:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write --json {args.json}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_ERROR
    print(text)
    return code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at the first main call.

    Reuse is safe: parse_args copies the --k list default before appending,
    and the handlers only read args.
    """
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
    count.add_argument("--starts", type=int, default=100, help="Newton starts of an uncertified or cascade run")
    count.add_argument("--seed", type=int, default=0, help="seed of those starts")
    count.set_defaults(handler=_cmd_count)
    return parser


def _max_dim() -> int:
    value = os.environ.get("CRN_MAX_SPECIES")
    if not value:
        return DEFAULT_MAX_DETERMINANT_DIM
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"CRN_MAX_SPECIES must be an integer >= 1, got {value!r}")
    return cap


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


def _parse_fractions(text: str, option: str) -> List[Fraction]:
    """An exact comma-separated vector given to ``option``."""
    try:
        return [Fraction(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad {option} value {text!r}") from None


def _cmd_census(args):
    net = _load_network(args)
    outflow_mode = {"1": "unit", "unit": "unit", "symbolic": "symbolic"}.get(args.outflow)
    if outflow_mode is None:
        raise ValueError("census supports --outflow 1/unit or symbolic")
    if args.kinetics == "general":
        J = build_general_jacobian(with_general_kinetics(net), outflow=outflow_mode)
    else:
        _require_mass_action(net, "census --kinetics mass-action")
        J = augmented_mass_action_jacobian(net, outflow=outflow_mode)
    census, _, report = census_of(net, J, _max_dim())
    report["kinetics"] = args.kinetics
    report["outflow"] = outflow_mode
    return report, EXIT_OK if census.certified_one_signed else EXIT_UNCERTIFIED


def _cmd_conserve(args):
    net = _load_network(args)
    candidate = None
    if args.check:
        candidate = _parse_fractions(args.check, "--check")
    report = conservation_report(net, candidate)
    return report, EXIT_OK


def _parse_bindings(pairs):
    out = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if name in out:
            raise ValueError(f"--k binds {name} more than once")
        try:
            out[name] = float(value)
        except ValueError:
            raise ValueError(f"--k expects NAME=VALUE with a numeric VALUE, got {pair!r}") from None
    return out


# Every network or flow-only system _cmd_count builds is c_in - outflow*c + g(c)
# with mass-action g at finite positive rates, positive flows, a positive m that
# is conserved or dissipating, and M > m.c_in; these make the boundary zero-free.
_STRUCTURAL_ARGUMENT = (
    "f_lambda_j >= c_in_j > 0 where c_j = 0 (every term consuming j has the factor c_j); "
    "m.f_lambda <= m.c_in - M < 0 where m.(outflow*c) = M (m conserved or dissipating)"
)
# Each cascade has exactly one positive equilibrium at every parameter set that
# is finite and > 0, the only ones its constructor accepts.
_CASCADE_ARGUMENTS = {
    "mapk-thron": "every equilibrium solves p1*c0/(p2+c3) = p5*c3/(p6+c3), with c1 and c2 fixed by c3; the left side "
    "decreases and the right side increases in c3, so there is exactly one positive equilibrium",
    "mapk-cube": "f_j >= 0 on each face c_j = 0, and f != 0 there (where input_j = 0, f_1 > 0 or f_2 > 0); "
    "f_j = -b_j/(1+a_j) < 0 on each face c_j = 1; so the straight-line homotopy to c* - c gives degree -1 "
    "on the cube, and det J < 0 (cyclic feedback) leaves exactly one root",
}


def _cmd_count(args):
    if args.starts < 1:
        raise ValueError(f"--starts must be an integer >= 1, got {args.starts}")
    if args.seed < 0:
        raise ValueError(f"--seed must be an integer >= 0, got {args.seed}")
    if args.flow_only and (args.file or args.fixture or args.k or args.mass):
        raise ValueError("--flow-only takes no network file, --fixture, --k or --mass")
    if args.fixture in fixtures.NUMERIC_FIXTURES:
        sys_, box = _cascade_system(args)
        counted = count_equilibria(sys_, box, starts=args.starts, seed=args.seed).to_dict()
        box_block = {"box_lo": list(box.lo), "box_hi": list(box.hi)}
        return _count_report(sys_.n, box_block, counted, True, _CASCADE_ARGUMENTS[args.fixture], fixture=args.fixture)
    census_block, certified = None, True
    inflow = "1" if args.inflow is None else args.inflow
    outflow = "1" if args.outflow is None else args.outflow
    if args.flow_only:
        n = max(len([p for p in inflow.split(",") if p]), len([p for p in outflow.split(",") if p]))
        if n == 0:
            raise ValueError("--flow-only needs at least one species: --inflow and --outflow give no values")
        flows = FlowAugmentation(_parse_vector(inflow, n, "inflow"), _parse_vector(outflow, n, "outflow"))
        sys_ = flow_system(flows)
        m_floats = [1.0] * n
    else:
        net = _load_network(args)
        _require_mass_action(net, "count")
        flows = FlowAugmentation(_parse_vector(inflow, net.n, "inflow"), _parse_vector(outflow, net.n, "outflow"))
        bindings = _parse_bindings(args.k)
        # A rate fixed by k= in the file wins over --k, so binding it would be ignored.
        free = {r.label for r in net.reactions if r.kinetics.value is None}
        unknown = set(bindings) - free
        if unknown:
            raise ValueError(f"--k names no rate constant left unbound by the network: {', '.join(sorted(unknown))}")
        sys_ = numeric_system_from_network(net, bindings, flows)
        if args.mass:
            m = _parse_fractions(args.mass, "--mass")
            verdict = check_mass_vector(net, m)
            if verdict.value == "neither":
                raise NetworkError("--mass vector is neither conserved nor dissipating for this network")
            for x, part in zip(m, args.mass.split(",")):
                if x > sys.float_info.max or float(x) == 0.0:  # x > 0: the verdict is not "neither"
                    raise ValueError(f"--mass entry {part!r} is out of float range")
            m_floats = [float(x) for x in m]
        else:
            mv = conserved_mass_vector(net)
            if mv is None:
                raise NetworkError("network is not conservative; supply a dissipating --mass vector")
            m_floats = list(mv.as_floats())
        census_block, certified = certify(net, bindings, flows, _max_dim())
    domain = default_domain(m_floats, flows)
    counted = _count_along_path(sys_, domain) if certified else _count_by_multistart(sys_, domain, args)
    domain_block = {"m": m_floats, "M": domain.bound, "outflow": list(flows.outflow)}
    return _count_report(sys_.n, domain_block, counted, certified, _STRUCTURAL_ARGUMENT, census=census_block)


def _count_report(n, domain, counted, certified, argument, **source):
    """Report {domain, **counted, boundary, census | fixture} and exit code of
    every crn count run.  A certified run must show the degree rule: exactly
    one equilibrium, where det J has the sign (-1)^n of a one-signed det."""
    found, sign = len(counted["equilibria"]), counted["degree_estimate"]
    if certified and found != 1:
        listed = ", ".join(f"{status} {k}" for status, k in counted["newton_statuses"].items())
        raise UniqueEquilibriumError(
            f"one-signed determinant guarantees a unique equilibrium, found {found}; Newton starts: {listed}"
        )
    if certified and sign != (-1) ** n:
        raise UniqueEquilibriumError(f"one-signed determinant has sign {(-1) ** n}, but det J is {sign} at the equilibrium")
    report = {"domain": domain, **counted, "boundary": {"certified": True, "argument": argument, "violations": []}, **source}
    return report, EXIT_OK if certified else EXIT_UNCERTIFIED


def _count_along_path(sys_, domain):
    """Count block of a certified run: the endpoint of the lambda-path.

    f_lambda is the network at rates lambda*k, so a one-signed census keeps
    det J_lambda != 0 for every lambda in (0, 1], and the structural
    argument keeps every f_lambda zero-free on the boundary: the path from
    c_in/outflow is a regular arc to the one equilibrium.  A stalled path
    raises.
    """
    path = track_homotopy(sys_, domain)
    (endpoint,) = Equilibrium.at(sys_, [path.endpoint], [path.endpoint_residual])
    counted = {"equilibria": [endpoint.to_dict()], "degree_estimate": endpoint.det_sign}
    return {**counted, "tol": CORRECTOR_TOL, "homotopy": path.to_dict()}


def _count_by_multistart(sys_, domain, args):
    """Count block of an uncertified run: multistart Newton, and the homotopy
    as a cross-check, whose endpoint joins the roots when it lies in the open
    domain and matches none of them (the degree (-1)^n guarantees a root)."""
    report_eq = count_equilibria(sys_, domain, starts=args.starts, seed=args.seed)
    try:
        path = track_homotopy(sys_, domain)
    except PathTrackingError as exc:
        return {**report_eq.to_dict(), "homotopy": {"stalled": True, "reason": str(exc), "last_lambda": exc.last_lambda}}
    matched = match_endpoint(report_eq, path.endpoint)
    if matched is None and domain.contains(path.endpoint):
        (endpoint,) = Equilibrium.at(sys_, [path.endpoint], [path.endpoint_residual])
        report_eq.equilibria = sorted([*report_eq.equilibria, endpoint], key=lambda e: e.point)
        matched = report_eq.equilibria.index(endpoint)
    return {**report_eq.to_dict(), "homotopy": {**path.to_dict(), "matched_equilibrium": matched}}


def _require_mass_action(net, command):
    general = next((r.label for r in net.reactions if not isinstance(r.kinetics, MassAction)), None)
    if general:
        raise NetworkError(f"{command} needs mass-action kinetics; {general} is general (census-only: crn census --kinetics general)")


def _cascade_system(args):
    """The cascade named by --fixture at its --k parameters (default 1), and its counting box."""
    if any(value is not None for value in (args.file, args.inflow, args.outflow, args.mass)):
        raise ValueError(f"--fixture {args.fixture} takes no network file, --inflow, --outflow or --mass")
    bindings = _parse_bindings(args.k)
    keys = fixtures.NUMERIC_FIXTURES[args.fixture]
    unknown = set(bindings) - set(keys)
    if unknown:
        raise ValueError(f"unknown {args.fixture} parameters: {', '.join(sorted(unknown))}")
    v = [bindings.get(key, 1.0) for key in keys]
    if args.fixture == "mapk-thron":
        return fixtures.thron_cascade(v[:6], v[6]), fixtures.thron_box()
    return fixtures.mapk_cube(v[0:3], v[3:6], v[6:9], v[9:12], v[12], v[13]), fixtures.unit_cube()


if __name__ == "__main__":
    sys.exit(main())
