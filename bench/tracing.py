"""Outside-in tracing of crncount's layers.

While installed, the tracer replaces the public functions listed in
``TRACED`` by wrappers, in every crncount module that holds them, and
restores the originals afterwards; no file of the program changes.  Each
call becomes a span (name, start, end, parent, job id, attributes read
from its arguments and result), kept in memory and written out at the end.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, List

from workloads import WITNESS_STARTS

LAYERS = ("dsl", "network", "conservation", "polynomial", "jacobian", "numeric", "fixtures", "cli")

TRACED = {
    "cli": ("main",),
    "dsl": ("parse_network",),
    "network": ("with_general_kinetics",),
    "fixtures": ("fixture_network", "thron_cascade", "thron_box", "mapk_cube", "unit_cube"),
    "conservation": ("conserved_mass_vector", "check_mass_vector", "conservation_report"),
    "polynomial": ("determinant_expand",),
    "jacobian": (
        "augmented_mass_action_jacobian", "build_general_jacobian", "build_mass_action_rate",
        "symbolic_jacobian", "sign_census", "dominance_conditions", "census_report",
    ),
    "numeric": (
        "numeric_system_from_network", "default_domain", "make_domain", "boundary_audit", "box_audit",
        "count_equilibria", "newton_solve", "track_homotopy", "match_endpoint", "search_multistationarity",
    ),
}

# Span attributes read from a call's arguments and result.
ATTRIBUTES = {
    "polynomial.determinant_expand": lambda args, kwargs, out: {"terms": len(out)},
    "jacobian.sign_census": lambda args, kwargs, out: {"terms": out.total_terms},
    "numeric.newton_solve": lambda args, kwargs, out: {"status": out.status, "iterations": out.iterations},
    "numeric.count_equilibria": lambda args, kwargs, out: {"starts": out.starts, "roots": out.count},
    "numeric.track_homotopy": lambda args, kwargs, out: {"steps": out.steps},
    "numeric.search_multistationarity": lambda args, kwargs, out: {
        "trials": kwargs["budget"] if out is None else out.trial + 1,
        "witness": out is not None,
    },
}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index, job id, attributes]
        self.f_lambda_calls = 0
        self._stack: List[int] = []
        self._job = None
        self._patches = None  # (owner, attribute, original, wrapper)

    def _wrap(self, name, fn):
        attributes = ATTRIBUTES.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index] = [name, start, perf_counter(), parent, self._job, {"error": type(exc).__name__}]
                raise
            finally:
                stack.pop()
            end = perf_counter()
            spans[index] = [name, start, end, parent, self._job, attributes(args, kwargs, out) if attributes else None]
            return out

        return traced

    def _build_patches(self):
        modules = [m for key, m in sys.modules.items() if key == "crncount" or key.startswith("crncount.")]
        patches = []
        for layer, names in TRACED.items():
            home = sys.modules[f"crncount.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    patches += [(module, attr, original, wrapper) for attr, value in vars(module).items() if value is original]
        # NumericSystem.f_lambda runs ~10k times per boundary audit: count it, no span.
        system = sys.modules["crncount.numeric"].NumericSystem
        f_lambda = system.f_lambda

        def counted(sys_, c, lam):
            self.f_lambda_calls += 1
            return f_lambda(sys_, c, lam)

        patches.append((system, "f_lambda", f_lambda, counted))
        return patches

    def install(self, job_id):
        if self._patches is None:
            self._patches = self._build_patches()
        self._job = job_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._job = None

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job, "attrs": attrs}) + "\n")

    def metrics(self, passes: int, job_seconds: float, untraced_seconds: float, wrong_results: int) -> Dict[str, tuple]:
        """Per-layer figures, as totals per pass of the job list.

        ``job_seconds`` is the traced jobs' wall time and ``untraced_seconds``
        the wall time of the same jobs run without wrappers.
        """
        durations = [end - start for _, start, end, _, _, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for span, d in zip(self.spans, durations):
            if span[3] >= 0:
                covered[span[3]] += d
        total: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        self_time: Dict[str, float] = defaultdict(float)
        max_call: Dict[str, float] = defaultdict(float)
        top_level = 0.0
        statuses: Counter = Counter()
        newton_iterations = terms_out = terms_classified = trials = witnesses = stalled = homotopy_steps = 0
        roots_at: Dict[int, list] = defaultdict(list)
        for (name, _, _, parent, _, attrs), d, c in zip(self.spans, durations, covered):
            total[name] += d
            calls[name] += 1
            self_time[name.split(".")[0]] += d - c
            max_call[name] = max(max_call[name], d)
            if parent < 0:
                top_level += d
            attrs = attrs or {}
            if attrs.get("error") == "PathTrackingError":
                stalled += 1
            if name == "numeric.newton_solve" and "status" in attrs:
                statuses[attrs["status"]] += 1
                newton_iterations += attrs["iterations"]
            elif name == "polynomial.determinant_expand":
                terms_out += attrs.get("terms", 0)
            elif name == "jacobian.sign_census":
                terms_classified += attrs.get("terms", 0)
            elif name == "numeric.track_homotopy":
                homotopy_steps += attrs.get("steps", 0)
            elif name == "numeric.search_multistationarity" and "trials" in attrs:
                trials += attrs["trials"]
                witnesses += attrs["witness"]
            elif name == "numeric.count_equilibria" and parent < 0 and "roots" in attrs:
                roots_at[attrs["starts"]].append(attrs["roots"])

        def per_pass(x):
            return x / passes

        def mean(values):
            return sum(values) / len(values) if values else 0.0

        newton_calls = calls["numeric.newton_solve"]
        out = {
            "jobs.s": (per_pass(job_seconds), "s"),
            "trace.coverage": (top_level / job_seconds if job_seconds else 0.0, "ratio"),
            "trace.overhead": (job_seconds / untraced_seconds - 1.0 if untraced_seconds else 0.0, "ratio"),
            "checks.wrong_results": (wrong_results, "count"),
            "cli.main.self_s": (per_pass(self_time["cli"]), "s"),  # main is the only traced cli function
            "dsl.parse_network.s": (per_pass(total["dsl.parse_network"]), "s"),
            "dsl.parse_network.calls": (per_pass(calls["dsl.parse_network"]), "count"),
            "conservation.conserved_mass_vector.s": (per_pass(total["conservation.conserved_mass_vector"]), "s"),
            "conservation.conserved_mass_vector.calls": (per_pass(calls["conservation.conserved_mass_vector"]), "count"),
            "polynomial.determinant_expand.s": (per_pass(total["polynomial.determinant_expand"]), "s"),
            "polynomial.determinant_expand.calls": (per_pass(calls["polynomial.determinant_expand"]), "count"),
            "polynomial.determinant_expand.terms_out": (per_pass(terms_out), "count"),
            "polynomial.determinant_expand.max_call_s": (max_call["polynomial.determinant_expand"], "s"),
            "jacobian.build.s": (
                per_pass(total["jacobian.augmented_mass_action_jacobian"] + total["jacobian.build_general_jacobian"]), "s"
            ),
            "jacobian.sign_census.s": (per_pass(total["jacobian.sign_census"]), "s"),
            "jacobian.dominance_conditions.s": (per_pass(total["jacobian.dominance_conditions"]), "s"),
            "jacobian.terms_classified": (per_pass(terms_classified), "count"),
            "numeric.boundary_audit.s": (per_pass(total["numeric.boundary_audit"]), "s"),
            "numeric.boundary_audit.calls": (per_pass(calls["numeric.boundary_audit"]), "count"),
            "numeric.f_lambda.calls": (per_pass(self.f_lambda_calls), "count"),
            "numeric.box_audit.s": (per_pass(total["numeric.box_audit"]), "s"),
            "numeric.count_equilibria.s": (per_pass(total["numeric.count_equilibria"]), "s"),
            "numeric.count_equilibria.calls": (per_pass(calls["numeric.count_equilibria"]), "count"),
            "numeric.count_equilibria.roots_found": (per_pass(sum(sum(v) for v in roots_at.values())), "count"),
            **{
                f"numeric.count_equilibria.roots_at_{starts}": (mean(roots_at[starts]), "count")
                for starts in WITNESS_STARTS
            },
            "numeric.newton_solve.s": (per_pass(total["numeric.newton_solve"]), "s"),
            "numeric.newton_solve.calls": (per_pass(newton_calls), "count"),
            "numeric.newton_solve.iterations": (per_pass(newton_iterations), "count"),
            "numeric.newton_solve.converged": (per_pass(statuses["converged"]), "count"),
            "numeric.newton_solve.no_descent": (per_pass(statuses["no-descent"]), "count"),
            "numeric.newton_solve.singular_jacobian": (per_pass(statuses["singular-jacobian"]), "count"),
            "numeric.newton_solve.other": (
                per_pass(newton_calls - statuses["converged"] - statuses["no-descent"] - statuses["singular-jacobian"]),
                "count",
            ),
            "numeric.newton_solve.converged_ratio": (statuses["converged"] / newton_calls if newton_calls else 0.0, "ratio"),
            "numeric.track_homotopy.s": (per_pass(total["numeric.track_homotopy"]), "s"),
            "numeric.track_homotopy.steps": (per_pass(homotopy_steps), "count"),
            "numeric.track_homotopy.stalled": (per_pass(stalled), "count"),
            "numeric.search_multistationarity.s": (per_pass(total["numeric.search_multistationarity"]), "s"),
            "numeric.search_multistationarity.trials": (per_pass(trials), "count"),
            "numeric.search_multistationarity.witnesses": (per_pass(witnesses), "count"),
        }
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.self_s"] = (per_pass(self_time[layer]), "s")
        return out
