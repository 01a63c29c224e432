"""The benchmark's tracer (bench/tracing.py) patches crncount's layers by
name; a rename must fail here, not only in traced benchmark runs."""

import ast
import importlib
import inspect
from pathlib import Path

from crncount.numeric import NumericSystem, search_multistationarity

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_traced_names_resolve():
    traced = _traced()
    assert traced
    missing = [
        f"{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"crncount.{layer}"), name, None))
    ]
    assert missing == []


def test_f_lambda_takes_what_the_tracer_forwards():
    # The tracer replaces NumericSystem.f_lambda by counted(sys_, c, lam).
    assert len(inspect.signature(NumericSystem.f_lambda).parameters) == 3


def test_search_multistationarity_takes_budget():
    # The tracer reads a search's trial count from kwargs["budget"].
    assert "budget" in inspect.signature(search_multistationarity).parameters
