"""The benchmark's tracer (bench/tracing.py) patches crncount's layers by
name; a rename must fail here, not only in traced benchmark runs."""

import ast
import dataclasses
import importlib
import inspect
import typing
from pathlib import Path

from crncount.numeric import NumericSystem, search_multistationarity

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _table(name):
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return node.value
    raise AssertionError(f"no {name} table in {TRACING}")


def _traced():
    return ast.literal_eval(_table("TRACED"))


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


def _result_type(traced_name):
    layer, name = traced_name.split(".")
    hint = typing.get_type_hints(getattr(importlib.import_module(f"crncount.{layer}"), name))["return"]
    return next((arg for arg in typing.get_args(hint) if arg is not type(None)), hint)  # unwrap Optional


def test_traced_result_attributes_resolve():
    # The tracer's ATTRIBUTES read fields off each traced call's result
    # (out.count, out.status, ...); each must exist on the declared return type.
    table = _table("ATTRIBUTES")
    reads = [
        (key.value, node.attr)
        for key, reader in zip(table.keys, table.values)
        for node in ast.walk(reader)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "out"
    ]
    assert len(reads) >= 7
    missing = []
    for traced_name, attribute in reads:
        cls = _result_type(traced_name)
        if attribute not in {f.name for f in dataclasses.fields(cls)} and not hasattr(cls, attribute):
            missing.append(f"{traced_name} -> {cls.__name__}.{attribute}")
    assert missing == []
