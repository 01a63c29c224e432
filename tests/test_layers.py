"""Import layering of the package, read from its source with ``ast``.

The exact core (network, dsl, conservation, polynomial, jacobian) runs
without numpy and never reaches up into the numeric, fixture or command
line layers.  The numeric layer takes what it needs from the core at
module level, so importing it shows every dependency it has.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crncount"
CORE = ("network", "dsl", "conservation", "polynomial", "jacobian")
ABOVE_CORE = {"numpy", "numeric", "fixtures", "cli"}


def _imports(module):
    """(line, at module level, imported names) of every import in the module.

    A crncount module is named by its bare name ("jacobian"), any other
    by its top-level package ("numpy")."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # "from . import fixtures" names the module in its alias.
            names = [node.module] if node.module else [alias.name for alias in node.names]
        else:
            continue
        yield node.lineno, node in tree.body, {_bare(name) for name in names}


def _bare(name):
    parts = name.split(".")
    return parts[1] if parts[0] == "crncount" and len(parts) > 1 else parts[0]


@pytest.mark.parametrize("module", CORE)
def test_core_imports_no_numpy_and_no_layer_above(module):
    found = {(line, name) for line, _, names in _imports(module) for name in names & ABOVE_CORE}
    assert found == set()


def test_numeric_imports_the_package_at_module_level_only():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    nested = [(line, sorted(names & modules)) for line, at_top, names in _imports("numeric") if names & modules and not at_top]
    assert nested == []
