"""Every name a library module imports is used in that module.

`__init__.py` imports names to re-export them, so it is not checked.
The CLI does not import the brute-force oracles unless a command needs them,
and no module imports `dataclasses` (which loads `inspect`) when it is
imported: every `ordagg` process would pay for it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ordagg"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def test_modules_are_found():
    assert {"aggregation.py", "intervals.py", "oracle.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert sorted(imported_names(tree) - used_names(tree)) == []


def test_cli_does_not_load_the_oracles():
    """Only `oracle-compare` needs the brute-force oracles; every other
    query starts without them."""
    code = "import sys, ordagg.cli; print('ordagg.oracle' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          encoding="utf-8", env=env, check=True)
    assert done.stdout == "False\n"


def import_time_modules(tree: ast.Module) -> set[str]:
    """The modules an import statement outside every function body names:
    those imported when the module is."""
    names, nodes = set(), list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
        nodes.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("module", [*MODULES, "__init__.py"])
def test_no_module_imports_dataclasses_at_import_time(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert "dataclasses" not in import_time_modules(tree)


@pytest.mark.parametrize("module", ["ordagg", "ordagg.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    code = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          encoding="utf-8", env=env, check=True)
    assert done.stdout == "[]\n"
