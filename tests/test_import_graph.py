"""The package re-exports nothing, and importing a module loads only what it imports.

`pshlab/__init__` binds `__version__` and nothing else; each module of
src/pshlab, imported in a fresh interpreter, loads exactly the pshlab modules
that its import statements reach, transitively; and no import statement sits in
a function body, so the module-level imports are the whole import graph.  The
two front ends, `cli` and `acceptance`, bind toolkit modules, not the names in
them, so that each toolkit function has one binding for a tracer or a test to
patch.  No module imports another module's private (`_`-prefixed) name: a helper
that two modules share has a public name.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pshlab"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


def parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def imported(module: str) -> set:
    """The pshlab modules that a module's own import statements name."""
    out = set()
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # "from .fields import x" names fields; "from . import fields" names it too
            out.update([node.module] if node.module else
                       [alias.name for alias in node.names if alias.name in MODULES])
    return out


def reach(module: str) -> set:
    """The package and every pshlab module that importing module loads, by the graph."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(imported(name))
    return {"pshlab", *(f"pshlab.{name}" for name in seen)}


def fresh_import(target: str) -> dict:
    """The pshlab modules that a fresh interpreter holds after importing target, and the
    names that the package binds that are not dunders."""
    code = (
        "import json, re, sys\n"
        f"import {target}\n"
        "import pshlab\n"
        "print(json.dumps({\n"
        "    'loaded': sorted(m for m in sys.modules if m.split('.')[0] == 'pshlab'),\n"
        "    'names': sorted(k for k in vars(pshlab) if not re.fullmatch(r'__\\w+__', k)),\n"
        "    'version': '__version__' in vars(pshlab)}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC.parent) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_package_binds_only_its_version():
    got = fresh_import("pshlab")
    assert got["loaded"] == ["pshlab"]
    assert got["names"] == []
    assert got["version"]


@pytest.mark.parametrize("module", MODULES)
def test_importing_a_module_loads_only_what_it_imports(module):
    got = fresh_import(f"pshlab.{module}")
    assert set(got["loaded"]) == reach(module)
    # a submodule binds its own name in the package, which is the import system's doing
    assert set(got["names"]) == {name.split(".")[1] for name in got["loaded"] if "." in name}


def test_the_graph_at_its_two_ends():
    assert reach("geometry") == {"pshlab", "pshlab.errors", "pshlab.geometry"}
    assert reach("cli") == {"pshlab", *(f"pshlab.{name}" for name in MODULES)}


def test_no_import_in_a_function_body():
    found = [
        f"{module}.{node.name}: line {inner.lineno}"
        for module in ["__init__", *MODULES]
        for node in ast.walk(parse(module))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def names_bound(module: str) -> set:
    """(source module or None for the package, name) of each name that a module's
    relative imports bind, other than a pshlab module."""
    return {
        (node.module, alias.name)
        for node in ast.walk(parse(module))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if node.module or alias.name not in MODULES
    }


@pytest.mark.parametrize("module", ["cli", "acceptance"])
def test_front_ends_bind_toolkit_modules_not_names(module):
    from pshlab import errors

    error_classes = {name for name, value in vars(errors).items() if isinstance(value, type)}
    allowed = {(None, "__version__"), *(("errors", name) for name in error_classes)}
    assert names_bound(module) <= allowed


def test_no_module_imports_another_modules_private_name():
    found = sorted(f"{module} <- {source}.{name}" for module in MODULES
                   for source, name in names_bound(module) if source and name.startswith("_"))
    assert found == []
