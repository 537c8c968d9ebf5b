"""Every function, class and method defined in src/pshlab is used in src/pshlab.

A definition counts as used when its name occurs as a word in the modules of
src/pshlab more often than the name is defined there.  Dunder methods are
called by the language and do not count.  A docstring or comment that names a
definition hides it from this test, so the test finds dead code; it cannot
prove that code is alive.
"""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pshlab"


def _modules() -> dict:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def definitions(text: str):
    """(qualified name, name) of each module-level function and class and each
    method of a module-level class, dunder methods left out."""
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not re.fullmatch(r"__\w+__", item.name):
                    yield f"{node.name}.{item.name}", item.name


def test_every_definition_is_used_in_src():
    modules = _modules()
    defs = [(mod, qual, name) for mod, text in modules.items() for qual, name in definitions(text)]
    defined = Counter(name for _, _, name in defs)
    text = "\n".join(modules.values())
    unused = [f"{mod}: {qual}" for mod, qual, name in defs
              if len(re.findall(rf"\b{name}\b", text)) <= defined[name]]
    assert unused == []
