"""Every function, class and method defined in src/pshlab is used in src/pshlab,
and every dataclass field is read there.

A definition counts as used when its name occurs as a NAME token of the
modules of src/pshlab more often than the name is defined there, so a name in
a docstring, a comment or a string does not count.  Dunder methods are called
by the language and do not count.  A dataclass init field counts as read when
its name is loaded as an attribute (x.name) somewhere in src/pshlab, other than
of the CLI's parsed options (args.name), which are no dataclass, or when its
class is serialised whole: dataclasses.asdict takes an attribute whose
annotation names the class.  Two definitions with one name share their uses,
so the test finds dead code; it cannot prove that code is alive.
"""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

from test_option_count import dataclass_init_fields

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


def name_tokens(text: str) -> Counter:
    """How often each NAME token occurs in a module's source."""
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return Counter(tok.string for tok in tokens if tok.type == tokenize.NAME)


def test_every_definition_is_used_in_src():
    modules = _modules()
    defs = [(mod, qual, name) for mod, text in modules.items() for qual, name in definitions(text)]
    defined = Counter(name for _, _, name in defs)
    names = sum((name_tokens(text) for text in modules.values()), Counter())
    unused = [f"{mod}: {qual}" for mod, qual, name in defs if names[name] <= defined[name]]
    assert unused == []


def test_every_dataclass_field_is_read_in_src():
    trees = [ast.parse(text) for text in _modules().values()]
    fields = [f for tree in trees for f in dataclass_init_fields(tree)]
    loaded = {node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and not (isinstance(node.value, ast.Name) and node.value.id == "args")}
    annotations = {name: annotation for _, name, annotation in fields}
    serialised = {
        node.id
        for tree in trees for call in ast.walk(tree)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id == "asdict" and isinstance(call.args[0], ast.Attribute)
        and call.args[0].attr in annotations
        for node in ast.walk(annotations[call.args[0].attr]) if isinstance(node, ast.Name)
    }
    unread = [f"{cls}.{name}" for cls, name, _ in fields
              if name not in loaded and cls not in serialised]
    assert unread == []


def test_a_name_in_a_string_or_comment_is_no_use():
    text = 'def f():\n    """f and g"""\n    return "g"  # g\n\n\ndef g():\n    return f()\n'
    assert name_tokens(text)["g"] == 1
    assert name_tokens(text)["f"] == 2
