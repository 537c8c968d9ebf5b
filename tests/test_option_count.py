"""Pins the number of independently settable values in src/pshlab.

Two counts, taken with ast over every module:
- parameters with a default, positional and keyword-only, of every function,
  method and lambda;
- init fields of @dataclass classes (fields declared with init=False are not
  settable and do not count).

A value that only ever takes one value belongs in a constant, so a change
that adds one should say which callers need different values.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pshlab"

PARAMETERS_WITH_DEFAULT = 8
DATACLASS_INIT_FIELDS = 71

HOW_TO_UPDATE = (
    "A change that alters this count updates the pin here and justifies the change in "
    "CHANGES.md: which callers need each new settable value, or which one went."
)


def _modules():
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _init_false(value) -> bool:
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "field"
        and any(k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
                for k in value.keywords)
    )


def count_parameters_with_default() -> int:
    count = 0
    for tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def dataclass_init_fields(tree: ast.Module):
    """(class name, field name, annotation) of each init field of each @dataclass."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for st in node.body:
                if (isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)
                        and not _init_false(st.value)):
                    yield node.name, st.target.id, st.annotation


def count_dataclass_init_fields() -> int:
    return sum(1 for tree in _modules() for _ in dataclass_init_fields(tree))


def test_parameters_with_default():
    got = count_parameters_with_default()
    assert got == PARAMETERS_WITH_DEFAULT, (
        f"{got} parameters with a default in src/pshlab, pinned at "
        f"{PARAMETERS_WITH_DEFAULT}. {HOW_TO_UPDATE}"
    )


def test_dataclass_init_fields():
    got = count_dataclass_init_fields()
    assert got == DATACLASS_INIT_FIELDS, (
        f"{got} dataclass init fields in src/pshlab, pinned at "
        f"{DATACLASS_INIT_FIELDS}. {HOW_TO_UPDATE}"
    )
