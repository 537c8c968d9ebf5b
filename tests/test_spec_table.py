"""One spec table per kind of spec and one resolver, fields.resolve.

Every id of every table gives, bare, the object that its builder gave before
the tables; an id that takes no parameter refuses one; a numeric parameter
must be finite; every spec failure exits 2 and names the option; and no other
code in src/pshlab splits a spec at ':' or JSON-parses a spec parameter.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from pshlab import bochner, cli, fields
from pshlab.bochner import bump_const_form, bump_zbar_form
from pshlab.dbar1d import dbar_bump
from pshlab.witness import build_psi_s, build_witness_form

SRC = Path(__file__).resolve().parents[1] / "src" / "pshlab"


def e1(n):
    return np.eye(n, dtype=complex)[0]


# id -> (dimensions, the builder call that the bare id stood for before the tables)
FIELD_CALLS = {
    "sq_norm": ((1, 2), fields.sq_norm),
    "neg_sq_norm": ((1, 2), fields.neg_sq_norm),
    "saddle": ((2,), lambda n: fields.saddle(2.0)),
    "log_abs": ((1, 2), lambda n: fields.log_abs(np.zeros(n, dtype=complex), n)),
    "re_linear": ((1, 2), lambda n: fields.re_linear(e1(n), n)),
    "log1p_sq": ((1, 2), fields.log1p_sq),
    "max_log": ((2,), lambda n: fields.max_log()),
    "cross": ((2,), lambda n: fields.cross()),
    "neg_gauss": ((1, 2), fields.neg_gauss),
}
OMEGA_CALLS = {
    "zero": ((1, 2), fields.zero_omega),
    "const": ((1, 2), lambda n: fields.constant_omega(1.0, n)),
    "sq": ((1, 2), lambda n: fields.scaled_sq_omega(1.0, n)),
}
FORM_CALLS = {
    "bump_const": ((1, 2), lambda n: bump_const_form(e1(n))),
    "bump_zbar2": ((1, 2), bump_zbar_form),
    "dbar_nu": ((1, 2), lambda n: build_witness_form(np.zeros(n, dtype=complex), e1(n), 1.0)),
}


def points(n, m=9):
    rng = np.random.default_rng(n)
    return rng.uniform(-0.9, 0.9, (m, n)) + 1j * rng.uniform(-0.9, 0.9, (m, n))


def cases(table, calls):
    assert set(table) == set(calls), "every id of the table has its old builder call here"
    return [(spec, n) for spec, (dims, _) in calls.items() for n in dims]


@pytest.mark.parametrize("spec, n", cases(fields.FIELDS, FIELD_CALLS))
def test_bare_field_id_is_its_old_builder_call(spec, n):
    got, want = fields.get_field(spec, n), FIELD_CALLS[spec][1](n)
    assert got.name == want.name
    z = points(n)
    with np.errstate(all="ignore"):
        for attr in ("evaluate", "grad", "hess"):
            assert np.array_equal(getattr(got, attr)(z), getattr(want, attr)(z))


@pytest.mark.parametrize("spec, n", cases(fields.OMEGAS, OMEGA_CALLS))
def test_bare_omega_id_is_its_old_builder_call(spec, n):
    got, want = fields.get_omega(spec, n), OMEGA_CALLS[spec][1](n)
    assert got.n == want.n
    assert np.array_equal(got(points(n)), want(points(n)))


@pytest.mark.parametrize("spec, n", cases(cli.FORMS, FORM_CALLS))
def test_bare_form_id_is_its_old_builder_call(spec, n):
    got, want = cli.resolve_spec("form", spec, n), FORM_CALLS[spec][1](n)
    assert got.name == want.name
    assert got.support.kind == want.support.kind
    assert np.array_equal(got.support.center, want.support.center)
    assert np.array_equal(got.support.extents, want.support.extents)
    assert np.array_equal(got.evaluate(points(n)), want.evaluate(points(n)))


@pytest.mark.parametrize("resolve, spec, n, name", [
    (fields.get_field, "saddle", 2, "saddle:2"),
    (fields.get_field, "log_abs", 1, "log_abs:[0j]"),
    (fields.get_field, "re_linear", 2, "re_linear:[(1+0j), 0j]"),
])
def test_default_parameters_keep_their_names(resolve, spec, n, name):
    assert resolve(spec, n).name == name


def test_psi_s_and_dbar_bump_are_their_old_builder_calls():
    got = cli.resolve_spec("psi", "psi_s:[1000, 0.5]", 1)
    want = build_psi_s(np.zeros(1, dtype=complex), 0.5, 1000.0)
    assert got.name == want.name == "psi_s:1000"
    assert np.array_equal(got(points(1)), want(points(1)))
    got, want = cli.resolve_spec("rhs", "dbar_bump", 1), dbar_bump()
    assert got.name == want.name
    assert np.array_equal(got.evaluate(points(1)), want.evaluate(points(1)))
    # the other ids of --psi and --rhs are the field and form tables'
    assert cli.resolve_spec("psi", "neg_gauss", 1).name == "neg_gauss"
    assert cli.resolve_spec("rhs", "dbar_nu", 1).name == FORM_CALLS["dbar_nu"][1](1).name


@pytest.mark.parametrize("spec, m, log_c", [
    ("const", 7, 0.0), ("const:3", 7, math.log(3.0)), ("3", 7, math.log(3.0)),
    ("2.5e-1", 7, math.log(0.25)), ("poly", 10, 2.0 * math.log(10.0)),
    ("poly:3", 10, 3.0 * math.log(10.0)), ("exp_sqrt", 10**6, 1000.0),
])
@pytest.mark.parametrize("option", ["cm", "cm-rule"])
def test_cm_rules(option, spec, m, log_c):
    assert cli.resolve_spec(option, spec, None)(m) == log_c


def test_every_cm_rule_is_tested():
    assert set(cli.CM_RULES) == {"const", "poly", "exp_sqrt"}


# option -> (argv before the option, its table)
OPTIONS = {
    "func": (["levi"], fields.FIELDS),
    "weight": (["dbar"], fields.FIELDS),
    "psi": (["dbar", "--weight", "sq_norm"], cli.PSI),
    "omega": (["levi", "--func", "sq_norm"], fields.OMEGAS),
    "form": (["bochner", "--func", "sq_norm"], cli.FORMS),
    "rhs": (["dbar", "--weight", "sq_norm"], cli.RHS),
    "cm": (["coarse-chain", "--func", "re_linear"], cli.CM_RULES),
    "cm-rule": (["coarse-extend", "--func", "sq_norm"], cli.CM_RULES),
}


def run(option, spec, capsys, extra=()):
    argv = OPTIONS[option][0] + [f"--{option}", spec, *extra]
    code = cli.main(argv)
    return code, capsys.readouterr().err


def test_every_spec_option_is_listed():
    assert set(OPTIONS) == set(cli.SPECS)


@pytest.mark.parametrize("option, base", [
    (option, base) for option, (_, table) in OPTIONS.items()
    for base, (parse, _) in table.items() if parse is None
])
@pytest.mark.parametrize("param", ["7", "[1]", "{}", "null"])
def test_id_without_parameter_refuses_one(option, base, param, capsys):
    spec = f"{base}:{param}"
    code, err = run(option, spec, capsys)
    assert code == 2
    assert err.startswith(f"error: invalid --{option} {spec!r}: ")
    assert "takes no parameter" in err


@pytest.mark.parametrize("option", list(OPTIONS))
@pytest.mark.parametrize("spec", ["mystery", "mystery:1", ""])
def test_unknown_id_exits_2_naming_the_option(option, spec, capsys):
    code, err = run(option, spec, capsys)
    assert code == 2
    assert err.startswith(f"error: invalid --{option} {spec!r}: unknown ")


@pytest.mark.parametrize("option, spec, extra", [
    ("func", "saddle", ["--dim", "1"]),
    ("func", "max_log", []),
    ("func", "cross", ["--dim", "3"]),
    ("func", "log_abs:[[1,0]]", ["--dim", "2"]),
    ("weight", "saddle:2", []),
    ("psi", "cross", []),
    ("psi", "psi_s", []),
    ("psi", "psi_s:[1,2,3]", []),
    ("omega", "const:[1,2]", []),
    ("form", "bump_const:[[1,0]]", ["--dim", "2"]),
    ("rhs", "bump_const:[[1,0],[0,1]]", []),
    ("cm", "-1", []),
    ("cm", "const:0", []),
    ("cm", "poly:x", []),
    ("cm-rule", "const:nan", []),
])
def test_spec_failure_exits_2_naming_the_option(option, spec, extra, capsys):
    code, err = run(option, spec, capsys, extra)
    assert code == 2
    assert err.startswith(f"error: invalid --{option} {spec!r}: ")


@pytest.mark.parametrize("argv, option, spec", [
    # each of these used to pass, give a nan or fail without naming the option
    (["witness", "--func", "neg_sq_norm", "--omega", "const:NaN"], "omega", "const:NaN"),
    (["levi", "--func", "sq_norm", "--omega", "const:NaN"], "omega", "const:NaN"),
    (["levi", "--func", "sq_norm", "--omega", "sq:-Infinity"], "omega", "sq:-Infinity"),
    (["levi", "--func", "saddle:NaN", "--dim", "2"], "func", "saddle:NaN"),
    (["dbar", "--weight", "sq_norm", "--psi", "psi_s:[NaN, 0.5]"], "psi", "psi_s:[NaN, 0.5]"),
    (["dbar", "--weight", "sq_norm", "--psi", "psi_s:[1000, Infinity]"], "psi",
     "psi_s:[1000, Infinity]"),
    (["coarse-extend", "--func", "sq_norm", "--cm-rule", "poly:NaN"], "cm-rule", "poly:NaN"),
    (["coarse-extend", "--func", "sq_norm", "--cm-rule", "const:Infinity"], "cm-rule",
     "const:Infinity"),
    # the bare-number shorthand writes its const: parameter as JSON
    (["coarse-chain", "--func", "re_linear", "--cm", "nan"], "cm", "nan"),
    (["coarse-chain", "--func", "re_linear", "--cm", "inf"], "cm", "inf"),
    (["coarse-extend", "--func", "sq_norm", "--cm-rule=-inf"], "cm-rule", "-inf"),
])
def test_non_finite_parameter_exits_2(argv, option, spec, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid --{option} {spec!r}: ")
    assert "is not a finite number" in err


@pytest.mark.parametrize("argv, option, spec", [
    # each of these used to ignore its parameter, or to fail without naming the option
    (["levi", "--func", "sq_norm:[1]", "--omega", "zero:7"], "func", "sq_norm:[1]"),
    (["levi", "--func", "sq_norm", "--omega", "zero:7"], "omega", "zero:7"),
    (["coarse-chain", "--func", "re_linear", "--cm", "exp_sqrt:9"], "cm", "exp_sqrt:9"),
    (["dbar", "--weight", "sq_norm", "--rhs", "dbar_bump:3"], "rhs", "dbar_bump:3"),
    (["levi", "--func", "mystery"], "func", "mystery"),
    (["levi", "--func", "saddle", "--dim", "1"], "func", "saddle"),
])
def test_found_command_lines_exit_2(argv, option, spec, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid --{option} {spec!r}: ")


def test_the_benchmark_command_lines_resolve():
    # --cm 1 is a bare number: shorthand for const:1
    assert cli.resolve_spec("cm", "1", None)(8) == 0.0
    assert cli.resolve_spec("psi", "psi_s:[1000, 0.5]", 1).name == "psi_s:1000"
    assert cli.resolve_spec("func", "saddle:2", 2).name == "saddle:2"


def _calls_by_function(tree):
    """(qualified name of the enclosing def, or "<module>", call node) of every call."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child.name if where == "<module>" else f"{where}.{child.name}"
                yield from visit(child, inner)
            else:
                if isinstance(child, ast.Call):
                    yield where, child
                yield from visit(child, where)

    yield from visit(tree, "<module>")


def spec_parsing_sites():
    """module.function of every colon split and every json.loads in src/pshlab."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        for where, call in _calls_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            colon = any(isinstance(a, ast.Constant) and a.value == ":" for a in call.args)
            loads = func.attr == "loads" and isinstance(func.value, ast.Name) and func.value.id == "json"
            if colon or loads:
                sites.add(f"{path.stem}.{where}")
    return sites


def test_only_resolve_parses_a_spec():
    # points (--center, --w) and regions are JSON options, not specs
    assert spec_parsing_sites() == {"fields.resolve", "cli.parse_point", "cli.parse_region"}
    for module, name in [(fields, "split_spec"), (fields, "spec_param"), (fields, "FIELD_IDS"),
                         (cli, "_parse_psi"), (cli, "_parse_rhs"), (cli, "_parse_cm_rule"),
                         (bochner, "FORMS"), (bochner, "get_form"), (bochner, "dbar_nu_form")]:
        assert not hasattr(module, name)
