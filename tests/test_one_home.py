"""One home per decision: the CLI and the acceptance suite read the toolkit's
gates and defaults instead of restating them.

A gate that both front ends apply is patched at its one definition, and both
the subcommand (through cli.main) and the criterion must follow it.  A CLI
default must be the toolkit's constant itself.

One home for a weighted sum: fields.Scaled carries each total with its shift and
is the only code that turns a shift or log into a linear double, and
fields.node_weights, e^{-weight} times the node weight, is called only by the
carrier's constructor and the two callers of the one weighted projection, which take
the weights themselves.  Every weighted
total over nodes is geometry.weighted_total: no dot product sums one, and the
carrier's constructor fields.weighted_sums takes its integrands, not a callback.  That projection,
extension.weighted_bergman_projection, is the only caller of the Gram solve.

One stencil path on the grid: GridDiscretization.partial reads only mapped values
(bochner.MappedValues), and the stencil band is the one place a margin is checked.

One statement per gate: a criterion reads each gate from the tolerances that its
record reports, and the relative verdict gate of the extension checks and the
coarse chain is fields.Scaled.at_most, with its slack fields.VERDICT_SLACK.  A
Bochner identity is verified by BochnerReport.verified alone, which both pshlab
bochner and criterion 2 read.
"""

import ast
import dataclasses
import json
from pathlib import Path

import pytest

from pshlab import acceptance, bochner, cli, dbar1d, fields, meanvalue, witness
from pshlab.geometry import unit_ball
from pshlab.meanvalue import PshScanResult


def report(tmp_path, argv) -> tuple:
    """(exit code, the one check of the JSON report) of a subcommand."""
    out = tmp_path / "r.json"
    code = cli.main(argv + ["--out", str(out)])
    [check] = json.loads(out.read_text())["checks"]
    return code, check


def test_bochner_gate(monkeypatch, tmp_path):
    args = ["bochner", "--func", "sq_norm"]
    assert report(tmp_path, args)[0] == 0
    assert acceptance.criterion_bochner(0).passed
    monkeypatch.setattr(bochner, "RESIDUAL_GATE_N1", 1e-300)
    monkeypatch.setattr(bochner, "RESIDUAL_GATE", 2e-300)
    code, check = report(tmp_path, args)
    assert (code, check["passed"], check["tolerances"]) == (1, False, {"residual": 1e-300})
    code, check = report(tmp_path, args + ["--dim", "2"])
    assert (code, check["tolerances"]) == (1, {"residual": 2e-300})
    record = acceptance.criterion_bochner(0)
    assert not record.passed and record.tolerances == {"n1": 1e-300, "n2": 2e-300}


def test_dbar_gate(monkeypatch, tmp_path):
    args = ["dbar", "--weight", "sq_norm"]
    assert report(tmp_path, args)[0] == 0
    assert acceptance.criterion_hormander_ratio(0).passed
    monkeypatch.setattr(dbar1d, "RESIDUAL_GATE", 1e-300)
    code, check = report(tmp_path, args)
    assert (code, check["passed"], check["tolerances"]) == (1, False, {"residual": 1e-300})
    record = acceptance.criterion_hormander_ratio(0)
    assert not record.passed and record.tolerances["residual"] == 1e-300


def test_s_max(monkeypatch):
    assert cli.build_parser().parse_args(["witness", "--func", "sq_norm"]).smax is witness.S_MAX
    monkeypatch.setattr(witness, "S_MAX", 10.0)
    record = acceptance.criterion_witness(0)
    assert record.tolerances["s_max"] == 10.0
    # the saddle's certificate takes s = 100
    assert not record.passed and record.values["saddle/E"] is None


def test_criterion_8_reads_the_s_schedule(monkeypatch):
    keys = [k for k in acceptance.criterion_hormander_ratio(0).values if "ratio_s" in k]
    assert keys == ["witness/ratio_s10", "witness/ratio_s100", "witness/ratio_s1000",
                    "witness/ratio_s10000"]
    monkeypatch.setattr(witness, "S_MAX", 100.0)
    keys = [k for k in acceptance.criterion_hormander_ratio(0).values if "ratio_s" in k]
    assert keys == ["witness/ratio_s10", "witness/ratio_s100"]


def test_margin_tolerance(monkeypatch):
    args = cli.build_parser().parse_args(["check-psh", "--func", "sq_norm"])
    assert args.tol is meanvalue.DEFAULT_MARGIN_TOL
    monkeypatch.setattr(meanvalue, "DEFAULT_MARGIN_TOL", 3e-7)
    tols = []

    def scan(phi, region, centers, cylinders, seed, tol, budget, max_violations=None):
        tols.append(tol)
        return PshScanResult((), 0)

    monkeypatch.setattr(meanvalue, "classify_psh", scan)
    record = acceptance.criterion_meanvalue(0)
    assert tols[:3] == [3e-7] * 3
    assert record.tolerances["psh_margin"] == -3e-7


def test_levi_defaults():
    args = cli.build_parser().parse_args(["levi", "--func", "sq_norm"])
    assert args.tol is fields.LEVI_TOL
    assert args.resolution is fields.REGION_RESOLUTION


@pytest.mark.parametrize("n", [1, 2])
def test_witness_grid_default(n, tmp_path):
    code, _ = report(tmp_path, ["witness", "--func", "sq_norm", "--dim", str(n)])
    config = json.loads((tmp_path / "r.json").read_text())["config"]
    assert config["grid"] == witness.default_grid_nodes(n)


@pytest.mark.parametrize("n", [1, 2])
def test_bochner_grid_default(n, monkeypatch, tmp_path):
    report(tmp_path, ["bochner", "--func", "sq_norm", "--dim", str(n)])
    config = json.loads((tmp_path / "r.json").read_text())["config"]
    assert config["grid"] == bochner.default_grid_nodes(n)
    calls, default = [], bochner.default_grid_nodes
    monkeypatch.setattr(bochner, "default_grid_nodes", lambda n: calls.append(n) or default(n))
    acceptance.criterion_bochner(0)
    assert calls == [1, 2]


SRC = Path(__file__).resolve().parents[1] / "src" / "pshlab"
# the modules that compute with or report weighted sums
CARRIER_READERS = ("acceptance", "bochner", "cli", "dbar1d", "extension", "witness")


def calls_in(module: str):
    """(enclosing top-level function or class, call) of every call in a module of src/pshlab."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                yield getattr(top, "name", None), node


def test_only_the_carrier_turns_a_log_into_a_double():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "fields":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(
                node, "name", None)
            if name in ("unshift", "_exp_or_inf"):
                found.append(f"{path.name}:{node.lineno}: {name}")
    for module in CARRIER_READERS:
        for _, call in calls_in(module):
            func = ast.unparse(call.func)
            arg = " ".join(ast.unparse(a) for a in call.args)
            if func in ("math.exp", "np.exp", "numpy.exp") and ("shift" in arg or "log" in arg):
                found.append(f"{module}.py:{call.lineno}: {ast.unparse(call)}")
    assert found == []


def callers_of(name: str, modules) -> set:
    """(module, enclosing top-level function) of every call of a function named name."""
    return {(module, top) for module in modules for top, call in calls_in(module)
            if ast.unparse(call.func).split(".")[-1] == name}


def test_node_weights_is_called_by_the_carrier_and_the_gram_builders():
    assert callers_of("node_weights", ("fields", *CARRIER_READERS)) == {
        ("fields", "weighted_sums"), ("dbar1d", "hormander_ratio"),
        ("extension", "best_extension_constant")}


def names_in_src(names) -> list:
    """file:line: name of every name, attribute or definition in src/pshlab called one of names."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(
                node, "name", None)
            if name in names:
                found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_no_second_weighting_or_witness_metric_is_left():
    # node_weights replaced weight_exp and its callers' own multiply; the witness
    # decides its metric once per grid, where _plus_s decided it at every s
    assert names_in_src(("weight_exp", "_plus_s")) == []


def test_the_bochner_identity_is_decided_in_one_place():
    found = [(path.stem, ".".join(scope))
             for path in sorted(SRC.glob("*.py"))
             for scope, node in scopes(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Compare) and "lhs.sign" in ast.unparse(node)]
    assert found == [("bochner", "BochnerReport.verified")]
    assert callers_of("verified", ("acceptance", "cli")) == {
        ("acceptance", "criterion_bochner"), ("cli", "_bochner")}


def test_every_node_reduction_is_the_weighted_total():
    """No np.dot, np.vdot or np.inner call, in any spelling, stays in src/pshlab, and
    fields.weighted_sums calls none of its parameters and is passed no lambda: each
    weighted total is geometry.weighted_total, which weighted_sums calls itself."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func).split(".")[-1]
            args = node.args + [kw.value for kw in node.keywords]
            if name in ("dot", "vdot", "inner") or (
                    name == "weighted_sums" and any(isinstance(a, ast.Lambda) for a in args)):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
    [definition] = [top for top in ast.parse((SRC / "fields.py").read_text(encoding="utf-8")).body
                    if getattr(top, "name", None) == "weighted_sums"]
    params = {a.arg for a in definition.args.args + definition.args.kwonlyargs}
    assert [ast.unparse(node) for node in ast.walk(definition) if isinstance(node, ast.Call)
            and ast.unparse(node.func) in params] == []
    assert callers_of("weighted_total", ("fields",)) == {("fields", "weighted_sums")}


def test_solve_gram_is_called_only_by_the_weighted_projection():
    modules = sorted(path.stem for path in SRC.glob("*.py"))
    assert callers_of("solve_gram", modules) == {("extension", "weighted_bergman_projection")}


def test_the_stencil_has_one_input_and_one_margin_check():
    bochner_tree = ast.parse((SRC / "bochner.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(bochner_tree)
            if getattr(node, "id", None) == "isinstance"] == []
    assert names_in_src(("check_margin", "form_band")) == []


def test_every_partial_reads_mapped_values(monkeypatch):
    inputs = []
    original = bochner.GridDiscretization.partial

    def recorded(self, values, axis, nodes):
        inputs.append(type(values))
        return original(self, values, axis, nodes)

    monkeypatch.setattr(bochner.GridDiscretization, "partial", recorded)
    acceptance.criterion_bochner(0)
    acceptance.criterion_hormander_ratio(0)
    # a weight without grad: weight_gradient's stencil branch
    no_grad = dataclasses.replace(fields.sq_norm(2), grad=None)
    grid = bochner.make_grid(unit_ball(2, radius=1.3), 20)
    bochner.bochner_residual(bochner.bump_zbar_form(2, radius=0.8), [no_grad], grid)
    assert inputs and set(inputs) == {bochner.MappedValues}


def float_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def test_no_criterion_compares_with_a_float_literal():
    tree = ast.parse((SRC / "acceptance.py").read_text(encoding="utf-8"))
    criteria = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("criterion_")]
    assert len(criteria) == 9
    found = [f"{func.name}:{node.lineno}: {ast.unparse(node)}"
             for func in criteria for node in ast.walk(func)
             if isinstance(node, ast.Compare)
             and any(float_literal(x) for x in (node.left, *node.comparators))]
    assert found == []


def test_the_gates_that_criteria_apply_are_reported():
    assert acceptance.criterion_witness(0).tolerances == {
        "s_max": witness.S_MAX, "E": 0.0, "saddle_xi2_abs": 0.99}
    assert acceptance.criterion_best_constant(0).tolerances == {
        "flat": 1e-10, "neg_sq_norm": 1e-6, "neg_sq_norm_exceeds": 1.0}
    assert acceptance.criterion_hormander_ratio(0).tolerances == {
        "subharmonic_ratio": 1.02, "witness_ratio": 1.0, "residual": dbar1d.RESIDUAL_GATE}


def scopes(node, scope=()):
    """(enclosing class and function names, node) of every node below node."""
    for child in ast.iter_child_nodes(node):
        inner = scope + (child.name,) if isinstance(
            child, (ast.ClassDef, ast.FunctionDef)) else scope
        yield inner, child
        yield from scopes(child, inner)


def test_log1p_of_the_slack_has_one_home():
    found = [(path.stem, ".".join(scope))
             for path in sorted(SRC.glob("*.py"))
             for scope, node in scopes(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and ast.unparse(node) == "math.log1p"]
    assert found == [("fields", "Scaled.at_most")]


def test_the_slack_moves_every_relative_verdict(monkeypatch, tmp_path):
    out = tmp_path / "r.json"
    argv = ["extend", "--func", "neg_sq_norm", "--degree", "4", "--out", str(out)]

    def extend_checks():
        cli.main(argv)
        return [(c["passed"], c["tolerances"]["relative"])
                for c in json.loads(out.read_text())["checks"]]

    # e - 1 = 1.718... on both sides, against e^{-phi(z0)} = 1
    assert extend_checks() == [(False, 1e-9)] * 2
    # rhs_integral e^{1e-12} above its bound, inside the slack
    report = witness.CoarseChainReport(
        1, 0.5, 0.25, fields.Scaled(1.0, 0.0), fields.Scaled(1.0, -1e-12), 1.0, 0.0)
    assert report.verified
    record = acceptance.criterion_coarse_chain(0)
    assert record.passed and record.tolerances["chain"] == "rhs <= (1+1e-9) bound"

    monkeypatch.setattr(fields, "VERDICT_SLACK", 1.0)
    assert extend_checks() == [(True, 1.0)] * 2
    monkeypatch.setattr(fields, "VERDICT_SLACK", 0.0)
    assert not report.verified
    assert acceptance.criterion_coarse_chain(0).tolerances["chain"] == "rhs <= (1+0e+0) bound"
    # every rhs of criterion 5 lies below 0.045 of its bound
    monkeypatch.setattr(fields, "VERDICT_SLACK", -0.99)
    record = acceptance.criterion_coarse_chain(0)
    assert not record.passed and record.tolerances["chain"] == "rhs <= (1+-9.9e-1) bound"
