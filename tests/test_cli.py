import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pshlab
from pshlab import geometry
from pshlab.cli import main, parse_cylinder, parse_point, parse_region, resolve_spec, ConfigError


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_python(args):
    """Run a fresh interpreter that imports this pshlab, as a user would."""
    env = dict(os.environ)
    src = str(Path(pshlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
    )


def run_cli(argv):
    return run_python(["-m", "pshlab.cli", *argv])


class TestParsers:
    def test_point(self):
        z = parse_point("[[0.5, -0.25], [0, 1]]", "center", 2)
        assert np.allclose(z, [0.5 - 0.25j, 1j])

    def test_point_invalid(self):
        with pytest.raises(ConfigError, match="--center"):
            parse_point("[1, 2, 3]", "center", 1)

    def test_cylinder(self):
        cyl = parse_cylinder("r=0.5,s=0.25,seed=7", 2, np.zeros(2, dtype=complex))
        assert cyl.r == 0.5
        assert cyl.s == 0.25

    def test_cylinder_unknown_key(self):
        with pytest.raises(ConfigError, match="--cylinder"):
            parse_cylinder("r=1,q=2", 1, np.zeros(1, dtype=complex))

    @pytest.mark.parametrize("n, seed", [(1, 0), (2, 2**64 - 1)])
    def test_cylinder_seed_ends(self, n, seed):
        cyl = parse_cylinder(f"r=0.5,s=0.5,seed={seed}", n, np.zeros(n, dtype=complex))
        assert np.array_equal(cyl.frame, geometry.seeded_frame(seed, n))

    def test_region(self):
        box = parse_region('{"kind": "ball", "center": [[0,0]], "radius": 2.0}', 1)
        assert box.kind == "ball"
        assert box.extents[0] == 2.0

    def test_region_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_region('{"kind": "ball", "center": [[0,0]], "radius": 1, "frob": 3}', 1)

    @pytest.mark.parametrize("parse, text, prefix", [
        (lambda t, n: parse_cylinder(t, n, np.zeros(n, dtype=complex)), "r=x",
         "invalid --cylinder (expected r=<f>,s=<f>,seed=<u64>): "),
        (parse_region, "{", "invalid --region: "),
    ])
    def test_error_names_the_option(self, parse, text, prefix):
        with pytest.raises(ConfigError) as info:
            parse(text, 1)
        assert str(info.value).startswith(prefix)

    def test_cm_rule_gives_log_constant(self):
        def rule(text):
            return resolve_spec("cm", text, None)

        assert rule("const:1")(7) == 0.0
        assert rule("2")(7) == pytest.approx(math.log(2.0))
        assert rule("poly:2")(10) == pytest.approx(2.0 * math.log(10.0))
        assert rule("exp_sqrt")(10**6) == 1000.0
        for bad in ("const:0", "0", "poly:x", "cubic"):
            with pytest.raises(ConfigError, match=f"^invalid --cm {bad!r}: "):
                rule(bad)


class TestSubcommands:
    def test_levi_holds(self, tmp_path):
        out = tmp_path / "levi.json"
        code = main(["levi", "--func", "sq_norm", "--dim", "2", "--out", str(out)])
        assert code == 0
        rep = read_json(out)
        assert rep["schema_version"] == 1
        assert rep["checks"][0]["passed"]
        assert rep["config"]["func"] == "sq_norm"

    def test_levi_violated(self, tmp_path):
        out = tmp_path / "levi.json"
        code = main(["levi", "--func", "neg_sq_norm", "--dim", "1", "--out", str(out)])
        assert code == 1
        rep = read_json(out)
        values = rep["checks"][0]["values"]
        assert not values["holds"]
        assert values["c"] == pytest.approx(1.0, abs=1e-6)

    def test_check_psh_clean(self, tmp_path):
        out = tmp_path / "psh.json"
        code = main(
            ["check-psh", "--func", "sq_norm", "--dim", "1", "--centers", "5",
             "--cylinders", "2", "--seed", "3", "--budget", "1024", "--out", str(out)]
        )
        assert code == 0
        rep = read_json(out)
        assert rep["checks"][0]["values"]["verdict"] == "no-violation-found"

    def test_check_psh_violation_reported(self, tmp_path):
        out = tmp_path / "psh.json"
        main(
            ["check-psh", "--func", "neg_sq_norm", "--dim", "1", "--centers", "5",
             "--cylinders", "2", "--seed", "3", "--tol", "1e-3", "--budget", "1024",
             "--out", str(out)]
        )
        rep = read_json(out)
        values = rep["checks"][0]["values"]
        assert values["verdict"] == "violated"
        assert values["violations"][0]["margin"] < -1e-3

    def test_witness_certificate(self, tmp_path):
        out = tmp_path / "cert.json"
        code = main(
            ["witness", "--func", "neg_sq_norm", "--dim", "1", "--out", str(out)]
        )
        assert code == 0
        rep = read_json(out)
        cert = rep["checks"][0]["values"]["certificate"]
        assert cert["E"] < 0.0
        assert cert["E_doubled"] < 0.0
        assert cert["s"] <= 1e4

    def test_bochner(self, tmp_path):
        out = tmp_path / "bochner.json"
        code = main(
            ["bochner", "--func", "sq_norm", "--dim", "1", "--form", "bump_const",
             "--grid", "128", "--out", str(out)]
        )
        assert code == 0
        rep = read_json(out)
        assert rep["checks"][0]["values"]["residual"] <= 1e-3

    def test_coarse_chain_csv(self, tmp_path):
        out = tmp_path / "chain.csv"
        code = main(
            ["coarse-chain", "--func", "re_linear", "--m", "1,2", "--eps", "0.5",
             "--delta", "0.25", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("m,p,eps,delta")
        assert len(lines) == 3

    def test_extend(self, tmp_path):
        out = tmp_path / "extend.json"
        code = main(
            ["extend", "--func", "sq_norm", "--dim", "1", "--degree", "4",
             "--out", str(out)]
        )
        assert code == 0
        rep = read_json(out)
        names = [c["name"] for c in rep["checks"]]
        assert "best-extension-constant" in names

    @pytest.mark.parametrize("p", ["2", "3"])
    def test_extend_tolerances_state_the_relative_gate(self, tmp_path, p):
        # each check's test is "side <= (1 + 1e-9) e^{-phi(z0)}", and its record says so
        out = tmp_path / "extend.json"
        assert main(["extend", "--func", "sq_norm", "--p", p, "--degree", "2",
                     "--out", str(out)]) == 0
        tolerances = {c["name"]: c["tolerances"] for c in read_json(out)["checks"]}
        want = {"optimal-extension-margin": {"inequality": "lhs <= rhs", "relative": 1e-9}}
        if p == "2":
            want["best-extension-constant"] = {"inequality": "value <= e^{-phi(z0)}",
                                               "relative": 1e-9}
        assert tolerances == want

    def test_coarse_extend_csv(self, tmp_path):
        out = tmp_path / "ce.csv"
        code = main(
            ["coarse-extend", "--func", "sq_norm", "--dim", "1", "--m", "1,2,4",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4

    def test_dbar(self, tmp_path):
        out = tmp_path / "solve.json"
        code = main(
            ["dbar", "--weight", "sq_norm", "--psi", "sq_norm", "--rhs", "dbar_bump",
             "--grid", "128", "--degree", "6", "--out", str(out)]
        )
        assert code == 0
        rep = read_json(out)
        assert rep["checks"][0]["values"]["ratio"] <= 1.02

    def test_malformed_cylinder_spec(self, capsys):
        code = main(
            ["extend", "--func", "sq_norm", "--cylinder", "radius=1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--cylinder" in err

    def test_malformed_region(self, capsys):
        code = main(["levi", "--func", "sq_norm", "--region", "not json"])
        assert code == 2
        assert "--region" in capsys.readouterr().err

    def test_unknown_func(self, capsys):
        code = main(["levi", "--func", "mystery"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: invalid --func 'mystery': unknown field id 'mystery'")

    @pytest.mark.parametrize("argv", [
        # these used to print a TypeError traceback
        ["levi", "--func", "saddle:[1]", "--dim", "2"],
        ["levi", "--func", "sq_norm", "--omega", "const:[1,2]"],
        ["levi", "--func", "sq_norm", "--omega", "sq:{}"],
        ["bochner", "--func", "sq_norm", "--form", "bump_const:{}"],
        # and these a bare JSON error that named no option
        ["levi", "--func", "saddle:x", "--dim", "2"],
        ["bochner", "--func", "sq_norm", "--form", "bump_const:[[1"],
        ["dbar", "--weight", "sq_norm:x"],
        ["dbar", "--weight", "sq_norm", "--rhs", "bump_const:{}"],
        ["dbar", "--weight", "sq_norm", "--rhs", "bump_const:[[1,0],[0,1]]"],
        ["levi", "--func", "log_abs:[1,2,3]"],
    ])
    def test_malformed_spec_parameter_is_config_error(self, argv):
        option, spec = next((a, v) for a, v in zip(argv, argv[1:]) if ":" in v)
        proc = run_cli(argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: invalid {option} {spec!r}: ")
        assert "Traceback" not in proc.stderr


class TestFormSupportWithoutNodes:
    """A grid with no node in a form's support fails with a typed message, not with
    a traceback, a numpy reduction error or a vacuous [PASS]."""

    @pytest.mark.parametrize("argv, form", [
        (["witness", "--func", "saddle:2", "--dim", "2", "--grid", "6"], "dbar_nu"),
        (["bochner", "--func", "sq_norm", "--dim", "1", "--grid", "6"], "bump_const"),
        (["bochner", "--func", "sq_norm", "--dim", "1", "--grid", "8"], "bump_const"),
        (["bochner", "--func", "sq_norm", "--dim", "1", "--grid", "10"], "bump_const"),
        (["bochner", "--func", "sq_norm", "--dim", "1", "--grid", "12"], "bump_const"),
        (["dbar", "--weight", "sq_norm", "--grid", "6", "--box", "100"], "dbar_bump"),
    ], ids=["witness-6", "bochner-6", "bochner-8", "bochner-10", "bochner-12", "dbar-6"])
    def test_exits_1_without_a_report(self, argv, form, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: grid has no node in the support of the form {form!r}\n"
        assert not out.exists()

    def test_vacuous_bochner_identity_fails(self, tmp_path, monkeypatch, capsys):
        # support nodes exist, but the form is 0 at each: lhs = rhs = 0 tests nothing
        from pshlab import cli
        from pshlab.bochner import FormField01
        from pshlab.geometry import unit_ball

        zero = FormField01("0", lambda z: np.zeros((1, z.shape[0]), dtype=complex),
                           unit_ball(1, radius=0.9))
        monkeypatch.setitem(cli.FORMS, "bump_const", (None, lambda n: zero))
        out = tmp_path / "b.json"
        assert main(["bochner", "--func", "sq_norm", "--grid", "48", "--out", str(out)]) == 1
        assert capsys.readouterr().out.startswith("[FAIL] bochner-identity")
        values = read_json(out)["checks"][0]["values"]
        assert values["lhs"] == values["rhs"] == values["residual"] == 0.0


def test_weight_underflowing_on_the_support_exits_1_with_a_message(tmp_path):
    # e^{-1000 x} is largest at the box edge x = -2; relative to it, it underflows to 0
    # on the whole unit disc, the support of f, so the comparison integral is 0.  This
    # used to end in a ZeroDivisionError traceback from SolveResult.ratio
    out = tmp_path / "d.json"
    proc = run_cli(["dbar", "--weight", "re_linear:[[1000,0]]", "--psi", "sq_norm",
                    "--rhs", "dbar_bump", "--grid", "64", "--degree", "4", "--out", str(out)])
    assert proc.returncode == 1
    assert proc.stderr == ("error: relative to its largest value on the grid, the weight "
                           "underflows to 0 at every node of the support of f\n")
    assert not out.exists()


def test_out_of_memory_exits_1_with_a_message(tmp_path, monkeypatch, capsys):
    # `--budget 100000000000` asks numpy for a 2.91 TiB node array, and the MemoryError
    # ended in a traceback.  The scan is replaced by one that raises numpy's error, so
    # the test allocates nothing on a host that would grant the request
    from pshlab import meanvalue

    message = ("Unable to allocate 2.91 TiB for an array with shape (262144, 381468, 2) "
               "and data type complex128")

    def refused(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(meanvalue, "classify_psh", refused)
    out = tmp_path / "c.json"
    argv = ["check-psh", "--func", "sq_norm", "--dim", "2", "--centers", "1",
            "--cylinders", "1", "--budget", "100000000000", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
    assert not out.exists()


def test_arithmetic_error_exits_1_with_a_message(tmp_path, monkeypatch, capsys):
    # a float past the double range raises an ArithmeticError from Python's float
    # arithmetic, which used to end in a traceback
    from pshlab import witness

    def overflow(*args, **kwargs):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setattr(witness, "log_cprime", overflow)
    out = tmp_path / "c.csv"
    assert main(["coarse-chain", "--func", "re_linear", "--m", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: numerical range: (34, 'Numerical result out of range')\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # numpy's overflow in power, then a verdict on inf against inf (log_cprime_m inf at 510)
    *(["--func", "re_linear", "--p", p, "--eps", "0.25", "--delta", "0", "--m", "1"]
      for p in ("420", "510", "600", "2000")),
    # exit 1: eps**p underflowed to 0 in the bound's division, 2.0**p overflowed in C''
    ["--func", "sq_norm", "--p", "600"],
    ["--func", "sq_norm", "--p", "2000"],
], ids=["re_linear-420", "re_linear-510", "re_linear-600", "re_linear-2000", "sq_norm-600",
        "sq_norm-2000"])
def test_coarse_chain_past_the_double_range_decides_on_finite_logs(tmp_path, argv):
    # each side of the chain and C'_m are logs, so no warning is raised and every
    # verdict and log C'_m is finite; rhs and bound are written as inf past the double range
    out = tmp_path / "c.csv"
    proc = run_python(["-W", "error::RuntimeWarning", "-m", "pshlab.cli", "coarse-chain", *argv,
                       "--out", str(out)])
    assert (proc.returncode, proc.stderr) == (0, "")
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert proc.stdout == f"[PASS] coarse-chain: {len(rows)}/{len(rows)} tuples verified\n"
    assert all(math.isfinite(float(row["log_cprime_m"])) for row in rows)


@pytest.mark.parametrize("delta", ["1e78", "1e100", "1e153"])
def test_coarse_chain_at_a_large_delta_verifies(capsys, tmp_path, delta):
    # the psi_delta norm squared u = |z - w|^2 + delta^2 (overflow from delta = 1.2e77,
    # exit 1 under -W error); it forms no u^2, so every delta whose square is finite runs
    argv = ["coarse-chain", "--func", "re_linear", "--m", "1", "--eps", "0.5", "--delta", delta]
    assert main(argv + ["--out", str(tmp_path / "c.csv")]) == 0
    assert capsys.readouterr() == ("[PASS] coarse-chain: 1/1 tuples verified\n", "")


class TestPointDefaults:
    """--center and --w default to the origin of C^dim, as --region to its unit ball;
    at dim 2 each exited 2 on its own default, a point of C^1."""

    @pytest.mark.parametrize("argv, option", [
        (["extend", "--func", "sq_norm", "--degree", "2"], "center"),
        (["coarse-extend", "--func", "sq_norm", "--m", "1"], "center"),
        (["coarse-chain", "--func", "sq_norm", "--m", "1", "--eps", "0.5", "--delta", "0.25"], "w"),
    ])
    def test_dim_2_runs_at_the_origin(self, capsys, tmp_path, argv, option):
        out = tmp_path / "r"
        assert main(argv + ["--dim", "2", "--out", str(out)]) == 0
        assert "[PASS]" in capsys.readouterr().out
        if argv[0] == "extend":
            assert read_json(out)["config"][option] == "[[0,0],[0,0]]"

    def test_the_dim_1_default_is_the_old_string(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["extend", "--func", "sq_norm", "--degree", "2", "--out", str(out)]) == 0
        assert read_json(out)["config"]["center"] == "[[0,0]]"


@pytest.mark.parametrize("argv", [
    # mu(P) underflowed to 0 and the scan's mean was 0/0, a NaN margin that passed
    ["check-psh", "--func", "sq_norm", "--dim", "1", "--region",
     '{"kind":"ball","center":[[0,0]],"radius":1e-320}', "--centers", "1", "--cylinders", "1"],
    # mu(P) underflowed to 0 and the Gram weights, divided by it, to inf
    ["extend", "--func", "sq_norm", "--cylinder", "r=1e-300,s=1"],
    # r**2 overflowed: an OverflowError traceback
    ["extend", "--func", "re_linear", "--cylinder", "r=1e300,s=1"],
    ["coarse-extend", "--func", "re_linear", "--cylinder", "r=1e300,s=1", "--m", "1"],
])
def test_cylinders_past_the_double_range_run_without_a_warning(tmp_path, argv):
    out = tmp_path / "report"
    proc = run_python(["-W", "error::RuntimeWarning", "-m", "pshlab.cli", *argv, "--out", str(out)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.exists()


class TestListOptions:
    @pytest.mark.parametrize("argv", [
        ["coarse-chain", "--func", "re_linear", "--m", "0"],
        ["coarse-chain", "--func", "re_linear", "--m", "x"],
        ["coarse-chain", "--func", "re_linear", "--m", "-1"],
        ["coarse-chain", "--func", "re_linear", "--m", "1.5"],
        ["coarse-chain", "--func", "re_linear", "--m", "1,,2"],
        ["coarse-chain", "--func", "re_linear", "--m", ""],
        ["coarse-chain", "--func", "re_linear", "--eps", "0"],
        ["coarse-chain", "--func", "re_linear", "--eps", "-0.5"],
        ["coarse-chain", "--func", "re_linear", "--eps", "1.5"],
        ["coarse-chain", "--func", "re_linear", "--eps", "nan"],
        ["coarse-chain", "--func", "re_linear", "--eps", "0.5,y"],
        ["coarse-chain", "--func", "re_linear", "--delta", "-0.25"],
        ["coarse-chain", "--func", "re_linear", "--delta", "inf"],
        ["coarse-chain", "--func", "re_linear", "--delta", "nan"],
        ["coarse-chain", "--func", "re_linear", "--delta", "z"],
        # delta^2 past the double range (from about 1.34e154): rhs_integral was nan
        ["coarse-chain", "--func", "re_linear", "--delta", "1e155"],
        ["coarse-chain", "--func", "re_linear", "--delta", "1e200"],
        ["coarse-extend", "--func", "sq_norm", "--m", "0"],
        ["coarse-extend", "--func", "sq_norm", "--m", "-1"],
        ["coarse-extend", "--func", "sq_norm", "--m", "x"],
        ["coarse-extend", "--func", "sq_norm", "--m", "2,0"],
    ])
    def test_malformed_value_is_config_error(self, argv, capsys):
        option = argv[-2]
        code = main(argv)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: invalid {option} ")

    def test_valid_m_list(self):
        from pshlab.cli import parse_m_values

        assert parse_m_values("1,2,4,8") == [1, 2, 4, 8]
        assert parse_m_values("1000000") == [10**6]


class TestWitnessVerdict:
    def test_smax_below_first_s_is_config_error(self):
        proc = run_cli(["witness", "--func", "neg_sq_norm", "--smax", "1"])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: invalid --smax ")
        assert "Traceback" not in proc.stderr
        assert "[PASS]" not in proc.stdout

    @pytest.mark.parametrize("smax", ["9.5", "inf", "nan"])
    def test_smax_not_a_schedule(self, smax, capsys):
        code = main(["witness", "--func", "neg_sq_norm", "--smax", smax])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid --smax ")

    def test_grid_without_stencil_margin_fails(self, tmp_path, capsys):
        # below 16 nodes per axis the form's support is too close to the grid's edge
        out = tmp_path / "w.json"
        code = main(["witness", "--func", "saddle:2", "--dim", "2", "--grid", "12",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: grid does not contain the form's support with a stencil margin\n"
        assert not out.exists()

    def test_violation_without_certificate_fails(self, tmp_path, capsys):
        # Levi form 1 < omega = 1.1, but s = 10 alone does not make E negative
        out = tmp_path / "w.json"
        code = main(["witness", "--func", "sq_norm", "--omega", "const:1.1", "--smax", "10",
                     "--out", str(out)])
        assert code == 1
        assert "[FAIL] sharp-witness" in capsys.readouterr().out
        values = read_json(out)["checks"][0]["values"]
        assert values == {"certificate": None, "levi_lower_bound_holds": False}

    def test_deepest_gap_on_the_boundary_certifies(self, tmp_path, capsys):
        # the gap -1 - 0.5|z|^2 is deepest on the unit circle, where no ball
        # fits; the center has the largest c r^2 and certifies at s = 10
        out = tmp_path / "w.json"
        code = main(["witness", "--func", "neg_sq_norm", "--omega", "sq:0.5", "--out", str(out)])
        assert code == 0
        assert "[PASS] sharp-witness" in capsys.readouterr().out
        cert = read_json(out)["checks"][0]["values"]["certificate"]
        assert cert["z0"] == [[0.0, 0.0]]
        assert (cert["r"], cert["c"], cert["s"]) == (1.0, 1.0, 10.0)
        assert cert["E"] < 0.0 and cert["E_doubled"] < 0.0

    def test_region_grid_evaluated_once(self, tmp_path, monkeypatch):
        from pshlab import fields

        sizes = []
        levi = fields.levi_form

        def counted(phi, pts, *args, **kwargs):
            sizes.append(len(pts))
            return levi(phi, pts, *args, **kwargs)

        monkeypatch.setattr(fields, "levi_form", counted)
        out = tmp_path / "w.json"
        assert main(["witness", "--func", "sq_norm", "--dim", "2", "--out", str(out)]) == 0
        assert sizes == [1281]
        values = read_json(out)["checks"][0]["values"]
        assert values == {"certificate": None, "levi_lower_bound_holds": True}

    def test_dominating_levi_form_passes(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        code = main(["witness", "--func", "sq_norm", "--out", str(out)])
        assert code == 0
        assert "[PASS] sharp-witness" in capsys.readouterr().out
        values = read_json(out)["checks"][0]["values"]
        assert values == {"certificate": None, "levi_lower_bound_holds": True}


class TestExponentOption:
    def test_coarse_chain_negative_p(self):
        proc = run_cli(["coarse-chain", "--func", "re_linear", "--p", "-1", "--m", "1",
                        "--eps", "0.5", "--delta", "0.25"])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: invalid --p ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("p", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["coarse-chain", "--func", "re_linear", "--m", "1", "--eps", "0.5", "--delta", "0.25"],
        ["extend", "--func", "neg_sq_norm"],
        ["coarse-extend", "--func", "sq_norm", "--m", "1"],
    ])
    def test_invalid_p_is_config_error(self, argv, p, capsys):
        code = main(argv + ["--p", p])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid --p ")

    def test_summary_counts_verified_tuples(self, monkeypatch, capsys):
        import dataclasses

        from pshlab import fields, witness

        bound = witness.coarse_rhs_bound
        calls = []

        def first_fails(*args, **kwargs):
            reps = bound(*args, **kwargs)
            calls.append(reps)
            if len(calls) == 1:
                twice = fields.Scaled(2.0 * reps[0].bound.total, reps[0].bound.shift)
                reps[0] = dataclasses.replace(reps[0], rhs_integral=twice)
            return reps

        monkeypatch.setattr(witness, "coarse_rhs_bound", first_fails)
        argv = ["coarse-chain", "--func", "re_linear", "--m", "1,2", "--eps", "0.5",
                "--delta", "0.25"]
        assert main(argv) == 1
        assert "[FAIL] coarse-chain: 1/2 tuples verified" in capsys.readouterr().out
        monkeypatch.setattr(witness, "coarse_rhs_bound", bound)
        assert main(argv) == 0
        assert "[PASS] coarse-chain: 2/2 tuples verified" in capsys.readouterr().out


    def test_one_coarse_chain_call_for_every_eps(self, monkeypatch, capsys):
        from pshlab import witness

        bound, calls = witness.coarse_rhs_bound, []

        def counted(*args):
            calls.append(args[3])
            return bound(*args)

        monkeypatch.setattr(witness, "coarse_rhs_bound", counted)
        assert main(["coarse-chain", "--func", "re_linear", "--m", "1,2", "--eps", "0.5,0.25",
                     "--delta", "0.25,0"]) == 0
        assert calls == [[(0.5, 256), (0.25, 256)]]
        assert "[PASS] coarse-chain: 8/8 tuples verified" in capsys.readouterr().out

    def test_an_m_the_modulus_grid_cannot_resolve_leaves_its_two_columns_blank(self, tmp_path):
        # the region grid has 17 nodes per axis of the unit ball's box, spacing 1/8: it
        # resolves eps = 1/m up to m = 8 and not beyond, where the modulus would read 0
        out = tmp_path / "chain.csv"
        argv = ["coarse-chain", "--func", "re_linear", "--m", "8,16,32", "--eps", "0.5",
                "--delta", "0.25", "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == ("8,2.0,0.5,0.25,31.924901605039096,10977.58811491289,"
                            "50.2654824574367,-0.49999975750747494,0.125,12.854522072572477,True")
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["m"] for row in rows] == ["8", "16", "32"]
        for row in rows[1:]:
            assert row["o_eps_1_over_m"] == row["log_cprime_m"] == ""
            assert row["verified"] == "True"

    def test_only_the_two_documented_refusals_blank_the_modulus(self, monkeypatch, tmp_path,
                                                                 capsys):
        # a non-continuous field and an unresolved eps leave the columns blank; any
        # other toolkit error from the modulus is a failure, exit 1, with no CSV
        from pshlab import witness
        from pshlab.errors import PoleInStencilError

        def pole(*args, **kwargs):
            raise PoleInStencilError("pole in stencil")

        monkeypatch.setattr(witness, "modulus_of_continuity", pole)
        out = tmp_path / "chain.csv"
        assert main(["coarse-chain", "--func", "re_linear", "--m", "1", "--eps", "0.5",
                     "--delta", "0.25", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: pole in stencil\n"
        assert not out.exists()

    def test_readme_configuration_rows_equal_the_one_tuple_oracle(self, tmp_path):
        """Rows in (m, eps, delta) order, each equal to its tuple's own solve in doubles:
        the tuple and inf phi exactly, the rhs, the bound and C within CHAIN_REL."""
        from pshlab import fields
        from pshlab.witness import annulus_grid_nodes

        from grid_helpers import CHAIN_REL, coarse_rhs_bound_one

        out = tmp_path / "chain.csv"
        argv = ["coarse-chain", "--func", "re_linear", "--m", "1,2,4,8", "--p", "2", "--cm", "1",
                "--out", str(out)]
        assert main(argv) == 0
        with open(out, newline="") as handle:
            rows = [[float(c) for c in row[:8]] for row in list(csv.reader(handle))[1:]]
        phi, w = fields.get_field("re_linear", 1), np.zeros(1, dtype=complex)
        nodes = annulus_grid_nodes(1)
        want = []
        for m in (1, 2, 4, 8):
            for eps in (0.5, 0.25):
                for delta in (0.25, 0.0625):
                    rep = coarse_rhs_bound_one(phi, m, 2.0, w, eps, delta, 0.0, nodes)
                    want.append([m, 2.0, eps, delta, rep.rhs_integral.value, rep.bound.value,
                                 2.0**4 * math.pi, rep.inf_phi])
        assert [row[:4] + row[7:] for row in rows] == [row[:4] + row[7:] for row in want]
        for row, ref in zip(rows, want):
            assert all(abs(a - b) <= CHAIN_REL * abs(b) for a, b in zip(row[4:7], ref[4:7]))


class TestAnnulusGrid:
    """The coarse chain's annulus grid has annulus_grid_nodes(n) nodes per axis at
    every eps, so a small eps or n = 2 finishes; n = 3, which has no grid, is a typed
    error.  Each run is capped at 2 GiB of address space, so that a grid that
    grows with 1/eps fails at once instead of filling the machine."""

    CAP = ("import os, resource, sys; os.environ['OPENBLAS_NUM_THREADS'] = '1'; "
           "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
           "from pshlab.cli import main; sys.exit(main(sys.argv[1:]))")

    @pytest.mark.parametrize("argv, code", [
        (["--eps", "1e-3", "--m", "1"], 0),
        (["--dim", "2", "--w", "[[0,0],[0,0]]", "--m", "1", "--eps", "0.5", "--delta", "0.25"], 0),
        (["--dim", "3", "--w", "[[0,0],[0,0],[0,0]]"], 1),
    ])
    def test_small_eps_and_n_2_finish(self, argv, code):
        proc = run_python(["-c", self.CAP, "coarse-chain", "--func", "re_linear", *argv])
        assert "Traceback" not in proc.stderr
        assert proc.returncode == code
        if code == 0:
            assert "[PASS] coarse-chain" in proc.stdout
        else:
            assert proc.stderr.startswith("error: the coarse chain has no grid in C^3")


    def test_no_grid_message_past_the_double_range(self, capsys):
        # 41.0 ** 400 overflowed while the message was formatted
        argv = ["coarse-chain", "--func", "re_linear", "--dim", "200", "--w",
                json.dumps([[0, 0]] * 200)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: the coarse chain has no grid in C^200: 41 nodes per axis, the fewest that "
            "resolve the annulus, make 41^400 nodes\n")


BIG = "1" + "0" * 400  # an integer literal past the double range


class TestValuesPastTheDoubleRange:
    """An integer literal past the double range is refused as an out-of-range value,
    exit 2 naming the option, where float() raised an OverflowError, exit 1."""

    @pytest.mark.parametrize("argv", [
        ["levi", "--dim", "2", "--func", f"saddle:{BIG}"],
        ["levi", "--func", f"log_abs:[[{BIG},0]]"],
        ["levi", "--func", "sq_norm", "--omega", f"const:{BIG}"],
        ["coarse-chain", "--func", "re_linear", "--cm", f"poly:{BIG}"],
        ["coarse-chain", "--func", "re_linear", "--w", f"[[{BIG},0]]"],
        ["extend", "--func", "sq_norm", "--center", f"[[{BIG},0]]"],
        ["levi", "--func", "sq_norm", "--region",
         f'{{"kind": "ball", "center": [[0, 0]], "radius": {BIG}}}'],
        ["coarse-chain", "--func", "re_linear", "--m", BIG],
        ["coarse-extend", "--func", "sq_norm", "--m", BIG],
    ], ids=["saddle", "log_abs", "omega", "cm", "w", "center", "region", "m", "extend-m"])
    def test_is_config_error(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid {argv[-2]}")


class TestChainConstantsBelow1:
    """The coarse chain's growth constant takes C_m >= 1: coarse-chain refuses a --cm
    below 1 at one of its --m values before any scan, and coarse-extend's b_m takes
    any C_m > 0."""

    @pytest.mark.parametrize("cm", ["0.5", "poly:-1", "const:0.25"])
    def test_refused_before_any_scan(self, cm, monkeypatch, capsys):
        from pshlab import witness

        def scan(*args, **kwargs):
            raise AssertionError("scanned")

        monkeypatch.setattr(witness, "modulus_of_continuity", scan)
        monkeypatch.setattr(witness, "coarse_rhs_bound", scan)
        assert main(["coarse-chain", "--func", "re_linear", "--cm", cm]) == 2
        assert capsys.readouterr().err == f"error: invalid --cm {cm!r} (expected constants C_m >= 1)\n"

    def test_checked_at_the_m_values(self):
        # poly:-1 gives C_1 = 1
        assert main(["coarse-chain", "--func", "re_linear", "--cm", "poly:-1", "--m", "1",
                     "--eps", "0.5", "--delta", "0.25"]) == 0

    def test_coarse_extend_takes_a_rule_below_1(self):
        assert main(["coarse-extend", "--func", "sq_norm", "--cm-rule", "0.5"]) == 0


class TestWeightedSumsPastTheDoubleRange:
    """Command lines whose weighted sums exceed the double range report their verdicts:
    each verdict reads the sums' signs or logs, and each sum is written by the one rule,
    its double where that is finite and the infinity of its sign where it is larger."""

    LOG_MAX = math.log(np.finfo(float).max)

    def run(self, capsys, argv, out):
        code = main(argv + ["--out", str(out)])
        printed = capsys.readouterr()
        assert "weight overflow" not in printed.out + printed.err
        return code, printed.out

    def test_witness_without_a_certificate_fails(self, capsys, tmp_path):
        # E > 0 at every s of the schedule, with log E up to about 1980 at s = 1e4
        out = tmp_path / "w.json"
        code, printed = self.run(capsys, ["witness", "--func", "sq_norm", "--dim", "2", "--omega",
                                          "const:1.001"], out)
        assert (code, printed) == (1, "[FAIL] sharp-witness\n")
        [check] = read_json(out)["checks"]
        assert check["values"] == {"certificate": None, "levi_lower_bound_holds": False}

    def test_coarse_chain_at_m_3000_verifies(self, capsys, tmp_path):
        from pshlab import fields, witness

        out = tmp_path / "c.csv"
        argv = ["coarse-chain", "--func", "neg_sq_norm", "--m", "1,3000", "--p", "2", "--cm", "1"]
        code, printed = self.run(capsys, argv, out)
        assert (code, printed) == (0, "[PASS] coarse-chain: 8/8 tuples verified\n")
        with open(out, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        reps = witness.coarse_rhs_bound(
            fields.neg_sq_norm(1), 2.0, np.zeros(1), [(0.5, 256), (0.25, 256)], [0.25, 0.0625],
            [(1, 0.0), (3000, 0.0)])
        assert len(rows) == len(reps) == 8
        for row, rep in zip(rows, reps):
            for key in ("rhs_integral", "bound"):
                scaled = getattr(rep, key)
                assert row[key] == repr(scaled.value)
                # past the double range exactly where the log exceeds its largest log
                assert math.isinf(float(row[key])) == (scaled.log_abs > self.LOG_MAX)
            assert row["verified"] == "True"
        inf_rows = [(row["m"], row["eps"]) for row in rows if row["rhs_integral"] == "inf"]
        assert inf_rows == [("3000", "0.5")] * 2
        assert all(row["bound"] == "inf" for row in rows if row["eps"] == "0.5" and row["m"] == "3000")

    @pytest.mark.parametrize("center, p, lhs_rhs", [
        # log lhs = 954.6 > log rhs = 900: both past the double range
        ("[[30,0]]", "3", (math.inf, math.inf)),
        # lhs = 3.0e-13 is 1300 times rhs = 2.3e-16; their margin, -3.0e-13, is above -1e-9
        ("[[6,0]]", "3", (3.015246607917406e-13, 2.3195228302435696e-16)),
        ("[[3,0]]", "3", (356580.9115008158, 8103.083927575384)),
    ])
    def test_extend_margin_is_decided_at_any_scale(self, capsys, tmp_path, center, p, lhs_rhs):
        func = "sq_norm" if center == "[[6,0]]" else "neg_sq_norm"
        out = tmp_path / "e.json"
        code, printed = self.run(capsys, ["extend", "--func", func, "--center", center,
                                          "--cylinder", "r=1.0,s=1.0,seed=0", "--p", p], out)
        assert (code, printed) == (0, "[FAIL] optimal-extension-margin\n")
        [check] = read_json(out)["checks"]
        values = check["values"]
        assert (values["lhs"], values["rhs"]) == lhs_rhs
        assert values["margin"] < 0.0


class TestLogScaleWeights:
    def test_coarse_extend_large_m(self, tmp_path):
        # e^{-m phi} overflows a double at m = 1000; b_m is taken in log space
        out = tmp_path / "ce.csv"
        code = main(
            ["coarse-extend", "--func", "neg_sq_norm", "--m", "1,1000",
             "--cylinder", "r=5,s=1,seed=0", "--out", str(out)]
        )
        assert code == 0
        with open(out, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        last = rows[-1]
        assert last["m"] == "1000"
        b_m, b_tilde = float(last["b_m"]), float(last["b_tilde_m"])
        assert math.isfinite(b_m)
        assert b_m <= b_tilde

    def test_extend_overflow_reads_the_verdict(self, tmp_path):
        # (1/mu) int |f|^3 e^{|z|^2} over the disc of radius 30 is about e^893 > e^0 = rhs
        out = tmp_path / "e.json"
        proc = run_cli(["extend", "--func", "neg_sq_norm", "--cylinder", "r=30,seed=0", "--p", "3",
                        "--out", str(out)])
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "[FAIL] optimal-extension-margin\n", "")
        values = read_json(out)["checks"][0]["values"]
        assert (values["lhs"], values["rhs"], values["margin"]) == (math.inf, 1.0, -math.inf)

    @pytest.mark.parametrize("argv, bounds", [
        (["coarse-extend", "--func", "sq_norm", "--m", "1000000", "--cm-rule", "exp_sqrt"],
         {"b_m": True, "b_tilde_m": True}),
        # C_m = e^1000 multiplies both sides of the chain, which are then inf by the one rule
        (["coarse-chain", "--func", "re_linear", "--m", "1000000", "--p", "2", "--cm", "exp_sqrt"],
         {"rhs_integral": False, "bound": False}),
    ])
    def test_exp_sqrt_constant_at_large_m(self, argv, bounds, tmp_path):
        # C_m = e^{sqrt(m)} is not a double at m = 10^6; it reaches the bounds as log C_m,
        # and each cell is finite or inf as bounds says
        out = tmp_path / "out.csv"
        proc = run_cli(argv + ["--out", str(out)])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith(f"[PASS] {argv[0]}: ")
        with open(out, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        assert all(math.isfinite(float(row[key])) == finite
                   for row in rows for key, finite in bounds.items())


class TestDeterminism:
    def test_check_psh_reports_identical(self, tmp_path):
        args = ["check-psh", "--func", "neg_sq_norm", "--dim", "1", "--centers", "4",
                "--cylinders", "2", "--seed", "11", "--tol", "1e-3", "--budget", "1024"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        a, b = read_json(out1), read_json(out2)
        assert a["checks"] == b["checks"]


class TestBoundedOptions:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("argv", [
        # saddle:2 is not psh: a nan tolerance used to let this scan print [PASS]
        ["check-psh", "--func", "saddle:2", "--dim", "2", "--centers", "5"],
        ["levi", "--func", "sq_norm"],
    ])
    def test_invalid_tol_is_config_error(self, argv, tol, capsys):
        code = main(argv + ["--tol", tol])
        assert code == 2
        out = capsys.readouterr()
        assert out.err.startswith("error: invalid --tol ")
        assert "[PASS]" not in out.out

    def test_zero_tol_is_valid(self):
        assert main(["levi", "--func", "sq_norm", "--tol", "0"]) == 0

    @pytest.mark.parametrize("argv", [
        ["levi", "--func", "sq_norm", "--dim", "0"],
        ["levi", "--func", "sq_norm", "--dim", "-1"],
        ["check-psh", "--func", "sq_norm", "--dim", "0"],
        ["bochner", "--func", "sq_norm", "--dim", "0"],
        ["witness", "--func", "sq_norm", "--dim", "0"],
        ["coarse-chain", "--func", "re_linear", "--dim", "0"],
        ["extend", "--func", "sq_norm", "--dim", "0"],
        ["coarse-extend", "--func", "sq_norm", "--dim", "0"],
        ["levi", "--func", "sq_norm", "--resolution", "-1"],
        ["check-psh", "--func", "sq_norm", "--centers", "0"],
        ["check-psh", "--func", "sq_norm", "--centers", "-1"],
        ["check-psh", "--func", "sq_norm", "--cylinders", "0"],
        ["extend", "--func", "sq_norm", "--degree", "-1"],
        ["dbar", "--weight", "sq_norm", "--degree", "-1"],
        # a negative seed used to leak numpy's error with exit 1
        ["check-psh", "--func", "sq_norm", "--seed", "-1"],
        ["extend", "--func", "sq_norm", "--seed", "-1"],
        ["accept", "--seed", "-1"],
        # a nan box used to end in "increase regularization or lower degree"
        ["dbar", "--weight", "sq_norm", "--box", "nan"],
        ["dbar", "--weight", "sq_norm", "--box", "inf"],
        ["dbar", "--weight", "sq_norm", "--box", "0"],
        # grids without room for the stencil and budgets below any rule's fewest
        # nodes used to fail inside the computation with exit 1
        ["bochner", "--func", "sq_norm", "--grid", "-4"],
        ["dbar", "--weight", "sq_norm", "--grid", "2"],
        ["witness", "--func", "neg_sq_norm", "--grid", "5"],
        ["check-psh", "--func", "sq_norm", "--budget", "-5"],
        ["extend", "--func", "sq_norm", "--budget", "15"],
    ])
    def test_count_out_of_bounds_is_config_error(self, argv, capsys):
        option = argv[-2]
        code = main(argv)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: invalid {option} ")

    @pytest.mark.parametrize("argv", [
        ["extend", "--func", "sq_norm", "--center", "[[0,0],[1,1]]"],
        ["levi", "--func", "sq_norm", "--region",
         '{"kind": "ball", "center": [[0,0],[0,0]], "radius": 1}'],
        ["coarse-chain", "--func", "re_linear", "--dim", "2", "--w", "[[0,0]]"],
    ], ids=["extend-center", "levi-region", "coarse-chain-w"])
    def test_point_outside_dim_is_config_error(self, argv, capsys):
        # points used to reach the computation and fail there with exit 1
        option = argv[-2]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid {option}: ")
        assert "expected " + ("2" if "--dim" in argv else "1") in err

    @pytest.mark.parametrize("argv, option, message", [
        # each used to exit 1 without naming the option, or (s=inf) to pass
        (["coarse-chain", "--func", "re_linear", "--w", "[[NaN,0]]"], "--w",
         "point has non-finite components"),
        (["extend", "--func", "neg_sq_norm", "--center", "[[NaN,0]]"], "--center",
         "point has non-finite components"),
        (["extend", "--func", "sq_norm", "--center", "[[0,Infinity]]"], "--center",
         "point has non-finite components"),
        (["extend", "--func", "neg_sq_norm", "--cylinder", "r=nan"], "--cylinder",
         "cylinder radii must be finite and positive"),
        (["extend", "--func", "neg_sq_norm", "--cylinder", "r=-1"], "--cylinder",
         "cylinder radii must be finite and positive"),
        (["coarse-extend", "--func", "sq_norm", "--cylinder", "r=inf"], "--cylinder",
         "cylinder radii must be finite and positive"),
        (["extend", "--func", "neg_sq_norm", "--cylinder", "r=1,s=inf"], "--cylinder",
         "cylinder radii must be finite and positive"),
        # a frame seed outside [0, 2^64): at n = 2, -1 used to exit 1 and 2^64 to pass;
        # at n = 1, where the seed draws no frame, every seed used to pass
        (["extend", "--func", "sq_norm", "--dim", "2", "--center", "[[0,0],[0,0]]",
          "--cylinder", "r=1,seed=-1"], "--cylinder",
         "expected r=<f>,s=<f>,seed=<u64>): seed -1 is outside [0, 2^64)"),
        (["extend", "--func", "sq_norm", "--dim", "2", "--center", "[[0,0],[0,0]]",
          "--cylinder", "r=0.5,s=0.5,seed=18446744073709551616"], "--cylinder",
         "seed 18446744073709551616 is outside [0, 2^64)"),
        (["extend", "--func", "sq_norm", "--cylinder", "r=0.5,s=0.5,seed=-5"], "--cylinder",
         "seed -5 is outside [0, 2^64)"),
        (["coarse-extend", "--func", "sq_norm", "--cylinder", "r=0.5,seed=18446744073709551616"],
         "--cylinder", "seed 18446744073709551616 is outside [0, 2^64)"),
    ])
    def test_bad_point_or_cylinder_is_config_error(self, argv, option, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid {option}")
        assert message in err

    def test_witness_grid_zero_is_config_error(self, tmp_path, capsys):
        # 0 used to select the default grid; only an unset --grid does now
        out = tmp_path / "w.json"
        assert main(["witness", "--func", "sq_norm", "--grid", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: invalid --grid 0 (expected an integer >= 6)\n"
        assert not out.exists()

    def test_dbar_grid_without_residual_nodes_fails(self, tmp_path, capsys):
        # at 8 nodes no node lies RESIDUAL_MARGIN_CELLS = 4 layers inside every edge;
        # this used to end in numpy's "zero-size array to reduction operation maximum"
        out = tmp_path / "d.json"
        assert main(["dbar", "--weight", "sq_norm", "--grid", "8", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: grid has no node 4 layers inside its edges for the residual\n"
        assert not out.exists()

    def test_dbar_weight_on_fewer_nodes_than_polynomials_fails(self, tmp_path):
        # e^{-(phi + psi_s)} at s = 1000 is nonzero at 9 nodes of the 9 x 9 grid, for the
        # 11 polynomials of degree <= 10; this used to warn of an overflow in the basis
        # and a NaN Gram matrix before "Gram solve is not finite"
        out = tmp_path / "d.json"
        proc = run_python(["-W", "error::RuntimeWarning", "-m", "pshlab.cli", "dbar",
                           "--weight", "neg_sq_norm", "--psi", "psi_s:[1000, 0.5]",
                           "--rhs", "dbar_nu", "--grid", "9", "--out", str(out)])
        assert proc.returncode == 1
        assert proc.stderr == ("error: the weight is nonzero at 9 nodes, fewer than the 11 "
                               "polynomials of degree <= 10; lower the degree or refine the grid\n")
        assert not out.exists()

    def test_count_error_has_no_traceback(self):
        # --dim 0 used to end in an IndexError traceback here
        proc = run_cli(["bochner", "--func", "sq_norm", "--dim", "0"])
        assert proc.returncode == 2
        assert proc.stderr == "error: invalid --dim 0 (expected an integer >= 1)\n"


class TestUnwritableOut:
    @pytest.mark.parametrize("argv", [
        ["levi", "--func", "sq_norm"],  # a JSON report
        ["coarse-chain", "--func", "re_linear", "--m", "1", "--eps", "0.5", "--delta", "0"],  # a CSV
    ])
    @pytest.mark.parametrize("target", ["missing/out", "existing-dir"])
    def test_unwritable_out_is_config_error(self, argv, target, tmp_path, capsys):
        # used to end in a FileNotFoundError traceback from the atomic write
        (tmp_path / "existing-dir").mkdir()
        out = tmp_path / target
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid --out {str(out)!r} (")
        assert not list(tmp_path.glob("**/.pshlab-*"))


def test_cli_imports_no_scipy(tmp_path):
    # the Levi scan, the Cauchy transform and a scan whose candidates take the
    # quasi-random cross rule all run on numpy alone
    out = tmp_path / "scan.json"
    script = f"""
import json, sys
from pshlab import cli
assert cli.main(["levi", "--func", "saddle:2", "--dim", "2"]) == 1
assert cli.main(["dbar", "--weight", "sq_norm", "--grid", "64"]) in (0, 1)
assert cli.main(["check-psh", "--func", "saddle:2", "--dim", "2", "--centers", "2",
                 "--cylinders", "2", "--budget", "256", "--tol", "1e-3", "--out", {str(out)!r}]) == 0
with open({str(out)!r}, encoding="utf-8") as handle:
    assert json.load(handle)["checks"][0]["values"]["verdict"] == "violated"
assert "scipy" not in sys.modules, "scipy was imported"
"""
    proc = run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr


# {subcommand: {option: (dest, default, required)}} of the parser before it
# was built from the subcommand table
PARSER_SURFACE = {
    "levi": {
        "--func": ("func", None, True), "--dim": ("dim", 1, False),
        "--omega": ("omega", "zero", False), "--region": ("region", None, False),
        "--resolution": ("resolution", 9, False), "--tol": ("tol", 1e-09, False),
        "--out": ("out", None, False),
    },
    "check-psh": {
        "--func": ("func", None, True), "--dim": ("dim", 1, False),
        "--region": ("region", None, False), "--centers": ("centers", 100, False),
        "--cylinders": ("cylinders", 10, False), "--seed": ("seed", 0, False),
        "--tol": ("tol", 1e-06, False), "--budget": ("budget", None, False),
        "--out": ("out", None, False),
    },
    "bochner": {
        "--func": ("func", None, True), "--dim": ("dim", 1, False),
        "--form": ("form", "bump_const", False), "--grid": ("grid", None, False),
        "--out": ("out", None, False),
    },
    "witness": {
        "--func": ("func", None, True), "--dim": ("dim", 1, False),
        "--omega": ("omega", "zero", False), "--region": ("region", None, False),
        "--smax": ("smax", 10000.0, False), "--grid": ("grid", None, False),
        "--out": ("out", None, False),
    },
    "coarse-chain": {
        "--func": ("func", None, True), "--dim": ("dim", 1, False),
        "--m": ("m", "1,2,4,8", False), "--p": ("p", 2.0, False),
        "--cm": ("cm", "const:1", False), "--eps": ("eps", "0.5,0.25", False),
        "--delta": ("delta", "0.25,0.0625", False), "--w": ("w", None, False),
        "--out": ("out", None, False),
    },
    "extend": {
        "--func": ("func", None, True), "--dim": ("dim", 1, False),
        "--center": ("center", None, False),
        "--cylinder": ("cylinder", "r=1.0,s=1.0,seed=0", False), "--p": ("p", 2.0, False),
        "--degree": ("degree", 8, False), "--budget": ("budget", 4096, False),
        "--seed": ("seed", 0, False), "--out": ("out", None, False),
    },
    "coarse-extend": {
        "--func": ("func", None, True), "--dim": ("dim", 1, False),
        "--m": ("m", "1,2,4,8,16", False), "--cm-rule": ("cm_rule", "const:1", False),
        "--center": ("center", None, False),
        "--cylinder": ("cylinder", "r=1.0,s=1.0,seed=0", False), "--p": ("p", 2.0, False),
        "--budget": ("budget", 4096, False), "--seed": ("seed", 0, False),
        "--out": ("out", None, False),
    },
    "dbar": {
        "--weight": ("weight", None, True), "--psi": ("psi", "sq_norm", False),
        "--rhs": ("rhs", "dbar_bump", False), "--grid": ("grid", 256, False),
        "--degree": ("degree", 10, False), "--box": ("box", 2.0, False),
        "--out": ("out", None, False),
    },
    "accept": {"--seed": ("seed", 2024, False), "--out": ("out", None, False)},
}


class TestParserSurface:
    def test_options_dests_defaults(self):
        import argparse

        from pshlab.cli import build_parser

        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        surface = {
            name: {
                a.option_strings[0]: (a.dest, a.default, a.required)
                for a in sp._actions if a.option_strings and a.dest != "help"
            }
            for name, sp in sub.choices.items()
        }
        assert surface == PARSER_SURFACE
        assert list(surface) == list(PARSER_SURFACE)

    @pytest.mark.parametrize("argv, echoed", [
        (["levi", "--func", "sq_norm", "--dim", "2"],
         {"region": json.dumps({"kind": "ball", "center": [[0.0, 0.0]] * 2, "radius": 1.0})}),
        (["check-psh", "--func", "sq_norm", "--centers", "1", "--cylinders", "1"],
         {"budget": 4096,
          "region": json.dumps({"kind": "ball", "center": [[0.0, 0.0]], "radius": 1.0})}),
        (["bochner", "--func", "sq_norm"], {"grid": 256}),
        (["witness", "--func", "sq_norm"], {"grid": 96}),
        (["witness", "--func", "sq_norm", "--dim", "2"], {"grid": 16}),
        (["extend", "--func", "sq_norm", "--degree", "2"], {"budget": 4096, "center": "[[0,0]]"}),
        (["dbar", "--weight", "sq_norm"], {"grid": 256}),
    ])
    def test_config_echoes_effective_defaults(self, argv, echoed, tmp_path):
        out = tmp_path / "r.json"
        main(argv + ["--out", str(out)])
        config = read_json(out)["config"]
        for key, value in echoed.items():
            assert config[key] == value
        assert "func_impl" not in config
        assert "command" not in config
        assert config["out"] == str(out)


def fake_suite(monkeypatch, criteria, determinism):
    """run_suite over the given criterion records and determinism record, as run_suite
    applies the runtime limits to them; returns the payloads determinism compared."""
    from pshlab import acceptance

    compared = []
    monkeypatch.setattr(acceptance, "run_criteria", lambda seed: list(criteria))
    monkeypatch.setattr(acceptance, "criterion_determinism",
                        lambda seed, first: compared.append(first) or determinism)
    return compared


class TestAcceptReport:
    def test_report_is_payload_plus_runtime_limit(self, monkeypatch, tmp_path, capsys):
        from pshlab.acceptance import RUNTIME_LIMITS, CheckRecord, payload_bytes

        criteria = [
            CheckRecord("levi-oracle-agreement", True, {"e": 1e-6}, {"rel_error": 1e-4}, 1.5),
            CheckRecord("bochner-identity", True, {"r": 2e-4}, {"n1": 1e-3},
                        RUNTIME_LIMITS["bochner-identity"] + 1.0),
            CheckRecord("hormander-ratio", False, {"ratio": 1.5}, {"witness_ratio": 1.0}, 0.5),
        ]
        determinism = CheckRecord("determinism", True, {"byte_identical": True}, {}, 2.0)
        compared = fake_suite(monkeypatch, criteria, determinism)
        out = tmp_path / "accept.json"
        assert main(["accept", "--seed", "7", "--out", str(out)]) == 1
        # the printed line carries the verdict that the report records
        assert capsys.readouterr().out.splitlines() == [
            "[PASS] levi-oracle-agreement: 1.5s (limit 5s)",
            "[FAIL] bochner-identity: 61.0s (limit 60s)",
            "[FAIL] hormander-ratio: 0.5s (limit 60s)",
            "[PASS] determinism: 2.0s (limit 300s)",
        ]
        # determinism compared the payloads from before the limits applied
        assert compared == [payload_bytes(criteria)]
        rep = read_json(out)
        assert rep["command"] == "accept"
        assert rep["config"] == {"seed": 7}
        records = criteria + [determinism]
        within = [True, False, True, True]
        assert rep["checks"] == [
            {**r.payload(), "passed": r.passed and ok} for r, ok in zip(records, within)
        ]
        assert rep["timings"] == {r.name: r.seconds for r in records}

    def test_passing_suite_exits_zero(self, monkeypatch, tmp_path):
        from pshlab.acceptance import CheckRecord

        records = [CheckRecord("determinism", True, {"byte_identical": True}, {}, 1.0)]
        fake_suite(monkeypatch, [], records[0])
        out = tmp_path / "accept.json"
        assert main(["accept", "--out", str(out)]) == 0
        assert read_json(out)["checks"] == [records[0].payload()]
