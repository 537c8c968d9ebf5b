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
from pshlab.cli import _parse_cm_rule, main, parse_cylinder, parse_point, parse_region, ConfigError


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_cli(argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    env = dict(os.environ)
    src = str(Path(pshlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "pshlab.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestParsers:
    def test_point(self):
        z = parse_point("[[0.5, -0.25], [0, 1]]", "center")
        assert np.allclose(z, [0.5 - 0.25j, 1j])

    def test_point_invalid(self):
        with pytest.raises(ConfigError, match="--center"):
            parse_point("[1, 2, 3]", "center")

    def test_cylinder(self):
        cyl = parse_cylinder("r=0.5,s=0.25,seed=7", 2, np.zeros(2, dtype=complex))
        assert cyl.r == 0.5
        assert cyl.s == 0.25

    def test_cylinder_unknown_key(self):
        with pytest.raises(ConfigError, match="--cylinder"):
            parse_cylinder("r=1,q=2", 1, np.zeros(1, dtype=complex))

    def test_region(self):
        box = parse_region('{"kind": "ball", "center": [[0,0]], "radius": 2.0}')
        assert box.kind == "ball"
        assert box.extents[0] == 2.0

    def test_region_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_region('{"kind": "ball", "center": [[0,0]], "radius": 1, "frob": 3}')

    def test_cm_rule_gives_log_constant(self):
        assert _parse_cm_rule("const:1")(7) == 0.0
        assert _parse_cm_rule("2")(7) == pytest.approx(math.log(2.0))
        assert _parse_cm_rule("poly:2")(10) == pytest.approx(2.0 * math.log(10.0))
        assert _parse_cm_rule("exp_sqrt")(10**6) == 1000.0
        for bad in ("const:0", "poly:x", "cubic"):
            with pytest.raises(ConfigError, match="--cm rule"):
                _parse_cm_rule(bad)


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
        assert code == 1
        assert "unknown field id" in capsys.readouterr().err


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

    def test_extend_overflow_is_typed(self):
        # (1/mu) int |f|^3 e^{|z|^2} over the disc of radius 30 is about e^893
        proc = run_cli(["extend", "--func", "neg_sq_norm", "--cylinder", "r=30,seed=0", "--p", "3"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: weight overflow")

    @pytest.mark.parametrize("argv, bounds", [
        (["coarse-extend", "--func", "sq_norm", "--m", "1000000", "--cm-rule", "exp_sqrt"],
         ("b_m", "b_tilde_m")),
        (["coarse-chain", "--func", "re_linear", "--m", "1000000", "--p", "2", "--cm", "exp_sqrt"],
         ("rhs_integral", "bound")),
    ])
    def test_exp_sqrt_constant_at_large_m(self, argv, bounds, tmp_path):
        # C_m = e^{sqrt(m)} is not a double at m = 10^6; it reaches the bounds as log C_m
        out = tmp_path / "out.csv"
        proc = run_cli(argv + ["--out", str(out)])
        assert "Traceback" not in proc.stderr
        if proc.returncode == 1:
            assert proc.stderr.startswith("error: ")
            return
        assert proc.returncode == 0
        with open(out, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        assert all(math.isfinite(float(row[key])) for row in rows for key in bounds)


class TestDeterminism:
    def test_check_psh_reports_identical(self, tmp_path):
        args = ["check-psh", "--func", "neg_sq_norm", "--dim", "1", "--centers", "4",
                "--cylinders", "2", "--seed", "11", "--tol", "1e-3", "--budget", "1024"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        a, b = read_json(out1), read_json(out2)
        assert a["checks"] == b["checks"]
