"""Reports do not depend on the BLAS thread count.

Every weighted total over nodes is geometry.weighted_total, which numpy sums
pairwise on one thread, so OpenBLAS, which splits a dot product across its
threads, sums none of them.  The same criteria and the same check-psh report,
run in a fresh interpreter under one and under two BLAS threads, are the same
bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pshlab

# criteria 2 and 8 (the Bochner identity and the Hormander ratio) at seed 0, then the
# check-psh report of -|z|^2 on the unit disc, without its wall clock
SCRIPT = """
import contextlib, io, json, sys
from pshlab import acceptance, cli
records = [acceptance.criterion_bochner(0), acceptance.criterion_hormander_ratio(0)]
print(acceptance.payload_bytes(records).decode())
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:] + ["--out", sys.argv[1]])
with open(sys.argv[1], encoding="utf-8") as handle:
    report = json.load(handle)
report.pop("wall_clock_seconds")
print(code, json.dumps(report, sort_keys=True))
"""
CHECK_PSH = ["check-psh", "--func", "neg_sq_norm", "--dim", "1", "--centers", "10",
             "--cylinders", "10", "--seed", "3", "--tol", "1e-3"]


def run_with_threads(threads: int, out: Path) -> str:
    env = dict(os.environ)
    src = str(Path(pshlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(out), *CHECK_PSH],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reports_are_the_same_bytes_under_one_and_two_blas_threads(tmp_path):
    one = run_with_threads(1, tmp_path / "scan.json")
    two = run_with_threads(2, tmp_path / "scan.json")
    assert '"violated"' in one  # the scan confirms violations, whose means are compared
    assert one == two
