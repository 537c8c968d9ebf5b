"""pshlab benchmark: runs one workload for a time window and prints its metrics.

    python3 perfbench/run.py --workload scan-clean --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; pshlab is imported from its src/.  A run
starts passes until the window is used up: each pass is a fresh interpreter
(worker.py) that imports pshlab.cli, builds its parser and runs the
workload's job list once, cold.  What is left of the window goes to
interpreters that only do the set-up.  After the set-up and after every job,
an interpreter waits while this process times the reference loop of
reference.py, and every time the run reports is rescaled to reference speed:
a pass's job and span times are multiplied by NOMINAL_S / the median of the
pass's reference loops, set-up times by NOMINAL_S / the median of all the
run's reference loops.  The run and its workers are pinned to one CPU.  With
--trace 0 it reports the end-to-end metrics: the median over passes of the
rescaled job-list time (wall_ref_s), the median over all interpreters of the
rescaled set-up time (setup_s) and the median over passes of the peak
resident memory (peak_rss_mb).  With --trace 1 the
passes alternate between untraced and traced, and it reports the per-layer
metrics of tracing.py.  Every metric is printed as `name value unit`; the
last line is a JSON object with the keys correct, attempted, failed and
metrics.  The exit code is non-zero when a job fails or a check of the trace
fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import tracing
from jobs import WORKLOADS
from reference import NOMINAL_S, Reference
from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = (("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# setup_s is the median of at least this many interpreters
MIN_SETUP_SAMPLES = 5
# a run must end within 180 s
LAST_START_S = 120.0
PASS_TIMEOUT_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one process, one thread: the scan thread pool at its default, BLAS single-threaded
    env.pop("PSHLAB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, out_dir: str, env: dict, deadline: float, reference: Reference, trace: int = 0,
          setup_only: bool = False) -> dict:
    """One worker process: a cold pass of the job list, or only the set-up.  The
    reference loops it asks for are timed here, while it waits, into result["ref_s"]."""
    start = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--out-dir", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    ref_s, lines = [], []
    with tempfile.TemporaryFile("w+") as err, subprocess.Popen(
            cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True) as proc:
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                if line == "ref\n":
                    ref_s.append(reference())
                    proc.stdin.write("\n")
                    proc.stdin.flush()
                else:
                    lines.append(line)
        finally:
            timer.cancel()
        if proc.wait() != 0:
            err.seek(0)
            killed = " (killed at the deadline)" if proc.returncode == -9 else ""
            raise RuntimeError(f"worker exited with {proc.returncode}{killed}:\n{err.read()[-3000:]}")
    result = json.loads(lines[-1])
    result["ref_s"] = ref_s
    result["scale"] = NOMINAL_S / statistics.median(ref_s)
    result["setup_s"] = result["ready"] - start
    result["pass_s"] = time.monotonic() - start
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "pshlab", "cli.py")):
        print("error: run from the root of a pshlab checkout (src/pshlab not found)", file=sys.stderr)
        return 2

    # this process and its workers share one CPU, so that the reference loop runs on the core
    # the jobs run on: the two vCPUs of a shared host can be slowed by different neighbours
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t0 = time.monotonic()
    deadline = t0 + PASS_TIMEOUT_S
    window = min(args.seconds, LAST_START_S)
    env = worker_env()
    reference = Reference()
    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
    passes = []
    try:
        # with --trace 1, passes alternate untraced, traced, and a run needs one of each;
        # another pass starts if it would end at most half a pass after the window
        while len(passes) < 1 + args.trace or (
                time.monotonic() - t0 + statistics.median(p["pass_s"] for p in passes) / 2 <= window):
            passes.append(spawn(args, out_dir, env, deadline, reference,
                                trace=args.trace * (len(passes) % 2)))
        # set-up-only interpreters fill what is left of the window, and make up
        # MIN_SETUP_SAMPLES when the passes are fewer
        setup_only = []
        while len(passes) + len(setup_only) < MIN_SETUP_SAMPLES or (
                time.monotonic() - t0 + statistics.median(p["setup_s"] for p in passes + setup_only)
                <= window):
            setup_only.append(spawn(args, out_dir, env, deadline, reference, setup_only=True))
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: a worker failed after {len(passes)} passes: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    untraced, traced = (passes[::2], passes[1::2]) if args.trace else (passes, [])

    # correctness: every job of every pass passes its gate and repeats the output of pass 1,
    # which is untraced, so a traced pass is compared with an untraced one
    attempted = failed = 0
    drift = 0.0
    first = passes[0]["jobs"]
    for i, p in enumerate(passes):
        attempted += len(p["jobs"])
        for name, entry in p["jobs"].items():
            problems = list(entry["problems"])
            if entry["digest"] != first[name]["digest"]:
                problems.append(("traced output" if "trace" in p else "output") + " differs from pass 1")
            failed += bool(problems)
            for problem in problems:
                print(f"FAIL pass {i + 1} {name}: {problem}")
            if entry["drift"] is not None:
                drift = max(drift, entry["drift"])
    correct = failed == 0

    print(f"workload {args.workload} seed {args.seed} passes {len(passes)} "
          f"(traced {len(traced)}) set-up-only {len(setup_only)} pinned_seed {passes[0]['pinned_seed']}")
    print(f"machine {json.dumps(passes[0]['machine'], sort_keys=True)}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted} job runs)")
    print(f"max_pinned_value_drift {drift:.3g} ratio (information only)")
    # rescaled to a machine on which the reference loop takes NOMINAL_S: a pass's times by its own
    # reference loops, the set-up times (two loops per interpreter) by all the run's
    reference_s = statistics.median(r for p in passes + setup_only for r in p["ref_s"])
    wall_raw_s = statistics.median(sum(p["job_s"]) for p in untraced)
    setup_raw_s = statistics.median(p["setup_s"] for p in passes + setup_only)
    print("job_list_s of each pass " + " ".join(f"{sum(p['job_s']):.4f}" for p in passes))
    print(f"reference_loop_s {reference_s!r} s (information only: median of "
          f"{sum(len(p['ref_s']) for p in passes + setup_only)}; NOMINAL_S {NOMINAL_S})")
    print(f"wall_raw_s {wall_raw_s!r} s (information only: median job list, not rescaled)")
    print(f"setup_raw_s {setup_raw_s!r} s (information only: median, not rescaled)")
    wall_ref_s = statistics.median(sum(p["job_s"]) * p["scale"] for p in untraced)
    cylinders = sum(tracing.scan_cylinders(e["summary"]) for e in first.values() if e["summary"])

    metrics = {}
    if args.trace:
        problems = set()
        for metric, unit, _, _ in PER_LAYER:
            if metric in tracing.CROSS_PASS:
                continue
            values = [p["trace"][metric] for p in traced]
            if unit == "s":
                value = statistics.median(v * p["scale"] for v, p in zip(values, traced))
            else:
                value = values[0]
                if len(set(values)) > 1:
                    problems.add(f"{metric} differs between passes: {values}")
            metrics[metric] = value
        metrics["meanvalue.cylinders_per_s"] = cylinders / wall_ref_s
        traced_s = statistics.median(sum(p["job_s"]) * p["scale"] for p in traced)
        metrics["trace.overhead"] = traced_s / wall_ref_s - 1.0
        problems.update(tracing.self_check(args.workload, metrics))
        for problem in sorted(problems):
            print(f"TRACE CHECK FAILED: {problem}")
        correct = correct and not problems
        units = {metric: unit for metric, unit, _, _ in PER_LAYER}
    else:
        metrics = {
            "wall_ref_s": wall_ref_s,
            "setup_s": setup_raw_s * NOMINAL_S / reference_s,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = dict(END_TO_END)
        if cylinders:
            print(f"cylinders_per_s {cylinders / wall_ref_s!r} 1/s (information only)")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
