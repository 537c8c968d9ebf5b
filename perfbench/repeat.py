"""Run the benchmark on several seeds per workload and record medians and spreads.

    python3 perfbench/repeat.py --seeds 0-9 --trace 0 --out perfbench/results/NAME.json

Run from the root of a checkout.  Each run is `perfbench/run.py` in its own
process, on every workload, for the run_seconds of BENCHMARK.json.  For every
metric the record holds the ten values, their median, first and third
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median, plus
the machine description printed by the runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from jobs import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(x[len("machine "):]) for x in lines if x.startswith("machine ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, machine


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range a-b")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    with open("BENCHMARK.json") as handle:
        seconds = json.load(handle)["run_seconds"]

    record = {"seeds": seeds, "seconds": seconds, "trace": args.trace,
              "machine": None, "workloads": {}}
    status = 0
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            rc, result, machine = run_once(workload, seed, seconds, args.trace)
            record["machine"] = record["machine"] or machine
            if result is None or rc != 0:
                status = 1
            runs.append({"seed": seed, "exit": rc, "result": result})
            summary = "no result" if result is None else \
                f"correct={result['correct']} failed={result['failed']}/{result['attempted']}"
            print(f"{workload} seed {seed}: exit {rc} {summary}", flush=True)
        metrics = {}
        for run in runs:
            for name, m in (run["result"] or {}).get("metrics", {}).items():
                metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        for name, m in metrics.items():
            values = m["values"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            m.update(median=med, q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
            if args.trace == 0:
                print(f"  {name}: median {med:.6g} {m['unit']}, IQR/median {m['spread']:.4f}")
        record["workloads"][workload] = {"runs": runs, "metrics": metrics}

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
