#!/usr/bin/env python3
"""Runs every benchmark workload and prints each metric by name with its unit.

Usage, from the repository root:

    python3 loopbench/report.py [--seconds 20] [--seeds 1 2 3] [--trace 0|1]
                                [--workloads table2_allnodes ...]

With several seeds it also prints, per metric, the median and the spread:
the distance between the first and third quartile over the seeds
(statistics.quantiles, n=4) as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    opts = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in opts.workloads:
        runs = [run(spec["command"], workload, s, opts.seconds, opts.trace) for s in opts.seeds]
        print(f"== {workload}  seeds {opts.seeds}  requests {[r['attempted'] for _, r in runs]}  "
              f"failed {[r['failed'] for _, r in runs]}  correct {all(r['correct'] for _, r in runs)}")
        for name, first in runs[0][1]["metrics"].items():
            med, sp = spread([r["metrics"][name]["value"] for _, r in runs])
            bound = f"  bound {bounds[name]}" if name in bounds else ""
            print(f"  {name:28s} {med:14.6g} {first['unit']:8s} spread {sp:.3f}{bound}")
        for key, unit in [("failed_frac", "fraction"), ("zeta_err_pct", "%"),
                          ("wall_latency_p50_ms", "ms wall"), ("wall_analyses_per_s", "1/s wall")]:
            values = [info[key] for info, _ in runs if info[key] is not None]
            if values:
                med, sp = spread(values)
                print(f"  info.{key:23s} {med:14.6g} {unit:8s} spread {sp:.3f}")


if __name__ == "__main__":
    main()
