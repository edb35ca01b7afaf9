#!/usr/bin/env python3
"""Hard gate on the benchmark's deterministic work counters.

Runs the `loopbench` benchmark traced (`--seed 7 --seconds 1 --trace 1`) on
every workload and compares each work counter it reports (every metric in
unit `count`, plus `trace.composition_match`) and the `correct` verdict
against the seed-7 values checked in below. Any difference fails: a change
that makes the library do more (or less) work, such as an extra
factorization, Newton iteration or timestep, must update these values on
purpose.

The traced counters cover the first requests of a run only, so they do not
depend on the host's speed or on `--seconds`.

Usage, from anywhere (no `LOOPSCOPE_*` variable may be set; the benchmark
refuses to run under one):

    python3 scripts/check_work_counters.py             # builds via cargo run
    python3 scripts/check_work_counters.py --bin PATH  # a prebuilt loopbench
    python3 scripts/check_work_counters.py --print     # measured values, to
                                                       # update the table

Exit status 0 when every counter matches, 1 otherwise.
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SEED = 7

# Seed-7 values of every `count` metric and `trace.composition_match`.
# Counters averaged over several requests can be fractional.
EXPECTED = {
    "table2_allnodes": {
        "dc.newton_iters": 22,
        "dc.escalations": 0,
        "sparse.symbolic": 1,
        "sparse.numeric_refactor": 601,
        "sparse.fresh_fallback": 0,
        "sparse.residual_retries": 0,
        "sparse.gmin_bumps": 0,
        "sparse.iterative_solves": 0,
        "sparse.fill_nnz": 42,
        "sparse.btf_blocks": 7,
        "post.peaks": 11,
        "post.loops": 2,
        "tran.accepted_steps": 0,
        "tran.rejected_steps": 0,
        "tran.newton_iters": 0,
        "trace.composition_match": 1,
    },
    "grid_allnodes": {
        "dc.newton_iters": 1,
        "dc.escalations": 0,
        "sparse.symbolic": 1,
        "sparse.numeric_refactor": 101,
        "sparse.fresh_fallback": 0,
        "sparse.residual_retries": 0,
        "sparse.gmin_bumps": 0,
        "sparse.iterative_solves": 0,
        "sparse.fill_nnz": 4107,
        "sparse.btf_blocks": 3,
        "post.peaks": 257,
        "post.loops": 0,
        "tran.accepted_steps": 0,
        "tran.rejected_steps": 0,
        "tran.newton_iters": 0,
        "trace.composition_match": 1,
    },
    "corner_sweep": {
        "dc.newton_iters": 3584,
        "dc.escalations": 0,
        "sparse.symbolic": 1,
        "sparse.numeric_refactor": 30976,
        "sparse.fresh_fallback": 0,
        "sparse.residual_retries": 0,
        "sparse.gmin_bumps": 0,
        "sparse.iterative_solves": 0,
        "sparse.fill_nnz": 37,
        "sparse.btf_blocks": 5,
        "post.peaks": 256,
        "post.loops": 256,
        "tran.accepted_steps": 0,
        "tran.rejected_steps": 0,
        "tran.newton_iters": 0,
        "trace.composition_match": 1,
    },
    "tran_baseline": {
        "dc.newton_iters": 28,
        "dc.escalations": 0,
        "sparse.symbolic": 2,
        "sparse.numeric_refactor": 6367.5,
        "sparse.fresh_fallback": 0,
        "sparse.residual_retries": 0,
        "sparse.gmin_bumps": 0,
        "sparse.iterative_solves": 0,
        "sparse.fill_nnz": 37,
        "sparse.btf_blocks": 5,
        "post.peaks": 0,
        "post.loops": 0,
        "tran.accepted_steps": 4455.25,
        "tran.rejected_steps": 0,
        "tran.newton_iters": 6369.5,
        "trace.composition_match": 1,
    },
}

def run(cmd, workload):
    args = cmd + [
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", "1",
        "--trace", "1",
    ]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload}: loopbench exited {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def counters(result):
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] == "count" or name == "trace.composition_match"
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin", help="a prebuilt loopbench binary")
    parser.add_argument(
        "--print", action="store_true",
        help="print the measured counters as a Python dict and exit 0",
    )
    args = parser.parse_args()
    cmd = [args.bin] if args.bin else [
        "cargo", "run", "--offline", "--release", "--quiet",
        "--manifest-path", "loopbench/Cargo.toml", "--",
    ]

    if args.print:
        measured = {w: counters(run(cmd, w)) for w in EXPECTED}
        print(json.dumps(measured, indent=4))
        return 0

    failures = []
    for workload, expected in EXPECTED.items():
        result = run(cmd, workload)
        got = counters(result)
        if result["correct"] is not True:
            failures.append(f"{workload}: correct is {result['correct']}")
        for name in sorted(set(expected) | set(got)):
            want, have = expected.get(name), got.get(name)
            if want != have:
                failures.append(f"{workload}: {name} = {have}, expected {want}")
        print(f"{workload}: {len(expected)} counters checked")
    for f in failures:
        print(f"MISMATCH {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
