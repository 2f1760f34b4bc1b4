#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median
and spread (inter-quartile distance over median), checked against a
third of the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload chain --seeds 1-10 [--trace 1]

Run it from the root of a checkout. Exits 1 when a run fails or a
spread reaches a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"seed {seed}: exit {done.returncode}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    steady = True
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        bound = specs[name].get("bound")
        flag = ""
        if bound is not None and not spread < bound / 3:
            flag, steady = "  <-- spread >= bound/3", False
        print(f"{name:38s} median {med:14.6g}  spread {spread:7.4f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
        print("    " + " ".join(f"{v:.4g}" for v in vs))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
