#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload and prints, per
metric, the median and the distance between the first and third quartile
of the values as a share of the median (the steadiness figure compared
with each metric's bound in BENCHMARK.json). Exits non-zero when any
spread, `setup_s` included, is over its bound.

    python3 xqpbench/spread.py --workload lookup,paged --seeds 1-10

Run from the repository root, after one build
(`cargo build --release --manifest-path xqpbench/Cargo.toml`).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    exe = os.path.join(os.environ.get("CARGO_TARGET_DIR", "xqpbench/target"), "release", "xqpbench")
    worst = 0.0
    for workload in args.workload.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            worst = max(worst, spread / bound)
            flag = "" if spread < bound / 3 else ("  (over a third of the bound)" if spread <= bound else "  OVER BOUND")
            print(f"{workload:10} {name:12} median {med:12.5g}  spread {spread:7.4f}  bound {bound}{flag}")
            print(f"{'':10} {'':12} values " + " ".join(f"{v:.4g}" for v in vs))
    print(f"worst spread / bound: {worst:.3f}")
    if worst > 1:
        sys.exit("a spread is over its bound")


if __name__ == "__main__":
    main()
