#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 gibbsbench/spread.py --workloads lda-seq,restore-chromatic \
        --seeds 10 --seconds 40 [--trace 0] [--first-seed 1]

Run from the repository root after building once (the first run builds).
For every workload and metric it prints the median, the quartiles and
their distance as a share of the median, as Python's
statistics.quantiles(values, n=4) gives them. Each run is one process;
runs are sequential, so nothing else competes for the host.
"""

import argparse
import json
import statistics
import subprocess
import os
import sys

os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
COMMAND = ["cargo", "run", "-q", "--release", "--offline",
           "--manifest-path", "gibbsbench/Cargo.toml", "--"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="lda-seq,restore-chromatic")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    for w in a.workloads.split(","):
        values = {}
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            res = run(w, seed, a.seconds, a.trace)
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: FAILED checks", file=sys.stderr)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                flush=True)
        for name, vs in values.items():
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            print(f"{w:18} {name:28} median {q2:.6g}  q1 {q1:.6g}  "
                  f"q3 {q3:.6g}  spread {spread:.4f}", flush=True)


if __name__ == "__main__":
    main()
