#!/usr/bin/env python3
"""Run the benchmark several times per workload and report its spread.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--first-seed 1]

Each run gets its own seed. For every end-to-end metric the script prints
the median of the runs and the spread, the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median,
and marks a spread at or above a third of the metric's bound in
BENCHMARK.json. Every run must report correct=true. With --trace it runs
the traced replay twice on one seed instead and checks that the
deterministic work counts repeat exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", action="store_true")
    opts = ap.parse_args()
    names = opts.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for name in names:
        if opts.trace:
            a = run_once(bench["command"], name, opts.first_seed, bench["run_seconds"], 1)
            b = run_once(bench["command"], name, opts.first_seed, bench["run_seconds"], 1)
            same = a[0]["counts"] == b[0]["counts"]
            ok &= same and a[1]["correct"] and b[1]["correct"]
            print(f"{name}: traced counts repeat: {same}; correct: {a[1]['correct']}, {b[1]['correct']}")
            print(json.dumps(a[0]["counts"]))
            continue
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(opts.runs):
            seed = opts.first_seed + i
            info, res = run_once(bench["command"], name, seed, bench["run_seconds"], 0)
            if not res["correct"]:
                ok = False
                print(f"{name} seed {seed}: incorrect ({res['failed']}/{res['attempted']} failed)")
            for m in values:
                values[m].append(res["metrics"][m]["value"])
            print(f"{name} seed {seed}: samples {info['samples']} " +
                  " ".join(f"{m}={res['metrics'][m]['value']:.4g}" for m in values), file=sys.stderr)
        print(f"{name} ({opts.runs} runs)")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q[2] - q[0]) / med
            flag = "" if spread < m["bound"] / 3 else "  <-- at or above bound/3"
            if spread >= m["bound"] and m["name"] != "setup_s":
                flag = "  <-- ABOVE BOUND"
                ok = False
            print(f"  {m['name']:20s} median {med:14.4f} {m['unit']:6s} spread {spread:7.4f} bound {m['bound']}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
