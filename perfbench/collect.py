#!/usr/bin/env python3
"""Collect a result set: run the benchmark over several seeds per workload.

    python3 perfbench/collect.py --out results/base.json [--runs 10]
        [--seed-base 1] [--workloads decode-cnm,serve-mix] [--trace]
        [--seconds N]

Runs the command of BENCHMARK.json from the repository root, once per
(seed, workload), interleaving the workloads so slow drift of the machine
spreads over all of them. Seeds are seed-base, seed-base + 1, ... The file
written holds every run's parsed result line and the benchmark's notes on standard error
(golden floors, per-program times); `compare.py` reads it.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def run_once(command, workload, seed, seconds, trace, env):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    notes = [l for l in proc.stderr.splitlines() if l.startswith("perfbench:")]
    return json.loads(lines[-1]), elapsed, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()

    bench = load_benchmark(args.bench)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))

    runs = []
    for i in range(args.runs):
        seed = args.seed_base + i
        for w in workloads:
            result, elapsed, notes = run_once(bench["command"], w, seed, seconds,
                                              args.trace, env)
            runs.append({"workload": w, "seed": seed, "trace": args.trace,
                         "elapsed_s": elapsed, "result": result, "notes": notes})
            print(f"{w:12} seed {seed:4}  {elapsed:6.1f} s  correct={result['correct']}"
                  f"  attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"seconds": seconds, "runs": runs}, f, indent=1)


if __name__ == "__main__":
    main()
