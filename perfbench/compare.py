#!/usr/bin/env python3
"""Compare two result sets written by collect.py, or show one set's spread.

    python3 perfbench/compare.py BASE.json NEW.json    # verdict per metric
    python3 perfbench/compare.py RESULTS.json          # spread per metric

For each workload and end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles (statistics.quantiles, n=4), the ratio
new/base, and a verdict against the metric's bound:

  worse       the median moved the bad way by more than the bound
  improved    the median moved the good way by more than the bound
  unchanged   it moved less than the bound either way
  unresolved  a side's quartile spread (IQR / median) is wider than the
              bound, and the runs of the two sides overlap

When the spread is wider than the bound but every run of one side beats
every run of the other, the verdict follows the direction instead of
reading unresolved. The share of failed operations and the correctness
flag of every run are checked as well. Exit status: 1 if any metric reads
worse or any run was incorrect, else 0.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    with open(path) as f:
        return json.load(f)["runs"]


def by_workload(runs):
    out = {}
    for r in runs:
        if not r.get("trace"):
            out.setdefault(r["workload"], []).append(r["result"])
    return out


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def failed_share(results):
    att = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / att if att else 0.0


def verdict(metric, base, new):
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    bm, _, _, bs = summary(base)
    nm, _, _, ns = summary(new)
    # Positive: the new side is worse by this share of the base median.
    worse_by = (nm - bm) / bm if lower else (bm - nm) / bm
    if max(bs, ns) > bound:
        if lower and min(new) > max(base) or not lower and max(new) < min(base):
            return "worse"
        if lower and max(new) < min(base) or not lower and min(new) > max(base):
            return "improved"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def spread_report(bench, sets):
    bad = False
    for w in bench["workloads"]:
        results = sets.get(w["name"], [])
        if not results:
            continue
        print(f"\n{w['name']}: {len(results)} runs, failed share {failed_share(results):.6f}, "
              f"all correct: {all(r['correct'] for r in results)}")
        print(f"  {'metric':14} {'unit':7} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3, sp = summary(vals)
            flag = ""
            if m["name"] != "setup_s" and sp > m["bound"]:
                flag, bad = "  > bound", True
            elif m["name"] != "setup_s" and sp > m["bound"] / 3:
                flag = "  > bound/3"
            print(f"  {m['name']:14} {m['unit']:7} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{sp:8.4f} {m['bound']:6.3f}{flag}")
    return 1 if bad else 0


def compare_report(bench, base, new):
    status = 0
    for w in bench["workloads"]:
        b, n = base.get(w["name"], []), new.get(w["name"], [])
        if not b or not n:
            continue
        fb, fn = failed_share(b), failed_share(n)
        correct = all(r["correct"] for r in b + n)
        print(f"\n{w['name']}: base {len(b)} runs, new {len(n)} runs; failed share "
              f"{fb:.6f} -> {fn:.6f}{'' if fb == fn else '  CHANGED'}; all correct: {correct}")
        if not correct:
            status = 1
        print(f"  {'metric':14} {'base median [q1, q3]':>36} {'new median [q1, q3]':>36} "
              f"{'new/base':>9} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            bv = [r["metrics"][m["name"]]["value"] for r in b]
            nv = [r["metrics"][m["name"]]["value"] for r in n]
            bm, bq1, bq3, _ = summary(bv)
            nm, nq1, nq3, _ = summary(nv)
            v = verdict(m, bv, nv)
            if v == "worse":
                status = 1
            print(f"  {m['name']:14} {bm:12.6g} [{bq1:10.6g}, {bq3:10.6g}] "
                  f"{nm:12.6g} [{nq1:10.6g}, {nq3:10.6g}] {nm / bm:9.4f} {m['bound']:6.3f}  {v}")
    return status


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = [by_workload(load(p)) for p in sys.argv[1:]]
    if len(sets) == 1:
        print(f"spread of {sys.argv[1]} (IQR / median per end-to-end metric)")
        sys.exit(spread_report(bench, sets[0]))
    print(f"base {sys.argv[1]}  vs  new {sys.argv[2]}  (ratio base: the base median)")
    sys.exit(compare_report(bench, sets[0], sets[1]))


if __name__ == "__main__":
    main()
