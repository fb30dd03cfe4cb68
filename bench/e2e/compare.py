#!/usr/bin/env python3
"""Compares two sets of hierarq_bench results, one verdict per workload x metric.

usage: compare.py BASE CHANGE
       compare.py --self-test

BASE and CHANGE are result sets: directories of the per-run JSON files
hierarq_bench writes (build-e2e/results/). Only untraced, correct runs
count.

For every end-to-end metric in BENCHMARK.json and every workload both sets
ran, the verdict is one of:

  improved    the change wins at least 9 of 10 pairs of runs (ties count
              for neither side) and the medians differ by more than the
              base's interquartile range;
  regressed   the change's median is worse than the base's by more than
              the metric's bound;
  unresolved  the run-to-run spread (interquartile range over median, on
              either side) exceeds the bound, so the data cannot show the
              change is within it, and not every change run beats every
              base run;
  no worse    otherwise.

Pairs are matched by seed when both sets ran the same seeds, otherwise in
run order. Exits 1 if any verdict is "regressed", else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.normpath(os.path.join(HERE, "..", "..", "BENCHMARK.json"))


def load_bounds(path):
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["better"], float(m["bound"])) for m in spec["end_to_end"]]


def load_set(path):
    """Returns {workload: [(seed, {metric: value}), ...]} of untraced runs."""
    runs = {}
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        if os.path.basename(name).startswith("trace_"):
            continue
        with open(name, encoding="utf-8") as f:
            r = json.load(f)
        if r.get("trace") or not r.get("correct"):
            continue
        values = {k: v["value"] for k, v in r["end_to_end"].items()}
        runs.setdefault(r["workload"], []).append((r.get("seed"), values))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs(base, change):
    """Pairs of (base value, change value) runs."""
    base_seeds = [s for s, _ in base]
    change_seeds = [s for s, _ in change]
    if (None not in base_seeds and len(set(base_seeds)) == len(base_seeds)
            and sorted(base_seeds) == sorted(change_seeds)):
        by_seed = dict(change)
        return [(b, by_seed[s]) for s, b in base]
    return list(zip([v for _, v in base], [v for _, v in change]))


def verdict(base, change, better, bound):
    """`base`, `change`: lists of values (paired by index)."""
    sign = 1.0 if better == "lower" else -1.0
    mb = statistics.median(base)
    mc = statistics.median(change)
    b1, b3 = quartiles(base)
    c1, c3 = quartiles(change)
    spread = max((b3 - b1) / abs(mb) if mb else 0.0,
                 (c3 - c1) / abs(mc) if mc else 0.0)
    worse_by = sign * (mc - mb) / abs(mb) if mb else 0.0
    n = min(len(base), len(change))
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    if n and wins >= 0.9 * n and abs(mc - mb) > (b3 - b1):
        return "improved", worse_by, spread
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    if spread > bound and not all_better:
        return "unresolved", worse_by, spread
    if worse_by > bound:
        return "regressed", worse_by, spread
    return "no worse", worse_by, spread


def compare(base_runs, change_runs, bounds, out=sys.stdout):
    regressed = False
    print(f"{'workload':14s} {'metric':22s} {'base med':>12s} {'change med':>12s} "
          f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict", file=out)
    for workload in sorted(set(base_runs) & set(change_runs)):
        matched = pairs(base_runs[workload], change_runs[workload])
        for name, better, bound in bounds:
            paired = [(b[name], c[name]) for b, c in matched if name in b and name in c]
            if not paired:
                continue
            base = [b for b, _ in paired]
            change = [c for _, c in paired]
            v, worse_by, spread = verdict(base, change, better, bound)
            regressed |= v == "regressed"
            print(f"{workload:14s} {name:22s} {statistics.median(base):12.4f} "
                  f"{statistics.median(change):12.4f} {worse_by:+9.3f} {spread:7.3f} "
                  f"{bound:6.2f}  {v}", file=out)
    return 1 if regressed else 0


def self_test():
    bounds = [("p50_us", "lower", 0.10), ("ops_per_s", "higher", 0.10)]

    def runs(p50s, ops):
        return {"w": [(i, {"p50_us": a, "ops_per_s": b})
                      for i, (a, b) in enumerate(zip(p50s, ops))]}

    steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    cases = [
        ("same", runs(steady, steady), runs(steady, steady),
         {"p50_us": "no worse", "ops_per_s": "no worse"}),
        ("slower", runs(steady, steady),
         runs([v * 1.3 for v in steady], [v / 1.3 for v in steady]),
         {"p50_us": "regressed", "ops_per_s": "regressed"}),
        ("faster", runs(steady, steady),
         runs([v * 0.7 for v in steady], [v * 1.3 for v in steady]),
         {"p50_us": "improved", "ops_per_s": "improved"}),
        ("noisy", runs([60, 140, 80, 120, 100, 70, 130, 90, 110, 100], steady),
         runs([70, 150, 90, 125, 105, 65, 135, 95, 115, 108], steady),
         {"p50_us": "unresolved", "ops_per_s": "no worse"}),
    ]
    failures = 0
    for label, base, change, expect in cases:
        for name, better, bound in bounds:
            b = [v[name] for _, v in base["w"]]
            c = [v[name] for _, v in change["w"]]
            got, _, _ = verdict(b, c, better, bound)
            if got != expect[name]:
                print(f"self-test: {label}/{name}: got {got}, want {expect[name]}",
                      file=sys.stderr)
                failures += 1
    with open(os.devnull, "w") as sink:
        if compare(runs(steady, steady), runs([v * 1.3 for v in steady], steady),
                   bounds, out=sink) != 1:
            print("self-test: a regression must exit 1", file=sys.stderr)
            failures += 1
    print("compare.py self-test: " + ("ok" if failures == 0 else f"{failures} failures"))
    return 1 if failures else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("base", nargs="?")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.base or not args.change:
        parser.error("BASE and CHANGE are required")
    return compare(load_set(args.base), load_set(args.change), load_bounds(BENCHMARK_JSON))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
