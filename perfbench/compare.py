"""Compare two result sets, parent and change, metric by metric.

    python3 perfbench/compare.py perfbench/out/parent.jsonl perfbench/out/change.jsonl

Both files come from ``series.py``; runs are paired by workload and seed,
so run both sides on the same seeds.
For every workload and end-to-end metric of ``BENCHMARK.json`` it prints
both medians with their quartiles, the pairs the change wins, and a verdict
against the metric's bound:

- ``better``: the change wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``unresolved``: the parent's own spread is wider than the bound, unless
  every change run beats every parent run;
- ``same``: none of these; no regression beyond the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str):
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs[(rec["workload"], rec["seed"])] = rec["result"]["metrics"]
    return runs


def verdict(parent, change, pairs, higher_better: bool, bound: float):
    sign = 1 if higher_better else -1
    q1, p_med, q3 = quantiles(parent, n=4)
    c_med = median(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    worse_by = sign * (p_med - c_med) / p_med
    if (q3 - q1) / p_med > bound:
        return wins, "better" if all_better else "unresolved"
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > q3 - q1:
        return wins, "better"
    if worse_by > bound:
        return wins, "worse"
    return wins, "same"


def fmt(values):
    q1, med, q3 = quantiles(values, n=4)
    return f"{med:10.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load(args.parent), load(args.change)

    print(f"{'workload':16} {'metric':12} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>6}  verdict")
    for w in spec["workloads"]:
        seeds = sorted(s for (wl, s) in parent if wl == w["name"])
        change_seeds = sorted(s for (wl, s) in change if wl == w["name"])
        shared = [s for s in seeds if s in change_seeds]
        if len(seeds) < 2 or len(change_seeds) < 2:
            print(f"{w['name']:16} needs two or more runs on each side")
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [parent[(w["name"], s)][name]["value"] for s in seeds]
            c = [change[(w["name"], s)][name]["value"] for s in change_seeds]
            pairs = [(parent[(w["name"], s)][name]["value"], change[(w["name"], s)][name]["value"])
                     for s in shared]
            wins, v = verdict(p, c, pairs, m["better"] == "higher", m["bound"])
            print(f"{w['name']:16} {name:12} {fmt(p):>32} {fmt(c):>32} "
                  f"{wins:>3}/{len(pairs):<3} {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
