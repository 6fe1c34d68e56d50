"""Spread of one result set, or comparison of two, per workload and metric.

    python3 perfbench/compare.py base.jsonl            # spread of one set
    python3 perfbench/compare.py base.jsonl change.jsonl

Result sets are the files ``sweep.py`` writes; the end-to-end metrics
of ``BENCHMARK.json`` are read.  For each
workload and metric the table gives each side's median and quartiles
(``statistics.quantiles(n=4)``) and the spread, the distance between
the quartiles as a share of the median.

One set: a spread above the metric's bound is ``UNSTEADY``; above a
third of it, ``noisy``.  Two sets: runs are paired by seed and the
table gives how many pairs the change wins, the move of its median
against the base's as a share of the base's (positive = worse), and a
verdict: ``unresolved`` when either spread is wider than the bound,
``REGRESSION`` when the move is worse than the bound, ``gain`` when the
change wins at least nine tenths of the pairs and the medians differ by
more than the base's quartile distance, and ``same`` otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict[str, dict[str, dict[int, float]]]:
    """workload -> metric -> seed -> value."""
    out: dict = defaultdict(lambda: defaultdict(dict))
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                out[rec["workload"]][name][rec["seed"]] = m["value"]
    return out


def summary(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread)."""
    vals = list(values)
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change", nargs="?")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base = load(args.base)
    change = load(args.change) if args.change else None
    bad = 0
    for wl in sorted(base):
        print(f"== {wl}")
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            a = base[wl].get(name)
            if not a:
                continue
            med_a, q1_a, q3_a, spread_a = summary(a.values())
            left = f"{name:<20} {med_a:12.6g} [{q1_a:.6g}, {q3_a:.6g}] n={len(a)} spread {spread_a:.3f}"
            if change is None:
                verdict = "UNSTEADY" if spread_a > bound else "noisy" if spread_a > bound / 3 else "ok"
                bad += verdict != "ok"
                print(f"  {left} bound {bound} {verdict}")
                continue
            b = change[wl].get(name, {})
            if not b:
                print(f"  {left} | missing in {args.change}")
                bad += 1
                continue
            med_b, q1_b, q3_b, spread_b = summary(b.values())
            seeds = sorted(set(a) & set(b))
            wins = sum((b[s] < a[s]) if lower else (b[s] > a[s]) for s in seeds)
            move = (med_b - med_a) / med_a * (1 if lower else -1)
            if max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            elif move > bound:
                verdict = "REGRESSION"
                bad += 1
            elif wins >= 0.9 * len(seeds) and abs(med_b - med_a) > q3_a - q1_a:
                verdict = "gain"
            else:
                verdict = "same"
            print(f"  {left} | {med_b:12.6g} [{q1_b:.6g}, {q3_b:.6g}] spread {spread_b:.3f}"
                  f" | wins {wins}/{len(seeds)} move {move:+.3f} bound {bound} {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
