#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or show the spread of one.

    python3 bench/compare.py a.jsonl b.jsonl   # b against the base a
    python3 bench/compare.py a.jsonl           # run-to-run spread of a

A set is the file ``bench/run.py --out`` appends to: one result record
a line, several runs (seeds or repeats) per workload.  Only untraced
records count.  Each row is one end-to-end metric on one workload with
both medians, their quartiles, the change as a share of the base's
median, the bound from ``BENCHMARK.json`` and a verdict:

* ``regressed`` / ``improved``: the medians differ by more than the
  bound, and the spread does not explain it;
* ``unchanged``: they differ by less, and the spread is within the bound;
* ``unresolved``: the run-to-run spread (the wider inter-quartile range,
  as a share of the base's median) exceeds the bound and the two sets
  of runs overlap, so the data cannot say.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): [value per run]}`` of the untraced runs."""
    table: dict[tuple[str, str], list[float]] = {}
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, entry in record["end_to_end"].items():
                table.setdefault((record["workload"], name),
                                 []).append(entry["value"])
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); stdlib only, so the tool runs without the repo."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], other: list[float], better: str,
            bound: float) -> tuple[str, float, float]:
    """(verdict, worsening, spread), both as shares of the base median."""
    q1a, meda, q3a = quartiles(base)
    q1b, medb, q3b = quartiles(other)
    scale = abs(meda) or 1.0
    worse = (medb - meda) / scale
    if better == "higher":
        worse = -worse
    spread = max(q3a - q1a, q3b - q1b) / scale
    overlap = min(base) <= max(other) and min(other) <= max(base)
    if spread > bound and overlap:
        return "unresolved", worse, spread
    if worse > bound:
        return "regressed", worse, spread
    if worse < -bound:
        return "improved", worse, spread
    return "unchanged", worse, spread


def fmt(values: list[float]) -> str:
    q1, mid, q3 = quartiles(values)
    return f"{mid:>11.5g} [{q1:.5g} {q3:.5g}] n={len(values)}"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    metrics = {m["name"]: m for m in contract["end_to_end"]}
    workloads = [w["name"] for w in contract["workloads"]]
    base = load(argv[0])
    status = 0
    if len(argv) == 1:
        print(f"{'workload':<14} {'metric':<20} {'median [q1 q3] runs':<42} "
              f"{'iqr/median':>10} {'bound':>6}")
        for workload in workloads:
            for name, metric in metrics.items():
                values = base.get((workload, name))
                if not values:
                    continue
                q1, mid, q3 = quartiles(values)
                spread = (q3 - q1) / (abs(mid) or 1.0)
                flag = "" if spread <= metric["bound"] / 3.0 else \
                    "  > bound/3" if spread <= metric["bound"] else \
                    "  > BOUND"
                print(f"{workload:<14} {name:<20} {fmt(values):<42} "
                      f"{spread:>10.4f} {metric['bound']:>6.2f}{flag}")
        return 0
    other = load(argv[1])
    print(f"{'workload':<14} {'metric':<20} {'base median [q1 q3] runs':<42} "
          f"{'other median [q1 q3] runs':<42} {'worse by':>9} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in workloads:
        for name, metric in metrics.items():
            a, b = base.get((workload, name)), other.get((workload, name))
            if not a or not b:
                continue
            word, worse, spread = verdict(a, b, metric["better"],
                                          metric["bound"])
            if word == "regressed":
                status = 1
            print(f"{workload:<14} {name:<20} {fmt(a):<42} {fmt(b):<42} "
                  f"{worse:>+9.4f} {spread:>7.4f} {metric['bound']:>6.2f}  "
                  f"{word}  (shares of base median {quartiles(a)[1]:.5g})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
