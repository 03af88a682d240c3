#!/usr/bin/env python3
"""Compare end-to-end benchmark runs of a parent and a change.

    python benchmarks/e2e/compare.py --parent P1.json ... --change C1.json ...
    python benchmarks/e2e/compare.py --summary RUN1.json RUN2.json ...

Inputs are ``run.py --out`` files (one or more workloads each). The
i-th parent file and the i-th change file form pair i; run them
alternately (parent first, then change first, ...). Every workload x
end-to-end metric gets one row, marked

* ``improved`` -- at least 10 pairs, the change wins at least 9/10 of
  them (ties count for neither side), the medians differ by more than
  the parent's interquartile range, and the change failed no more
  operations on that workload than the parent;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the metric's bound (``BENCHMARK.json``, relative to the
  parent's median; the extra metrics below carry their own), and either
  the parent's spread is within the bound or every change run reads
  worse than every parent run;
* ``unresolved`` -- the parent's own spread is wider than the bound,
  and not every change run reads better than every parent run;
* ``unchanged`` -- otherwise.

The two runs of a pair must share seed, seconds, ``--quick`` and
``--trace``; otherwise nothing is compared and the exit code is 2.

``--summary`` prints each workload's per-metric median and quartiles as
JSON (the form of ``baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent

#: metrics run.py reports beyond BENCHMARK.json's list: either absent
#: on some workloads or usually 0, so they carry their own bounds
#: (kind, bound, better); "absolute" bounds are in the metric's unit
EXTRA_BOUNDS: Dict[str, Tuple[str, float, str]] = {
    "slo_miss_rate": ("absolute", 0.01, "lower"),
    "error_rate": ("absolute", 0.0, "lower"),
    "write_p50_ms": ("relative", 0.25, "lower"),
}

#: run settings both sides of a pair must share
SETTINGS = ("seed", "seconds", "quick", "traced")


def bounds() -> Dict[str, Tuple[str, float, str]]:
    """Every compared metric: name -> (kind, bound, better)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = {
        entry["name"]: ("relative", float(entry["bound"]), entry["better"])
        for entry in spec["end_to_end"]
    }
    table.update(EXTRA_BOUNDS)
    return table


def load(paths: Sequence[str]) -> List[Dict[str, dict]]:
    """One dict per file: workload -> result."""
    runs = []
    for path in paths:
        results = json.loads(Path(path).read_text(encoding="utf-8"))["results"]
        runs.append({result["workload"]: result for result in results})
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(
    parent: Sequence[float], change: Sequence[float], kind: str, bound: float, better: str,
    more_failures: bool = False,
) -> Tuple[str, int]:
    """``(verdict, pairs the change won)`` for paired runs of one metric.
    ``more_failures`` (the change failed more operations than the parent)
    withholds ``improved``."""
    sign = 1.0 if better == "lower" else -1.0
    low, parent_median, high = quartiles(parent)
    _, change_median, _ = quartiles(change)
    allowed = bound * abs(parent_median) if kind == "relative" else bound
    worse_by = sign * (change_median - parent_median)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    if (
        len(parent) >= 10 and wins >= 0.9 * len(parent) and -worse_by > high - low
        and not more_failures
    ):
        return "improved", wins
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    all_worse = all(sign * (c - p) > 0 for p in parent for c in change)
    if worse_by > allowed and (high - low <= allowed or all_worse):
        return "regressed", wins
    if high - low > allowed and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def compare(parent_paths: Sequence[str], change_paths: Sequence[str]) -> int:
    parent_runs, change_runs = load(parent_paths), load(change_paths)
    pairs = min(len(parent_runs), len(change_runs))
    if len(parent_runs) != len(change_runs):
        print(f"note: {len(parent_runs)} parent and {len(change_runs)} change runs; "
              f"using the first {pairs} pairs")
    if pairs < 10:
        print(f"note: {pairs} pairs; a gain needs at least 10, so none can be claimed")
    def started(run: Dict[str, dict]) -> float:
        return min(result["started_at"] for result in run.values())

    parent_first = [started(parent_runs[i]) < started(change_runs[i]) for i in range(pairs)]
    if any(first == second for first, second in zip(parent_first, parent_first[1:])):
        print("note: pairs do not alternate which side runs first")
    table = bounds()
    workloads = [name for name in parent_runs[0] if all(name in run for run in change_runs)]
    for i in range(pairs):
        for workload in workloads:
            p, c = parent_runs[i][workload], change_runs[i][workload]
            differ = [key for key in SETTINGS if p[key] != c[key]]
            if differ:
                print(f"error: pair {i + 1} ({workload}) differs in {', '.join(differ)}; "
                      f"both sides of a pair must use the same settings")
                return 2
    print(f"{'workload':16s} {'metric':16s} {'verdict':11s} {'wins':>6s}  "
          f"{'parent median [q1, q3]':34s} {'change median [q1, q3]':34s}")
    regressed = 0
    for workload in workloads:
        more_failures = (
            sum(run[workload]["failed"] for run in change_runs[:pairs])
            > sum(run[workload]["failed"] for run in parent_runs[:pairs])
        )
        if more_failures:
            print(f"note: {workload}: the change failed more operations; no gain counts")
        for metric, (kind, bound, better) in table.items():
            if metric not in parent_runs[0][workload]["metrics"]:
                continue
            parent = [run[workload]["metrics"][metric]["value"] for run in parent_runs[:pairs]]
            change = [run[workload]["metrics"][metric]["value"] for run in change_runs[:pairs]]
            mark, wins = verdict(parent, change, kind, bound, better, more_failures)
            regressed += mark == "regressed"
            p_low, p_mid, p_high = quartiles(parent)
            c_low, c_mid, c_high = quartiles(change)
            print(f"{workload:16s} {metric:16s} {mark:11s} {wins:3d}/{pairs:<2d}  "
                  f"{p_mid:12.4f} [{p_low:9.4f}, {p_high:9.4f}] "
                  f"{c_mid:12.4f} [{c_low:9.4f}, {c_high:9.4f}]")
    return 1 if regressed else 0


def summary(paths: Sequence[str]) -> Dict[str, Dict[str, Dict[str, float]]]:
    runs = load(paths)
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload in runs[0]:
        out[workload] = {}
        for metric, record in runs[0][workload]["metrics"].items():
            values = [run[workload]["metrics"][metric]["value"] for run in runs]
            low, middle, high = quartiles(values)
            out[workload][metric] = {
                "median": middle, "q1": low, "q3": high, "unit": record["unit"],
                "runs": len(values),
            }
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="parent vs change, per workload and metric")
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--summary", nargs="+", help="summarise runs of one commit instead")
    args = parser.parse_args(argv)
    if args.summary:
        print(json.dumps(summary(args.summary), indent=1))
        return 0
    if not args.parent or not args.change:
        parser.error("give --parent and --change run files (or --summary)")
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
