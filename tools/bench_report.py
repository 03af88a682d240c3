#!/usr/bin/env python3
"""Produce / validate the committed benchmark snapshots.

Each registered snapshot pairs one benchmark suite with the committed
JSON report that documents its measured shape: one record per
benchmark with its group, median latency (seconds) and throughput
(ops/s). Absolute numbers vary per machine, so CI validates each
snapshot's *structure*, not its timings; the timing/equivalence claims
themselves are asserted inside the suites.

``--write`` runs a suite under ``pytest-benchmark``'s JSON reporter
and reduces the full report to the small, diff-friendly committed
snapshot. ``--check`` validates committed snapshots without running
anything: they must parse, name their suite, and carry a positive
median and ops rate for every expected benchmark. This catches a
snapshot rotting (suite renamed, benchmark dropped, file hand-edited
into nonsense) while staying deterministic on loaded CI runners.

With ``--report`` the action applies to one snapshot; without it,
``--check`` validates every registered snapshot and ``--write``
regenerates every one.

Usage:
    python tools/bench_report.py --write [--report BENCH_9.json]
    python tools/bench_report.py --check [--report BENCH_7.json]

Exit status: 0 on success, 1 on failure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: committed snapshot -> (suite, benchmarks the snapshot must contain).
#: Assertion-only tests (ratio claims, equivalence checks) time
#: themselves and emit no benchmark record, so they are not listed.
SNAPSHOTS = {
    "BENCH_7.json": {
        "suite": "benchmarks/test_bench_incremental.py",
        "expected": (
            "test_incremental_refresh",
            "test_cold_refresh",
            "test_untouched_query_stays_cache_hit_flat",
        ),
    },
    "BENCH_9.json": {
        "suite": "benchmarks/test_bench_serving.py",
        "expected": (
            "test_cold_thread",
            "test_cold_process",
            "test_warm_thread",
            "test_warm_process",
        ),
    },
}


def run_suite(root: Path, suite: str) -> dict:
    """Run the suite with the JSON reporter and return the raw report."""
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = Path(tmp) / "benchmark.json"
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                suite,
                "-q",
                "-p",
                "no:cacheprovider",
                f"--benchmark-json={raw_path}",
            ],
            cwd=root,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        if completed.returncode != 0:
            raise SystemExit(completed.returncode)
        with open(raw_path) as handle:
            return json.load(handle)


def reduce_report(raw: dict, suite: str) -> dict:
    """The committed shape: suite + per-benchmark median and ops."""
    benchmarks = []
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        benchmarks.append(
            {
                "name": bench["name"],
                "group": bench.get("group"),
                "median": stats["median"],
                "ops": stats["ops"],
            }
        )
    benchmarks.sort(key=lambda b: b["name"])
    return {"suite": suite, "benchmarks": benchmarks}


def write(root: Path, report_name: str) -> int:
    config = SNAPSHOTS[report_name]
    snapshot = reduce_report(run_suite(root, config["suite"]), config["suite"])
    report_path = root / report_name
    report_path.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {report_path} ({len(snapshot['benchmarks'])} benchmarks)")
    return 0


def check(root: Path, report_name: str) -> int:
    config = SNAPSHOTS[report_name]
    suite = config["suite"]
    report_path = root / report_name
    problems = []
    try:
        snapshot = json.loads(report_path.read_text())
    except FileNotFoundError:
        print(
            f"FAIL: {report_path} is missing "
            f"(tools/bench_report.py --write --report {report_name})"
        )
        return 1
    except json.JSONDecodeError as error:
        print(f"FAIL: {report_path} is not valid JSON: {error}")
        return 1
    if snapshot.get("suite") != suite:
        problems.append(
            f"suite is {snapshot.get('suite')!r}, expected {suite!r}"
        )
    recorded = {
        bench.get("name"): bench for bench in snapshot.get("benchmarks", [])
    }
    for name in config["expected"]:
        bench = recorded.get(name)
        if bench is None:
            problems.append(f"benchmark {name!r} missing from the snapshot")
            continue
        for field in ("median", "ops"):
            value = bench.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"{name}: {field} must be > 0, got {value!r}")
        if not bench.get("group"):
            problems.append(f"{name}: group must be set")
    for problem in problems:
        print(f"FAIL: {report_name}: {problem}")
    if not problems:
        print(
            f"OK: {report_path} covers {len(config['expected'])} "
            f"benchmarks of {suite}"
        )
    return 1 if problems else 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--write", action="store_true", help="run the suite(s), write snapshot(s)"
    )
    mode.add_argument(
        "--check", action="store_true", help="validate committed snapshot(s)"
    )
    parser.add_argument(
        "--report",
        default=None,
        choices=sorted(SNAPSHOTS),
        help="one snapshot (default: all registered)",
    )
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    reports = [args.report] if args.report else sorted(SNAPSHOTS)
    action = write if args.write else check
    status = 0
    for report_name in reports:
        status |= action(root, report_name)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
