"""Smoke test of the end-to-end benchmark.

Runs all four workloads through ``run.py --quick`` (tiny shapes,
sub-second phases), once untraced and once traced, and checks that
every metric ``BENCHMARK.json`` names is printed with its unit and a
sample count above zero and that no request failed or mismatched the
reference. There are no timing asserts.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_quick_run_prints_every_metric(traced: bool, tmp_path: Path) -> None:
    out = tmp_path / "results.json"
    command = [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "1", "--out", str(out)]
    if traced:
        command.append("--trace")
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False
    )
    assert completed.returncode == 0, completed.stderr[-3000:]

    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0

    results = json.loads(out.read_text(encoding="utf-8"))["results"]
    assert [result["workload"] for result in results] == [w["name"] for w in SPEC["workloads"]]
    wanted = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    sections = {
        section.split(" ", 1)[0]: section
        for section in ("\n" + completed.stdout).split("\n== ")[1:]
    }
    for result in results:
        assert result["metrics"]["error_rate"]["value"] == 0, result["mismatched"]
        assert ("write_p50_ms" in result["metrics"]) == (result["workload"] == "refresh-thread")
        printed = sections[result["workload"]]
        for entry in wanted:
            line = re.search(
                rf"^\s+{re.escape(entry['name'])}\s+\S+\s+{re.escape(entry['unit'])}\s+n=(\d+)$",
                printed, re.MULTILINE,
            )
            assert line is not None, f"{entry['name']} not printed with unit {entry['unit']}"
            assert int(line.group(1)) > 0, f"{entry['name']} printed without samples"
            assert f"{result['workload']}.{entry['name']}" in last["metrics"]
