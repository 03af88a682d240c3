#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command, every metric.

    python benchmarks/e2e/run.py --seed 1 [--workload NAME] [--trace [0|1]]
        [--quick] [--out FILE]

A run measures ``run_seconds`` of ``BENCHMARK.json`` (1.2 s under
``--quick``). ``--seconds`` is accepted only with that same value.

For each workload (``shapes.py``; all four unless ``--workload``):

1. **setup** -- launch ``serve.py`` (data generation, session open,
   worker spawn) until the first ``GET /health`` answers 200; five
   launches, the median is ``setup_s``, the last one is kept;
2. **warm-up** -- closed loop on two connections, not timed;
3. **open** -- Poisson arrivals at the workload's ``open_rate_rps`` for
   55% of the measured time, each request timed from its due time;
4. **closed** -- back-to-back requests on the same two connections for
   the remaining 45%;
5. **checks**, off the timed path -- every 20th answer is compared with
   a cold single-engine session built from the same seed (on
   ``refresh-thread``: at the writer states the request could have
   seen), and after the writer stops every hot spec is compared with a
   cold session over the mutated full mediator.

``--trace`` splits the measured time into an untraced pass and a traced
pass on the same server and adds the per-layer breakdown of
``trace.py``; end-to-end metrics always come from the untraced pass.

The gated latency metrics are the closed phase's: while the server's
second write waits on the client's delayed ACK (about 40 ms), the share
of open-phase requests that stall swings between identical runs, and
the open-phase percentiles with it (see ``README.md``).

Human-readable lines go first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
``BENCHMARK.json`` end-to-end metrics (per-layer metrics with
``--trace``). The process exits 0 only when that line was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_left
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: no repro source tree under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import loadgen  # noqa: E402
import shapes  # noqa: E402
import trace  # noqa: E402

#: working files: spans and the library's temporary files
WORK = ROOT / ".bench_e2e"
SETUP_LAUNCHES = 5
WARMUP_S = 1.5
OPEN_SHARE = 0.55
BOOT_TIMEOUT_S = 120.0
QUICK_SECONDS = 1.2
QUICK_WARMUP_S = 0.3

Metric = Dict[str, object]


def _metric(value: float, unit: str, samples: int) -> Metric:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ------------------------------------------------------------------ #
# the server process
# ------------------------------------------------------------------ #


class Server:
    """One ``serve.py`` process: launch, commands, resources, stop."""

    def __init__(self, workload: str, seed: int, quick: bool, trace_out: Path) -> None:
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{SRC}{os.pathsep}{existing}" if existing else str(SRC)
        # the library's temporary files (worker sockets) stay in the checkout
        env["TMPDIR"] = str(WORK / "tmp")
        command = [
            sys.executable, str(HERE / "serve.py"), "--workload", workload,
            "--seed", str(seed), "--trace-out", str(trace_out),
        ]
        if quick:
            command.append("--quick")
        started = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            address = self._next_line()
            self.host, self.port = address["host"], address["port"]
            self.control = loadgen.Connection(self.host, self.port)
            while True:
                status, _ = self.control.request("GET", "/health")
                if status == 200:
                    break
                if time.monotonic() - started > BOOT_TIMEOUT_S:
                    raise RuntimeError("server never answered /health with 200")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - started

    def _read(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _next_line(self) -> dict:
        try:
            line = self._lines.get(timeout=BOOT_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("serve.py did not answer in time") from None
        if line is None:
            raise RuntimeError(f"serve.py exited with status {self.process.wait()}")
        return json.loads(line)

    def command(self, name: str) -> dict:
        self.process.stdin.write(name + "\n")
        self.process.stdin.flush()
        return self._next_line()

    def stats(self) -> Dict[str, float]:
        return self.control.get_json("/stats")["engine"]

    def peak_rss_mb(self) -> Tuple[float, int]:
        """Summed ``VmHWM`` of the server and its shard workers."""
        workers = self.control.get_json("/shard_stats").get("workers") or []
        pids = [self.process.pid] + [w["pid"] for w in workers if w.get("pid")]
        total_kb = 0
        for pid in pids:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0, len(pids)

    def stop(self) -> None:
        """SIGTERM, then wait (the server reaps its own workers)."""
        if getattr(self, "control", None) is not None:
            self.control.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdin.close()
        self._reader.join(timeout=10)
        self.process.stdout.close()


# ------------------------------------------------------------------ #
# correctness
# ------------------------------------------------------------------ #


def check_sampled(
    workload: shapes.Workload, seed: int, quick: bool, records: Sequence[dict],
    writes: Sequence[Tuple[float, float]],
) -> List[str]:
    """Request ids of sampled answers that differ from the reference.

    Without writes the reference is one cold single-engine session. On
    the writer workload a request may legitimately see any writer state
    between the batches committed before it was sent and those started
    before its answer was read; it passes if it equals the reference at
    one of them."""
    sampled = [
        record for record in records
        if record["status"] == 200 and record["index"] % loadgen.SAMPLE_EVERY == 0
    ]
    inputs = workload.generate(seed, quick)
    starts = [start for start, _ in writes]
    ends = [end for _, end in writes]
    windows = [
        (bisect_left(ends, record["send"]), bisect_left(starts, record["end"]))
        for record in sampled
    ]
    pending = dict(enumerate(sampled))
    if workload.writes:
        ids = shapes.answer_ids_by_shard(inputs)
        table = inputs.mediator.entity_plan(inputs.entity_sets[-1]).table
        rows = shapes.row_ids_by_record(table)
    last_state = max((high for _, high in windows), default=0)
    try:
        with workload.open_reference(inputs) as reference:
            for state in range(last_state + 1):
                for position, (low, high) in enumerate(windows):
                    if position not in pending or not low <= state <= high:
                        continue
                    spec, limit = shapes.split_body(json.loads(pending[position]["payload"]))
                    expected = shapes.as_sent(reference.execute(spec).to_dict(limit))
                    if json.loads(pending[position]["body"]) == expected:
                        del pending[position]
                if workload.writes and state < len(writes):
                    _, values = shapes.write_batch(seed, state, ids)
                    table.update_many({rows[record]: {"w": w} for record, w in values.items()})
    finally:
        inputs.close()
    return sorted(record["req"] for record in pending.values())


# ------------------------------------------------------------------ #
# one workload
# ------------------------------------------------------------------ #


def _payload_source(workload: shapes.Workload, rng, shape: Dict[str, int]) -> Callable[[], bytes]:
    """The workload's request mix as encoded bodies, drawn from ``rng``."""
    return lambda: json.dumps(workload.request(rng, shape)).encode("utf-8")


def _latencies_ms(records: Sequence[dict]) -> List[float]:
    """Due time to end of reading, for the requests answered 200."""
    return [(r["end"] - r["due"]) * 1e3 for r in records if r["status"] == 200]


def _counters(before: Dict[str, float], after: Dict[str, float], requests: int) -> Dict[str, Metric]:
    delta = {key: after[key] - before[key] for key in before if isinstance(before[key], int)}

    def ratio(hits: str, misses: str) -> float:
        total = delta[hits] + delta[misses]
        return delta[hits] / total if total else 0.0

    per = max(requests, 1)
    return {
        "engine.graph_hit_ratio": _metric(ratio("graph_hits", "graph_misses"), "fraction", requests),
        "engine.score_hit_ratio": _metric(ratio("score_hits", "score_misses"), "fraction", requests),
        "engine.repairs_per_req": _metric(delta["graph_repairs"] / per, "count", requests),
        "engine.coalesced_per_req": _metric(delta["coalesced_queries"] / per, "count", requests),
        "async_.queued_per_req": _metric(delta["queued_queries"] / per, "count", requests),
        "async_.shed_count": _metric(delta["shed_queries"], "count", requests),
    }


def _launch(
    name: str, seed: int, quick: bool, launches: int, trace_out: Path
) -> Tuple[Server, List[float]]:
    """Launch ``serve.py`` ``launches`` times in a row; keep the last."""
    setups: List[float] = []
    for launch in range(launches):
        server = Server(name, seed, quick, trace_out)
        setups.append(server.setup_s)
        if launch < launches - 1:
            server.stop()
    return server, setups


def _drive(
    server: Server, clients: Sequence[loadgen.Connection], workload: shapes.Workload,
    seed: int, seconds: float, traced: bool, quick: bool,
) -> Tuple[List[dict], Dict[str, dict]]:
    """Warm-up, then an open and a closed phase per pass: untraced, and
    with ``traced`` a traced pass after it. Returns (phases, passes)."""
    name, shape = workload.name, workload.shape(quick)
    records, _, _ = loadgen.run_closed(
        clients, _payload_source(workload, shapes.stream(seed, name, "warmup"), shape),
        QUICK_WARMUP_S if quick else WARMUP_S, "warmup",
    )
    phases = [{"name": "warmup", "records": records}]
    passes: Dict[str, dict] = {}
    plan = [("untraced", seconds)] if not traced else [
        ("untraced", seconds / 2), ("traced", seconds / 2)
    ]
    for label, length in plan:
        if label == "traced":
            server.command("trace")
        open_s = length * OPEN_SHARE
        arrivals = loadgen.poisson_schedule(
            shapes.stream(seed, name, f"arrivals:{label}"), workload.open_rate_rps, open_s
        )
        next_open = _payload_source(workload, shapes.stream(seed, name, f"open:{label}"), shape)
        payloads = [next_open() for _ in arrivals]
        before = server.stats()
        opened, open_start, open_end = loadgen.run_open(
            clients, payloads, arrivals, f"{label}-open"
        )
        closed, closed_start, closed_end = loadgen.run_closed(
            clients,
            _payload_source(workload, shapes.stream(seed, name, f"closed:{label}"), shape),
            length - open_s, f"{label}-closed",
        )
        after = server.stats()
        passes[label] = {
            "open": opened, "closed": closed, "closed_s": closed_end - closed_start,
            "window": (open_start, closed_end),
            "counters": _counters(before, after, len(opened) + len(closed)),
            "final_lag_ms": max(0.0, (open_end - open_start - open_s) * 1e3),
        }
        phases.append({"name": f"{label}-open", "records": opened})
        phases.append({"name": f"{label}-closed", "records": closed})
    return phases, passes


def _final_check(
    server: Server, client: loadgen.Connection
) -> Tuple[List[Tuple[float, float]], dict]:
    """Stop the writer, then read every hot spec back over HTTP and
    compare it with a cold answer over the mutated full mediator.
    Returns the writer's batch log and the check as a phase record."""
    finish = server.command("finish")
    phase = {"name": "final", "sent": 0, "succeeded": 0, "failed": 0, "mismatched": 0}
    for item in finish["final"]:
        status, body = client.request(
            "POST", "/execute", json.dumps(item["body"]).encode("utf-8"), "final"
        )
        phase["sent"] += 1
        if status != 200:
            phase["failed"] += 1
            continue
        phase["succeeded"] += 1
        phase["mismatched"] += json.loads(body) != item["expected"]
    return [tuple(pair) for pair in finish["writes"]], phase


def _end_to_end(
    main: dict, setups: Sequence[float], rss: Tuple[float, int],
    attempted: int, failed: int, writes: Sequence[Tuple[float, float]],
) -> Dict[str, Metric]:
    """The end-to-end metrics of the untraced pass ``main``."""
    opened = main["open"]
    latencies = _latencies_ms(opened)
    closed_latencies = _latencies_ms(main["closed"])
    waits = [(r["send"] - r["due"]) * 1e3 for r in opened]
    misses = sum(
        1 for r in opened
        if r["status"] != 200 or (r["end"] - r["due"]) * 1e3 > shapes.SLO_MS
    )
    metrics: Dict[str, Metric] = {
        "setup_s": _metric(statistics.median(setups), "s", len(setups)),
        "latency_p50_ms": _metric(percentile(latencies, 50), "ms", len(latencies)),
        "latency_p95_ms": _metric(percentile(latencies, 95), "ms", len(latencies)),
        "closed_p50_ms": _metric(percentile(closed_latencies, 50), "ms", len(closed_latencies)),
        "closed_p95_ms": _metric(percentile(closed_latencies, 95), "ms", len(closed_latencies)),
        "throughput_rps": _metric(
            len(closed_latencies) / main["closed_s"], "req/s", len(closed_latencies)
        ),
        "slo_miss_rate": _metric(misses / max(len(opened), 1), "fraction", len(opened)),
        "error_rate": _metric(failed / max(attempted, 1), "fraction", attempted),
        "rss_mb": _metric(rss[0], "MB", rss[1]),
    }
    if writes:
        batch_ms = [(end - start) * 1e3 for start, end in writes]
        metrics["write_p50_ms"] = _metric(percentile(batch_ms, 50), "ms", len(batch_ms))
    metrics["client.lag_p95_ms"] = _metric(percentile(waits, 95), "ms", len(waits))
    metrics["client.final_lag_ms"] = _metric(main["final_lag_ms"], "ms", 1)
    metrics.update(main["counters"])
    return metrics


def _layers(spans_path: Path, traced_pass: dict, untraced_closed_p50: float) -> Dict[str, Metric]:
    """The per-layer metrics of the traced pass."""
    spans = trace.load(str(spans_path))
    spans_path.unlink()
    measured = traced_pass["open"] + traced_pass["closed"]
    layers, checks = trace.breakdown(
        spans, [r for r in measured if r["status"] == 200], traced_pass["window"]
    )
    # against the closed-loop median: the open-loop one swings with the
    # share of requests that hit the wire stall
    traced_latency = _latencies_ms(traced_pass["closed"])
    layers["trace.overhead_pct"] = _metric(
        100.0 * (percentile(traced_latency, 50) / untraced_closed_p50 - 1.0),
        "%", len(traced_latency),
    )
    layers["trace.accounted_pct"] = _metric(checks["accounted_pct"], "%", checks["requests"])
    return layers


def run_workload(
    workload: shapes.Workload, seed: int, seconds: float, traced: bool, quick: bool
) -> dict:
    started_at = time.time()
    WORK.joinpath("tmp").mkdir(parents=True, exist_ok=True)
    trace_out = WORK / f"spans-{workload.name}-{os.getpid()}.jsonl"
    launches = 1 if traced or quick else SETUP_LAUNCHES
    server, setups = _launch(workload.name, seed, quick, launches, trace_out)
    clients = [loadgen.Connection(server.host, server.port) for _ in range(2)]
    try:
        phases, passes = _drive(server, clients, workload, seed, seconds, traced, quick)
        # before "finish": that builds the reference session inside the server
        rss = server.peak_rss_mb()
        writes, final = _final_check(server, clients[0])
    finally:
        for client in clients:
            client.close()
        server.stop()

    records = [record for phase in phases for record in phase["records"]]
    mismatched = set(check_sampled(workload, seed, quick, records, writes))
    for phase in phases:
        phase_records = phase.pop("records")
        ok = sum(1 for record in phase_records if record["status"] == 200)
        phase.update({
            "sent": len(phase_records), "succeeded": ok, "failed": len(phase_records) - ok,
            "mismatched": sum(1 for record in phase_records if record["req"] in mismatched),
        })
    if final["sent"]:
        phases.append(final)
    attempted = sum(phase["sent"] for phase in phases)
    failed = sum(phase["failed"] + phase["mismatched"] for phase in phases)
    metrics = _end_to_end(passes["untraced"], setups, rss, attempted, failed, writes)
    layers = (
        _layers(trace_out, passes["traced"], metrics["closed_p50_ms"]["value"]) if traced else {}
    )
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "traced": traced,
        "quick": quick, "started_at": started_at, "correct": failed == 0,
        "attempted": attempted, "failed": failed,
        "phases": phases, "metrics": metrics, "layers": layers,
        "mismatched": sorted(mismatched),
    }


# ------------------------------------------------------------------ #
# reporting
# ------------------------------------------------------------------ #


def _print_result(result: dict) -> None:
    name = result["workload"]
    print(f"== {name} (seed {result['seed']}, {result['seconds']:g} s"
          f"{', traced' if result['traced'] else ''}{', quick' if result['quick'] else ''})")
    for phase in result["phases"]:
        print(f"   phase {phase['name']:16s} sent {phase['sent']:5d}  succeeded "
              f"{phase['succeeded']:5d}  failed {phase['failed']:3d}  mismatched "
              f"{phase['mismatched']:3d}")
    for section in ("metrics", "layers"):
        for metric, record in result[section].items():
            print(f"   {metric:36s} {record['value']:14.4f} {record['unit']:9s}"
                  f" n={record['samples']}")
    if result["mismatched"]:
        print(f"   MISMATCHED: {', '.join(result['mismatched'][:10])}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="end-to-end HTTP benchmark")
    parser.add_argument("--workload", choices=sorted(shapes.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help=f"accepted only as BENCHMARK.json's run_seconds ({spec['run_seconds']})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="tiny shapes and phases (smoke test)")
    parser.add_argument("--out", help="write every result, with sample counts, as JSON")
    args = parser.parse_args(argv)
    # the run length is fixed, so every compared run measures the same time
    if args.quick and args.seconds is not None:
        parser.error("--quick fixes its own length; drop --seconds")
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must be BENCHMARK.json's run_seconds ({spec['run_seconds']})")
    seconds = QUICK_SECONDS if args.quick else spec["run_seconds"]
    names = [args.workload] if args.workload else list(shapes.WORKLOADS)

    results = []
    for name in names:
        result = run_workload(shapes.WORKLOADS[name], args.seed, seconds, bool(args.trace), args.quick)
        _print_result(result)
        results.append(result)
    if args.out:
        Path(args.out).write_text(json.dumps({"results": results}, indent=1), encoding="utf-8")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    reported: Dict[str, Dict[str, object]] = {}
    for result in results:
        available = {**result["metrics"], **result["layers"]}
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for entry in wanted:
            record = available[entry["name"]]
            reported[prefix + entry["name"]] = {"value": record["value"], "unit": record["unit"]}
    print(json.dumps({
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
