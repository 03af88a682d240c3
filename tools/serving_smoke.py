#!/usr/bin/env python3
"""End-to-end smoke of the serving stack, as CI runs it.

Boots ``python -m repro.serving`` as a real subprocess over a generated
``mediated_layers`` workload three times — unsharded (``--shards 1``,
the one-shard scatter/gather path every unsharded deployment takes),
then on 2 shards in each shard mode (``thread``, then ``process``) —
and drives it the way an operator and a client would:

1. waits for the address announcement on stdout and polls ``/health``;
2. executes a query over HTTP and compares every score bit-for-bit
   against an in-process single-engine session on the same workload;
3. exercises ``/execute_many``, ``/explain`` and ``/stats``, plus
   ``/shard_stats`` on the sharded servers (an unsharded server has no
   per-shard counters; its ``/explain`` reports the graph's
   fingerprint);
4. process mode only: SIGKILLs one shard worker (pid taken from
   ``/shard_stats``) and re-runs the query — the supervised restart
   must produce the same bit-identical answer, and ``/shard_stats``
   must show the restart;
5. shuts the server down with SIGTERM and verifies a clean exit (in
   process mode: with no surviving worker processes).

Exit status: 0 on success; non-zero with a diagnostic on any failure.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = {"layers": 3, "width": 40, "fan_out": 3, "seeds": 1, "rng": 7}
SHARDS = 2
BOOT_TIMEOUT = 120.0


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _request(url: str, payload: dict = None, timeout: float = 60.0) -> dict:
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _scores(result: dict) -> dict:
    return {entity["key"]: entity["score"] for entity in result["entities"]}


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _fail(message: str) -> None:
    print(f"FAIL: {message}")
    raise SystemExit(1)


def _smoke(mode: str, shards: int, spec_dict: dict, reference: dict) -> None:
    """Boot one server on ``shards`` shards in shard mode ``mode`` and
    run steps 1-5."""
    label = mode if shards > 1 else "unsharded"
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serving",
            "--layers", str(WORKLOAD["layers"]),
            "--width", str(WORKLOAD["width"]),
            "--fan-out", str(WORKLOAD["fan_out"]),
            "--seeds", str(WORKLOAD["seeds"]),
            "--rng", str(WORKLOAD["rng"]),
            "--shards", str(shards),
            "--shard-mode", mode,
            "--port", "0",
        ],
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    worker_pids = []
    try:
        announcement = server.stdout.readline()
        if not announcement:
            _fail("server exited before announcing its address")
        address = json.loads(announcement)
        url = address["url"]
        print(f"[{label}] server up at {url} (pid {address['pid']})")

        deadline = time.monotonic() + BOOT_TIMEOUT
        while True:
            try:
                health = _request(f"{url}/health")
                break
            except (urllib.error.URLError, ConnectionError):
                if time.monotonic() > deadline:
                    _fail("server did not become healthy in time")
                time.sleep(0.2)
        if health.get("status") != "ok" or health.get("shard_mode") != mode:
            _fail(f"unexpected /health: {health}")
        if health.get("shards") != shards or health.get("sharded") != (shards > 1):
            _fail(f"expected {shards} shard(s), got {health}")
        if mode == "process" and health.get("workers_alive") != shards:
            _fail(f"expected {shards} live workers, got {health}")
        print(f"[{label}] health: {health}")

        served = _scores(_request(f"{url}/execute", spec_dict))
        if served != reference:
            _fail("served scores differ from the single-engine reference")
        print(f"[{label}] execute: {len(served)} answers, bit-identical to reference")

        many = _request(f"{url}/execute_many", {"specs": [spec_dict, spec_dict]})
        if many["count"] != 2 or any(
            _scores(result) != reference for result in many["results"]
        ):
            _fail("execute_many results diverged")
        explanation = _request(f"{url}/explain", spec_dict)
        if explanation.get("answers") != len(reference) or (
            shards == 1 and not explanation.get("fingerprint")
        ):
            _fail(f"unexpected /explain: {explanation}")
        stats = _request(f"{url}/stats")
        if stats["engine"]["queries_executed"] < shards:
            _fail(f"unexpected /stats: {stats}")
        shard_stats = _request(f"{url}/shard_stats")
        expected_shards = shards if shards > 1 else 0
        if len(shard_stats.get("shards") or []) != expected_shards or any(
            shard["queries_executed"] < 1 for shard in shard_stats["shards"]
        ):
            _fail(f"unexpected /shard_stats: {shard_stats}")
        print(f"[{label}] execute_many / explain / stats / shard_stats: ok")

        if mode == "process":
            worker_pids = _kill_and_recover(url, spec_dict, reference, shard_stats)
    finally:
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
        try:
            code = server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            _fail("server did not exit on SIGTERM")
        if server.stdout is not None:
            server.stdout.close()

    if code != 0:
        _fail(f"server exited with status {code}")
    deadline = time.monotonic() + 10
    while any(_pid_alive(pid) for pid in worker_pids):
        if time.monotonic() > deadline:
            _fail(f"worker processes survived shutdown: {worker_pids}")
        time.sleep(0.1)
    print(f"[{label}] clean shutdown" + (", all workers reaped" if worker_pids else ""))


def _kill_and_recover(url: str, spec_dict: dict, reference: dict,
                      shard_stats: dict) -> list:
    """Step 4: SIGKILL one worker; return the live worker pids after
    the supervised restart."""
    workers = shard_stats.get("workers") or []
    if len(workers) != SHARDS:
        _fail(f"expected {SHARDS} workers in /shard_stats: {shard_stats}")
    victim = workers[0]
    print(f"[process] killing shard {victim['shard']} worker (pid {victim['pid']})")
    os.kill(victim["pid"], signal.SIGKILL)
    # no wait: the killed worker stays a zombie until the
    # supervisor reaps it on the next request, which is the point

    # the supervised restart must reproduce the identical answer
    recovered = _scores(_request(f"{url}/execute", spec_dict))
    if recovered != reference:
        _fail("post-kill scores differ from the reference")
    after = _request(f"{url}/shard_stats")
    restarted = next(
        w for w in after["workers"] if w["shard"] == victim["shard"]
    )
    if not restarted["alive"] or restarted["restarts"] < 1:
        _fail(f"worker was not restarted: {after}")
    if restarted["pid"] == victim["pid"]:
        _fail("restarted worker reports the killed pid")
    print(
        f"[process] shard {victim['shard']} restarted as pid "
        f"{restarted['pid']}, answers bit-identical"
    )
    return [w["pid"] for w in after["workers"]]


def main() -> int:
    # the in-process reference: same generation recipe, single engine
    sys.path.insert(0, str(ROOT / "src"))
    from repro.workloads import mediated_layers

    workload = mediated_layers(shards=SHARDS, **WORKLOAD)
    spec = workload.spec(method="in_edge")
    with workload.open_session(sharded=False) as session:
        reference = {
            str(e.key): e.score for e in session.execute(spec)
        }
    workload.close()
    print(f"reference: {len(reference)} answers from the single engine")
    _smoke("thread", 1, spec.to_dict(), reference)
    for mode in ("thread", "process"):
        _smoke(mode, SHARDS, spec.to_dict(), reference)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
