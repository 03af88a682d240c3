"""Process-mode boot and teardown order, and the worker's import weight.

A process-sharded engine launches every worker before it handshakes
with the first, closes by asking every worker to shut down before it
reaps any, and fans whole-fleet RPCs out on the scatter pool. The
tests record the order of those steps by wrapping them; none of them
asserts a wall-clock time.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest

import repro
import repro.serving
from repro.errors import RankingError
from repro.serving import rpc
from repro.serving.engine import ProcessShardedEngine, WorkerHandle, live_worker_processes
from repro.serving.source import WorkerSource


def _record(monkeypatch, cls, name, events, label):
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        events.append((label, self))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)


class TestConcurrentBoot:
    def test_every_worker_runs_before_the_first_handshake(
        self, workload, process_config, monkeypatch
    ):
        seen = []
        original = WorkerHandle.handshake

        def recording(self):
            seen.append((self.shard, {proc.pid for proc in live_worker_processes()}))
            original(self)

        monkeypatch.setattr(WorkerHandle, "handshake", recording)
        with workload.open_session(config=process_config) as session:
            pids = {handle.pid for handle in session.process_engine.workers}
            result = session.execute(workload.spec(method="path_count"))
        reference = workload.open_session(sharded=False).execute(
            workload.spec(method="path_count")
        )
        assert [shard for shard, _ in seen] == [0, 1]
        assert len(pids) == 2 and pids <= seen[0][1]
        assert result.to_dict() == reference.to_dict()

    def test_a_failed_boot_reaps_every_worker_and_the_socket_dir(
        self, workload, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        source = WorkerSource(
            factory="repro.workloads.mediated:no_such_factory", shards=2
        )
        with pytest.raises(rpc.RpcTransportError, match="shard 0") as excinfo:
            ProcessShardedEngine(workload.router, source, boot_timeout=30.0)
        assert "no attribute" in str(excinfo.value)
        assert not list(tmp_path.glob("repro-shards-*"))
        # the autouse tripwire fails the test if any worker survived


class TestFleetLifecycle:
    def test_close_asks_every_worker_before_reaping_any(
        self, workload, process_config, monkeypatch
    ):
        events = []
        session = workload.open_session(config=process_config)
        _record(monkeypatch, WorkerHandle, "request_shutdown", events, "shutdown")
        _record(monkeypatch, WorkerHandle, "_reap", events, "reap")
        session.close()
        order = [(label, handle.shard) for label, handle in events]
        assert order[:2] == [("shutdown", 0), ("shutdown", 1)]
        assert {("reap", 0), ("reap", 1)} <= set(order[2:])
        session.close()  # idempotent

    def test_close_lets_every_worker_exit_on_its_own(self, workload, process_config):
        # a worker that answered its shutdown is waited for, not killed,
        # so its storage cleanup runs to completion: exit code 0, not -9
        codes = []
        for _ in range(2):
            session = workload.open_session(config=process_config)
            session.execute(workload.spec(method="in_edge"))
            processes = [handle.process for handle in session.process_engine.workers]
            session.close()
            codes += [process.returncode for process in processes]
        assert codes == [0, 0, 0, 0]

    def test_repair_runs_on_the_scatter_pool(
        self, workload, process_config, monkeypatch
    ):
        spec = workload.spec(method="propagation")
        with workload.open_session(config=process_config) as session:
            engine = session.process_engine
            before = session.execute(spec).to_dict()
            threads = []
            original = ProcessShardedEngine._call_supervised

            def recording(self, handle, method, params):
                threads.append((method, threading.current_thread().name))
                return original(self, handle, method, params)

            monkeypatch.setattr(ProcessShardedEngine, "_call_supervised", recording)
            engine.repair(reload=True)
            assert [method for method, _ in threads] == ["repair", "repair"]
            assert all(name.startswith("shard-scatter") for _, name in threads)
            assert session.execute(spec).to_dict() == before

    def test_closed_engine_refuses_work(self, workload, process_config):
        session = workload.open_session(config=process_config)
        engine = session.process_engine
        spec = workload.spec()
        session.close()
        assert engine.closed
        for call in (
            lambda: engine.gather(spec),
            lambda: engine.repair(),
        ):
            with pytest.raises(RankingError, match="closed"):
                call()


class TestLazyExports:
    def test_a_worker_import_skips_the_front_door_and_supervisor(self):
        probe = (
            "import sys, repro.serving.worker\n"
            "heavy = ['repro.serving.server', 'repro.serving.engine', 'http.server']\n"
            "print([name for name in heavy if name in sys.modules])\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", probe], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.strip() == "[]"

    def test_a_bounded_server_skips_asyncio(self):
        probe = (
            "import sys, repro.serving.server\n"
            "from repro.api import EngineConfig, open_session\n"
            "session = open_session(config=EngineConfig(max_queue_depth=4))\n"
            "assert session.admission is not None\n"
            "session.close()\n"
            "heavy = ['asyncio', 'repro.async_.session']\n"
            "print([name for name in heavy if name in sys.modules])\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", probe], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.strip() == "[]"

    def test_every_export_resolves(self):
        for name in repro.serving.__all__:
            assert getattr(repro.serving, name) is not None, name
        assert set(repro.serving.__all__) <= set(dir(repro.serving))
        with pytest.raises(AttributeError, match="no_such_export"):
            repro.serving.no_such_export  # noqa: B018
