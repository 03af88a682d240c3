"""Process-mode vs thread-mode scatter/gather overhead.

Two questions on the sharded mediated serving workload (2 shards):

* **cold** — what does promoting shards to worker *processes* add to a
  cold ``Session.execute``? Process mode pays interpreter spawn +
  workload re-resolution per worker on top of the cold build, so this
  is the deployment-time price, paid once per session.
* **warm** — what is the steady-state per-request overhead of the
  JSON-RPC hop when every worker serves from its query/score caches?
  This is the recurring price of crash isolation under serving
  traffic: N locked socket round trips + fragment decode + merge,
  versus thread mode's N in-process cache probes.

Correctness (process == thread bit-identity) is asserted inline on
every run, including ``--benchmark-disable`` smoke runs.
"""

import pytest

from repro.api import EngineConfig
from repro.workloads import mediated_layers

#: serving-sized workload: the answer layer dominates the graph
_SHAPE = dict(layers=3, width=400, fan_out=3, seeds=2, rng=13)
_SHARDS = 2


@pytest.fixture(scope="module")
def workload():
    generated = mediated_layers(shards=_SHARDS, **_SHAPE)
    yield generated
    generated.close()


def _thread_config():
    return EngineConfig(shards=_SHARDS)


def _process_config():
    return EngineConfig(shards=_SHARDS, shard_mode="process")


@pytest.mark.benchmark(group="serving-cold-execute")
class TestColdExecute:
    """Fresh session per round: thread mode materialises N shard
    graphs in-process; process mode additionally spawns, handshakes
    and cold-builds N workers."""

    def test_cold_thread(self, benchmark, workload):
        spec = workload.spec(method="in_edge")

        def cold():
            with workload.open_session(config=_thread_config()) as session:
                return session.execute(spec)

        result = benchmark.pedantic(cold, rounds=3, iterations=1)
        assert len(result) > 0

    def test_cold_process(self, benchmark, workload):
        spec = workload.spec(method="in_edge")

        def cold():
            with workload.open_session(config=_process_config()) as session:
                return session.execute(spec)

        result = benchmark.pedantic(cold, rounds=3, iterations=1)
        assert len(result) > 0


@pytest.mark.benchmark(group="serving-warm-execute")
class TestWarmExecute:
    """Steady state: every shard answers from its caches, so the
    measured gap is pure scatter transport (RPC round trip vs
    in-process call)."""

    def test_warm_thread(self, benchmark, workload):
        spec = workload.spec(method="in_edge")
        with workload.open_session(config=_thread_config()) as session:
            reference = session.execute(spec)  # warm every shard
            result = benchmark.pedantic(
                lambda: session.execute(spec), rounds=3, iterations=10
            )
            assert result.scores == reference.scores
            assert session.stats_snapshot().graph_hits > 0

    def test_warm_process(self, benchmark, workload):
        spec = workload.spec(method="in_edge")
        with workload.open_session(config=_thread_config()) as session:
            thread_scores = dict(session.execute(spec).scores)
        with workload.open_session(config=_process_config()) as session:
            reference = session.execute(spec)  # warm every worker
            # the acceptance bar, asserted on every run: process-mode
            # scores are bit-identical to thread mode's
            assert dict(reference.scores) == thread_scores
            result = benchmark.pedantic(
                lambda: session.execute(spec), rounds=3, iterations=10
            )
            assert result.scores == reference.scores
            assert session.stats_snapshot().graph_hits > 0
