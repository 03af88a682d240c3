"""The session's persistent batch pool.

``execute_many`` used to build and tear down a ``ThreadPoolExecutor``
on every call — thread spawn/join dominated small warm batches. The
pool is now lazy, persistent, and reaped by ``close()``; an explicit
non-default ``max_workers`` still gets a transient pool of exactly
that width.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import EngineConfig
from repro.api.spec import QuerySpec
from repro.errors import RankingError
from repro.workloads import mediated_layers


@pytest.fixture()
def workload():
    generated = mediated_layers(layers=3, width=16, fan_out=3, rng=11)
    yield generated
    generated.close()


def _specs(n, method="in_edge"):
    # distinct roots -> distinct traversals, so the batch actually
    # exercises the pool (one traversal runs serially)
    return [
        QuerySpec(
            entity_set="E0",
            attribute="id",
            value=f"E0:{i}",
            outputs=("E1", "E2"),
            method=method,
        )
        for i in range(n)
    ]


class TestPersistentPool:
    def test_repeated_batches_reuse_one_pool(self, workload):
        with workload.open_session() as session:
            assert session._pool is None  # lazy: no batch, no pool
            first = session.execute_many(_specs(4))
            pool = session._pool
            assert pool is not None
            second = session.execute_many(_specs(4))
            assert session._pool is pool  # no churn across calls
            for a, b in zip(first, second):
                assert dict(a.scores) == dict(b.scores)

    def test_pool_threads_are_labelled(self, workload):
        with workload.open_session() as session:
            session.execute_many(_specs(4))
            alive = {thread.name for thread in threading.enumerate()}
            assert any(name.startswith("repro-batch") for name in alive)

    def test_close_reaps_the_pool(self, workload):
        session = workload.open_session()
        session.execute_many(_specs(4))
        pool = session._pool
        assert pool is not None
        session.close()
        assert session._pool is None
        with pytest.raises(RuntimeError):
            pool.submit(lambda: None)  # shut down, not leaked

    def test_single_group_batch_stays_serial(self, workload):
        with workload.open_session() as session:
            spec = _specs(1)[0]
            # one traversal group: the serial path, no pool needed
            results = session.execute_many([spec, spec])
            assert session._pool is None
            assert results[0] is results[1]  # identical specs collapse

    def test_explicit_width_uses_a_transient_pool(self, workload):
        config = EngineConfig(max_workers=4)
        with workload.open_session(config=config) as session:
            results = session.execute_many(_specs(4), max_workers=2)
            assert len(results) == 4
            assert session._pool is None  # non-default width: transient
            # the default width lands on the persistent pool (new specs:
            # settled answers would serve the same ones without a pool)
            session.execute_many(_specs(4, method="path_count"), max_workers=4)
            assert session._pool is not None

    def test_closed_session_rejects_batches(self, workload):
        session = workload.open_session()
        session.close()
        with pytest.raises(RankingError):
            session.execute_many(_specs(2))
