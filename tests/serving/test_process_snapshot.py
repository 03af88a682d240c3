"""Process-mode workers serve the snapshot they were opened on.

A worker builds its shard from the :class:`~repro.serving.source.WorkerSource`
recipe, not from the parent's tables, so a write to the parent's tables
after open never reaches it: the session keeps serving the open-time
answers until the shard files are refreshed and
``process_engine.repair(reload=True)`` re-attaches them. The xfail below
pins that gap (strictly, so the change that closes it has to flip it);
the thread-mode test shows the same write is visible in process.
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig, RankingOptions


def _spec(workload):
    return workload.spec(
        method="reliability", options=RankingOptions(strategy="closed")
    )


def test_thread_shards_see_parent_writes(workload):
    spec = _spec(workload)
    with workload.open_session(config=EngineConfig(shards=2)) as session:
        before = dict(session.execute(spec).scores)
        workload.refresh_entity_weights(count=5, rng=3)
        assert dict(session.execute(spec).scores) != before


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="process-mode workers serve their open-time snapshot; parent "
    "writes do not reach them",
)
def test_process_shards_see_parent_writes(workload, process_config):
    spec = _spec(workload)
    with workload.open_session(config=process_config) as process:
        process.execute(spec)
        workload.refresh_entity_weights(count=5, rng=3)
        with workload.open_session(sharded=False) as single:
            expected = dict(single.execute(spec).scores)
        assert dict(process.execute(spec).scores) == expected
