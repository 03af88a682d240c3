"""Threaded clients get what a caches-off session answers.

Concurrent ``Session.execute`` and ``Session.execute_many`` callers
share one single-flight and the settled answers, and the shard engines
share one build among specs that differ only in output sets: all that
changes *when* work runs and who runs it, never *what* comes back.
Hypothesis draws spec lists (duplicates included, so flights are
joined and settled answers served) and adds the first spec's siblings
in the other output sets; several threads, released together, each
send the whole list in a different order, either spec by spec or in
``execute_many`` batches, and every answer must be bit-identical to a
caches-off reference session's, error for error. Runs in single mode
and on two thread shards.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig
from repro.api.spec import QuerySpec
from repro.errors import ReproError
from repro.workloads import client_streams, mediated_layers

_WIDTH = 12
_CLIENTS = 4
_OUTPUTS = (("E1",), ("E2",), ("E1", "E2"))

_specs = st.builds(
    QuerySpec,
    entity_set=st.just("E0"),
    attribute=st.just("id"),
    # a few roots beyond the generated range: the empty-answer error
    # path must be equivalent too
    value=st.integers(min_value=0, max_value=_WIDTH + 2).map(lambda i: f"E0:{i}"),
    outputs=st.sampled_from(_OUTPUTS),
    method=st.sampled_from(
        ("in_edge", "path_count", "propagation", "diffusion", "reliability")
    ),
    seed=st.just(11),  # fixes the MC reliability sampler
)


@pytest.fixture(scope="module", params=[1, 2], ids=["single", "thread-shards"])
def sessions(request):
    """The served session and its caches-off reference."""
    shards = request.param
    workload = mediated_layers(layers=3, width=_WIDTH, fan_out=3, rng=17, shards=shards)
    served = workload.open_session(config=EngineConfig(shards=shards))
    reference = workload.open_session(
        config=EngineConfig(shards=shards, cache_graphs=False, cache_scores=False)
    )
    yield served, reference
    served.close()
    reference.close()
    workload.close()


def _outcome(session, spec):
    try:
        return session.execute(spec)
    except ReproError as exc:
        return exc


def _outcomes(session, stream, batch):
    """``stream`` answered spec by spec (``batch`` 0) or in
    ``execute_many`` batches of ``batch`` specs."""
    if not batch:
        return [_outcome(session, spec) for spec in stream]
    outcomes = []
    for start in range(0, len(stream), batch):
        outcomes += session.execute_many(stream[start:start + batch], return_errors=True)
    return outcomes


@settings(deadline=None)
@given(
    specs=st.lists(_specs, min_size=1, max_size=6),
    batches=st.lists(st.integers(0, 3), min_size=_CLIENTS, max_size=_CLIENTS),
)
def test_threaded_answers_bit_identical_to_caches_off(sessions, specs, batches):
    served, reference = sessions
    specs = specs + [
        specs[0].replace(outputs=outputs)
        for outputs in _OUTPUTS
        if outputs != specs[0].outputs
    ]
    streams = client_streams(specs, clients=_CLIENTS, requests_per_client=len(specs))
    answers = [None] * _CLIENTS
    barrier = threading.Barrier(_CLIENTS)

    def client(index):
        barrier.wait()
        answers[index] = _outcomes(served, streams[index], batches[index])

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True) for i in range(_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()

    expected = {spec: _outcome(reference, spec) for spec in specs}
    for stream, outcomes in zip(streams, answers):
        for spec, outcome in zip(stream, outcomes):
            want = expected[spec]
            if isinstance(want, ReproError):
                assert type(outcome) is type(want)
                assert str(outcome) == str(want)
                continue
            # == on floats: bit-identity, not closeness
            assert dict(outcome.scores) == dict(want.scores)
            assert [row.key for row in outcome] == [row.key for row in want]
