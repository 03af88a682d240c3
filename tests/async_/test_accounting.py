"""Every request is accounted for when threaded clients share a session.

Clients stream requests over a small pool of distinct specs against a
cold cache. Each request is exactly one of a graph miss (the one
traversal per distinct spec), a graph hit, or a coalesced wait, so
``graph_misses + graph_hits + coalesced_queries == requests``; and
every result equals a later ``execute`` of its spec.
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig
from repro.api.spec import QuerySpec
from repro.workloads import client_streams, mediated_layers, run_threaded_clients

_SHAPE = dict(layers=3, width=40, fan_out=3, seeds=2, rng=13)
_CLIENTS = 16
_REQUESTS = 4
_POOL = 4


@pytest.fixture(scope="module")
def workload():
    generated = mediated_layers(**_SHAPE)
    yield generated
    generated.close()


@pytest.fixture(scope="module")
def streams():
    specs = [
        QuerySpec(
            entity_set="E0",
            attribute="id",
            value=f"E0:{i}",
            outputs=("E1", "E2"),
            method="in_edge",
        )
        for i in range(_POOL)
    ]
    return client_streams(specs, clients=_CLIENTS, requests_per_client=_REQUESTS)


def _check(report, session, streams):
    assert report.errors == 0
    assert report.requests == _CLIENTS * _REQUESTS
    delta = report.stats_delta
    # one traversal per distinct spec; every request a miss, hit or wait
    assert delta.graph_misses == _POOL
    assert (
        delta.graph_misses + delta.graph_hits + delta.coalesced_queries
        == report.requests
    )
    flat = [spec for stream in streams for spec in stream]
    for spec, result in zip(flat, report.results):
        assert dict(result.scores) == dict(session.execute(spec).scores)


def test_threaded_clients_account_for_every_request(workload, streams):
    with workload.open_session(config=EngineConfig()) as session:
        for _ in range(2):
            session.engine.invalidate()
            _check(run_threaded_clients(session, streams), session, streams)
