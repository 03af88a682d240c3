"""The one scatter/gather core both shard modes run through.

``merge_fragments`` is exercised table-driven on hand-built outcomes, so
every failure classification is pinned without a worker process. The
engine options test pins that thread shards and worker engines are built
from the session config's one option list.
"""

from __future__ import annotations

import copy
import inspect

import pytest

from repro.api import EngineConfig
from repro.engine.ranking import RankingEngine
from repro.engine.sharded import ShardFragment, merge_fragments
from repro.errors import EmptyAnswerError, QueryError, RankingError, StorageError
from repro.integration.builder import BuildStats, NodePayload
from repro.serving import rpc
from repro.serving.worker import ShardWorker
from repro.workloads import mediated_layers


def _fragment(shard, answers, nodes=3, cached=True):
    """An ok fragment owning ``answers`` (node key -> score)."""
    fragment = ShardFragment(
        shard,
        build_stats=BuildStats(nodes=nodes, edges=nodes - 1),
        graph_cached=cached,
        score_cached=cached,
        build_seconds=0.1 * (shard + 1),
        rank_seconds=0.01 * (shard + 1),
    )
    for key, score in answers.items():
        node = ("E2", key)
        fragment.scores[node] = score
        fragment.payloads[node] = NodePayload("E2", key, None, f"label-{key}")
    return fragment


def _empty(shard, kind, build_seconds=0.0):
    return ShardFragment(
        shard,
        build_seconds=build_seconds,
        empty=EmptyAnswerError(f"empty: {kind}", kind=kind),
    )


def _malformed(shard, record):
    """What the process scatter makes of an undecodable reply."""
    with pytest.raises(rpc.RpcTransportError) as caught:
        rpc.decode_fragment(shard, record)
    return "transport", caught.value


NO_ANSWERS = _empty(1, "no-answers")
NO_SEEDS = (_empty(0, "no-seeds"), _empty(1, "no-seeds"))
SAME_ERRORS = (RankingError("did not converge"), RankingError("did not converge"))
TRANSPORT = QueryError("shard 1 failed during scatter/gather after 2 restart(s): EOF")

#: (id, outcomes, expected): expected is an exception instance that must
#: be raised as is, an (exception type, message pattern) pair, or a
#: callable checking the merged GatherResult
CASES = [
    (
        "ok+ok merges",
        [("ok", _fragment(0, {"a": 0.5, "b": 0.25})),
         ("ok", _fragment(1, {"c": 0.5}, cached=False))],
        lambda merged: (
            merged.scores == {("E2", "a"): 0.5, ("E2", "b"): 0.25, ("E2", "c"): 0.5}
            and merged.owner_shards == {("E2", "a"): 0, ("E2", "b"): 0, ("E2", "c"): 1}
            and merged.payloads[("E2", "c")].label == "label-c"
            and merged.nodes == 6
            and merged.graph_cached is False
            and merged.build_seconds == pytest.approx(0.2)
            and merged.method == "in_edge"
        ),
    ),
    (
        "an empty shard contributes nothing",
        [("ok", _empty(0, "no-seeds")), ("ok", _fragment(1, {"c": 0.5}))],
        lambda merged: merged.owner_shards == {("E2", "c"): 1},
    ),
    (
        "all-empty re-raises the kind that got furthest",
        [("ok", _empty(0, "no-seeds")), ("ok", NO_ANSWERS), ("ok", _empty(2, "dangling-seeds"))],
        NO_ANSWERS.empty,
    ),
    (
        "every shard empty of one kind re-raises the first",
        [("ok", NO_SEEDS[0]), ("ok", NO_SEEDS[1])],
        NO_SEEDS[0].empty,
    ),
    (
        "an empty shard's build time still bounds the merge",
        [("ok", _empty(0, "no-seeds", build_seconds=5.0)), ("ok", _fragment(1, {"c": 0.5}))],
        lambda merged: merged.build_seconds == 5.0 and merged.rank_seconds == pytest.approx(0.02),
    ),
    (
        "the same error on every shard is re-raised verbatim",
        [("error", SAME_ERRORS[0]), ("error", SAME_ERRORS[1])],
        SAME_ERRORS[0],
    ),
    (
        "a partial error is wrapped and names the shard",
        [("ok", _fragment(0, {"a": 0.5})), ("error", StorageError("disk vanished"))],
        (QueryError, r"shard 1 failed during scatter/gather: disk vanished"),
    ),
    (
        "an error beside an empty shard is wrapped",
        [("ok", _empty(0, "no-seeds")), ("error", StorageError("disk vanished"))],
        (QueryError, r"shard 1 failed during scatter/gather: disk vanished"),
    ),
    (
        "different errors on every shard are wrapped, naming the first",
        [("error", RankingError("first")), ("error", RankingError("second"))],
        (QueryError, r"shard 0 failed during scatter/gather: first"),
    ),
    (
        "a transport failure wins over everything else",
        [("error", StorageError("disk vanished")), ("transport", TRANSPORT),
         ("ok", NO_ANSWERS)],
        TRANSPORT,
    ),
    (
        "a malformed record becomes a transport failure",
        [("ok", _fragment(0, {"a": 0.5})), _malformed(1, {"status": "ok", "owned": 7})],
        (QueryError, r"shard 1 failed during scatter/gather: malformed fragment"),
    ),
    (
        "an answer owned by two shards raises RankingError",
        [("ok", _fragment(0, {"a": 0.5})), ("ok", _fragment(1, {"a": 0.5}))],
        (RankingError, "gathered from two shards"),
    ),
]


@pytest.mark.parametrize(
    "outcomes, expected", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_merge_fragments(outcomes, expected):
    relevant = list(range(len(outcomes)))
    if isinstance(expected, BaseException):
        with pytest.raises(type(expected)) as raised:
            merge_fragments("in_edge", relevant, outcomes)
        assert raised.value is expected
    elif isinstance(expected, tuple):
        with pytest.raises(expected[0], match=expected[1]):
            merge_fragments("in_edge", relevant, outcomes)
    else:
        assert expected(merge_fragments("in_edge", relevant, outcomes))


def test_fragment_record_round_trips():
    fragment = _fragment(1, {"a": 0.1 + 0.2, "b": 1 / 3})
    decoded = rpc.decode_fragment(1, rpc.encode_fragment(fragment))
    assert decoded.scores == fragment.scores  # bit-identical floats
    assert decoded.payloads == fragment.payloads
    assert decoded.build_stats == fragment.build_stats
    empty = rpc.decode_fragment(0, rpc.encode_fragment(NO_ANSWERS))
    assert empty.empty.kind == "no-answers"
    assert str(empty.empty) == str(NO_ANSWERS.empty)


@pytest.mark.parametrize(
    "fragment",
    [
        _fragment(0, {"a": 0.5, "b": 0.25}),
        _fragment(1, {3: 0.5, 4: 0.125}),
        _fragment(1, {("x", 1): 0.5, ("x", 2): 0.5}),
        _fragment(0, {"tiny": 5e-324, "one": 1.0, "zero": 0.0, "near": 1 - 2 ** -53}),
        *(_empty(1, kind, build_seconds=0.25) for kind in EmptyAnswerError.KINDS),
    ],
    ids=["string keys", "integer keys", "composite keys", "edge floats",
         *(f"empty {kind}" for kind in EmptyAnswerError.KINDS)],
)
def test_record_round_trip_shapes(fragment):
    decoded = rpc.decode_fragment(fragment.shard, rpc.encode_fragment(fragment))
    assert decoded.scores == fragment.scores
    assert decoded.payloads == fragment.payloads
    assert decoded.build_stats == fragment.build_stats
    assert (decoded.graph_cached, decoded.score_cached) == (
        fragment.graph_cached, fragment.score_cached
    )
    assert decoded.build_seconds == fragment.build_seconds
    if fragment.empty is None:
        assert decoded.empty is None
    else:
        assert (decoded.empty.kind, str(decoded.empty)) == (
            fragment.empty.kind, str(fragment.empty)
        )


def _broken(change):
    """A valid ok record with ``change`` applied to a copy of it."""
    record = copy.deepcopy(rpc.encode_fragment(_fragment(0, {"a": 0.5})))
    change(record)
    return record


@pytest.mark.parametrize(
    "record",
    [
        None,
        {},
        {"status": "ok"},
        _broken(lambda r: r.update(owned=[[["E2", "a"], 0.5]])),
        _broken(lambda r: r.update(owned=[[["E2", "a"], "high", "label-a"]])),
        _broken(lambda r: r.update(owned=[[["E2"], 0.5, "label-a"]])),
        _broken(lambda r: r["build_stats"].pop("nodes")),
        {"status": "empty", "message": "empty", "build_seconds": 0.0},
    ],
    ids=["not a record", "no status", "no fields", "short triple",
         "non-numeric score", "node not a pair", "build stats without nodes",
         "empty without kind"],
)
def test_malformed_record_is_a_transport_failure(record):
    with pytest.raises(rpc.RpcTransportError,
                       match="shard 3 failed during scatter/gather: malformed fragment"):
        rpc.decode_fragment(3, record)


#: option -> a value other than the RankingEngine default
NON_DEFAULT_OPTIONS = {
    "cache_scores": False,
    "max_cached_scores": 7,
    "cache_graphs": False,
    "max_cached_graphs": 5,
}


def test_engine_options_name_every_ranking_engine_keyword():
    keywords = set(inspect.signature(RankingEngine.__init__).parameters)
    assert set(EngineConfig().engine_options()) == keywords - {"self", "mediator"}
    assert set(NON_DEFAULT_OPTIONS) == set(EngineConfig().engine_options())


class TestEngineOptionsReachEveryShard:
    """``cache_graphs=False`` means a write re-materialises cold: no
    shard may repair, in either shard mode."""

    @pytest.fixture
    def workload(self):
        generated = mediated_layers(layers=3, width=16, fan_out=3, rng=11, shards=2)
        yield generated
        generated.close()

    def test_thread_shards(self, workload):
        config = EngineConfig(shards=2, cache_graphs=False)
        spec = workload.spec(method="in_edge")
        with workload.open_session(config=config) as session:
            session.execute(spec)
            workload.refresh_entity_weights(count=5)
            session.execute(spec)
            stats = session.shard_stats()
        assert [s.graph_repairs for s in stats] == [0, 0]
        assert [s.queries_executed for s in stats] == [2, 2]

    @pytest.mark.parametrize("cache_graphs, repairs", [(False, 0), (True, 1)])
    def test_worker_engine(self, workload, cache_graphs, repairs):
        """The worker builds its engine from the boot record's options
        (run in process here: the same ShardWorker a worker process
        serves)."""
        config = EngineConfig(shards=2, shard_mode="process", cache_graphs=cache_graphs)
        worker = ShardWorker(0, workload.worker_source(), config.engine_options())
        try:
            params = {"spec": workload.spec(method="in_edge").to_dict()}
            worker.score_fragment(params)
            table = worker.router.mediators[0].entity_plan("E2").table
            table.update_many({row_id: {"w": 0.5} for row_id in list(table.row_ids())[:5]})
            worker.score_fragment(params)
            assert worker.engine.stats.graph_repairs == repairs
        finally:
            worker.close()

    @pytest.mark.parametrize("option", sorted(NON_DEFAULT_OPTIONS))
    def test_thread_shards_get_every_option(self, workload, option):
        value = NON_DEFAULT_OPTIONS[option]
        config = EngineConfig(shards=2, **{option: value})
        with workload.open_session(config=config) as session:
            engines = session.sharded_engine.engines
            assert [getattr(engine, option) for engine in engines] == [value, value]

    @pytest.mark.parametrize("option", sorted(NON_DEFAULT_OPTIONS))
    def test_worker_engine_gets_every_option(self, workload, option):
        value = NON_DEFAULT_OPTIONS[option]
        config = EngineConfig(shards=2, shard_mode="process", **{option: value})
        worker = ShardWorker(1, workload.worker_source(), config.engine_options())
        try:
            assert getattr(worker.engine, option) == value
        finally:
            worker.close()
