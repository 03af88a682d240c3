"""The four workloads of the end-to-end benchmark.

One place defines, per workload, the generated inputs, the deployment
(shard mode and count), the request mix and, for ``refresh-thread``,
the writer's batches. Every random choice derives from the workload
seed through a named stream (:func:`stream`), so the server process,
the load generator and the correctness reference regenerate identical
inputs independently: the program under test receives only the
generated data and requests, never the seed.

``quick=True`` selects tiny shapes for the smoke test; the request mix
and the deployment stay the same.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import EngineConfig, QuerySpec, RankingOptions, Session, open_session
from repro.biology.scenarios import build_scenario
from repro.workloads.mediated import mediated_layers

#: the interactive latency limit behind ``slo_miss_rate``
SLO_MS = 100.0
#: the serving docs' bounded admission queue
MAX_QUEUE_DEPTH = 32
#: ``refresh-thread`` writer: one batch every ``WRITE_INTERVAL_S``
#: seconds, each setting ``w`` on ``WRITE_ROWS`` answer-layer rows
WRITE_INTERVAL_S = 0.1
WRITE_ROWS = 10
#: generated weights stay inside the generator's own range
_WEIGHT_RANGE = (0.3, 0.95)

#: a request body: spec fields plus the optional ``limit`` the HTTP
#: front door applies to ``ResultSet.to_dict``
Body = Dict[str, object]


def stream(seed: int, workload: str, label: str) -> random.Random:
    """An independent, reproducible random stream for one purpose."""
    return random.Random(f"{seed}:{workload}:{label}")


def split_body(body: Body) -> Tuple[Dict[str, object], Optional[int]]:
    """A request body as (spec dict, limit)."""
    spec = dict(body)
    limit = spec.pop("limit", None)
    return spec, limit  # type: ignore[return-value]


def as_sent(result: Dict[str, object]) -> object:
    """A result dict exactly as the HTTP server serialises it, parsed back."""
    return json.loads(json.dumps(result, default=str))


class Workload:
    """One traffic mix over one generated deployment."""

    name = ""
    why = ""
    #: 1 serves from a single engine
    shards = 1
    shard_mode = "thread"
    #: Poisson arrival rate of the open phase
    open_rate_rps = 20.0
    writes = False

    def generate(self, seed: int, quick: bool) -> object:
        """The generated inputs (a mediator-carrying object)."""
        raise NotImplementedError

    def open_served(self, inputs: object) -> Session:
        """The session the HTTP server serves."""
        config = EngineConfig(
            max_queue_depth=MAX_QUEUE_DEPTH, shards=self.shards, shard_mode=self.shard_mode
        )
        return inputs.open_session(config=config)  # type: ignore[attr-defined]

    def open_reference(self, inputs: object) -> Session:
        """A cold single-engine session over the full inputs: no query
        or score cache, so every answer is computed from storage."""
        return open_session(
            mediator=inputs.mediator,  # type: ignore[attr-defined]
            config=EngineConfig(cache_graphs=False, cache_scores=False),
        )

    def request(self, rng: random.Random, shape: Dict[str, int]) -> Body:
        """The next request of this workload's mix."""
        raise NotImplementedError

    def shape(self, quick: bool) -> Dict[str, int]:
        """Parameters the request mix needs (e.g. the root pool size)."""
        return {}


def _mediated_spec(root: int, last: str, method: str, limit: int) -> Body:
    spec = QuerySpec("E0", "id", f"E0:{root}", (last,), method=method)
    body: Body = spec.to_dict()
    body["limit"] = limit
    return body


class _Abcc8Case:
    """The ABCC8 scenario-1 case behind the paper's running example."""

    def __init__(self, seed: int) -> None:
        self.mediator = build_scenario(1, seed, limit=1)[0].case.mediator

    def open_session(self, config: EngineConfig) -> Session:
        return open_session(mediator=self.mediator, config=config)

    def close(self) -> None:
        pass


class Abcc8Rank(Workload):
    name = "abcc8-rank"
    why = (
        "the paper's ABCC8 query under all five semantics; 30% are "
        "300-trial Monte Carlo with fresh seeds, so kernels do the engine work"
    )
    open_rate_rps = 20.0
    #: share of Monte Carlo requests; away from 1/2 so the median falls
    #: inside the cheap mode of the (cheap, Monte Carlo) latency mix and
    #: the p95 inside the Monte Carlo one
    RELIABILITY_SHARE = 0.3
    _DETERMINISTIC = ("in_edge", "path_count", "propagation", "diffusion")

    def generate(self, seed: int, quick: bool) -> object:
        return _Abcc8Case(seed)

    def request(self, rng: random.Random, shape: Dict[str, int]) -> Body:
        if rng.random() < self.RELIABILITY_SHARE:
            spec = QuerySpec(
                "EntrezProtein", "name", "ABCC8", ("GOTerm",),
                method="reliability",
                options=RankingOptions(trials=300),
                seed=rng.randrange(2**31),
            )
        else:
            spec = QuerySpec(
                "EntrezProtein", "name", "ABCC8", ("GOTerm",),
                method=rng.choice(self._DETERMINISTIC),
            )
        body: Body = spec.to_dict()
        if rng.random() < 0.8:
            body["limit"] = 20
        return body


class MediatedChurn(Workload):
    name = "mediated-churn"
    why = (
        "roots drawn from 8x the query cache, so most requests build "
        "cold through storage, integration and compile"
    )
    open_rate_rps = 20.0
    #: 8x EngineConfig.max_cached_graphs (256)
    _ROOTS = 2048

    def shape(self, quick: bool) -> Dict[str, int]:
        if quick:
            return {"layers": 3, "width": 400, "fan_out": 4, "roots": 400}
        return {"layers": 4, "width": 4096, "fan_out": 4, "roots": self._ROOTS}

    def generate(self, seed: int, quick: bool) -> object:
        shape = self.shape(quick)
        return mediated_layers(
            layers=shape["layers"], width=shape["width"],
            fan_out=shape["fan_out"], storage="vectorized", rng=seed,
        )

    def request(self, rng: random.Random, shape: Dict[str, int]) -> Body:
        return _mediated_spec(
            rng.randrange(shape["roots"]),
            f"E{shape['layers'] - 1}",
            rng.choice(("in_edge", "path_count")),
            20,
        )


class RefreshThread(Workload):
    name = "refresh-thread"
    why = (
        "a writer refreshes answer-layer weights every 100 ms beside "
        "reads on 2 thread shards, so reads repair incrementally"
    )
    shards = 2
    open_rate_rps = 25.0
    writes = True
    HOT_ROOTS = 8
    METHODS = ("in_edge", "propagation")

    def shape(self, quick: bool) -> Dict[str, int]:
        if quick:
            return {"layers": 3, "width": 300, "fan_out": 3}
        return {"layers": 4, "width": 5000, "fan_out": 5}

    def generate(self, seed: int, quick: bool) -> object:
        shape = self.shape(quick)
        return mediated_layers(
            layers=shape["layers"], width=shape["width"],
            fan_out=shape["fan_out"], storage="vectorized",
            shards=self.shards, rng=seed,
        )

    def hot_bodies(self, shape: Dict[str, int]) -> List[Body]:
        last = f"E{shape['layers'] - 1}"
        return [
            _mediated_spec(root, last, method, 20)
            for root in range(self.HOT_ROOTS)
            for method in self.METHODS
        ]

    def request(self, rng: random.Random, shape: Dict[str, int]) -> Body:
        return rng.choice(self.hot_bodies(shape))


class ShardedHot(Workload):
    name = "sharded-hot"
    why = (
        "16 cache-resident specs on 2 worker processes: cost is HTTP, "
        "two JSON-RPC hops, merge and encode"
    )
    shards = 2
    shard_mode = "process"
    open_rate_rps = 25.0
    _ROOTS = 8

    def shape(self, quick: bool) -> Dict[str, int]:
        if quick:
            return {"layers": 3, "width": 200, "fan_out": 3}
        return {"layers": 3, "width": 2000, "fan_out": 4}

    def generate(self, seed: int, quick: bool) -> object:
        shape = self.shape(quick)
        return mediated_layers(
            layers=shape["layers"], width=shape["width"],
            fan_out=shape["fan_out"], seeds=2, storage="vectorized",
            shards=self.shards, rng=seed,
        )

    def request(self, rng: random.Random, shape: Dict[str, int]) -> Body:
        return _mediated_spec(
            rng.randrange(self._ROOTS),
            f"E{shape['layers'] - 1}",
            rng.choice(("in_edge", "path_count")),
            20,
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (Abcc8Rank(), MediatedChurn(), RefreshThread(), ShardedHot())
}


# ------------------------------------------------------------------ #
# the refresh-thread writer
# ------------------------------------------------------------------ #


def answer_ids_by_shard(inputs: object) -> List[List[str]]:
    """Answer-layer record ids grouped by owning shard, sorted."""
    router = inputs.router  # type: ignore[attr-defined]
    last = inputs.entity_sets[-1]  # type: ignore[attr-defined]
    table = inputs.mediator.entity_plan(last).table  # type: ignore[attr-defined]
    owned: List[List[str]] = [[] for _ in range(router.shards)]
    for row in table.rows():
        owned[router.owner(last, row["id"])].append(row["id"])
    return [sorted(ids) for ids in owned]


def write_batch(
    seed: int, batch: int, ids_by_shard: Sequence[Sequence[str]]
) -> Tuple[int, Dict[str, float]]:
    """Batch ``batch`` of the writer: (shard, record id -> new ``w``).

    All rows of one batch belong to one shard, so a batch lands as a
    single ``update_many`` on that shard's table: a sharded read then
    sees each batch entirely or not at all, and the reference can
    replay the writes as a sequence of whole-batch states."""
    rng = stream(seed, "refresh-thread", f"write:{batch}")
    shard = batch % len(ids_by_shard)
    ids = rng.sample(list(ids_by_shard[shard]), WRITE_ROWS)
    return shard, {record: rng.uniform(*_WEIGHT_RANGE) for record in ids}


def row_ids_by_record(table) -> Dict[str, int]:
    """Record id -> storage row id of one entity table."""
    return {table.get(row_id)["id"]: row_id for row_id in table.row_ids()}
