"""The session facade: one front door over mediator + engine.

:func:`open_session` wires sources into a
:class:`~repro.integration.mediator.Mediator`, wraps it in a
:class:`~repro.engine.RankingEngine` configured by an
:class:`~repro.api.config.EngineConfig`, and returns a :class:`Session`
— the single object examples, experiments, workloads and any future
HTTP layer talk to::

    with open_session(sources=[...]) as session:
        results = session.execute(
            Query.on("EntrezProtein").where(name="ABCC8")
                 .outputs("GOTerm").rank_by("reliability").top(10)
        )

Every execution scatters the spec to its relevant shards and merges
their fragments (:mod:`repro.engine.sharded`). Unsharded means one
shard owning every answer, whose engine is :attr:`Session.engine`.

``execute_many`` runs independent specs as a batch through the same
single-flight as ``execute``: identical specs are answered once, the
flights the batch leads share one admission and run on a thread pool.
Specs that share a traversal (same entity set, attribute and value)
share one graph materialisation per shard, in a batch or not: output
sets only pick answers among the records reached, and each shard
engine's query cache keys the expansion alone. ``explain`` answers
"what would this spec cost and where would it be served from" with
build statistics and cache provenance.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

if TYPE_CHECKING:
    from repro.analysis.framework import AnalysisReport
    from repro.serving.engine import ProcessShardedEngine
    from repro.serving.source import WorkerSource
    from repro.storage.database import Database

from repro.api.config import EngineConfig, RankingOptions
from repro.api.result import ResultSet, ShardedResultSet
from repro.api.spec import Query, QuerySpec
from repro.async_.admission import AdmissionGate
from repro.core.graph import QueryGraph
from repro.core.ranker import RankedResult
from repro.engine.ranking import EngineStats, RankingEngine, SingleFlight
from repro.engine.sharded import GatherResult, HashPartitioner, ShardedEngine, ShardRouter
from repro.errors import OverloadedError, QueryError, RankingError, ReproError
from repro.integration.builder import BuildStats
from repro.integration.mediator import Mediator
from repro.integration.probability import ConfidenceRegistry
from repro.integration.sources import DataSource

__all__ = ["Explanation", "Session", "open_session"]

SpecLike = Union[QuerySpec, Query, Mapping[str, object]]
_T = TypeVar("_T")


@dataclass(frozen=True)
class Explanation:
    """Where a spec's answer comes from and what it costs.

    Produced by :meth:`Session.explain`; the spec *is* executed (builds
    and ranks through the ordinary path), so explaining a query warms
    the caches for it.
    """

    spec: QuerySpec
    #: served from the engine's epoch-guarded query cache?
    graph_cached: bool
    #: ranked from the fingerprint-keyed score cache?
    score_cached: bool
    #: the query graph's size; summed over the shard builds unless one
    #: shard owns every answer (replicated ancestors count per shard)
    nodes: int
    edges: int
    answers: int
    #: stats of the original materialisation (also when cache-served)
    build_stats: BuildStats
    #: content fingerprint of the compiled query graph, once compiled,
    #: when one shard owns every answer (else there is no one graph)
    fingerprint: Optional[str]
    build_seconds: float
    rank_seconds: float
    #: cumulative engine counters after this execution
    engine_stats: Dict[str, object]

    def as_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_dict(),
            "graph_cached": self.graph_cached,
            "score_cached": self.score_cached,
            "nodes": self.nodes,
            "edges": self.edges,
            "answers": self.answers,
            "dangling_links": self.build_stats.dangling_links,
            "fingerprint": self.fingerprint,
            "build_seconds": self.build_seconds,
            "rank_seconds": self.rank_seconds,
            "engine_stats": self.engine_stats,
        }

    def __str__(self) -> str:
        graph_src = "query cache" if self.graph_cached else "a cold build"
        score_src = "score cache" if self.score_cached else "the kernels"
        return (
            f"{self.spec.entity_set}.{self.spec.attribute}="
            f"{self.spec.value!r} -> {sorted(self.spec.outputs)} "
            f"[{self.spec.method}]: graph {self.nodes}n/{self.edges}e "
            f"({self.answers} answers) from {graph_src} "
            f"({self.build_seconds * 1e3:.2f} ms), scores from {score_src} "
            f"({self.rank_seconds * 1e3:.2f} ms)"
        )


def _whole_graph_result(gathered: GatherResult, spec: QuerySpec) -> ResultSet:
    """An unsharded session's result, over its one shard's graph (which
    is the whole query graph)."""
    ranked = RankedResult(method=gathered.method, scores=gathered.scores)
    return ResultSet(ranked, gathered.fragments[0].graph, spec=spec)  # type: ignore[arg-type]


class Session:
    """A configured mediator + engine pair behind one stable surface.

    Construct via :func:`open_session` (or directly around an existing
    :class:`~repro.integration.mediator.Mediator`). Sessions are
    context managers; closing drops the engine caches.
    """

    def __init__(
        self,
        mediator: Optional[Mediator] = None,
        config: Optional[EngineConfig] = None,
        router: Optional[ShardRouter] = None,
        worker_source: Optional["WorkerSource"] = None,
    ) -> None:
        self._config = config or EngineConfig()
        self._mediator = mediator if mediator is not None else Mediator()
        # scatter/gather wiring: an explicit router (pre-partitioned
        # storage, e.g. mediated_layers(shards=)) wins; otherwise
        # config.shards > 1 derives partition views from the mediator
        if router is not None and self._config.shards not in (1, router.shards):
            raise QueryError(
                f"config.shards={self._config.shards} contradicts the "
                f"router's {router.shards} shards"
            )
        if router is None and self._config.shards > 1:
            router = ShardRouter.partition(self._mediator, self._config.shards)
        self._router = router
        #: the one scatter/gather engine every execution runs through
        self._scatter: Union[ShardedEngine, "ProcessShardedEngine"]
        if router is not None and self._config.shard_mode == "process":
            if worker_source is None:
                raise QueryError(
                    'shard_mode="process" needs a worker_source recipe: '
                    "worker processes cannot inherit live mediators, they "
                    "rebuild their shard from a WorkerSource (see "
                    "MediatedWorkload.worker_source())"
                )
            # imported lazily: repro.serving pulls repro.api in, and
            # this module is imported while repro.api initialises
            from repro.serving.engine import ProcessShardedEngine

            self._scatter = ProcessShardedEngine(
                router,
                worker_source,
                self._config.engine_options(),
                rpc_timeout=self._config.rpc_timeout,
                worker_restarts=self._config.worker_restarts,
            )
        elif worker_source is not None:
            raise QueryError(
                'worker_source only applies to a sharded session with '
                'shard_mode="process"'
            )
        else:
            self._scatter = ShardedEngine(
                router or ShardRouter([self._mediator], HashPartitioner(1)),
                self._config.engine_options(),
            )
        self._engine = (
            self._config.make_engine(self._mediator)
            if router is not None
            else self._scatter.engines[0]  # type: ignore[union-attr]
        )
        #: wraps a gathered spec: unsharded results keep the whole graph
        self._result: Callable[..., ResultSet] = (
            _whole_graph_result
            if router is None
            else partial(ShardedResultSet, engine=self._scatter)
        )
        # the execute_many pool: created lazily on the first parallel
        # batch, reused across calls, reaped by close()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._admission: Optional[AdmissionGate] = None
        if self._config.max_queue_depth is not None:
            self._admission = AdmissionGate(
                self._config.max_concurrency,
                self._config.max_queue_depth,
                retry_after=self._config.retry_after,
                on_queued=self._engine.note_queued,
                on_shed=self._engine.note_shed,
            )
        #: the shard engines when the session retains settled answers,
        #: else empty: only shards that run in this process and cache
        #: graphs and scores (a caches-off reference session never does)
        self._retaining: Sequence[RankingEngine] = (
            self._scatter.engines  # type: ignore[union-attr]
            if self._scatter.mode == "thread"
            and self._config.cache_graphs
            and self._config.cache_scores
            else ()
        )
        #: spec -> its pending execution, and its settled answers (LRU,
        #: as many as the query cache holds); every front door joins here
        self._inflight = SingleFlight(retain=self._config.max_cached_graphs)
        self._closed = False

    # -------------------------------------------------------------- #
    # plumbing access (escape hatches, not the primary surface)
    # -------------------------------------------------------------- #

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def mediator(self) -> Mediator:
        return self._mediator

    @property
    def engine(self) -> RankingEngine:
        """The engine over the session's own mediator, used by
        :meth:`rank`/:meth:`rank_many` on pre-built graphs. It is an
        unsharded session's one shard, so they share the execution
        caches."""
        return self._engine

    @property
    def sharded(self) -> bool:
        """Whether mediated execution scatters across shards."""
        return self._router is not None

    @property
    def router(self) -> Optional[ShardRouter]:
        return self._router

    @property
    def sharded_engine(self) -> Optional[ShardedEngine]:
        """The thread-mode scatter/gather engine (``None`` unless the
        session is sharded with ``shard_mode="thread"``)."""
        return self._scatter if self.sharded and self._scatter.mode == "thread" else None  # type: ignore[return-value]

    @property
    def process_engine(self) -> Optional["ProcessShardedEngine"]:
        """The process-mode scatter/gather engine (``None`` unless the
        session was opened with ``shard_mode="process"``)."""
        return self._scatter if self._scatter.mode == "process" else None  # type: ignore[return-value]

    @property
    def admission(self) -> Optional[AdmissionGate]:
        """The session's bounded admission gate, or ``None`` when the
        config leaves admission unbounded (``max_queue_depth=None``).

        Built from ``config.max_concurrency`` /
        ``config.max_queue_depth`` / ``config.retry_after`` and wired to
        the engine's queued/shed counters. Every front door admits
        through it once per flight leader, batch that leads a flight,
        or explanation; not a request served by a settled answer, nor a
        call made inside ``with session.admission:`` on the same
        thread, which leads its own flight rather than follow one
        queued behind its slot. Closing the session fails every queued
        request."""
        return self._admission

    def register(self, *sources: DataSource) -> "Session":
        """Register additional data sources (chainable).

        The source is registered with the session's mediator *and*
        replicated into every other shard mediator — execution runs
        against the shards, and a replicated (unpartitioned) source
        keeps every answer's ancestor closure shard-complete, so the
        equivalence guarantee is preserved. A source that would hang a
        new outgoing relationship off a *partitioned* entity set is
        rejected up front (it would break that guarantee).
        """
        self._check_open()
        if self.process_engine is not None:
            raise QueryError(
                "cannot register sources on a process-sharded session: "
                "the shard mediators live in worker processes that "
                "rebuild from the worker-source recipe; regenerate the "
                "workload (or recipe) with the new source instead"
            )
        router = self._scatter.router
        for source in sources:
            router.check_registrable(source)
        for source in sources:
            self._mediator.register(source)
            for shard_mediator in router.mediators:
                if shard_mediator is not self._mediator:
                    shard_mediator.register(source)
        return self

    def create_database(self, name: str = "db") -> "Database":
        """A new :class:`~repro.storage.database.Database` on this
        session's configured storage backend.

        With ``EngineConfig(storage="sqlite", storage_path=...)`` the
        database persists to ``<storage_path>/<name>.sqlite``; source
        generators can load it once and serve every later session from
        disk through the warm query cache.

        Example::

            >>> from repro.api import EngineConfig, open_session
            >>> session = open_session(config=EngineConfig(storage="vectorized"))
            >>> session.create_database("genes").storage
            'vectorized'
        """
        self._check_open()
        return self._config.make_database(name)

    # -------------------------------------------------------------- #
    # execution
    # -------------------------------------------------------------- #

    def execute(self, spec: SpecLike) -> ResultSet:
        """Execute one spec end to end: materialise (or cache-hit) the
        query graph, rank it, and wrap the answers in a
        :class:`~repro.api.result.ResultSet`.

        ``spec`` may be a :class:`~repro.api.spec.QuerySpec`, an
        unbuilt :class:`~repro.api.spec.Query` builder, or a spec dict.

        Example (over a generated two-layer workload)::

            >>> from repro.workloads import mediated_layers
            >>> workload = mediated_layers(layers=2, width=4, fan_out=2, rng=7)
            >>> with workload.open_session() as session:
            ...     results = session.execute(workload.spec(method="path_count"))
            ...     results[0].entity_set, len(results) > 0
            ('E1', True)

        A deterministic spec answered before at the same token (the
        epochs of the mediators it reads and, where answers are retained,
        their engines' generations) is served from that settled answer: no
        gather, no flight, no admission. Identical concurrent specs
        started at the same token share one execution, admitted once
        through :attr:`admission`.
        """
        spec = self._coerce(spec)
        found, leader = self._join(spec)  # checks the session is open
        if leader is None:
            return found
        if leader:
            self._lead([(spec, found)])
        return found.result()

    def _join(self, spec: QuerySpec) -> Tuple[Any, Optional[bool]]:
        """``spec``'s settled answer as a fresh result (``None``), or its
        flight to join (``False``) or lead (``True``). A settled answer
        counts a graph and a score hit on every relevant shard; a
        follower counts as coalesced, or as shed when its leader is. A
        caller holding an admission slot never follows: the pending
        leader may be queued behind that very slot, so the caller leads
        a flight of its own, which is admitted already."""
        self._check_open()
        router, engines = self._scatter.router, self._retaining
        relevant = router.relevant_shards(spec)
        token = [router.mediators[shard].epoch for shard in relevant]
        if engines:
            token.extend(engines[shard].generation for shard in relevant)
        gate = self._admission
        found, leader = self._inflight.join(
            spec, token, follow=gate is None or not gate.held()
        )
        if leader is None:
            for shard in relevant:
                engines[shard].note_hit()
            return self._result(found.copy(), spec=spec), None
        if not leader:
            self._engine.note_coalesced()
            found.add_done_callback(self._recount_shed)
        return found, leader

    def _recount_shed(self, flight: "Future[ResultSet]") -> None:
        if isinstance(flight.exception(), OverloadedError):
            self._engine.note_coalesced(-1)
            self._engine.note_shed()

    def _settle(
        self, spec: QuerySpec, flight: "Future[ResultSet]", gathered: GatherResult
    ) -> None:
        """Resolve ``spec``'s flight with ``gathered`` as the result every
        waiter shares. ``gathered`` is retained as the settled answer
        when the session retains answers and ``spec`` is deterministic:
        Monte Carlo clients tend to draw a fresh seed per request, so a
        seeded answer is seldom asked for again, and a repeated seed is
        a score-cache hit anyway. The shared result then gets its own
        scores."""
        retain = bool(self._retaining) and not (
            spec.method == "reliability" and spec.options.is_stochastic
        )
        result = self._result(gathered.copy() if retain else gathered, spec=spec)
        self._inflight.settle(spec, flight, result, retain=gathered if retain else None)

    def _admitted(self, fn: Callable[..., _T], *args: object) -> _T:
        """``fn(*args)`` under one admission through :attr:`admission`,
        unless unbounded or the calling thread holds a slot already."""
        gate = self._admission
        if gate is None or gate.held():
            return fn(*args)
        with gate:
            return fn(*args)

    def _gather(self, spec: QuerySpec) -> GatherResult:
        """``spec`` gathered, neither admitted nor coalesced."""
        return self._scatter.gather(spec)

    def _lead(
        self,
        flights: List[Tuple[QuerySpec, "Future[ResultSet]"]],
        max_workers: Optional[int] = None,
    ) -> None:
        """Gather and settle the flights this caller leads, under one
        admission. A refused admission, or an interrupt, settles every
        flight still pending with its error and raises it."""
        try:
            self._admitted(self._run_flights, flights, max_workers)
        except BaseException as exc:
            for spec, flight in flights:
                if not flight.done():
                    self._inflight.settle(spec, flight, error=exc)
            raise

    def _run_flights(
        self,
        flights: List[Tuple[QuerySpec, "Future[ResultSet]"]],
        max_workers: Optional[int],
    ) -> None:
        """Settle each flight with its gathered result or its error, on
        the session pool when there are several. Flights that share a
        traversal run in order on one thread, so the first expands it
        and the rest are answered from the shard caches."""
        by_traversal: Dict[Tuple, List[Tuple[QuerySpec, "Future[ResultSet]"]]] = {}
        for flight in flights:
            by_traversal.setdefault(flight[0].traversal_signature, []).append(flight)

        def run(group: List[Tuple[QuerySpec, "Future[ResultSet]"]]) -> None:
            for spec, flight in group:
                try:
                    self._settle(spec, flight, self._gather(spec))
                except Exception as exc:  # this spec's own outcome
                    self._inflight.settle(spec, flight, error=exc)

        groups = list(by_traversal.values())
        workers = self._config.max_workers if max_workers is None else max_workers
        if workers <= 1 or len(groups) == 1:
            for group in groups:
                run(group)
        elif workers == self._config.max_workers:
            # the session's persistent pool: repeated batches pay no
            # thread spawn/teardown
            list(self._executor().map(run, groups))
        else:
            # an explicit non-default width gets a transient pool of
            # exactly that size
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run, groups))

    def execute_many(
        self,
        specs: Iterable[SpecLike],
        max_workers: Optional[int] = None,
        return_errors: bool = False,
    ) -> List[Union[ResultSet, ReproError]]:
        """Execute a batch of independent specs, set-at-a-time.

        Each distinct spec runs as :meth:`execute` runs it: a settled
        answer serves it, an identical spec in flight is joined, and
        otherwise the batch leads its flight. The flights the batch
        leads share one admission and run on a thread pool of
        ``max_workers`` threads (default: the session config's
        ``max_workers``); specs that share a traversal (same entity
        set / attribute / value) build it once per shard whatever their
        output sets. Identical specs share one result.

        Results come back in spec order. With ``return_errors=True`` a
        failing spec yields its library error in place instead of
        raising.

        Example::

            >>> from repro.workloads import mediated_layers
            >>> workload = mediated_layers(layers=3, width=4, fan_out=2, rng=7)
            >>> batch = workload.serving_batch(methods=("in_edge",))
            >>> with workload.open_session() as session:
            ...     results = session.execute_many(batch)
            ...     len(results) == len(batch)
            True
        """
        self._check_open()
        coerced = [self._coerce(spec) for spec in specs]
        joined = {spec: self._join(spec) for spec in dict.fromkeys(coerced)}
        led = [(spec, found) for spec, (found, leader) in joined.items() if leader]
        if led:
            self._lead(led, max_workers)
        # followers wait only once the batch's slot is given back: their
        # leaders may be queued behind it
        results: List[Union[ResultSet, ReproError]] = []
        for spec in coerced:
            found, leader = joined[spec]
            if leader is not None:
                error = found.exception()
                if error is not None and not (return_errors and isinstance(error, ReproError)):
                    raise error
                found = error or found.result()
            results.append(found)
        return results

    def _executor(self) -> ThreadPoolExecutor:
        """The session's persistent batch pool (lazily created, sized
        ``config.max_workers``, reaped by :meth:`close`)."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._config.max_workers,
                    thread_name_prefix="repro-batch",
                )
            return self._pool

    # -------------------------------------------------------------- #
    # ranking pre-built graphs
    # -------------------------------------------------------------- #

    def rank(
        self,
        graph: QueryGraph,
        method: str = "reliability",
        options: Optional[Union[RankingOptions, Mapping[str, object]]] = None,
        seed: Optional[int] = None,
    ) -> ResultSet:
        """Rank an already-materialised query graph (synthetic
        workloads, generated cases) through the session's engine.
        ``options`` accepts a :class:`RankingOptions` or a plain
        mapping of its fields."""
        self._check_open()
        if options is None:
            options = RankingOptions()
        elif not isinstance(options, RankingOptions):
            options = RankingOptions.from_dict(options)
        ranked = self._engine.rank(graph, method, **options.to_kwargs(method, seed))
        return ResultSet(ranked, graph)

    def rank_many(self, targets: Iterable[object], **kwargs: object) -> List:
        """Batch passthrough to
        :meth:`~repro.engine.RankingEngine.rank_many` (experiment
        drivers that sweep methods over shared compilations)."""
        self._check_open()
        return self._engine.rank_many(targets, **kwargs)

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    def explain(self, spec: SpecLike) -> Explanation:
        """Execute ``spec`` and report build stats, sizes, timings and
        cache provenance (graph/score cache vs fresh computation).

        Example (the second run is served from the caches)::

            >>> from repro.workloads import mediated_layers
            >>> workload = mediated_layers(layers=2, width=4, fan_out=2, rng=7)
            >>> spec = workload.spec(method="in_edge")
            >>> with workload.open_session() as session:
            ...     first = session.explain(spec)
            ...     second = session.explain(spec)
            >>> first.graph_cached, second.graph_cached, second.score_cached
            (False, True, True)
        """
        self._check_open()
        spec = self._coerce(spec)
        gathered = self._admitted(self._scatter.gather, spec)
        return Explanation(
            spec=spec,
            graph_cached=gathered.graph_cached,
            score_cached=gathered.score_cached,
            nodes=gathered.nodes,
            edges=gathered.edges,
            answers=len(gathered.scores),
            build_stats=gathered.build_stats,
            fingerprint=gathered.fingerprint,
            build_seconds=gathered.build_seconds,
            rank_seconds=gathered.rank_seconds,
            engine_stats=self.stats_snapshot().as_dict(),
        )

    def lint(
        self,
        select: Optional[Sequence[str]] = None,
        suppressions: Sequence[Mapping[str, object]] = (),
    ) -> "AnalysisReport":
        """Run the static detector suite over this session's schema.

        Returns an :class:`~repro.analysis.AnalysisReport`; ``select``
        restricts the run to the named REPRO codes and ``suppressions``
        silences matching findings (see
        :func:`repro.analysis.load_baseline`). Linting is read-only: it
        never moves the mediator epoch, a table version or an engine
        cache counter.

        Example::

            >>> from repro.workloads import mediated_layers
            >>> with mediated_layers(layers=2, width=4, rng=7).open_session() as session:
            ...     session.lint().exit_code
            0
        """
        self._check_open()
        from repro.analysis import AnalysisContext, run_analysis

        context = AnalysisContext.from_session(self)
        return run_analysis(context, select=select, suppressions=suppressions)

    def stats(self) -> EngineStats:
        """The cumulative cache-effectiveness counters, summed over the
        shards (a fresh snapshot); per-shard counters are on
        :meth:`shard_stats`."""
        return self.stats_snapshot()

    def stats_snapshot(self) -> EngineStats:
        """A lock-consistent copy of the counters.

        Session-level admission and coalescing are recorded on the
        *local* engine; they are folded into the shard aggregate so the
        serving surface reports them in one place (an unsharded
        session's local engine is its one shard: already summed)."""
        aggregate = self._scatter.stats_snapshot()
        if self._router is None:
            return aggregate
        local = self._engine.stats_snapshot()
        aggregate.coalesced_queries += local.coalesced_queries
        aggregate.queued_queries += local.queued_queries
        aggregate.shed_queries += local.shed_queries
        return aggregate

    def shard_stats(self) -> List[EngineStats]:
        """Per-shard counter snapshots (empty when unsharded)."""
        return self._scatter.shard_stats() if self.sharded else []

    def reset_stats(self) -> None:
        self._engine.reset_stats()
        self._scatter.reset_stats()

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #

    def close(self) -> None:
        """Drop all cached state; further execution raises.

        On a process-sharded session this also reaps every worker
        process and releases their sockets (graceful shutdown RPC
        first, SIGKILL as the backstop) — no zombies survive a closed
        session. Idempotent: closing twice is a no-op, and the engine
        teardown runs even if cache invalidation raises."""
        if not self._closed:
            self._closed = True
            self._inflight = SingleFlight()  # drops the settled answers
            if self._admission is not None:
                # requests queued for a slot fail now, not when the
                # running ones give their slots back
                self._admission.fail_queued(RankingError("this session is closed"))
            try:
                self._engine.invalidate()
            finally:
                with self._pool_lock:
                    pool, self._pool = self._pool, None
                if pool is not None:
                    pool.shutdown(wait=True)
                self._scatter.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"<Session {state} sources={len(self._mediator.sources)} "
            f"shards={self._scatter.shards} ({self._scatter.mode})>"
        )

    # -------------------------------------------------------------- #
    # helpers
    # -------------------------------------------------------------- #

    def _check_open(self) -> None:
        if self._closed:
            raise RankingError("this session is closed")

    @staticmethod
    def _coerce(spec: SpecLike) -> QuerySpec:
        if isinstance(spec, QuerySpec):
            return spec
        if isinstance(spec, Query):
            return spec.build()
        if isinstance(spec, Mapping):
            return QuerySpec.from_dict(spec)
        raise QueryError(
            f"cannot execute {type(spec).__name__}; expected a QuerySpec, "
            f"a Query builder, or a spec dict"
        )


def open_session(
    sources: Iterable[DataSource] = (),
    mediator: Optional[Mediator] = None,
    confidences: Optional[ConfidenceRegistry] = None,
    config: Optional[EngineConfig] = None,
    shards: Optional[int] = None,
    router: Optional[ShardRouter] = None,
    worker_source: Optional["WorkerSource"] = None,
    lint: str = "off",
) -> Session:
    """Open a :class:`Session` over the given data sources.

    Either pass ``sources`` (plus optional ``confidences``) to build a
    fresh mediator, or an existing ``mediator`` to wrap; passing both a
    mediator and sources/confidences is ambiguous and rejected. With
    neither, the session starts empty — usable for ranking pre-built
    graphs and for registering sources later (unsharded sessions only).

    ``shards=N`` (shorthand for ``config.shards``) turns the session
    into a scatter/gather deployment: the mediator is partitioned into
    N views over its sink entity sets and every spec executes across N
    child engines, with rankings identical to the unsharded session.
    The partition layout is derived at open time, so a sharded session
    must be opened *with* its sources; further sources can still be
    registered later (they are replicated to every shard).
    An explicit ``router`` wires pre-partitioned per-shard mediators
    instead (see :func:`repro.workloads.mediated_layers` with
    ``shards=``).

    With ``config.shard_mode="process"`` the shards are promoted to
    supervised worker *processes* (see :mod:`repro.serving`); that mode
    additionally needs a ``worker_source`` recipe telling each worker
    how to rebuild its shard mediator —
    :meth:`~repro.workloads.mediated.MediatedWorkload.open_session`
    wires it automatically for generated workloads.

    ``lint`` gates the schema through :mod:`repro.analysis` at open
    time: ``"warn"`` emits a :class:`UserWarning` per finding,
    ``"error"`` additionally **refuses** the session — closing it and
    raising :class:`~repro.errors.AnalysisError` — when any
    error-severity detection fires (default ``"off"``).

    Example::

        >>> with open_session() as session:
        ...     session.closed
        False
        >>> session.closed
        True
    """
    sources = tuple(sources)
    if mediator is not None and (sources or confidences is not None):
        raise QueryError(
            "pass either an existing mediator or sources/confidences to "
            "build one, not both"
        )
    if mediator is None:
        mediator = Mediator(confidences=confidences)
        for source in sources:
            mediator.register(source)
    if shards is not None:
        from dataclasses import replace

        base = config or EngineConfig()
        if base.shards not in (1, shards):
            raise QueryError(
                f"shards={shards} contradicts config.shards={base.shards}"
            )
        config = replace(base, shards=shards)
    if lint not in ("off", "warn", "error"):
        raise QueryError(
            f'lint must be "off", "warn" or "error", got {lint!r}'
        )
    session = Session(
        mediator=mediator, config=config, router=router,
        worker_source=worker_source,
    )
    if lint != "off":
        import warnings as _warnings

        from repro.analysis import Severity
        from repro.errors import AnalysisError

        report = session.lint()
        for detection in report.detections:
            _warnings.warn(str(detection), stacklevel=2)
        if lint == "error":
            errors = report.by_severity(Severity.ERROR)
            if errors:
                session.close()
                codes = sorted({d.code for d in errors})
                raise AnalysisError(
                    f"schema rejected by static analysis: "
                    f"{len(errors)} error-severity detection(s) "
                    f"({', '.join(codes)}); fix them, suppress them via "
                    f"Session.lint(suppressions=...), or open with "
                    f"lint='warn'",
                    detections=errors,
                )
    return session
