"""The batched ranking engine.

:class:`RankingEngine` is the serving layer the ROADMAP's production
north star asks for: it wraps a
:class:`~repro.integration.mediator.Mediator`, executes batches of
:class:`~repro.integration.query.ExploratoryQuery`\\ s, and ranks the
resulting query graphs through the compiled CSR kernels — compiling
each graph once and memoising per-method scores keyed by the compiled
graph's content fingerprint, so repeated or structurally identical
requests (the common case under heavy traffic) cost a dictionary probe
instead of a scoring pass.

Three caches cooperate:

* the **query cache** maps an exploratory query's canonical signature
  to the materialised ``QueryGraph`` plus the mediator's *epoch
  snapshot* at execution (bounded LRU). The snapshot records a version
  per bound table, so a probe can ask the mediator precisely *which*
  tables changed (:meth:`~repro.integration.mediator.Mediator.changes_since`)
  instead of discarding the entry on any epoch movement. Changes to
  tables the cached build never read still count as hits; changes to
  tables it did read are replayed through the recorded probe cache
  (:mod:`repro.integration.incremental`) to *repair* the entry — a
  rebuild that re-probes storage only for dirty keys and patches the
  compiled CSR in place, bit-identical to a cold rebuild. Source
  registrations, confidence tuning and overflowed change logs still
  invalidate cold. ``incremental=False`` disables recording and
  repair (every relevant change then re-materialises cold);
* the **compile cache** maps live ``QueryGraph`` objects to their
  :class:`~repro.core.compile.CompiledGraph` (weakly keyed, so graphs
  are evicted when the caller drops them). Beside it, a weakly keyed
  memo holds the compiled *reduced* graph that the reducing Monte Carlo
  reliability strategies sample, so a fresh seed pays only the kernel;
* the **score cache** maps ``(fingerprint, method, options)`` to
  computed scores, bounded LRU, each entry packed as a keys tuple plus
  one float64 array. Only deterministic requests are cached:
  Monte Carlo reliability is cacheable only when seeded with an
  integer, and options carrying stateful generators bypass the cache.

Mutating a query graph after ranking it through an engine invalidates
nothing automatically — compile once, then treat graphs as immutable
(or call :meth:`RankingEngine.invalidate`).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro.core.compile import CompiledGraph, compile_graph, patch_compiled
from repro.core.graph import QueryGraph
from repro.core.kernels import reduced_compiled, samples_reduced_graph
from repro.core.ranker import BACKENDS, RankedResult, rank, resolve_method
from repro.core.reliability import STOCHASTIC_STRATEGIES
from repro.errors import RankingError
from repro.integration.builder import BuildStats
from repro.integration.incremental import ProbeCache, record_build, repair_build
from repro.integration.mediator import Mediator, MediatorEpoch
from repro.integration.query import BUILDERS, ExploratoryQuery
from repro.storage.changes import ChangeSet
from repro.storage.table import Table

__all__ = ["EngineStats", "RankingEngine", "SingleFlight"]

NodeId = Hashable

_T = TypeVar("_T")

Rankable = Union[QueryGraph, ExploratoryQuery]

#: reliability strategies whose scores are sampling-based (shared with
#: the public RankingOptions so seed/cache rules cannot diverge)
_STOCHASTIC_STRATEGIES = STOCHASTIC_STRATEGIES


def _hit_rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


@dataclass
class EngineStats:
    """Cache effectiveness counters (cumulative over the engine's life)."""

    compile_hits: int = 0
    compile_misses: int = 0
    score_hits: int = 0
    score_misses: int = 0
    graph_hits: int = 0
    graph_misses: int = 0
    #: cached graphs brought current by a delta replay instead of a cold
    #: rebuild — counted as neither a graph hit nor a graph miss
    graph_repairs: int = 0
    #: executions answered by awaiting an identical *in-flight*
    #: traversal (single-flight coalescing) — neither a hit nor a miss:
    #: no traversal ran for them, but the entry was not in the cache yet
    coalesced_queries: int = 0
    #: admissions that waited for an in-flight slot before executing
    queued_queries: int = 0
    #: admissions refused outright because the admission queue was full
    #: (each surfaced to the caller as an ``OverloadedError``)
    shed_queries: int = 0
    queries_executed: int = 0

    def reset(self) -> None:
        self.compile_hits = 0
        self.compile_misses = 0
        self.score_hits = 0
        self.score_misses = 0
        self.graph_hits = 0
        self.graph_misses = 0
        self.graph_repairs = 0
        self.coalesced_queries = 0
        self.queued_queries = 0
        self.shed_queries = 0
        self.queries_executed = 0

    # ------------------------------------------------------------ #
    # derived rates and ops-friendly views
    # ------------------------------------------------------------ #

    @property
    def graph_hit_rate(self) -> float:
        """Query-cache hit rate in [0, 1] (0.0 before any probe)."""
        return _hit_rate(self.graph_hits, self.graph_misses)

    @property
    def compile_hit_rate(self) -> float:
        return _hit_rate(self.compile_hits, self.compile_misses)

    @property
    def score_hit_rate(self) -> float:
        return _hit_rate(self.score_hits, self.score_misses)

    def snapshot(self) -> "EngineStats":
        """A point-in-time copy (for before/after deltas)."""
        return EngineStats(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )

    @classmethod
    def aggregate(cls, parts: Iterable["EngineStats"]) -> "EngineStats":
        """Field-wise sum — how a sharded engine reports the combined
        cache effectiveness of its children."""
        total = cls()
        for part in parts:
            for f in fields(cls):
                setattr(total, f.name, getattr(total, f.name) + getattr(part, f.name))
        return total

    def as_dict(self) -> Dict[str, object]:
        """Counters plus derived rates, ready for structured logging."""
        data: Dict[str, object] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        data["graph_hit_rate"] = self.graph_hit_rate
        data["compile_hit_rate"] = self.compile_hit_rate
        data["score_hit_rate"] = self.score_hit_rate
        return data

    def __str__(self) -> str:
        return (
            f"EngineStats(queries={self.queries_executed}, "
            f"graph {self.graph_hits}/{self.graph_hits + self.graph_misses} "
            f"({self.graph_hit_rate:.0%}), "
            f"compile {self.compile_hits}/"
            f"{self.compile_hits + self.compile_misses} "
            f"({self.compile_hit_rate:.0%}), "
            f"score {self.score_hits}/{self.score_hits + self.score_misses} "
            f"({self.score_hit_rate:.0%}))"
        )


class SingleFlight:
    """At most one pending execution per key, shared by identical callers.

    The first caller of a key *leads* and settles the key's
    :class:`concurrent.futures.Future`; identical callers *join* it. A
    caller joins only when its start token (the epochs of the mediators
    the execution reads) equals the leader's, so a request that started
    after a write committed never inherits an answer computed before it.

    A leader may settle with an answer to *retain*. The ``retain`` most
    recently used such answers stay beside the pending flights, each
    under its flight's token, and a caller with that token is handed
    the answer itself instead of a flight.
    """

    def __init__(self, retain: int = 0) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[Hashable, Tuple[object, "Future[Any]"]] = {}
        #: key -> (token, answer) of the retained settlements, LRU order
        self._settled: "OrderedDict[Hashable, Tuple[object, Any]]" = OrderedDict()
        self._retain = retain

    def join(self, key: Hashable, token: object) -> Tuple[Any, Optional[bool]]:
        """The pending future for ``key`` and whether the caller leads
        it (a leader must :meth:`settle` it), or the answer retained
        under ``token`` and ``None``. A flight or answer with another
        token is not joined: the caller leads a new flight instead."""
        with self._lock:
            settled = self._settled.get(key)
            if settled is not None and settled[0] == token:
                self._settled.move_to_end(key)
                return settled[1], None
            flight = self._flights.get(key)
            if flight is not None and flight[0] == token:
                return flight[1], False
            self._settled.pop(key, None)  # stale: its token moved on
            future: "Future[Any]" = Future()
            self._flights[key] = (token, future)
            return future, True

    def settle(
        self,
        key: Hashable,
        future: "Future[Any]",
        result: object = None,
        error: Optional[BaseException] = None,
        retain: object = None,
    ) -> None:
        """Evict the flight, *then* resolve it — a caller arriving after
        this starts afresh, or takes the ``retain`` answer kept under
        the flight's token — with ``result``, or ``error`` for every
        waiter."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None and flight[1] is future:
                del self._flights[key]
                if retain is not None:
                    self._settled[key] = (flight[0], retain)
                    self._settled.move_to_end(key)
                    while len(self._settled) > self._retain:
                        self._settled.popitem(last=False)
        if error is None:
            future.set_result(result)
        else:
            future.set_exception(error)

    def lead(self, key: Hashable, future: "Future[Any]", work: Callable[..., _T], *args: Any) -> _T:
        """Run the leader's ``work(*args)`` and settle the flight with
        its outcome."""
        try:
            result = work(*args)
        except BaseException as exc:
            self.settle(key, future, error=exc)
            raise
        self.settle(key, future, result)
        return result


#: one score-cache entry: answer keys plus their float64 scores
_ScoreEntry = Tuple[Tuple[NodeId, ...], np.ndarray]


def _pack_scores(scores: Mapping[NodeId, float]) -> _ScoreEntry:
    """Store ``scores`` as a keys tuple plus one float64 array — about a
    third of the memory of a dict of boxed floats. Every scoring path
    returns Python floats, which a float64 holds exactly, so
    :func:`_unpack_scores` restores the same keys, order and bits."""
    return tuple(scores), np.fromiter(
        scores.values(), dtype=np.float64, count=len(scores)
    )


def _unpack_scores(entry: _ScoreEntry) -> Dict[NodeId, float]:
    """A fresh scores dict from a cache entry (callers may mutate it)."""
    keys, values = entry
    return dict(zip(keys, values.tolist()))


def _samples_reduced(method: str, options: Mapping[str, object]) -> bool:
    """Whether the compiled backend samples the reduced graph for this
    request (the reducing Monte Carlo reliability strategies)."""
    return method == "reliability" and samples_reduced_graph(
        options.get("strategy", "auto"), options.get("reduce", True)
    )


def _consumes_ir(method: str, options: Mapping[str, object]) -> bool:
    """Whether the compiled backend actually reads a precompiled IR of
    the graph itself for this request. Reliability's closed/exact
    strategies delegate to the dict-level solvers, and its reducing
    Monte Carlo strategies sample the *reduced* graph's IR instead."""
    if method != "reliability":
        return True
    if options.get("strategy", "auto") in ("closed", "exact"):
        return False
    return not _samples_reduced(method, options)


def _read_changes(
    changes: Mapping[Table, ChangeSet], probe_cache: Optional[ProbeCache]
) -> Dict[Table, ChangeSet]:
    """The changes a cached build must answer for: the non-empty change
    sets of the tables it read (every changed table when the build
    recorded no probe cache). Net no-op windows, such as an insert
    coalesced away by its delete, are clean too."""
    if probe_cache is None:
        return {t: cs for t, cs in changes.items() if cs}
    deps = probe_cache.dep_tables()
    return {t: cs for t, cs in changes.items() if id(t) in deps and cs}


def _freeze_option(value: object) -> Optional[object]:
    """A hashable cache token for one option value, or ``None`` when the
    value makes the request uncacheable (mutable/stateful arguments)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        frozen = tuple(_freeze_option(v) for v in value)
        return None if any(v is None for v in frozen) else frozen
    return None


class RankingEngine:
    """Batched, cached ranking over a mediator's exploratory queries.

    ``backend`` selects the scoring implementation for every request
    (``"compiled"`` by default — the vectorized CSR kernels); per-call
    overrides are accepted by :meth:`rank`.
    """

    def __init__(
        self,
        mediator: Optional[Mediator] = None,
        backend: str = "compiled",
        builder: str = "batched",
        cache_scores: bool = True,
        max_cached_scores: int = 1024,
        cache_graphs: bool = True,
        max_cached_graphs: int = 256,
        incremental: bool = True,
    ):
        if backend not in BACKENDS:
            raise RankingError(
                f"unknown backend {backend!r}; choose from {BACKENDS}"
            )
        if builder not in BUILDERS:
            raise RankingError(
                f"unknown builder {builder!r}; choose from {sorted(BUILDERS)}"
            )
        self.mediator = mediator
        self.backend = backend
        self.builder = builder
        self.cache_scores = cache_scores
        self.max_cached_scores = max_cached_scores
        self.cache_graphs = cache_graphs
        self.max_cached_graphs = max_cached_graphs
        self.incremental = incremental
        self.stats = EngineStats()
        #: bumped by every :meth:`invalidate`; a session's settled
        #: answers are keyed by it, so invalidating retires them too
        self.generation = 0
        # guards the three caches and the stats counters so concurrent
        # callers (Session.execute_many's thread pool) stay consistent;
        # the heavy work — graph materialisation, compilation, scoring —
        # always runs outside the lock
        self._lock = threading.RLock()
        self._compiled: "weakref.WeakKeyDictionary[QueryGraph, CompiledGraph]" = (
            weakref.WeakKeyDictionary()
        )
        #: live graph -> the CSR form of its reduced graph, which the
        #: reducing Monte Carlo strategies sample; built on first use so
        #: each request pays only the sampling kernel
        self._reduced: "weakref.WeakKeyDictionary[QueryGraph, CompiledGraph]" = (
            weakref.WeakKeyDictionary()
        )
        self._scores: "OrderedDict[Tuple, _ScoreEntry]" = OrderedDict()
        #: query signature -> (mediator, its epoch snapshot at execution,
        #: graph, the build stats of the original materialisation, and —
        #: under incremental mode with the batched builder — the build's
        #: recorded probe cache, which both scopes invalidation to the
        #: tables the build actually read and powers delta repair
        self._graphs: "OrderedDict[Tuple, Tuple[Mediator, MediatorEpoch, QueryGraph, BuildStats, Optional[ProbeCache]]]" = (
            OrderedDict()
        )
        #: query-cache key -> the one pending traversal for that key,
        #: tagged with its leader's epoch snapshot; identical queries
        #: that started at the same snapshot await it instead of
        #: re-traversing (single-flight). A flight lives only for one
        #: cold build and is evicted on completion or failure.
        self._inflight = SingleFlight()

    # -------------------------------------------------------------- #
    # query execution
    # -------------------------------------------------------------- #

    def execute(
        self, query: ExploratoryQuery, builder: Optional[str] = None
    ) -> QueryGraph:
        """Run ``query`` through the engine's mediator.

        Results are cached by the query's canonical signature. A
        repeated query against unchanged sources — or sources whose
        changes touch only tables the cached build never read — is a
        dictionary probe (``graph_hits``). Bounded changes to tables
        the build did read are *repaired* by a delta replay
        (``graph_repairs``) rather than rebuilt; source registrations,
        confidence tuning and overflowed change logs re-materialise
        cold (``graph_misses``).

        Identical queries arriving *while* a cold traversal that started
        at their mediator snapshot is in flight await it
        (``coalesced_queries``), so N concurrent identical cold queries
        cost one graph miss; one that started after a write runs its
        own. A failed traversal's error reaches every waiter, and the
        pending entry is evicted so the next request retries cold.
        """
        return self.execute_with_stats(query, builder=builder)[0]

    def execute_with_stats(
        self, query: ExploratoryQuery, builder: Optional[str] = None
    ) -> Tuple[QueryGraph, BuildStats, bool]:
        """Like :meth:`execute`, but also report *how* the graph came to
        be: its :class:`~repro.integration.builder.BuildStats` (from the
        original materialisation when served from cache) and whether the
        query cache supplied it."""
        if self.mediator is None:
            raise RankingError(
                "this engine has no mediator; construct it with one to "
                "execute exploratory queries"
            )
        chosen_builder = builder or self.builder
        if not self.cache_graphs:
            qg, build_stats = query.execute(self.mediator, builder=chosen_builder)
            with self._lock:
                self.stats.queries_executed += 1
            return qg, build_stats, False
        mediator = self.mediator
        # snapshot *before* any build reads storage: a mutation landing
        # mid-build is then still newer than the stored snapshot, so the
        # next probe re-examines it instead of missing it
        snapshot = mediator.epoch_snapshot()
        key = (query.signature, chosen_builder)
        with self._lock:
            cached = self._graphs.get(key)
        # the entry must come from *this* mediator (the attribute is
        # public and reassignable); `changes_since` then reports None on
        # structural change, or exactly which bound tables moved since
        # the entry's snapshot
        changes = (
            mediator.changes_since(cached[1])
            if cached is not None and cached[0] is mediator
            else None
        )
        if changes is not None:
            qg, build_stats, probe_cache = cached[2:]
            relevant = _read_changes(changes, probe_cache)
            if not relevant:
                with self._lock:
                    self._graph_hit(key, cached, snapshot)
                return qg, build_stats, True
            if probe_cache is not None and not any(
                cs.full for cs in relevant.values()
            ):
                repaired = self._repair(
                    key, cached, query, mediator, snapshot, relevant
                )
                if repaired is not None:
                    return repaired
        # cold: join an identical traversal that started at this same
        # snapshot (single-flight), or lead one. A traversal that began
        # before a write this caller saw committed is never joined.
        with self._lock:
            flight, leader = self._inflight.join(key, snapshot)
            if leader:
                self.stats.graph_misses += 1
                if cached is not None and self._graphs.get(key) is cached:
                    del self._graphs[key]  # stale: sources changed since execution
            else:
                self.stats.coalesced_queries += 1
        if not leader:
            qg, build_stats = flight.result()
            return qg, build_stats, True

        def build() -> Tuple[QueryGraph, BuildStats]:
            # cached before the flight is evicted: a request arriving
            # meanwhile either finds the cache entry or joins the flight
            if self.incremental and chosen_builder == "batched":
                qg, build_stats, probe_cache = record_build(query, mediator)
            else:
                qg, build_stats = query.execute(mediator, builder=chosen_builder)
                probe_cache = None
            with self._lock:
                self.stats.queries_executed += 1
                self._graphs[key] = (mediator, snapshot, qg, build_stats, probe_cache)
                while len(self._graphs) > self.max_cached_graphs:
                    self._graphs.popitem(last=False)
            return qg, build_stats

        qg, build_stats = self._inflight.lead(key, flight, build)
        return qg, build_stats, False

    def _graph_hit(self, key: Tuple, cached: Tuple, snapshot: MediatorEpoch) -> None:
        """Count a query-cache hit on ``cached`` and refresh its snapshot,
        so future probes diff the shortest change window (lock held)."""
        self.stats.graph_hits += 1
        if self._graphs.get(key) is cached:
            self._graphs[key] = (cached[0], snapshot, *cached[2:])
            self._graphs.move_to_end(key)

    def _repair(
        self,
        key: Tuple,
        cached: Tuple,
        query: ExploratoryQuery,
        mediator: Mediator,
        snapshot: MediatorEpoch,
        changes: Dict[Table, ChangeSet],
    ) -> Optional[Tuple[QueryGraph, BuildStats, bool]]:
        """Bring the cached entry current by delta replay; ``None`` means
        the caller should fall back to a cold rebuild."""
        _, _, old_qg, _, probe_cache = cached
        try:
            qg, build_stats, fresh_cache, dirty_nodes = repair_build(
                query, mediator, probe_cache, changes
            )
        except Exception:
            # a repair must never be load-bearing: drop the entry and
            # let the cold path rebuild (and raise) on its own terms
            with self._lock:
                if self._graphs.get(key) is cached:
                    del self._graphs[key]
            return None
        with self._lock:
            old_compiled = self._compiled.get(old_qg)
        compiled = (
            patch_compiled(old_compiled, qg, dirty_nodes)
            if old_compiled is not None
            else None
        )
        with self._lock:
            self.stats.graph_repairs += 1
            self.stats.queries_executed += 1
            self._graphs[key] = (mediator, snapshot, qg, build_stats, fresh_cache)
            self._graphs.move_to_end(key)
            while len(self._graphs) > self.max_cached_graphs:
                self._graphs.popitem(last=False)
            if compiled is not None:
                # an unchanged-byte repair keeps the old fingerprint, so
                # the score cache keeps hitting across the mutation
                self._compiled.setdefault(qg, compiled)
        return qg, build_stats, False

    def execute_many(
        self,
        queries: Iterable[ExploratoryQuery],
        builder: Optional[str] = None,
    ) -> List[QueryGraph]:
        """Execute a batch of exploratory queries (cache-aware)."""
        return [self.execute(query, builder=builder) for query in queries]

    def _resolve_graph(self, target: Rankable) -> QueryGraph:
        if isinstance(target, QueryGraph):
            return target
        if isinstance(target, ExploratoryQuery):
            return self.execute(target)
        raise RankingError(
            f"cannot rank {type(target).__name__}; expected a QueryGraph "
            f"or an ExploratoryQuery"
        )

    # -------------------------------------------------------------- #
    # compilation
    # -------------------------------------------------------------- #

    def reset_stats(self) -> None:
        """Zero the counters, consistently with in-flight increments."""
        with self._lock:
            self.stats.reset()

    def stats_snapshot(self) -> EngineStats:
        """A lock-consistent point-in-time copy of the counters."""
        with self._lock:
            return self.stats.snapshot()

    # hooks for the admission gate and the session's spec-keyed
    # single-flight: one EngineStats tells the whole serving story

    def note_coalesced(self, count: int = 1) -> None:
        """Record ``count`` requests that joined an identical one in the
        session's spec-keyed single-flight (every front door's)."""
        with self._lock:
            self.stats.coalesced_queries += count

    def note_hit(self) -> None:
        """Record a request the session answered from a settled flight:
        one query-cache hit and one score-cache hit, as a warm
        execution on this shard counts them."""
        with self._lock:
            self.stats.graph_hits += 1
            self.stats.score_hits += 1

    def note_queued(self, count: int = 1) -> None:
        """Record ``count`` admissions that waited for an in-flight
        slot before executing."""
        with self._lock:
            self.stats.queued_queries += count

    def note_shed(self, count: int = 1) -> None:
        """Record ``count`` requests refused because the admission queue
        was full (with the followers of a refused flight leader)."""
        with self._lock:
            self.stats.shed_queries += count

    def cached_fingerprint(self, qg: QueryGraph) -> Optional[str]:
        """The content fingerprint of ``qg``'s compiled form, if it has
        been compiled — without forcing a compilation."""
        with self._lock:
            compiled = self._compiled.get(qg)
        return compiled.fingerprint if compiled is not None else None

    def compile(self, qg: QueryGraph) -> CompiledGraph:
        """The CSR form of ``qg``, compiled at most once per live graph."""
        with self._lock:
            cached = self._compiled.get(qg)
            if cached is not None:
                self.stats.compile_hits += 1
                return cached
            self.stats.compile_misses += 1
        compiled = compile_graph(qg)
        with self._lock:
            # a concurrent compile of the same graph is idempotent; keep
            # one winner so every caller shares a single CompiledGraph
            return self._compiled.setdefault(qg, compiled)

    def _reduced_compiled(self, qg: QueryGraph) -> CompiledGraph:
        """The CSR form of ``qg``'s reduced graph, built at most once per
        live graph. Graphs are not mutated after build (a repair returns
        a new graph), so the memo is exactly what a cold call builds."""
        with self._lock:
            cached = self._reduced.get(qg)
        if cached is not None:
            return cached
        reduced = reduced_compiled(qg)
        with self._lock:
            return self._reduced.setdefault(qg, reduced)

    def invalidate(self, qg: Optional[QueryGraph] = None) -> None:
        """Drop cached state for ``qg`` (or everything when ``None``)."""
        with self._lock:
            self.generation += 1
            if qg is None:
                self._compiled = weakref.WeakKeyDictionary()
                self._reduced = weakref.WeakKeyDictionary()
                self._scores.clear()
                self._graphs.clear()
                return
            self._reduced.pop(qg, None)
            compiled = self._compiled.pop(qg, None)
            if compiled is not None:
                stale = [k for k in self._scores if k[0] == compiled.fingerprint]
                for key in stale:
                    del self._scores[key]
            stale_graphs = [
                k for k, (_, _, cached, _, _) in self._graphs.items() if cached is qg
            ]
            for key in stale_graphs:
                del self._graphs[key]

    # -------------------------------------------------------------- #
    # ranking
    # -------------------------------------------------------------- #

    def _cache_key(
        self,
        fingerprint: str,
        method: str,
        backend: str,
        options: Mapping[str, object],
    ) -> Optional[Tuple]:
        if not self.cache_scores:
            return None
        frozen: List[Tuple[str, object]] = []
        for name in sorted(options):
            token = _freeze_option(options[name])
            if token is None and options[name] is not None:
                return None
            frozen.append((name, token))
        if method == "reliability":
            strategy = options.get("strategy", "auto")
            if strategy in _STOCHASTIC_STRATEGIES and not isinstance(
                options.get("rng"), int
            ):
                return None  # unseeded sampling: caching would freeze noise
        # the backend is part of the key: the Monte Carlo backends draw
        # from different RNG streams, so their seeded estimates differ
        return (fingerprint, method, backend, tuple(frozen))

    def rank(
        self,
        target: Rankable,
        method: str = "reliability",
        backend: Optional[str] = None,
        **options: object,
    ) -> RankedResult:
        """Rank one query graph (or execute-and-rank one query).

        Scores are served from the fingerprint-keyed cache when the
        request is deterministic and has been answered before.
        """
        return self.rank_with_stats(target, method, backend=backend, **options)[0]

    def rank_with_stats(
        self,
        target: Rankable,
        method: str = "reliability",
        backend: Optional[str] = None,
        **options: object,
    ) -> Tuple[RankedResult, bool]:
        """Like :meth:`rank`, but also report whether the scores came
        from the cache — per-call provenance that stays correct under
        concurrent callers (unlike diffing the global counters)."""
        qg = self._resolve_graph(target)
        canonical = resolve_method(method)
        chosen_backend = backend or self.backend
        # compile only when the request can use it: the compiled backend
        # consumes the CSR form (except the reliability strategies that
        # delegate to dict-level solvers or sample the reduced graph),
        # and the score cache keys its fingerprint
        consumes_ir = chosen_backend == "compiled" and _consumes_ir(
            canonical, options
        )
        compiled: Optional[CompiledGraph] = None
        key: Optional[Tuple] = None
        if consumes_ir or self.cache_scores:
            compiled = self.compile(qg)
            key = self._cache_key(
                compiled.fingerprint, canonical, chosen_backend, options
            )
        if key is not None:
            with self._lock:
                cached = self._scores.get(key)
                if cached is not None:
                    self._scores.move_to_end(key)
                    self.stats.score_hits += 1
            if cached is not None:
                return RankedResult(
                    method=canonical, scores=_unpack_scores(cached)
                ), True
        with self._lock:
            self.stats.score_misses += 1
        if chosen_backend == "compiled" and _samples_reduced(canonical, options):
            options = {**options, "reduced": self._reduced_compiled(qg)}
        result = rank(
            qg,
            canonical,
            backend=chosen_backend,
            compiled=compiled if chosen_backend == "compiled" else None,
            **options,
        )
        if key is not None:
            entry = _pack_scores(result.scores)
            with self._lock:
                self._scores[key] = entry
                while len(self._scores) > self.max_cached_scores:
                    self._scores.popitem(last=False)
        return result, False

    def rank_many(
        self,
        targets: Iterable[Rankable],
        method: str = "reliability",
        methods: Optional[Sequence[str]] = None,
        backend: Optional[str] = None,
        method_options: Optional[Mapping[str, Mapping[str, object]]] = None,
        **options: object,
    ) -> List:
        """Rank a batch.

        With a single ``method`` the result is a list of
        :class:`~repro.core.ranker.RankedResult`, one per target. With
        ``methods=[...]`` each target yields a dict mapping canonical
        method name to its result — the graph is compiled once and
        shared across all methods, and ``method_options`` supplies
        per-method overrides on top of the common ``options``.
        """
        per_method = {
            resolve_method(name): dict(opts)
            for name, opts in (method_options or {}).items()
        }
        results: List = []
        for target in targets:
            qg = self._resolve_graph(target)
            if methods is None:
                opts = dict(options)
                opts.update(per_method.get(resolve_method(method), {}))
                results.append(self.rank(qg, method, backend=backend, **opts))
            else:
                batch: Dict[str, RankedResult] = {}
                for name in methods:
                    canonical = resolve_method(name)
                    opts = dict(options)
                    opts.update(per_method.get(canonical, {}))
                    batch[canonical] = self.rank(
                        qg, canonical, backend=backend, **opts
                    )
                results.append(batch)
        return results
