"""Typed configuration objects for the public API.

These replace the scattered keyword arguments of the lower layers
(``rank(..., strategy=..., trials=..., rng=...)``,
``RankingEngine(cache_scores=..., max_cached_scores=...)``) with
two small frozen dataclasses that validate every field eagerly and
serialise to plain dicts:

* :class:`RankingOptions` — per-query scoring knobs. Only the fields
  relevant to the query's ranking method are forwarded to the scoring
  function, so one options object can be shared across methods.
* :class:`EngineConfig` — per-session serving knobs (cache sizes,
  ``execute_many`` thread pool width, storage, shards, admission). The
  defaults are the serving defaults: all caches on. Every session
  scores with the compiled CSR kernels; the reference kernels are the
  test oracle behind :func:`repro.core.ranker.rank`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    Dict,
    Mapping,
    Optional,
    Type,
    TypeVar,
)

if TYPE_CHECKING:
    from repro.engine.ranking import RankingEngine
    from repro.integration.mediator import Mediator
    from repro.storage.database import Database

_T = TypeVar("_T")

from repro.core.ranker import resolve_method
from repro.core.reliability import RELIABILITY_STRATEGIES, STOCHASTIC_STRATEGIES
from repro.errors import RankingError
from repro.storage.backends import STORAGE_BACKENDS

__all__ = ["EngineConfig", "RankingOptions"]


def _is_int(value: object) -> bool:
    # ``bool`` is an ``int`` to Python, but never a count or a duration
    return isinstance(value, int) and not isinstance(value, bool)


#: what a field's value may be, keyed by the phrase its error names
_KINDS: Dict[str, Callable[[object], bool]] = {
    "a bool": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a positive integer": lambda v: _is_int(v) and v >= 1,
    "a non-negative integer": lambda v: _is_int(v) and v >= 0,
    "a positive number": lambda v: (_is_int(v) or isinstance(v, float)) and v > 0,
}


def _check_fields(
    owner: object, kinds: Mapping[str, str], optional: Collection[str] = ()
) -> None:
    """Refuse the first field of ``owner`` whose value is not of its
    kind in :data:`_KINDS`; a field named in ``optional`` may also be
    ``None``."""
    for name, kind in kinds.items():
        value = getattr(owner, name)
        if value is None and name in optional:
            continue
        if not _KINDS[kind](value):
            none = "None or " if name in optional else ""
            raise RankingError(f"{name} must be {none}{kind}, got {value!r}")


def _from_mapping(cls: Type[_T], data: Mapping[str, object], what: str) -> _T:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise RankingError(
            f"unknown {what} field(s) {unknown}; known fields: {sorted(known)}"
        )
    return cls(**data)


#: the typed fields of :class:`RankingOptions`, every one optional
_OPTION_KINDS = {
    "trials": "a positive integer",
    "reduce": "a bool",
    "iterations": "a positive integer",
    "tolerance": "a positive number",
    "max_iterations": "a positive integer",
}


@dataclass(frozen=True)
class RankingOptions:
    """Declarative scoring options, validated up front.

    ``None`` means "use the library default" — a default-constructed
    ``RankingOptions()`` is exactly today's behaviour. Fields apply to:

    * ``strategy`` / ``trials`` / ``reduce`` — reliability only;
    * ``iterations`` / ``tolerance`` / ``max_iterations`` —
      propagation and diffusion only;
    * the deterministic baselines (``in_edge``, ``path_count``,
      ``random``) take no options.

    Bad values fail eagerly::

        >>> RankingOptions(strategy="guess")
        Traceback (most recent call last):
            ...
        repro.errors.RankingError: unknown reliability strategy 'guess'; \
choose from ['auto', 'mc', 'naive-mc', 'closed', 'exact']
    """

    strategy: Optional[str] = None
    trials: Optional[int] = None
    reduce: Optional[bool] = None
    iterations: Optional[int] = None
    tolerance: Optional[float] = None
    max_iterations: Optional[int] = None

    def __post_init__(self) -> None:
        if self.strategy is not None and self.strategy not in RELIABILITY_STRATEGIES:
            raise RankingError(
                f"unknown reliability strategy {self.strategy!r}; choose "
                f"from {list(RELIABILITY_STRATEGIES)}"
            )
        _check_fields(self, _OPTION_KINDS, optional=_OPTION_KINDS)

    @property
    def is_stochastic(self) -> bool:
        """Whether a reliability request with these options samples
        (and therefore needs a seed to be deterministic/cacheable).

        Example::

            >>> RankingOptions(strategy="mc").is_stochastic
            True
            >>> RankingOptions(strategy="closed").is_stochastic
            False
        """
        return (self.strategy or "auto") in STOCHASTIC_STRATEGIES

    def to_kwargs(
        self, method: str, seed: Optional[int] = None
    ) -> Dict[str, object]:
        """The keyword arguments to pass to ``rank()`` for ``method``.

        Only the fields that apply to ``method`` are emitted, so sharing
        one options object across a method sweep is safe. ``seed`` is
        threaded through as the Monte Carlo ``rng`` when the request is
        stochastic, which also makes it engine-cacheable.

        Example::

            >>> options = RankingOptions(strategy="mc", trials=500, iterations=9)
            >>> options.to_kwargs("reliability", seed=7)
            {'strategy': 'mc', 'trials': 500, 'rng': 7}
            >>> options.to_kwargs("propagation")
            {'iterations': 9}
            >>> options.to_kwargs("in_edge")
            {}
        """
        canonical = resolve_method(method)
        kwargs: Dict[str, object] = {}
        if canonical == "reliability":
            if self.strategy is not None:
                kwargs["strategy"] = self.strategy
            if self.trials is not None:
                kwargs["trials"] = self.trials
            if self.reduce is not None:
                kwargs["reduce"] = self.reduce
            if seed is not None and self.is_stochastic:
                kwargs["rng"] = seed
        elif canonical in ("propagation", "diffusion"):
            if self.iterations is not None:
                kwargs["iterations"] = self.iterations
            if self.tolerance is not None:
                kwargs["tolerance"] = self.tolerance
            if self.max_iterations is not None:
                kwargs["max_iterations"] = self.max_iterations
        return kwargs

    def as_dict(self) -> Dict[str, object]:
        """Only the explicitly set fields, ready for JSON.

        Example::

            >>> RankingOptions(strategy="closed").as_dict()
            {'strategy': 'closed'}
        """
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RankingOptions":
        """The inverse of :meth:`as_dict` (unknown fields rejected).

        Example::

            >>> options = RankingOptions(trials=100)
            >>> RankingOptions.from_dict(options.as_dict()) == options
            True
        """
        return _from_mapping(cls, data, "RankingOptions")


#: the typed fields of :class:`EngineConfig` (``storage`` and
#: ``shard_mode`` are checked against their choices)
_ENGINE_KINDS = {
    "cache_graphs": "a bool",
    "max_cached_graphs": "a positive integer",
    "cache_scores": "a bool",
    "max_cached_scores": "a positive integer",
    "max_workers": "a non-negative integer",
    "storage_path": "a string",
    "shards": "a positive integer",
    "rpc_timeout": "a positive number",
    "worker_restarts": "a non-negative integer",
    "max_concurrency": "a positive integer",
    "max_queue_depth": "a non-negative integer",
    "retry_after": "a positive number",
}


@dataclass(frozen=True)
class EngineConfig:
    """How a :class:`~repro.api.Session` executes, caches and stores.

    The defaults are the serving defaults — query/compile/score caches
    on, and a small thread pool for ``execute_many``. Every field is
    checked on construction; a count or a duration refuses a ``bool``.

    Example::

        >>> config = EngineConfig(storage="sqlite")
        >>> config.cache_graphs, config.storage
        (True, 'sqlite')
        >>> EngineConfig.from_dict({"cache_graphs": "false"})
        Traceback (most recent call last):
            ...
        repro.errors.RankingError: cache_graphs must be a bool, got 'false'
    """

    #: the query cache: expansions keyed by traversal and kept current
    #: across writes — cached graphs survive changes to tables they
    #: never read, and bounded changes to tables they did read are
    #: repaired by replaying only the dirty BFS region (see
    #: ``docs/architecture.md``); ``False`` re-materialises every query
    #: cold
    cache_graphs: bool = True
    #: bounds each shard engine's query cache and the session's settled
    #: answers (thread shards with both caches on; see Session.execute)
    max_cached_graphs: int = 256
    cache_scores: bool = True
    max_cached_scores: int = 1024
    #: thread-pool width for the distinct specs of a
    #: ``Session.execute_many`` batch, on every session; 0 or 1 runs them
    #: in sequence (specs sharing a traversal still share its build, and
    #: run in order on one thread). Each spec still scatters across its
    #: relevant shards, as wide as the shard count
    max_workers: int = 4
    #: storage backend for databases created through this session
    #: (``Session.create_database`` and the workload generators):
    #: ``"memory"`` | ``"sqlite"`` | ``"vectorized"``
    storage: str = "memory"
    #: persistence root for the disk-backed storage backends: one
    #: ``<name>.sqlite`` file per database under SQLite, one
    #: ``<name>/`` directory of memory-mapped ``.npy`` column files per
    #: database under the vectorized backend; ``None`` keeps either
    #: backend in process memory
    storage_path: Optional[str] = None
    #: number of scatter/gather shards; 1 (the default) runs one shard
    #: that owns every answer over the session's own mediator and
    #: engine, ``N > 1`` partitions the answer space across N child
    #: engines, each owning the answers a stable content hash assigns
    #: it (see ``docs/architecture.md``)
    shards: int = 1
    #: where sharded execution runs: ``"thread"`` scatters on a thread
    #: pool over in-process child engines; ``"process"`` promotes every
    #: shard to a supervised worker *process* reached over JSON-RPC
    #: (see ``docs/serving.md``) — results are bit-identical, but a
    #: crashed or hung shard costs a bounded restart, not the session.
    #: Process workers serve the snapshot they were opened on: a write
    #: to the parent's tables after open is not seen until the shard
    #: files are refreshed and ``process_engine.repair(reload=True)``
    #: re-attaches them
    shard_mode: str = "thread"
    #: per-RPC response deadline (seconds) in process mode; a worker
    #: silent past this is treated as hung and restarted
    rpc_timeout: float = 30.0
    #: how many times a single request may restart-and-retry a failed
    #: worker before the query fails with a classified shard error
    worker_restarts: int = 2
    #: per-session cap on concurrently *executing* requests: the slots of
    #: the session's admission gate (on when ``max_queue_depth`` is set),
    #: which every caller shares and takes once per single-flight leader
    #: (followers are never admitted)
    max_concurrency: int = 8
    #: bounded admission: how many requests may *wait* for an execution
    #: slot beyond ``max_concurrency`` before new arrivals are shed
    #: with an ``OverloadedError`` (surfaced as HTTP 503 +
    #: ``Retry-After``). ``None`` (the default) disables shedding and
    #: the session's gate: requests then execute unbounded
    max_queue_depth: Optional[int] = None
    #: the ``Retry-After`` hint (seconds) attached to shed requests
    retry_after: float = 1.0

    def __post_init__(self) -> None:
        if self.storage not in STORAGE_BACKENDS:
            raise RankingError(
                f"unknown storage backend {self.storage!r}; choose from "
                f"{list(STORAGE_BACKENDS)}"
            )
        if self.storage_path is not None and self.storage not in (
            "sqlite",
            "vectorized",
        ):
            raise RankingError(
                f"storage_path only applies to storage='sqlite' or "
                f"storage='vectorized', not {self.storage!r}"
            )
        if self.shard_mode not in ("thread", "process"):
            raise RankingError(
                f'shard_mode must be "thread" or "process", got '
                f"{self.shard_mode!r}"
            )
        _check_fields(
            self, _ENGINE_KINDS, optional=("storage_path", "max_queue_depth")
        )

    def make_engine(self, mediator: Optional["Mediator"] = None) -> "RankingEngine":
        """A :class:`~repro.engine.RankingEngine` configured accordingly.

        Example::

            >>> EngineConfig(cache_scores=False).make_engine().cache_scores
            False
        """
        from repro.engine.ranking import RankingEngine

        return RankingEngine(mediator=mediator, **self.engine_options())

    def engine_options(self) -> Dict[str, object]:
        """The :class:`~repro.engine.RankingEngine` keyword arguments
        this config sets — the one list the single engine, the thread
        shards and the worker processes' boot record are all built from.

        Example::

            >>> EngineConfig(cache_graphs=False).engine_options()["cache_graphs"]
            False
        """
        return {
            "cache_scores": self.cache_scores,
            "max_cached_scores": self.max_cached_scores,
            "cache_graphs": self.cache_graphs,
            "max_cached_graphs": self.max_cached_graphs,
        }

    def make_database(self, name: str = "db") -> "Database":
        """A :class:`~repro.storage.database.Database` on this config's
        storage backend.

        For ``storage="sqlite"`` with a ``storage_path``, the database
        persists to ``<storage_path>/<name>.sqlite``; for
        ``storage="vectorized"`` it persists to the
        ``<storage_path>/<name>/`` directory of memory-mapped ``.npy``
        column files (either parent is created on demand). Without a
        path, both backends stay in process memory. Example::

            >>> EngineConfig(storage="memory").make_database("src").storage
            'memory'
        """
        from repro.storage.database import Database

        path = None
        if self.storage_path is not None:
            if self.storage == "sqlite":
                directory = Path(self.storage_path)
                directory.mkdir(parents=True, exist_ok=True)
                path = directory / f"{name}.sqlite"
            elif self.storage == "vectorized":
                path = Path(self.storage_path) / name
        return Database(name, storage=self.storage, storage_path=path)

    def as_dict(self) -> Dict[str, object]:
        """Every field as a plain dict (the JSON form).

        Example::

            >>> EngineConfig().as_dict()["shard_mode"]
            'thread'
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "EngineConfig":
        """The inverse of :meth:`as_dict` (unknown fields rejected).

        Example::

            >>> config = EngineConfig(max_workers=2)
            >>> EngineConfig.from_dict(config.as_dict()) == config
            True
        """
        return _from_mapping(cls, data, "EngineConfig")
