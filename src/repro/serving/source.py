"""The portable recipe a worker process follows to rebuild its shard.

A mediator is an in-process object graph over live storage handles —
it cannot cross a process boundary. What *can* cross is the recipe
that built it: a ``module:callable`` factory plus JSON-serialisable
kwargs. :class:`WorkerSource` carries exactly that, and the worker
resolves it on bootstrap:

* a factory returning a :class:`~repro.workloads.mediated.MediatedWorkload`
  (e.g. :func:`repro.workloads.mediated.mediated_layers`) contributes
  its pre-wired router — persisted shard files
  (``layer<i>.shard<s>.sqlite``, vectorized manifests) re-attach, and
  memory-backed layers regenerate byte-identically from the recipe's
  integer rng seed;
* a factory returning a :class:`~repro.engine.sharded.ShardRouter` is
  used as-is;
* a factory returning a :class:`~repro.integration.mediator.Mediator`
  is partitioned in the worker via :meth:`ShardRouter.partition` — the
  BLAKE2 hash partitioner is deterministic across processes, so every
  worker derives the *same* ownership the parent did.

Determinism is the contract: every resolution of the same source must
produce the same bytes, or process-mode results could diverge from
thread mode. That is why ``mediated_layers`` recipes require an
explicit integer ``rng``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.engine.sharded import ShardRouter
from repro.errors import QueryError
from repro.integration.mediator import Mediator

__all__ = ["WorkerSource"]


@dataclass(frozen=True)
class WorkerSource:
    """How a worker process rebuilds the shard layout.

    ``factory`` is a ``"module:attr"`` reference; ``kwargs`` must be
    JSON-serialisable (they ride in the worker's bootstrap spec).
    ``shards`` pins the expected shard count — a factory resolving to a
    different layout is a bootstrap error, not a silent re-partition.
    """

    factory: str
    kwargs: Mapping[str, object] = field(default_factory=dict)
    shards: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.factory, str) or ":" not in self.factory:
            raise QueryError(
                f"worker source factory must be a 'module:attr' reference, "
                f"got {self.factory!r}"
            )
        if (
            not isinstance(self.shards, int)
            or isinstance(self.shards, bool)
            or self.shards < 1
        ):
            raise QueryError(
                f"worker source shards must be a positive integer, got "
                f"{self.shards!r}"
            )
        if not isinstance(self.kwargs, Mapping):
            raise QueryError(
                f"worker source kwargs must be a mapping, got {self.kwargs!r}"
            )
        object.__setattr__(self, "kwargs", dict(self.kwargs))

    # ------------------------------------------------------------ #
    # wire form
    # ------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        return {
            "factory": self.factory,
            "kwargs": dict(self.kwargs),
            "shards": self.shards,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "WorkerSource":
        known = {"factory", "kwargs", "shards"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise QueryError(
                f"unknown WorkerSource field(s) {unknown}; known: {sorted(known)}"
            )
        # the values pass through as sent, so __post_init__ judges them
        return cls(**data)  # type: ignore[arg-type]

    # ------------------------------------------------------------ #
    # resolution (runs inside the worker process)
    # ------------------------------------------------------------ #

    def resolve(self) -> Tuple[ShardRouter, Optional[Callable[[], None]]]:
        """Build the shard router this recipe describes, plus an
        optional cleanup callable releasing storage handles."""
        module_name, _, attr = self.factory.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise QueryError(
                f"cannot import worker source module {module_name!r}: {exc}"
            ) from exc
        try:
            factory = getattr(module, attr)
        except AttributeError:
            raise QueryError(
                f"module {module_name!r} has no attribute {attr!r}"
            ) from None
        if not callable(factory):
            raise QueryError(f"worker source {self.factory!r} is not callable")
        produced = factory(**dict(self.kwargs))
        return self._coerce(produced)

    def _coerce(self, produced: object) -> Tuple[ShardRouter, Optional[Callable[[], None]]]:
        if isinstance(produced, ShardRouter):
            router: ShardRouter = produced
            cleanup: Optional[Callable[[], None]] = None
        elif isinstance(produced, Mediator):
            router = ShardRouter.partition(produced, self.shards)
            cleanup = None
        else:
            # workload-shaped objects: a pre-wired router + a close();
            # an unsharded workload falls back to partition *views* of
            # its full mediator (the BLAKE2 partitioner derives the
            # same ownership in every process)
            inner = getattr(produced, "router", None)
            mediator = getattr(produced, "mediator", None)
            if isinstance(inner, ShardRouter):
                router = inner
            elif isinstance(mediator, Mediator):
                router = ShardRouter.partition(mediator, self.shards)
            else:
                raise QueryError(
                    f"worker source {self.factory!r} produced "
                    f"{type(produced).__name__}, which carries no shard "
                    f"router; return a MediatedWorkload generated with "
                    f"shards=N, a ShardRouter, or a Mediator"
                )
            close = getattr(produced, "close", None)
            cleanup = close if callable(close) else None
        if router.shards != self.shards:
            raise QueryError(
                f"worker source resolved to {router.shards} shard(s) but "
                f"the deployment expects {self.shards}; the recipe and the "
                f"session disagree"
            )
        return router, cleanup
