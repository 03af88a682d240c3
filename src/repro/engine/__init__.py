"""The serving layer: batched, cached ranking over compiled graphs.

This package hosts the :class:`RankingEngine`, the front door for
production-style workloads — execute many exploratory queries against a
mediator through the set-at-a-time builder, serve repeated queries from
the epoch-guarded query cache, compile each query graph once into the
shared CSR form, and serve per-method scores from a fingerprint-keyed
cache. See :mod:`repro.engine.ranking` for the full contract.

For graphs too large for one engine, :mod:`repro.engine.sharded`
partitions the answer space across N child engines behind a
scatter/gather :class:`ShardedEngine` whose merged rankings are
identical to the single-engine result.
"""

from repro.engine.ranking import EngineStats, RankingEngine
from repro.engine.sharded import (
    GatherResult,
    HashPartitioner,
    ShardedEngine,
    ShardFragment,
    ShardRouter,
)

__all__ = [
    "EngineStats",
    "GatherResult",
    "HashPartitioner",
    "RankingEngine",
    "ShardFragment",
    "ShardRouter",
    "ShardedEngine",
]
