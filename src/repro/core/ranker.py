"""The unified ranking front door.

``rank(query_graph, method)`` evaluates one of the five relevance
semantics of §3 (plus the paper's "Random" baseline) and returns a
:class:`RankedResult`, which knows how to order the answer set, group
ties and report tie-aware rank intervals — the ``21-22`` / ``34-97``
style entries of Tables 2 and 3.

Every method is served by two interchangeable backends:

* ``backend="reference"`` — the original dict-walking implementations,
  kept as the semantic ground truth and the test oracle;
* ``backend="compiled"`` — the vectorized kernels of
  :mod:`repro.core.kernels` over the shared CSR representation of
  :mod:`repro.core.compile` (pass ``compiled=`` to reuse an already
  compiled graph). The :class:`~repro.engine.RankingEngine`, and so
  every session, always scores on these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.compile import CompiledGraph
from repro.core.deterministic import in_edge_scores, path_count_scores
from repro.core.diffusion import diffusion_scores
from repro.core.graph import QueryGraph
from repro.core.kernels import COMPILED_METHODS
from repro.core.propagation import propagation_scores
from repro.core.reliability import reliability_scores
from repro.errors import GraphError, RankingError

__all__ = ["BACKENDS", "METHODS", "RankedResult", "rank"]

NodeId = Hashable


def _random_scores(qg: QueryGraph, **_: object) -> Dict[NodeId, float]:
    """The "Random" baseline: all answers tied.

    Presenting results in arbitrary order is modelled as one big tie
    group; the tie-aware expected AP of this result is exactly the
    paper's analytic ``APrand`` (Definition 4.1) — see
    :func:`repro.metrics.random_average_precision`.
    """
    return {target: 0.0 for target in qg.targets}


#: ranking method registry: canonical name -> scoring callable
METHODS: Dict[str, Callable[..., Dict[NodeId, float]]] = {
    "reliability": reliability_scores,
    "propagation": propagation_scores,
    "diffusion": diffusion_scores,
    "in_edge": in_edge_scores,
    "path_count": path_count_scores,
    "random": _random_scores,
}

#: accepted aliases (the paper's own abbreviations included)
ALIASES: Dict[str, str] = {
    "rel": "reliability",
    "prop": "propagation",
    "diff": "diffusion",
    "inedge": "in_edge",
    "pathcount": "path_count",
    "pathc": "path_count",
}


def resolve_method(name: str) -> str:
    """Map ``name`` (canonical or alias, any case) to a canonical method."""
    key = name.strip().lower().replace("-", "_")
    key = ALIASES.get(key, key)
    if key not in METHODS:
        raise RankingError(
            f"unknown ranking method {name!r}; choose from {sorted(METHODS)}"
        )
    return key


@dataclass
class RankedResult:
    """Scores over an answer set plus tie-aware rank accessors.

    Ranks are 1-based. A node tied with others occupies a rank
    *interval* ``[lo, hi]``; its expected rank under random tie-breaking
    is the interval midpoint (each tied permutation is equally likely).
    """

    method: str
    scores: Dict[NodeId, float]
    _order_cache: Optional[List[Tuple[NodeId, float]]] = field(
        default=None, repr=False, compare=False
    )

    def ordered(self) -> List[Tuple[NodeId, float]]:
        """Answers sorted by score descending (ties broken by node repr,
        only to make output deterministic — semantics live in the
        interval accessors)."""
        if self._order_cache is None:
            self._order_cache = sorted(
                self.scores.items(), key=lambda item: (-item[1], repr(item[0]))
            )
        return list(self._order_cache)

    def top(self, n: int) -> List[Tuple[NodeId, float]]:
        return self.ordered()[:n]

    def tie_groups(self) -> List[List[NodeId]]:
        """Maximal groups of equal-score answers, best group first."""
        groups: List[List[NodeId]] = []
        previous_score: Optional[float] = None
        for node, score in self.ordered():
            if previous_score is not None and score == previous_score:
                groups[-1].append(node)
            else:
                groups.append([node])
            previous_score = score
        return groups

    def rank_interval(self, node: NodeId) -> Tuple[int, int]:
        """Best and worst possible 1-based rank of ``node`` under ties."""
        if node not in self.scores:
            raise GraphError(f"{node!r} is not in the ranked answer set")
        score = self.scores[node]
        higher = sum(1 for s in self.scores.values() if s > score)
        tied = sum(1 for s in self.scores.values() if s == score)
        return higher + 1, higher + tied

    def expected_rank(self, node: NodeId) -> float:
        """Expected rank under uniformly random tie-breaking."""
        lo, hi = self.rank_interval(node)
        return (lo + hi) / 2.0

    def __len__(self) -> int:
        return len(self.scores)


#: the two interchangeable scoring backends
BACKENDS = ("reference", "compiled")


def rank(
    qg: QueryGraph,
    method: str = "reliability",
    backend: str = "reference",
    compiled: Optional[CompiledGraph] = None,
    **options: object,
) -> RankedResult:
    """Rank the answer set of ``qg`` with the given relevance semantics.

    ``options`` are forwarded to the underlying scoring function (e.g.
    ``trials=10_000, rng=7`` for reliability, ``iterations=50`` for
    propagation/diffusion). ``backend="compiled"`` routes to the
    vectorized CSR kernels; ``compiled`` optionally supplies an already
    compiled graph so batched callers pay compilation once.
    """
    canonical = resolve_method(method)
    if backend == "reference":
        scores = METHODS[canonical](qg, **options)
    elif backend == "compiled":
        scores = COMPILED_METHODS[canonical](qg, compiled=compiled, **options)
    else:
        raise RankingError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    return RankedResult(method=canonical, scores=dict(scores))
