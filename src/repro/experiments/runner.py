"""Shared experiment machinery: AP evaluation and table formatting.

All scoring in the experiment drivers flows through one
:class:`~repro.api.Session` (:func:`default_session`), so every query
graph is compiled into the shared CSR form once and its deterministic
scores are cached across methods and figures. Graph materialisation
upstream of the drivers is set-at-a-time end to end:
:func:`~repro.biology.scenarios.build_scenario` executes the scenario
queries through the frontier-batched builder (storage batch lookups +
mediator binding plans), and sessions over a mediator additionally
serve repeated queries from the epoch-guarded query cache.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.api import RankingOptions, Session
from repro.biology.scenarios import ScenarioCase
from repro.engine import RankingEngine
from repro.errors import RankingError
from repro.metrics import expected_average_precision, random_average_precision

__all__ = [
    "DEFAULT_SEED",
    "ALL_METHODS",
    "RANK_OPTIONS",
    "MethodScore",
    "default_session",
    "evaluate_scenario_ap",
    "format_table",
    "rank_kwargs",
    "split_rank_options",
]

#: the seed every published experiment in this repo uses
DEFAULT_SEED = 0

#: evaluation order mirrors the paper's figures: Rel Prop Diff InEdge PathC
ALL_METHODS: Sequence[str] = (
    "reliability",
    "propagation",
    "diffusion",
    "in_edge",
    "path_count",
)

OptionsLike = Union[RankingOptions, Mapping[str, object]]

#: per-method ranking options used throughout the experiments. Reliability
#: uses the closed-form pipeline (exact, deterministic — the paper showed
#: the per-target queries admit closed solutions); Monte Carlo variants
#: are exercised separately by fig7/fig8a. Values stay plain mappings so
#: the pre-facade spelling ``rank(qg, m, **RANK_OPTIONS.get(m, {}))``
#: keeps working; facade callers coerce via :class:`RankingOptions`.
RANK_OPTIONS: Mapping[str, OptionsLike] = {
    "reliability": {"strategy": "closed"},
}

#: the session shared by the experiment drivers (serving defaults)
_SESSION: Optional[Session] = None


def default_session() -> Session:
    """The process-wide session the experiment drivers rank through."""
    global _SESSION
    if _SESSION is None:
        _SESSION = Session()
    return _SESSION


def split_rank_options(
    options: Optional[OptionsLike],
) -> "tuple[RankingOptions, Optional[int]]":
    """Coerce a pre-facade options mapping into (RankingOptions, seed).

    Mappings may carry the legacy ``rng`` key (an integer seed, as the
    low-level ``rank()`` accepted); it becomes the session-path seed so
    seeded Monte Carlo sweeps stay reproducible through the facade.
    """
    if options is None:
        return RankingOptions(), None
    if isinstance(options, RankingOptions):
        return options, None
    data = dict(options)
    seed = data.pop("rng", None)
    if seed is not None and not isinstance(seed, int):
        raise RankingError(
            f"rank_options['rng'] must be an integer seed on the session "
            f"path, got {seed!r}; pass a shared random.Random only to the "
            f"low-level rank()"
        )
    return RankingOptions.from_dict(data), seed


def rank_kwargs(method: str) -> Dict[str, object]:
    """The :data:`RANK_OPTIONS` entry of ``method`` as the raw keyword
    arguments the low-level ``rank()`` call accepts (what pre-facade
    consumers like the sensitivity sweeps expect)."""
    options, seed = split_rank_options(RANK_OPTIONS.get(method))
    return options.to_kwargs(method, seed)


#: display labels matching the paper's axis ticks
METHOD_LABELS: Mapping[str, str] = {
    "reliability": "Rel",
    "propagation": "Prop",
    "diffusion": "Diff",
    "in_edge": "InEdge",
    "path_count": "PathC",
    "random": "Random",
}


@dataclass
class MethodScore:
    """Mean/stdev AP of one ranking method over a scenario's cases."""

    method: str
    mean_ap: float
    std_ap: float
    per_case: Dict[str, float] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return METHOD_LABELS.get(self.method, self.method)


def evaluate_scenario_ap(
    cases: Sequence[ScenarioCase],
    methods: Sequence[str] = ALL_METHODS,
    rank_options: Optional[Mapping[str, OptionsLike]] = None,
    include_random: bool = True,
    session: Optional[Session] = None,
    engine: Optional[RankingEngine] = None,
) -> List[MethodScore]:
    """Tie-aware expected AP of each method over ``cases``.

    The "Random" baseline is the analytic expected AP of an arbitrarily
    ordered list (Definition 4.1), evaluated per case and averaged, as
    in Fig 5. Scoring goes through ``session`` (the shared
    :func:`default_session` when omitted), so each case's graph is
    compiled once for all methods. ``engine`` is the deprecated
    pre-facade spelling and wins when supplied.
    """
    if engine is None:
        session = session or default_session()
    options: Dict[str, OptionsLike] = dict(RANK_OPTIONS)
    options.update(rank_options or {})
    scores: List[MethodScore] = []
    for method in methods:
        if engine is not None:
            method_kwargs = options.get(method, {})
            if isinstance(method_kwargs, RankingOptions):
                method_kwargs = method_kwargs.to_kwargs(method)
        else:
            method_options, seed = split_rank_options(options.get(method))
        per_case: Dict[str, float] = {}
        for case in cases:
            if engine is not None:
                result = engine.rank(case.query_graph, method, **method_kwargs)
            else:
                result = session.rank(
                    case.query_graph, method, options=method_options, seed=seed
                )
            per_case[case.name] = expected_average_precision(
                result.scores, case.relevant
            )
        scores.append(_summarise(method, per_case))
    if include_random:
        per_case = {
            case.name: random_average_precision(case.n_relevant, case.n_total)
            for case in cases
        }
        scores.append(_summarise("random", per_case))
    return scores


def _summarise(method: str, per_case: Dict[str, float]) -> MethodScore:
    values = list(per_case.values())
    mean = sum(values) / len(values)
    std = statistics.pstdev(values) if len(values) > 1 else 0.0
    return MethodScore(method=method, mean_ap=mean, std_ap=std, per_case=per_case)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Plain-text table with column auto-sizing (no third-party deps)."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
