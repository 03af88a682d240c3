"""Fig 8b: cost of the five ranking methods on the scenario-1 graphs.

Reliability is evaluated with the paper's benchmark configuration —
graph reduction followed by 1,000 traversal Monte Carlo trials (the
"R&M2" winner of Fig 8a). The paper's shape: the deterministic methods
are one to two orders of magnitude cheaper than the probabilistic ones,
with reliability the most expensive, yet all stay interactive.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.api import RankingOptions
from repro.biology.scenarios import build_scenario
from repro.core.compile import compile_graph
from repro.core.ranker import rank
from repro.experiments.runner import (
    ALL_METHODS,
    DEFAULT_SEED,
    METHOD_LABELS,
    format_table,
)

__all__ = ["MethodTiming", "compute", "main"]

#: per-method options for the timing run (reliability = R&M2)
TIMING_OPTIONS: Dict[str, RankingOptions] = {
    "reliability": RankingOptions(strategy="mc", trials=1000, reduce=True),
}

#: the Monte Carlo seed of the timing run
TIMING_SEED = 1

PAPER_MS = {
    "reliability": 17.9,
    "propagation": 5.2,
    "diffusion": 5.8,
    "in_edge": 0.5,
    "path_count": 1.0,
}


@dataclass
class MethodTiming:
    method: str
    mean_ms: float
    std_ms: float


def compute(
    seed: int = DEFAULT_SEED,
    limit: Optional[int] = None,
    backend: str = "reference",
) -> List[MethodTiming]:
    cases = build_scenario(1, seed=seed, limit=limit)
    # time scoring only, as the paper does: the free ``rank`` call, with
    # no cache in front of it and, on the compiled kernels, the CSR
    # forms compiled before timing starts
    graphs = [case.query_graph for case in cases]
    compiled = [compile_graph(qg) if backend == "compiled" else None for qg in graphs]
    timings: List[MethodTiming] = []
    for method in ALL_METHODS:
        samples = []
        options = TIMING_OPTIONS.get(method) or RankingOptions()
        kwargs = options.to_kwargs(method, TIMING_SEED)
        for qg, csr in zip(graphs, compiled):
            start = time.perf_counter()
            rank(qg, method, backend=backend, compiled=csr, **kwargs)
            samples.append((time.perf_counter() - start) * 1000.0)
        timings.append(
            MethodTiming(
                method=method,
                mean_ms=statistics.mean(samples),
                std_ms=statistics.pstdev(samples) if len(samples) > 1 else 0.0,
            )
        )
    return timings


def main(seed: int = DEFAULT_SEED, limit: Optional[int] = None) -> str:
    timings = compute(seed=seed, limit=limit)
    rows = [
        (
            METHOD_LABELS[t.method],
            f"{t.mean_ms:.2f}",
            f"{t.std_ms:.2f}",
            PAPER_MS[t.method],
        )
        for t in timings
    ]
    table = format_table(
        ("method", "mean ms (ours)", "std", "paper ms"),
        rows,
        title="Fig 8b: cost of the 5 ranking methods (scenario-1 graphs)",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
