"""Fig 8a: cost of the reliability evaluation strategies.

Times six configurations over the scenario-1 query graphs:

====  =====================================================
M1    traversal Monte Carlo, 10,000 trials, raw graph
M2    traversal Monte Carlo,  1,000 trials, raw graph
C     closed solution (per-target reduction + exact fallback)
R&M1  graph reduction, then Monte Carlo 10,000
R&M2  graph reduction, then Monte Carlo  1,000
R&C   graph reduction, then closed solution
====  =====================================================

Also reports the §4 side numbers: the average node+edge shrinkage from
the reductions (paper: −78 %) and the naive-vs-traversal Monte Carlo
speed-up (paper: 3.4x / −70 %, and 13.4x / −93 % with reduction).
Absolute milliseconds are hardware- and language-dependent; the paper's
*ordering* (R&M2 fastest, M1 slowest) is the reproduction target.

Every row calls :func:`repro.core.ranker.rank` directly, so the timed
window covers scoring only, with no cache in front of it. The Monte
Carlo rows are timed on both kernel backends, and the ``compiled``
timings show what the block-sampled CSR kernels buy on the same
graphs; their CSR forms are compiled before timing starts, while the
R&M rows pay the reduction on every call on either backend.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.api import RankingOptions
from repro.biology.scenarios import build_scenario
from repro.core.compile import compile_graph
from repro.core.graph import QueryGraph
from repro.core.montecarlo import naive_reliability
from repro.core.ranker import rank
from repro.core.reduction import reduce_graph
from repro.experiments.runner import DEFAULT_SEED, format_table

__all__ = ["StrategyTiming", "compute", "main"]


@dataclass
class StrategyTiming:
    label: str
    mean_ms: float
    std_ms: float


def _time_over_cases(
    graphs: List[QueryGraph], runner: Callable[[QueryGraph], object]
) -> StrategyTiming:
    samples = []
    for qg in graphs:
        start = time.perf_counter()
        runner(qg)
        samples.append((time.perf_counter() - start) * 1000.0)
    return StrategyTiming(
        label="",
        mean_ms=statistics.mean(samples),
        std_ms=statistics.pstdev(samples) if len(samples) > 1 else 0.0,
    )


def _strategy_suite(
    graphs: List[QueryGraph], backend: str, rng_seed: int, mc_only: bool = False
) -> Dict[str, Callable[[QueryGraph], object]]:
    """The timed Fig 8a rows over ``graphs``; ``mc_only`` restricts to
    the Monte Carlo rows (the closed-form solver has no compiled variant
    to time)."""

    # the timed window must cover scoring only (as the paper measures),
    # so the rows take kwargs built once from the typed options and, on
    # the compiled kernels, CSR forms compiled before any row is timed
    compiled = {id(qg): compile_graph(qg) for qg in graphs} if backend == "compiled" else {}

    def runner(**options):
        kwargs = RankingOptions(**options).to_kwargs("reliability", rng_seed)
        return lambda qg: rank(
            qg, "reliability", backend=backend, compiled=compiled.get(id(qg)), **kwargs
        )

    mc_rows = {
        "M1": runner(strategy="mc", reduce=False, trials=10_000),
        "M2": runner(strategy="mc", reduce=False, trials=1_000),
        "R&M1": runner(strategy="mc", reduce=True, trials=10_000),
        "R&M2": runner(strategy="mc", reduce=True, trials=1_000),
    }
    if mc_only:
        return mc_rows

    def reduced_then_closed(qg: QueryGraph):
        working, _ = reduce_graph(qg)
        return rank(working, "reliability", backend=backend, strategy="closed")

    return {  # the paper's row order: M1 M2 C R&M1 R&M2 R&C
        "M1": mc_rows["M1"],
        "M2": mc_rows["M2"],
        "C": runner(strategy="closed"),
        "R&M1": mc_rows["R&M1"],
        "R&M2": mc_rows["R&M2"],
        "R&C": reduced_then_closed,
    }


def compute(
    seed: int = DEFAULT_SEED, limit: Optional[int] = None, rng_seed: int = 1
) -> Dict[str, object]:
    """Timings plus reduction statistics over the scenario-1 graphs."""
    cases = build_scenario(1, seed=seed, limit=limit)
    graphs = [case.query_graph for case in cases]
    # the reduction statistics feed the -78% headline
    reduction_stats = [reduce_graph(qg)[1] for qg in graphs]

    timings: Dict[str, StrategyTiming] = {}
    for label, runner in _strategy_suite(graphs, "reference", rng_seed).items():
        timing = _time_over_cases(graphs, runner)
        timing.label = label
        timings[label] = timing

    # the same Monte Carlo rows on the compiled block-sampled kernels
    compiled_timings: Dict[str, StrategyTiming] = {}
    compiled_suite = _strategy_suite(graphs, "compiled", rng_seed, mc_only=True)
    for label, runner in compiled_suite.items():
        timing = _time_over_cases(graphs, runner)
        timing.label = label
        compiled_timings[label] = timing

    # naive vs traversal speed-up (paper: 3.4x on the raw graphs)
    naive = _time_over_cases(
        graphs, lambda qg: naive_reliability(qg, trials=1_000, rng=rng_seed)
    )
    combined_reduction = statistics.mean(
        s.combined_reduction for s in reduction_stats
    )
    return {
        "timings": timings,
        "compiled_timings": compiled_timings,
        "naive_ms": naive.mean_ms,
        "traversal_ms": timings["M2"].mean_ms,
        "reduced_traversal_ms": timings["R&M2"].mean_ms,
        "compiled_m2_ms": compiled_timings["M2"].mean_ms,
        "combined_reduction": combined_reduction,
    }


def main(seed: int = DEFAULT_SEED, limit: Optional[int] = None) -> str:
    data = compute(seed=seed, limit=limit)
    timings: Dict[str, StrategyTiming] = data["timings"]
    compiled: Dict[str, StrategyTiming] = data["compiled_timings"]
    paper_ms = {"M1": 731, "M2": 74, "C": 97, "R&M1": 151, "R&M2": 18, "R&C": 20}
    rows = [
        (
            label,
            f"{t.mean_ms:.1f}",
            f"{t.std_ms:.1f}",
            f"{compiled[label].mean_ms:.1f}" if label in compiled else "-",
            paper_ms[label],
        )
        for label, t in timings.items()
    ]
    table = format_table(
        ("strategy", "mean ms (ref)", "std", "ms (compiled)", "paper ms"),
        rows,
        title="Fig 8a: reliability evaluation strategies over scenario-1 graphs",
    )
    naive_speedup = data["naive_ms"] / data["traversal_ms"]
    reduced_speedup = data["naive_ms"] / data["reduced_traversal_ms"]
    compiled_speedup = data["traversal_ms"] / data["compiled_m2_ms"]
    extras = (
        f"\nreduction removes {100 * data['combined_reduction']:.0f}% of "
        f"nodes+edges (paper: 78%)"
        f"\ntraversal vs naive MC speed-up: {naive_speedup:.1f}x (paper: 3.4x)"
        f"\nreduction + traversal vs naive: {reduced_speedup:.1f}x (paper: 13.4x)"
        f"\ncompiled block-sampled vs reference traversal MC: "
        f"{compiled_speedup:.1f}x"
    )
    output = table + extras
    print(output)
    return output


if __name__ == "__main__":
    main()
