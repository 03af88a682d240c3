"""Fig 8a: cost of the six reliability evaluation strategies.

Benchmarks M1/M2/C/R&M1/R&M2/R&C on the ABCC8 query graph through
:func:`repro.core.ranker.rank` directly (as the experiment driver
does), so the rows time the scoring work with no cache in front of it.
The paper's shape to verify in the output: the reduced variants crush
the raw ones, R&M2 and R&C are the cheapest, M1 is the most expensive.
The compiled M2 row shows the block-sampled CSR kernel, on a graph
compiled before timing, against the scalar traversal sampler.
"""

import pytest

from repro.core.compile import compile_graph
from repro.core.ranker import rank
from repro.core.reduction import reduce_graph


@pytest.mark.benchmark(group="fig8a-reliability-strategies")
class TestFig8a:
    def test_m1_monte_carlo_10k(self, benchmark, abcc8):
        qg = abcc8.query_graph
        benchmark.pedantic(
            lambda: rank(
                qg, "reliability", backend="reference",
                strategy="mc", reduce=False, trials=10_000, rng=1,
            ),
            rounds=1,
            iterations=1,
        )

    def test_m2_monte_carlo_1k(self, benchmark, abcc8):
        qg = abcc8.query_graph
        benchmark.pedantic(
            lambda: rank(
                qg, "reliability", backend="reference",
                strategy="mc", reduce=False, trials=1_000, rng=1,
            ),
            rounds=3,
            iterations=1,
        )

    def test_m2_compiled_block_1k(self, benchmark, abcc8):
        qg = abcc8.query_graph
        compiled = compile_graph(qg)
        benchmark.pedantic(
            lambda: rank(
                qg, "reliability", backend="compiled", compiled=compiled,
                strategy="mc", reduce=False, trials=1_000, rng=1,
            ),
            rounds=3,
            iterations=1,
        )

    def test_c_closed_solution(self, benchmark, abcc8):
        qg = abcc8.query_graph
        benchmark.pedantic(
            lambda: rank(qg, "reliability", strategy="closed"),
            rounds=3,
            iterations=1,
        )

    def test_r_m1_reduce_then_10k(self, benchmark, abcc8):
        qg = abcc8.query_graph
        benchmark.pedantic(
            lambda: rank(
                qg, "reliability", backend="reference",
                strategy="mc", reduce=True, trials=10_000, rng=1,
            ),
            rounds=1,
            iterations=1,
        )

    def test_r_m2_reduce_then_1k(self, benchmark, abcc8):
        qg = abcc8.query_graph
        benchmark.pedantic(
            lambda: rank(
                qg, "reliability", backend="reference",
                strategy="mc", reduce=True, trials=1_000, rng=1,
            ),
            rounds=3,
            iterations=1,
        )

    def test_r_c_reduce_then_closed(self, benchmark, abcc8):
        qg = abcc8.query_graph

        def run():
            working, _ = reduce_graph(qg)
            return rank(working, "reliability", strategy="closed")

        benchmark.pedantic(run, rounds=3, iterations=1)
