"""Vectorized scoring kernels over the compiled CSR representation.

These are the ``backend="compiled"`` implementations behind
:func:`repro.core.ranker.rank`: numpy array kernels that consume a
:class:`~repro.core.compile.CompiledGraph` instead of re-walking Python
dicts per call.

* :func:`propagation_scores_compiled` / :func:`diffusion_scores_compiled`
  run whole Jacobi sweeps as array operations (segment products /
  segment water-filling over the merged in-edge CSR).
* :func:`in_edge_scores_compiled` / :func:`path_count_scores_compiled`
  are array-based versions of the counting baselines.
* :func:`naive_reliability_compiled` / :func:`traversal_reliability_compiled`
  estimate reliability by **block-sampled** Monte Carlo: whole blocks of
  trial node/edge coins are drawn at once and reachability for the whole
  block is resolved by synchronous frontier sweeps. The estimator is
  statistically identical to the reference samplers but draws from a
  numpy RNG stream, so individual estimates differ from the dict
  backends by sampling noise (not semantics).

The reference dict implementations remain in their original modules and
stay the semantic ground truth; the property suite cross-checks the two
backends to 1e-9 on the deterministic methods.
"""

from __future__ import annotations

import random as _random_module
from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.core.closed_form import closed_form_reliability
from repro.core.compile import CompiledGraph, compile_graph
from repro.core.diffusion import (
    DEFAULT_MAX_ITERATIONS as DIFFUSION_MAX_ITERATIONS,
    DEFAULT_TOLERANCE as DIFFUSION_TOLERANCE,
    solve_incoming_diffusion,
)
from repro.core.exact import exact_reliability
from repro.core.graph import QueryGraph
from repro.core.propagation import (
    DEFAULT_MAX_ITERATIONS as PROPAGATION_MAX_ITERATIONS,
    DEFAULT_TOLERANCE as PROPAGATION_TOLERANCE,
)
from repro.core.reduction import reduce_graph
from repro.core.reliability import STOCHASTIC_STRATEGIES
from repro.errors import CycleError, GraphError, RankingError
from repro.utils.rng import RngLike

__all__ = [
    "COMPILED_METHODS",
    "propagation_scores_compiled",
    "diffusion_scores_compiled",
    "in_edge_scores_compiled",
    "path_count_scores_compiled",
    "naive_reliability_compiled",
    "traversal_reliability_compiled",
    "reliability_scores_compiled",
    "reduced_compiled",
    "samples_reduced_graph",
]

NodeId = Hashable

#: trials per sampled block — bounds peak memory at ``block * edges`` bools
DEFAULT_BLOCK_SIZE = 512


def _ensure_compiled(
    qg: Optional[QueryGraph], compiled: Optional[CompiledGraph]
) -> CompiledGraph:
    if compiled is not None:
        return compiled
    if qg is None:
        raise GraphError("need a QueryGraph or a CompiledGraph to score")
    return compile_graph(qg)


def _collect(
    cg: CompiledGraph, values: np.ndarray, all_nodes: bool
) -> Dict[NodeId, float]:
    wanted = range(cg.num_nodes) if all_nodes else cg.targets
    return {cg.node_ids[i]: float(values[i]) for i in wanted}


def _segment_prod(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Product of ``values`` within each CSR segment; 1.0 for empty ones.

    Empty segments occupy zero width, so the starts of the non-empty
    segments are exactly the reduceat boundaries.
    """
    n = len(offsets) - 1
    result = np.ones(n, dtype=np.float64)
    if values.size == 0:
        return result
    starts = offsets[:-1]
    nonempty = starts < offsets[1:]
    result[nonempty] = np.multiply.reduceat(values, starts[nonempty])
    return result


# --------------------------------------------------------------------- #
# propagation
# --------------------------------------------------------------------- #


def propagation_scores_compiled(
    qg: Optional[QueryGraph] = None,
    compiled: Optional[CompiledGraph] = None,
    iterations: Optional[int] = None,
    tolerance: float = PROPAGATION_TOLERANCE,
    max_iterations: int = PROPAGATION_MAX_ITERATIONS,
    all_nodes: bool = False,
) -> Dict[NodeId, float]:
    """Vectorized Jacobi sweeps for the §3.2 propagation fixed point.

    One sweep is three array operations: the per-edge survival terms
    ``1 - r[x] * q``, a segment product over the merged in-edge CSR, and
    the node update ``(1 - survive) * p``. Within a segment the in-edge
    entries are ordered by predecessor index (the lazy CSR transpose),
    which may permute the reference backend's product order — the same
    terms, so the results agree to float round-off.
    """
    cg = _ensure_compiled(qg, compiled)
    r = np.zeros(cg.num_nodes, dtype=np.float64)
    r[cg.source] = 1.0

    sweeps = max_iterations if iterations is None else iterations
    converged = iterations is not None
    for _ in range(sweeps):
        survive = _segment_prod(1.0 - r[cg.in_sources] * cg.in_q, cg.in_offsets)
        updated = (1.0 - survive) * cg.p
        updated[cg.source] = 1.0
        delta = float(np.max(np.abs(updated - r))) if cg.num_nodes else 0.0
        r = updated
        if iterations is None and delta < tolerance:
            converged = True
            break
    if not converged:
        raise RankingError(
            f"propagation did not converge within {max_iterations} sweeps"
        )
    return _collect(cg, r, all_nodes)


# --------------------------------------------------------------------- #
# diffusion
# --------------------------------------------------------------------- #


def _segment_prefix_sum(
    values: np.ndarray, seg_id: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Inclusive prefix sums restarting at every CSR segment boundary.

    Computed with a Hillis–Steele doubling scan masked to stay inside
    each segment, so every prefix is a fixed-shape summation tree over
    *that segment's values only* — no float contamination from
    neighbouring segments (unlike differencing a global ``cumsum``),
    which is what keeps sharded and single-engine diffusion
    bit-identical.
    """
    prefix = values.copy()
    if prefix.size == 0:
        return prefix
    position = np.arange(len(values), dtype=np.int64) - starts[seg_id]
    # each doubling pass touches only the elements whose in-segment
    # position still reaches back `shift` slots, so the active set
    # shrinks geometrically: near-O(E) total for bounded in-degrees,
    # and hub segments pay O(d log d) instead of full-array passes
    active = np.nonzero(position >= 1)[0]
    shift = 1
    while active.size:
        # the right-hand side is gathered before assignment, so every
        # update reads the previous pass's values (Jacobi-style)
        prefix[active] += prefix[active - shift]
        shift *= 2
        active = active[position[active] >= shift]
    return prefix


def _segment_water_fill(
    cg: CompiledGraph, r: np.ndarray, seg_id: np.ndarray
) -> np.ndarray:
    """Solve ``rbar = sum_i max((r_i - rbar) * q_i, 0)`` for every node.

    The vectorized analogue of
    :func:`repro.core.diffusion.solve_incoming_diffusion`: incoming
    contributions are sorted within each in-edge segment by ``(r, q)``
    descending, segment cumulative sums give the candidate fixed point of
    every active-set size ``k``, and the first self-consistent candidate
    (``r_k >= rbar_k >= r_{k+1}``) is selected per segment. Dead entries
    (``r <= 0`` or ``q <= 0``) are zeroed, which sorts them to the tail
    where they cannot perturb the live prefix. Segments where float
    round-off defeats every consistency check fall back to the scalar
    reference solver, mirroring its bisection guard.
    """
    n = cg.num_nodes
    rbar = np.zeros(n, dtype=np.float64)
    if cg.in_q.size == 0:
        return rbar

    r_in = r[cg.in_sources]
    q_in = cg.in_q.copy()
    dead = (r_in <= 0.0) | (q_in <= 0.0)
    r_in = np.where(dead, 0.0, r_in)
    q_in = np.where(dead, 0.0, q_in)

    order = np.lexsort((-q_in, -r_in, seg_id))
    rs = r_in[order]
    qs = q_in[order]

    starts = cg.in_offsets[:-1]
    ends = cg.in_offsets[1:]
    nonempty = starts < ends

    # within-segment inclusive prefix sums, computed *segment-locally*
    # (a per-segment tree scan): a node's candidate fixed points must be
    # a function of its own in-segment only, so that a node embedded in
    # two different graphs (a shard's partition view and the full graph)
    # gets bit-identical scores — deriving the prefixes from global
    # cumulative sums would leak other segments' round-off in
    cum_rq = _segment_prefix_sum(rs * qs, seg_id, starts)
    cum_q = _segment_prefix_sum(qs, seg_id, starts)
    candidate = cum_rq / (1.0 + cum_q)

    next_r = np.zeros_like(rs)
    next_r[:-1] = rs[1:]
    next_r[ends[nonempty] - 1] = 0.0  # last entry of each segment
    valid = (candidate <= rs) & (candidate >= next_r)

    total = len(rs)
    positions = np.where(valid, np.arange(total), total)
    first = np.full(n, total, dtype=np.int64)
    first[nonempty] = np.minimum.reduceat(positions, starts[nonempty])

    found = first < total
    rbar[found] = candidate[first[found]]
    for node in np.nonzero(nonempty & ~found)[0]:
        lo, hi = starts[node], ends[node]
        rbar[node] = solve_incoming_diffusion(list(zip(rs[lo:hi], qs[lo:hi])))
    return rbar


def diffusion_scores_compiled(
    qg: Optional[QueryGraph] = None,
    compiled: Optional[CompiledGraph] = None,
    iterations: Optional[int] = None,
    tolerance: float = DIFFUSION_TOLERANCE,
    max_iterations: int = DIFFUSION_MAX_ITERATIONS,
    all_nodes: bool = False,
) -> Dict[NodeId, float]:
    """Vectorized Jacobi sweeps for the §3.3 diffusion fixed point."""
    cg = _ensure_compiled(qg, compiled)
    n = cg.num_nodes
    seg_id = np.repeat(np.arange(n, dtype=np.int64), np.diff(cg.in_offsets))
    r = np.zeros(n, dtype=np.float64)
    r[cg.source] = 1.0

    sweeps = max_iterations if iterations is None else iterations
    converged = iterations is not None
    for _ in range(sweeps):
        updated = _segment_water_fill(cg, r, seg_id) * cg.p
        updated[cg.source] = 1.0
        delta = float(np.max(np.abs(updated - r))) if n else 0.0
        r = updated
        if iterations is None and delta < tolerance:
            converged = True
            break
    if not converged:
        raise RankingError(
            f"diffusion did not converge within {max_iterations} sweeps"
        )
    return _collect(cg, r, all_nodes)


# --------------------------------------------------------------------- #
# counting baselines
# --------------------------------------------------------------------- #


def in_edge_scores_compiled(
    qg: Optional[QueryGraph] = None,
    compiled: Optional[CompiledGraph] = None,
    all_nodes: bool = False,
) -> Dict[NodeId, float]:
    """InEdge from the precompiled raw in-degree array."""
    cg = _ensure_compiled(qg, compiled)
    return _collect(cg, cg.raw_in_degree.astype(np.float64), all_nodes)


#: path-count magnitude that triggers the exact big-int fallback; any
#: node below it cannot push a successor past int64 even through 2^22
#: incoming edge multiplicities
_PATH_COUNT_GUARD = 1 << 40


def path_count_scores_compiled(
    qg: Optional[QueryGraph] = None,
    compiled: Optional[CompiledGraph] = None,
    all_nodes: bool = False,
) -> Dict[NodeId, float]:
    """PathCount by a topological DP over the merged out-edge CSR.

    Merged entries carry their parallel-edge multiplicity, so the DP
    ``counts[v] += counts[u] * mult`` reproduces the raw multi-edge
    count of the reference backend. Counts run in int64 for speed;
    should any count reach :data:`_PATH_COUNT_GUARD` the DP restarts
    with Python's arbitrary-precision ints (the reference arithmetic),
    because a silent int64 wrap would return garbage rankings.
    """
    cg = _ensure_compiled(qg, compiled)
    n = cg.num_nodes
    indegree = np.diff(cg.in_offsets).copy()
    ready = list(np.nonzero(indegree == 0)[0])
    counts = np.zeros(n, dtype=np.int64)
    counts[cg.source] = 1
    order: List[int] = []
    overflow = False
    while ready:
        u = ready.pop()
        order.append(u)
        if counts[u] >= _PATH_COUNT_GUARD:
            overflow = True  # keep walking: the full order detects cycles
        lo, hi = cg.out_offsets[u], cg.out_offsets[u + 1]
        segment = cg.out_targets[lo:hi]
        if not overflow:
            counts[segment] += counts[u] * cg.out_mult[lo:hi]
        indegree[segment] -= 1
        ready.extend(segment[indegree[segment] == 0])
    if len(order) != n:
        raise CycleError(
            "PathCount is undefined on cyclic graphs (infinitely many paths)"
        )
    if overflow:
        exact: List[int] = [0] * n
        exact[cg.source] = 1
        for u in order:
            if exact[u] == 0:
                continue
            for k in range(cg.out_offsets[u], cg.out_offsets[u + 1]):
                exact[cg.out_targets[k]] += exact[u] * int(cg.out_mult[k])
        return _collect(cg, np.array([float(c) for c in exact]), all_nodes)
    return _collect(cg, counts.astype(np.float64), all_nodes)


# --------------------------------------------------------------------- #
# Monte Carlo reliability
# --------------------------------------------------------------------- #


def _numpy_rng(rng: RngLike) -> np.random.Generator:
    """Coerce the library-wide RngLike into a numpy Generator.

    A ``random.Random`` is consumed for a 64-bit seed so the compiled
    and reference estimators stay jointly reproducible from one stream.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, _random_module.Random):
        return np.random.default_rng(rng.getrandbits(64))
    if isinstance(rng, int):
        return np.random.default_rng(rng)
    raise TypeError(
        f"expected None, int, random.Random or numpy Generator, "
        f"got {type(rng).__name__}"
    )


def _block_reliability(
    cg: CompiledGraph,
    trials: int,
    rng: RngLike,
    all_nodes: bool,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Dict[NodeId, float]:
    """Block-sampled Monte Carlo reachability over the CSR arrays.

    Each block draws node and merged-edge coins for ``block`` trials at
    once; reachability for the whole block is then resolved by repeated
    synchronous frontier sweeps (one segment-any per sweep) until no
    trial gains a node. ``r(t)`` is the fraction of trials in which ``t``
    was present and reached through present nodes and edges — the same
    estimand as both reference samplers.
    """
    if trials < 1:
        raise GraphError(f"trials must be >= 1, got {trials}")
    generator = _numpy_rng(rng)
    n = cg.num_nodes
    m = len(cg.in_q)
    starts = cg.in_offsets[:-1]
    nonempty = starts < cg.in_offsets[1:]
    nonempty_starts = starts[nonempty]
    reach_count = np.zeros(n, dtype=np.int64)

    # node-major layout: gathering edge rows from a (n, block) array is a
    # contiguous row copy, measurably faster than the column gather of
    # the trial-major layout
    done = 0
    while done < trials:
        block = min(block_size, trials - done)
        done += block
        present = generator.random((n, block)) <= cg.p[:, None]
        edge_ok = (
            generator.random((m, block)) <= cg.in_q[:, None]
        ) & present[cg.in_sources]
        reached = np.zeros((n, block), dtype=bool)
        reached[cg.source] = present[cg.source]
        while True:
            via = reached[cg.in_sources] & edge_ok
            gained = np.zeros((n, block), dtype=bool)
            if m:
                gained[nonempty] = np.logical_or.reduceat(
                    via, nonempty_starts, axis=0
                )
            updated = reached | (gained & present)
            if np.array_equal(updated, reached):
                break
            reached = updated
        reach_count += reached.sum(axis=1)

    return _collect(cg, reach_count / float(trials), all_nodes)


def naive_reliability_compiled(
    qg: Optional[QueryGraph] = None,
    compiled: Optional[CompiledGraph] = None,
    trials: int = 1000,
    rng: RngLike = None,
    all_nodes: bool = False,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Dict[NodeId, float]:
    """Compiled analogue of :func:`repro.core.montecarlo.naive_reliability`."""
    cg = _ensure_compiled(qg, compiled)
    return _block_reliability(cg, trials, rng, all_nodes, block_size)


def traversal_reliability_compiled(
    qg: Optional[QueryGraph] = None,
    compiled: Optional[CompiledGraph] = None,
    trials: int = 1000,
    rng: RngLike = None,
    all_nodes: bool = False,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Dict[NodeId, float]:
    """Compiled analogue of Algorithm 3.1's traversal estimator.

    With blockwise array sampling the coin-flip saving that motivates
    the scalar traversal trick disappears (coins cost one vectorized
    draw either way), so both compiled estimators share the block
    reachability kernel; they remain statistically identical to their
    scalar counterparts.
    """
    cg = _ensure_compiled(qg, compiled)
    return _block_reliability(cg, trials, rng, all_nodes, block_size)


def samples_reduced_graph(strategy: str, reduce: object = True) -> bool:
    """Whether reliability ``strategy`` samples the *reduced* graph: the
    Monte Carlo strategies with ``reduce`` on, and ``"auto"`` always."""
    return strategy in STOCHASTIC_STRATEGIES and bool(reduce or strategy == "auto")


def reduced_compiled(qg: QueryGraph) -> CompiledGraph:
    """The CSR form of ``qg`` after the §3.1 reductions — the graph the
    reducing Monte Carlo strategies sample."""
    working, _ = reduce_graph(qg)
    return compile_graph(working)


def reliability_scores_compiled(
    qg: Optional[QueryGraph] = None,
    compiled: Optional[CompiledGraph] = None,
    strategy: str = "auto",
    trials: int = 1000,
    reduce: bool = True,
    rng: RngLike = None,
    reduced: Optional[CompiledGraph] = None,
) -> Dict[NodeId, float]:
    """Compiled front door mirroring
    :func:`repro.core.reliability.reliability_scores`.

    The exact and closed-form strategies are already deterministic
    dict-level solvers shared by both backends; the Monte Carlo
    strategies run the block-sampled kernel. When reduction is applied
    the reduced graph is recompiled (a precompiled IR of the unreduced
    graph cannot be reused) unless ``reduced`` supplies that IR, as
    :func:`reduced_compiled` built it — the engine memoises it per graph.
    """
    if strategy == "exact":
        if qg is None:
            raise GraphError("exact reliability needs the QueryGraph")
        return exact_reliability(qg)
    if strategy == "closed":
        if qg is None:
            raise GraphError("closed-form reliability needs the QueryGraph")
        return closed_form_reliability(qg, fallback="exact").scores
    if strategy in STOCHASTIC_STRATEGIES:
        cg = compiled
        if samples_reduced_graph(strategy, reduce):
            if reduced is not None:
                cg = reduced
            elif qg is not None:
                cg = reduced_compiled(qg)
        cg = _ensure_compiled(qg, cg)
        return _block_reliability(cg, trials, rng, all_nodes=False)
    raise RankingError(f"unknown reliability strategy {strategy!r}")


def _random_scores_compiled(
    qg: Optional[QueryGraph] = None,
    compiled: Optional[CompiledGraph] = None,
) -> Dict[NodeId, float]:
    """The "Random" baseline is backend-independent: all answers tied."""
    cg = _ensure_compiled(qg, compiled)
    return {cg.node_ids[i]: 0.0 for i in cg.targets}


#: compiled-backend registry, mirroring ``repro.core.ranker.METHODS``
COMPILED_METHODS = {
    "reliability": reliability_scores_compiled,
    "propagation": propagation_scores_compiled,
    "diffusion": diffusion_scores_compiled,
    "in_edge": in_edge_scores_compiled,
    "path_count": path_count_scores_compiled,
    "random": _random_scores_compiled,
}
