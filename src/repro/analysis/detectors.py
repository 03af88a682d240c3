"""The built-in detector suite (REPRO101 – REPRO108).

Each detector guards one class of silent misconfiguration the paper's
mediated integration model admits: irreducible subgraphs that force
Monte Carlo fallback, dangling source references, partition layouts
breaking the sink rule, slow-path regressions (unindexed probes,
vectorization blockers), confidence values whose tiny perturbation
reorders a sink ranking, and staleness-tracking misconfiguration.

Detectors observe; they never mutate the mediator, tables or engine
state. Importing :mod:`repro.analysis` registers all of them.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis.derive import (
    ancestor_restricted,
    derived_er_schema,
    has_cycle,
    strongly_connected_components,
)
from repro.analysis.framework import (
    AnalysisContext,
    Detection,
    Severity,
    detector,
)
from repro.core.graph import ProbabilisticEntityGraph, QueryGraph
from repro.core.ranker import rank
from repro.integration.partition import (
    no_sink_sets_message,
    non_sink_partition_message,
    unknown_partition_sets_message,
)
from repro.integration.sources import weight_column_of
from repro.schema.reducibility import check_reducibility_per_target

__all__ = ["SAMPLE_ROWS", "CONFIDENCE_EPSILON"]

#: rows sampled per table when estimating mean pr/qr weights
SAMPLE_ROWS = 32

#: the ±ε applied to each explicitly set ps/qs (REPRO107)
CONFIDENCE_EPSILON = 0.05

#: strictly-greater margin when comparing sample-instance scores
_SCORE_MARGIN = 1e-12


# ---------------------------------------------------------------------- #
# REPRO101 — irreducible subgraph (Monte Carlo fallback)
# ---------------------------------------------------------------------- #


@detector(
    "REPRO101",
    name="irreducible-subgraph",
    severity=Severity.WARNING,
    description=(
        "an answer set's ancestor schema is not provably reducible "
        "(Thm 3.2): exact reliability falls back to Monte Carlo"
    ),
)
def check_irreducible_subgraphs(context: AnalysisContext) -> Iterator[Detection]:
    schema = derived_er_schema(context)
    if not schema.relationships:
        return
    for sink in context.sink_sets():
        restricted = ancestor_restricted(schema, sink)
        if not restricted.relationships:
            continue
        if has_cycle(restricted):
            continue  # cyclic cores are REPRO103's finding, not this one
        report = check_reducibility_per_target(restricted, sink)
        if not report:
            yield Detection(
                code="REPRO101",
                severity=Severity.WARNING,
                location=f"entity_sets.{sink}",
                message=(
                    f"answer set {sink!r}: its ancestor schema "
                    f"({len(restricted.relationships)} relationship(s)) is "
                    f"not provably reducible — {report.reason}; "
                    f"reliability ranking over {sink!r} will use the "
                    f"Monte Carlo estimator instead of the closed form"
                ),
                fix=(
                    "declare unique indexes on link-table key columns to "
                    "prove [1:n]/[n:1] cardinalities, or accept the "
                    "seeded-MC ranking cost"
                ),
            )


# ---------------------------------------------------------------------- #
# REPRO102 — dangling / unregistered source references
# ---------------------------------------------------------------------- #


@detector(
    "REPRO102",
    name="dangling-source-reference",
    severity=Severity.ERROR,
    description=(
        "a relationship binding points at an entity set no registered "
        "source provides"
    ),
)
def check_dangling_references(context: AnalysisContext) -> Iterator[Detection]:
    provided = set(context.provided_sets())
    for source in context.mediator.sources:
        for binding in source.relationships:
            where = f"sources.{source.name}.relationships.{binding.relationship}"
            if binding.target_entity not in provided:
                yield Detection(
                    code="REPRO102",
                    severity=Severity.ERROR,
                    location=where,
                    message=(
                        f"relationship {binding.relationship!r} targets "
                        f"entity set {binding.target_entity!r}, which no "
                        f"registered source provides; its links can never "
                        f"resolve to records and every traversal through "
                        f"them dangles"
                    ),
                    fix=(
                        f"register a source with an EntityBinding for "
                        f"{binding.target_entity!r}, or drop the binding"
                    ),
                )
            elif binding.source_entity not in provided:
                # legitimate while a provider registers later (or for
                # query pseudo-sets), but worth a note: the links are
                # dead until then
                yield Detection(
                    code="REPRO102",
                    severity=Severity.NOTE,
                    location=where,
                    message=(
                        f"relationship {binding.relationship!r} leaves "
                        f"entity set {binding.source_entity!r}, which no "
                        f"registered source provides yet; the links are "
                        f"unreachable until a provider registers"
                    ),
                )


# ---------------------------------------------------------------------- #
# REPRO103 — cyclic relationships (MC-only ranking)
# ---------------------------------------------------------------------- #


@detector(
    "REPRO103",
    name="cyclic-relationships",
    severity=Severity.NOTE,
    description=(
        "relationship bindings form a directed cycle: DAG-only ranking "
        "methods are unavailable over instances that realise it"
    ),
)
def check_cyclic_relationships(context: AnalysisContext) -> Iterator[Detection]:
    provided = context.provided_sets()
    edges: List[Tuple[str, str]] = []
    names: Dict[Tuple[str, str], List[str]] = {}
    for entity_set, plan in context.relationship_plans():
        if plan.target_entity not in provided:
            continue
        edge = (entity_set, plan.target_entity)
        edges.append(edge)
        names.setdefault(edge, []).append(plan.relationship)
    for component in strongly_connected_components(provided, edges):
        member = set(component)
        involved = sorted(
            {
                name
                for (src, dst), rels in names.items()
                if src in member and dst in member
                for name in rels
            }
        )
        yield Detection(
            code="REPRO103",
            severity=Severity.NOTE,
            location=f"entity_sets.{'+'.join(component)}",
            message=(
                f"entity set(s) {component} form a relationship cycle via "
                f"{involved}; instances realising it are cyclic graphs, so "
                f"propagation/diffusion (DAG-only) raise and reliability "
                f"ranking is Monte Carlo only"
            ),
        )


# ---------------------------------------------------------------------- #
# REPRO104 — partition-rule violations (sink-set / ancestor closure)
# ---------------------------------------------------------------------- #


@detector(
    "REPRO104",
    name="partition-rule-violation",
    severity=Severity.ERROR,
    description=(
        "the shard layout violates the sink-set rule, so sharded scores "
        "would diverge from single-engine scores"
    ),
)
def check_partition_rules(context: AnalysisContext) -> Iterator[Detection]:
    router = context.router
    if router is not None:
        partitioned = sorted(router.partitioned_sets)
        seen: Dict[str, None] = {}
        for shard_mediator in router.mediators:
            message = unknown_partition_sets_message(
                shard_mediator, partitioned
            ) or non_sink_partition_message(shard_mediator, partitioned)
            if message is not None and message not in seen:
                seen[message] = None
                yield Detection(
                    code="REPRO104",
                    severity=Severity.ERROR,
                    location="router.partitioned_sets",
                    message=message,
                    fix=(
                        "partition only traversal sinks (see "
                        "repro.integration.partition.sink_entity_sets)"
                    ),
                )
        return
    if context.config.shards > 1 and context.provided_sets():
        if not context.sink_sets():
            yield Detection(
                code="REPRO104",
                severity=Severity.ERROR,
                location="config.shards",
                message=no_sink_sets_message(),
            )


# ---------------------------------------------------------------------- #
# REPRO105 — unindexed probe columns (per-probe full scans)
# ---------------------------------------------------------------------- #


@detector(
    "REPRO105",
    name="unindexed-probe-column",
    severity=Severity.WARNING,
    description=(
        "a column the traversal probes on every BFS level has no index: "
        "each probe batch is a full scan"
    ),
)
def check_unindexed_probes(context: AnalysisContext) -> Iterator[Detection]:
    for entity_set in context.provided_sets():
        plan = context.entity_plan(entity_set)
        table = plan.table
        probe = getattr(table, "has_index", None)
        if probe is None or getattr(table, "supports_columnar", False):
            continue
        if len(table) and not probe((plan.key_column,)):
            yield Detection(
                code="REPRO105",
                severity=Severity.WARNING,
                location=f"sources.{plan.source.name}.entities.{entity_set}",
                message=(
                    f"entity table {plan.binding.table!r} has no index on "
                    f"key column {plan.key_column!r}; resolving "
                    f"{entity_set!r} records scans all "
                    f"{len(table)} rows per traversal level"
                ),
                fix=(
                    f"declare primary_key=[{plan.key_column!r}] or "
                    f"create_index('by_{plan.key_column}', "
                    f"[{plan.key_column!r}])"
                ),
            )
    for entity_set, plan in context.relationship_plans():
        table = plan.table
        probe = getattr(table, "has_index", None)
        if probe is None or getattr(table, "supports_columnar", False):
            continue
        if len(table) and not probe((plan.source_column,)):
            yield Detection(
                code="REPRO105",
                severity=Severity.WARNING,
                location=(
                    f"sources.{plan.source.name}.relationships."
                    f"{plan.relationship}"
                ),
                message=(
                    f"link table {plan.binding.table!r} has no index on "
                    f"probe column {plan.source_column!r}; expanding "
                    f"{entity_set!r} frontiers scans all "
                    f"{len(table)} link rows per BFS level"
                ),
                fix=(
                    f"create_index('by_{plan.source_column}', "
                    f"[{plan.source_column!r}]) on table "
                    f"{plan.binding.table!r}"
                ),
            )


# ---------------------------------------------------------------------- #
# REPRO106 — vectorization blockers (weight column shape)
# ---------------------------------------------------------------------- #


def _vectorization_blocker(
    table: object, transformation: Callable
) -> Optional[str]:
    """Why a declared weight column cannot be fetched as one float64
    array, or ``None`` when it can (or nothing was declared)."""
    name = weight_column_of(transformation)
    if name is None:
        return None
    for column in table.columns:
        if column.name != name:
            continue
        problems = []
        if column.type.name != "FLOAT":
            problems.append(f"type {column.type.name} (needs FLOAT)")
        if column.nullable:
            problems.append("nullable (needs non-nullable)")
        if problems:
            return f"column {name!r} is {' and '.join(problems)}"
        return None
    return f"column {name!r} does not exist on the table"


@detector(
    "REPRO106",
    name="vectorization-blocker",
    severity=Severity.WARNING,
    description=(
        "a declared weight column cannot serve the array fast path "
        "(nullable or non-FLOAT), silently dropping to per-row reads"
    ),
)
def check_vectorization_blockers(context: AnalysisContext) -> Iterator[Detection]:
    for entity_set in context.provided_sets():
        plan = context.entity_plan(entity_set)
        if not getattr(plan.table, "supports_columnar", False):
            continue
        if plan.pr_is_one or plan.pr_column is not None:
            continue
        reason = _vectorization_blocker(plan.table, plan.pr)
        if reason is not None:
            yield Detection(
                code="REPRO106",
                severity=Severity.WARNING,
                location=f"sources.{plan.source.name}.entities.{entity_set}",
                message=(
                    f"entity set {entity_set!r} declares "
                    f"column_weight for pr but {reason}; the batched "
                    f"builder silently falls back to per-row dict reads "
                    f"on this columnar table"
                ),
                fix="declare the weight column as non-nullable FLOAT",
            )
    for _entity_set, plan in context.relationship_plans():
        if not getattr(plan.table, "supports_columnar", False):
            continue
        if plan.qr_is_one or plan.qr_column is not None:
            continue
        reason = _vectorization_blocker(plan.table, plan.qr)
        if reason is not None:
            yield Detection(
                code="REPRO106",
                severity=Severity.WARNING,
                location=(
                    f"sources.{plan.source.name}.relationships."
                    f"{plan.relationship}"
                ),
                message=(
                    f"relationship {plan.relationship!r} declares "
                    f"column_weight for qr but {reason}; frontier "
                    f"expansion drops off the selection-vector fast path "
                    f"to per-row dict reads"
                ),
                fix="declare the weight column as non-nullable FLOAT",
            )


# ---------------------------------------------------------------------- #
# REPRO107 — confidence-sensitivity hotspots
# ---------------------------------------------------------------------- #


def _mean_weight(table: object, transformation: Callable, is_one: bool) -> float:
    """Mean transformation value over the first :data:`SAMPLE_ROWS`
    rows, clamped into [0, 1]; 1.0 for constant-one or empty tables."""
    if is_one:
        return 1.0
    values: List[float] = []
    for row in itertools.islice(table.rows(), SAMPLE_ROWS):
        try:
            values.append(float(transformation(row)))
        except Exception:  # noqa: BLE001 - broken rows just drop out
            continue
    if not values:
        return 1.0
    return min(1.0, max(0.0, sum(values) / len(values)))


def _sample_instance(
    context: AnalysisContext,
    ps_override: Optional[Tuple[str, float]] = None,
    qs_override: Optional[Tuple[str, float]] = None,
) -> Optional[QueryGraph]:
    """A one-node-per-entity-set instance with mean-weight probabilities.

    Nodes carry ``p = ps * mean(pr)``, edges ``q = qs * mean(qr)``;
    cycle-closing binding edges are skipped so the instance is a DAG a
    deterministic ranker accepts. ``*_override`` substitutes one
    perturbed set-level confidence. Returns ``None`` when the schema
    has fewer than two sink answers (no ordering to flip)."""
    provided = context.provided_sets()
    sinks = [s for s in context.sink_sets() if s in provided]
    if len(sinks) < 2:
        return None
    registry = context.mediator.confidences
    graph = ProbabilisticEntityGraph()
    source_node = "__query__"
    graph.add_node(source_node, p=1.0)
    for entity_set in provided:
        plan = context.entity_plan(entity_set)
        ps = registry.ps(entity_set)
        if ps_override is not None and ps_override[0] == entity_set:
            ps = ps_override[1]
        graph.add_node(
            entity_set,
            p=ps * _mean_weight(plan.table, plan.pr, plan.pr_is_one),
        )
    reachable: Dict[str, set] = {s: {s} for s in provided}
    has_incoming = set()
    for entity_set, plan in context.relationship_plans():
        target = plan.target_entity
        if target not in reachable:
            continue
        if target == entity_set or entity_set in reachable[target]:
            continue  # would close a cycle; REPRO103 reports those
        qs = registry.qs(plan.relationship)
        if qs_override is not None and qs_override[0] == plan.relationship:
            qs = qs_override[1]
        graph.add_edge(
            entity_set,
            target,
            q=qs * _mean_weight(plan.table, plan.qr, plan.qr_is_one),
        )
        has_incoming.add(target)
        # transitive closure update (schemas are tiny)
        for origins in reachable.values():
            if entity_set in origins:
                origins.update(reachable[target])
    for entity_set in provided:
        if entity_set not in has_incoming:
            graph.add_edge(source_node, entity_set, q=1.0)
    return QueryGraph(graph, source_node, sinks)


def _strict_pairs(scores: Dict[str, float], targets: List[str]) -> set:
    return {
        (a, b)
        for a in targets
        for b in targets
        if a != b and scores[a] > scores[b] + _SCORE_MARGIN
    }


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


@detector(
    "REPRO107",
    name="confidence-sensitivity-hotspot",
    severity=Severity.WARNING,
    description=(
        "an explicitly tuned ps/qs sits so close to a ranking boundary "
        "that a ±ε perturbation flips a sink ordering"
    ),
)
def check_confidence_hotspots(context: AnalysisContext) -> Iterator[Detection]:
    baseline = _sample_instance(context)
    if baseline is None:
        return
    targets = list(baseline.targets)
    base_pairs = _strict_pairs(
        rank(baseline, "propagation").scores, targets
    )
    registry = context.mediator.confidences
    candidates = [
        ("ps", name, value, lambda n, v: _sample_instance(context, ps_override=(n, v)))
        for name, value in sorted(registry.explicit_entity_confidences().items())
    ] + [
        ("qs", name, value, lambda n, v: _sample_instance(context, qs_override=(n, v)))
        for name, value in sorted(registry.explicit_relationship_confidences().items())
    ]
    for kind, name, value, build in candidates:
        flipped: Optional[Tuple[float, Tuple[str, str]]] = None
        for perturbed_value in (_clamp(value + CONFIDENCE_EPSILON),
                                _clamp(value - CONFIDENCE_EPSILON)):
            if perturbed_value == value:
                continue
            perturbed = build(name, perturbed_value)
            if perturbed is None:
                continue
            pairs = _strict_pairs(
                rank(perturbed, "propagation").scores, targets
            )
            inversions = {(a, b) for (a, b) in base_pairs if (b, a) in pairs}
            if inversions:
                flipped = (perturbed_value, min(inversions))
                break
        if flipped is not None:
            perturbed_value, (winner, loser) = flipped
            yield Detection(
                code="REPRO107",
                severity=Severity.WARNING,
                location=f"confidences.{kind}.{name}",
                message=(
                    f"{kind}({name!r}) = {value:g} is a ranking hotspot: "
                    f"moving it to {perturbed_value:g} (ε = "
                    f"{CONFIDENCE_EPSILON:g}) inverts the sample-instance "
                    f"order of answers {winner!r} and {loser!r}; rankings "
                    f"served under this tuning are fragile to "
                    f"calibration error"
                ),
                fix=(
                    "re-examine the tuned value against "
                    "repro.sensitivity.oneway_sweep before trusting "
                    "close ranks"
                ),
            )


# ---------------------------------------------------------------------- #
# REPRO108 — change-log / cache configuration lints
# ---------------------------------------------------------------------- #


@detector(
    "REPRO108",
    name="staleness-config",
    severity=Severity.WARNING,
    description=(
        "cached graphs are served over tables whose change tracking "
        "cannot support incremental repair"
    ),
)
def check_staleness_config(context: AnalysisContext) -> Iterator[Detection]:
    if not context.config.cache_graphs:
        return  # no cached graphs, nothing to repair
    for source_name, table_name, table in context.bound_tables():
        base = getattr(table, "base", table)
        where = f"sources.{source_name}.tables.{table_name}"
        log = getattr(base, "change_log", None)
        if log is None:
            yield Detection(
                code="REPRO108",
                severity=Severity.WARNING,
                location=where,
                message=(
                    f"table {table_name!r} (source {source_name!r}) "
                    f"cannot report row-level changes, so every mutation "
                    f"of it degrades cached graphs to a cold rebuild"
                ),
                fix="serve the table through the repro.storage facade",
            )
            continue
        if log.limit < len(base):
            yield Detection(
                code="REPRO108",
                severity=Severity.WARNING,
                location=where,
                message=(
                    f"table {table_name!r} (source {source_name!r}) holds "
                    f"{len(base)} rows but its change log retains only "
                    f"{log.limit} entries; one full refresh overflows the "
                    f"log and incremental repair degrades to a cold "
                    f"rebuild"
                ),
                fix=(
                    f"raise table.change_log.limit above the expected "
                    f"refresh size (currently {log.limit} < {len(base)})"
                ),
            )
