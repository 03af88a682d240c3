"""Mediated multi-source workload generator.

:mod:`repro.workloads.synthetic` fabricates ready-made query graphs;
this module fabricates the *integration inputs* instead: a layered
multi-source schema (one :class:`~repro.integration.sources.DataSource`
per layer, entity tables keyed by id, link tables carrying per-row
``qr`` weights) registered behind one mediator, plus the exploratory
query that materialises it. That exercises the full execution pipeline
— storage lookups, binding plans, graph builder — at any scale, which
is what the builder benchmarks and cross-check tests need.

``index_links`` controls whether link tables carry a secondary index on
their probe column. Indexed links model sources with predicate
push-down; unindexed links model thin wrappers where every probe is a
scan — the regime in which set-at-a-time execution pays off most, since
the batched builder issues one scan per BFS level instead of one per
frontier node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.serving.source import WorkerSource

from repro.api import EngineConfig, QuerySpec, Session, open_session
from repro.engine.sharded import HashPartitioner, ShardRouter
from repro.errors import ValidationError
from repro.integration.mediator import Mediator
from repro.integration.probability import ConfidenceRegistry
from repro.integration.query import ExploratoryQuery
from repro.integration.sources import (
    DataSource,
    EntityBinding,
    RelationshipBinding,
    column_weight,
)
from repro.storage.column import Column, ColumnType
from repro.storage.database import Database
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["MediatedWorkload", "mediated_layers"]

#: qr/pr weight range of generated records and links
_WEIGHT_RANGE = (0.3, 0.95)


@dataclass
class MediatedWorkload:
    """A generated multi-source integration scenario."""

    mediator: Mediator
    query: ExploratoryQuery
    #: entity-set names, root layer first
    entity_sets: tuple
    #: total records across all entity tables
    total_records: int
    #: total link rows across all link tables (incl. dangling ones)
    total_links: int
    #: the per-layer source databases (root layer first) — kept so
    #: persistent backends can be released via :meth:`close`
    databases: tuple = ()
    #: number of scatter/gather shards the workload was generated for
    shards: int = 1
    #: pre-wired shard router (``shards > 1`` only): per-shard mediators
    #: over the pre-partitioned answer-layer databases
    router: Optional[ShardRouter] = None
    #: the per-shard databases of the partitioned layer (``shards > 1``)
    shard_databases: tuple = ()
    #: the exact :func:`mediated_layers` arguments that generated this
    #: workload — the portable recipe worker processes replay (``rng``
    #: is recorded only when it was an explicit integer seed, the one
    #: form that regenerates byte-identically in another process)
    generation: Dict[str, object] = field(default_factory=dict)

    def close(self) -> None:
        """Release the layers' storage resources (SQLite connections)."""
        for db in self.databases:
            db.close()
        for db in self.shard_databases:
            db.close()

    def open_session(
        self,
        config: Optional[EngineConfig] = None,
        sharded: Optional[bool] = None,
        lint: str = "off",
    ) -> Session:
        """A :class:`~repro.api.Session` over this workload.

        A workload generated with ``shards > 1`` opens a scatter/gather
        session over its pre-partitioned shard mediators by default;
        ``sharded=False`` forces the single-engine reference path over
        the full mediator (what the cross-shard equivalence suite
        compares against). ``lint`` gates the schema through
        :mod:`repro.analysis` exactly like
        :func:`repro.api.open_session`.
        """
        if sharded is None:
            sharded = self.shards > 1
        if sharded and self.router is None:
            raise ValidationError(
                "this workload was generated unsharded; regenerate with "
                "mediated_layers(shards=N) for a sharded session"
            )
        worker_source = None
        if sharded and config is not None and config.shard_mode == "process":
            worker_source = self.worker_source()
        return open_session(
            mediator=self.mediator,
            config=config,
            router=self.router if sharded else None,
            worker_source=worker_source,
            lint=lint,
        )

    def worker_source(self) -> "WorkerSource":
        """The :class:`~repro.serving.source.WorkerSource` recipe a
        shard worker process replays to rebuild this workload.

        Requires a sharded workload generated with an explicit integer
        ``rng`` seed — the only form that regenerates byte-identically
        in another process (persisted ``storage_path`` layers re-attach
        either way, but the recipe must still resolve to the same
        partition layout).
        """
        from repro.serving.source import WorkerSource

        if self.shards < 2 or self.router is None:
            raise ValidationError(
                "worker_source() needs a sharded workload; regenerate "
                "with mediated_layers(shards=N)"
            )
        if not isinstance(self.generation.get("rng"), int):
            raise ValidationError(
                "process-mode shard workers replay the generation recipe "
                "in their own process, which requires an explicit integer "
                "rng seed: regenerate with mediated_layers(..., rng=<int>)"
            )
        return WorkerSource(
            factory="repro.workloads.mediated:mediated_layers",
            kwargs=dict(self.generation),
            shards=self.shards,
        )

    def spec(
        self,
        outputs: Optional[Sequence[str]] = None,
        method: str = "in_edge",
        **spec_fields: object,
    ) -> QuerySpec:
        """The workload query as a declarative :class:`QuerySpec`
        (default outputs: the last layer, like :attr:`query`). A bare
        string names one entity set; an explicitly empty sequence is
        rejected by ``QuerySpec`` validation rather than defaulted."""
        if outputs is None:
            outputs = (self.entity_sets[-1],)
        elif isinstance(outputs, str):
            outputs = (outputs,)
        else:
            outputs = tuple(outputs)
        return QuerySpec(
            entity_set=self.query.entity_set,
            attribute=self.query.attribute,
            value=self.query.value,
            outputs=outputs,
            method=method,
            **spec_fields,
        )

    def refresh_entity_weights(
        self,
        layer: Optional[str] = None,
        count: int = 10,
        rng: RngLike = None,
    ) -> int:
        """Simulate a source refresh: re-draw the ``w`` weight of
        ``count`` records of ``layer`` (default: the answer layer).

        All updates go through one batched :meth:`Table.update_many`
        call, so the refresh lands as a single coalesced change set per
        table — not hundreds of row-at-a-time facade mutations — which
        keeps the delta log small and the incremental benchmarks honest.
        Sharded workloads mirror answer-layer updates into the owning
        shard's replica so both serving paths see the same bytes.
        Returns the number of rows updated.
        """
        random = ensure_rng(rng)
        layer = layer or self.entity_sets[-1]
        table = self.mediator.entity_plan(layer).table
        row_ids = list(table.row_ids())[:count]
        updates = {
            row_id: {"w": random.uniform(*_WEIGHT_RANGE)}
            for row_id in row_ids
        }
        if not updates:
            return 0
        table.update_many(updates)
        if self.shard_databases and layer == self.entity_sets[-1]:
            # the shard replicas hold copies of the answer layer's rows
            # under their own row ids: mirror by key, one batch per shard
            fresh = {table.get(row_id)["id"]: table.get(row_id)["w"]
                     for row_id in row_ids}
            for shard_db in self.shard_databases:
                shard_table = shard_db.table("ents")
                shard_updates = {
                    row_id: {"w": fresh[row["id"]]}
                    for row_id in shard_table.row_ids()
                    if (row := shard_table.get(row_id))["id"] in fresh
                }
                if shard_updates:
                    shard_table.update_many(shard_updates)
        return len(updates)

    def append_links(
        self,
        layer: int = 0,
        count: int = 10,
        rng: RngLike = None,
    ) -> int:
        """Simulate link growth: append ``count`` random links from
        layer ``layer`` to the next layer, as one batched
        :meth:`Database.insert_many` call (a single coalesced change
        set). Returns the number of links inserted."""
        if not 0 <= layer < len(self.entity_sets) - 1:
            raise ValidationError(
                f"append_links needs a non-terminal layer index, got {layer}"
            )
        random = ensure_rng(rng)
        source_set = self.entity_sets[layer]
        target_set = self.entity_sets[layer + 1]
        plan = self.mediator.entity_plan(source_set)
        width = len(plan.table)
        target_width = len(self.mediator.entity_plan(target_set).table)
        rows = [
            {
                "src": f"{source_set}:{random.randrange(width)}",
                "dst": f"{target_set}:{random.randrange(target_width)}",
                "w": random.uniform(*_WEIGHT_RANGE),
            }
            for _ in range(count)
        ]
        if rows:
            self.databases[layer].insert_many(f"links_rel{layer}", rows)
        return len(rows)

    def serving_batch(
        self,
        methods: Sequence[str] = ("in_edge", "path_count"),
        repeats: int = 1,
    ) -> List[QuerySpec]:
        """A serving-style spec batch over this workload: every
        non-root layer requested as an output set, under each method,
        ``repeats`` times over — the mix ``Session.execute_many``
        batches set-at-a-time (shared traversals, deduplication)."""
        specs = [
            self.spec(outputs=(layer,), method=method)
            for method in methods
            for layer in self.entity_sets[1:]
        ]
        return specs * repeats


#: pr/qr transformations of the generated schema read the weight column
#: directly; declaring that via column_weight lets binding plans fetch
#: the weights as one float64 array on columnar-capable storage
_row_weight = column_weight("w")


def _adoptable(table, expected: int) -> bool:
    """Whether a (possibly persisted) table can be adopted as-is: empty
    means generate, exactly ``expected`` rows means adopt, anything else
    is a truncated/mismatched artefact (e.g. an interrupted earlier run
    under ``synchronous=OFF``) that must not be served silently."""
    existing = len(table)
    if existing in (0, expected):
        return existing == expected
    raise ValidationError(
        f"persisted table {table.name!r} holds {existing} rows, expected "
        f"{expected}; it was generated with different parameters or "
        f"truncated — delete the storage_path files and regenerate"
    )


def mediated_layers(
    layers: int = 3,
    width: int = 40,
    fan_out: int = 3,
    seeds: int = 1,
    rng: RngLike = None,
    index_links: bool = True,
    dangling_rate: float = 0.0,
    cyclic: bool = False,
    storage: str = "memory",
    storage_path: Optional[object] = None,
    shards: int = 1,
) -> MediatedWorkload:
    """Build a layered mediated schema and its exploratory query.

    ``layers`` entity sets ``E0 .. E{layers-1}`` with ``width`` records
    each (layer 0 holds ``seeds`` query-matching roots), each record
    linking to ``fan_out`` uniformly chosen records of the next layer.
    ``dangling_rate`` rewires that fraction of links to nonexistent
    target ids (counted, not materialised, by the builders); ``cyclic``
    adds a back-edge relationship from the last layer to layer 0, making
    the relationship bindings — and the materialised graph — cyclic.

    ``storage`` selects the physical backend of every generated source
    table (``"memory"`` | ``"sqlite"`` | ``"vectorized"``); with a ``storage_path`` directory, layer ``i``
    persists to ``<storage_path>/layer<i>.sqlite`` under
    ``storage="sqlite"`` or to the ``<storage_path>/layer<i>/``
    directory of memory-mapped ``.npy`` column files under
    ``storage="vectorized"`` (re-attach is O(1): columns stay on disk
    and page in as probes touch them). Re-running with the *same
    parameters* over the same directory adopts the persisted layer
    files instead of regenerating them — how the million-record
    serving workloads are generated once and re-served from disk
    through the engine's warm query cache. Call
    :meth:`MediatedWorkload.close` to release the SQLite connections
    (and flush vectorized stores).

    ``shards=N`` additionally pre-partitions the *answer layer* (the
    last entity set — the only traversal sink, hence the only safely
    partitionable set): each shard ``s`` gets its own database holding
    the rows a :class:`~repro.engine.HashPartitioner` assigns to it
    (persisted as ``<storage_path>/layer<i>.shard<s>.sqlite`` under
    SQLite), and the workload carries a ready
    :class:`~repro.engine.ShardRouter` whose per-shard mediators serve
    :meth:`MediatedWorkload.open_session`'s scatter/gather sessions.
    The full (unsharded) layer databases are still generated — they are
    the single-engine reference the equivalence suite compares against.
    """
    if layers < 2:
        raise ValidationError(f"mediated workload needs >= 2 layers, got {layers}")
    if storage_path is not None and storage not in ("sqlite", "vectorized"):
        # fail before touching the filesystem
        raise ValidationError(
            f"storage_path only applies to storage='sqlite' or "
            f"storage='vectorized', not {storage!r}"
        )
    if not isinstance(shards, int) or shards < 1:
        raise ValidationError(f"shards must be a positive integer, got {shards!r}")
    if shards > 1 and cyclic:
        raise ValidationError(
            "a cyclic workload cannot be sharded: the back-edges make the "
            "last layer a non-sink, so partitioning it would change the "
            "surviving answers' ancestor subgraphs"
        )
    random = ensure_rng(rng)
    partitioner = HashPartitioner(shards) if shards > 1 else None
    entity_sets = tuple(f"E{i}" for i in range(layers))
    sources = []
    databases = []
    shard_databases = []
    shard_last_sources = []
    total_records = 0
    total_links = 0

    directory = None
    if storage_path is not None:
        directory = Path(storage_path)
        directory.mkdir(parents=True, exist_ok=True)

    def _layer_path(stem: str):
        """Per-layer persistence target: a ``.sqlite`` file for SQLite,
        a directory of ``.npy`` column files for vectorized."""
        if directory is None:
            return None
        return directory / (f"{stem}.sqlite" if storage == "sqlite" else stem)

    for i, entity_set in enumerate(entity_sets):
        db = Database(
            f"layer{i}",
            storage=storage,
            storage_path=_layer_path(f"layer{i}"),
        )
        databases.append(db)
        ents = db.create_table(
            "ents",
            columns=[
                Column("id", ColumnType.TEXT),
                Column("root", ColumnType.BOOL),
                Column("w", ColumnType.FLOAT),
            ],
            primary_key=["id"],
        )
        # a persisted layer file that already holds rows is adopted
        # as-is; the generator still draws the same random values so
        # the rng stream (and any freshly generated sibling layer)
        # stays aligned with a from-scratch run
        adopt_ents = _adoptable(ents, width)
        ent_rows = [
            {
                "id": f"{entity_set}:{j}",
                "root": i == 0 and j < seeds,
                "w": random.uniform(*_WEIGHT_RANGE),
            }
            for j in range(width)
        ]
        if not adopt_ents:
            db.insert_many("ents", ent_rows)
        total_records += len(ents)

        # the answer layer is additionally pre-partitioned: one
        # database per shard holding the rows that shard owns
        if partitioner is not None and i == layers - 1:
            owned_rows = [
                [
                    row
                    for row in ent_rows
                    if partitioner.owner(entity_set, row["id"]) == s
                ]
                for s in range(shards)
            ]
            for s in range(shards):
                shard_db = Database(
                    f"layer{i}_shard{s}",
                    storage=storage,
                    storage_path=_layer_path(f"layer{i}.shard{s}"),
                )
                shard_databases.append(shard_db)
                shard_ents = shard_db.create_table(
                    "ents",
                    columns=[
                        Column("id", ColumnType.TEXT),
                        Column("root", ColumnType.BOOL),
                        Column("w", ColumnType.FLOAT),
                    ],
                    primary_key=["id"],
                )
                if _adoptable(shard_ents, len(owned_rows[s])):
                    # a row-count match is not enough: a stale file from
                    # a run with a different ``shards=`` can coincide in
                    # size while holding the wrong partition, which
                    # would silently drop answers from sharded results
                    persisted = {row["id"] for row in shard_ents.rows()}
                    expected = {row["id"] for row in owned_rows[s]}
                    if persisted != expected:
                        raise ValidationError(
                            f"persisted shard table "
                            f"{shard_db.name!r}.ents holds a different "
                            f"partition than shards={shards} assigns; it "
                            f"was generated with different parameters — "
                            f"delete the *.shard*.sqlite files and "
                            f"regenerate"
                        )
                else:
                    shard_db.insert_many("ents", owned_rows[s])
                shard_last_sources.append(
                    DataSource(
                        name=f"Layer{i}",
                        database=shard_db,
                        entities=(
                            EntityBinding(entity_set, "ents", "id", pr=_row_weight),
                        ),
                    )
                )

        rel_targets = []
        if i + 1 < layers:
            rel_targets.append((f"rel{i}", entity_sets[i + 1]))
        if cyclic and i == layers - 1:
            rel_targets.append((f"rel{i}_back", entity_sets[0]))
        relationships = []
        for rel_name, target_set in rel_targets:
            table_name = f"links_{rel_name}"
            links = db.create_table(
                table_name,
                columns=[
                    Column("src", ColumnType.TEXT),
                    Column("dst", ColumnType.TEXT),
                    Column("w", ColumnType.FLOAT),
                ],
            )
            if index_links:
                links.create_index("by_src", ["src"])
            adopt_links = _adoptable(links, width * fan_out)
            link_rows = []
            for j in range(width):
                for _ in range(fan_out):
                    if dangling_rate and random.random() < dangling_rate:
                        dst = f"{target_set}:ghost{random.randrange(10**6)}"
                    else:
                        dst = f"{target_set}:{random.randrange(width)}"
                    link_rows.append(
                        {
                            "src": f"{entity_set}:{j}",
                            "dst": dst,
                            "w": random.uniform(*_WEIGHT_RANGE),
                        }
                    )
            if not adopt_links:
                db.insert_many(table_name, link_rows)
            total_links += len(links)
            relationships.append(
                RelationshipBinding(
                    relationship=rel_name,
                    table=table_name,
                    source_entity=entity_set,
                    source_column="src",
                    target_entity=target_set,
                    target_column="dst",
                    qr=_row_weight,
                )
            )

        sources.append(
            DataSource(
                name=f"Layer{i}",
                database=db,
                entities=(
                    EntityBinding(entity_set, "ents", "id", pr=_row_weight),
                ),
                relationships=tuple(relationships),
            )
        )

    confidences = ConfidenceRegistry()
    mediator = Mediator(confidences=confidences)
    for source in sources:
        mediator.register(source)
    query = ExploratoryQuery(
        entity_sets[0], "root", True, outputs=(entity_sets[-1],)
    )

    router = None
    if partitioner is not None:
        # one mediator per shard: the replicated layers' sources are
        # shared objects (shared physical storage), the answer layer is
        # that shard's pre-partitioned database; tuning the shared
        # confidence registry reaches every shard
        shard_mediators = []
        for s in range(shards):
            shard_mediator = Mediator(confidences=confidences)
            for source in sources[:-1]:
                shard_mediator.register(source)
            shard_mediator.register(shard_last_sources[s])
            shard_mediators.append(shard_mediator)
        router = ShardRouter(
            shard_mediators, partitioner, {entity_sets[-1]: "id"}
        )
    return MediatedWorkload(
        mediator=mediator,
        query=query,
        entity_sets=entity_sets,
        total_records=total_records,
        total_links=total_links,
        databases=tuple(databases),
        shards=shards,
        router=router,
        shard_databases=tuple(shard_databases),
        generation={
            "layers": layers,
            "width": width,
            "fan_out": fan_out,
            "seeds": seeds,
            "rng": rng if isinstance(rng, int) else None,
            "index_links": index_links,
            "dangling_rate": dangling_rate,
            "cyclic": cyclic,
            "storage": storage,
            "storage_path": (
                str(storage_path) if storage_path is not None else None
            ),
            "shards": shards,
        },
    )
