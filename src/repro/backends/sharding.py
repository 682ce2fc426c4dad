"""Horizontal sharding: hash partitioning with scatter-gather execution.

:class:`ShardedGraphitiService` is a coordinator over *N* ordinary
:class:`~repro.backends.service.GraphitiService` instances ("shards"),
each with its own connection pools over its own slice of the data, plus
one unsharded *fallback* service holding the full database:

* **Partitioning** (:class:`ShardPartitioner`) — node rows are hashed by
  their primary key; edge rows are co-partitioned with their ``SRC``
  endpoint, so every one-hop expansion from a node finds its outgoing
  edges on the same shard.  Edges whose ``TGT`` endpoint hashes to a
  different shard are additionally collected into a *cross-shard edge
  table* per edge label — the correctness ledger that explains why
  multi-scan plans (joins, traversals) cannot run shard-locally and must
  fall back (the planner seam in :mod:`repro.sql.fragment` enforces
  this; the fallback service, which holds all edges, serves them
  exactly).
* **Scatter** — a fragmentable plan (see :func:`~repro.sql.fragment.fragment_query`)
  is rendered once and executed concurrently on every shard by threads
  of a coordinator executor (:class:`AsyncShardedGraphitiService` awaits
  the same scatter-gather on its executor).  Each shard
  execution goes through the shard service's guarded pipeline — pooled
  checkout, circuit breaker, eviction-aware retry — so a shard member
  dying mid-scatter is retried *within its shard*, never failing the
  whole scatter.
* **Gather** — partial results merge at the coordinator: bag union for
  shard-local plans (DISTINCT/ORDER BY/LIMIT re-applied), distributive
  aggregate folding for merge-aggregable plans
  (:func:`~repro.sql.fragment.merge_partials`).
* **Fallback** — non-fragmentable plans run unchanged on the fallback
  service over the full data: same results, no new entry points, with
  the reason recorded in ``PlanReport.sharding`` and counted in
  ``repro_shard_fallbacks_total``.

All member services share one :class:`~repro.observability.metrics.MetricsRegistry`
and one tracer, so ``repro_query_retries_total``, pool gauges, and the
new ``repro_shard_*`` counters aggregate across the fleet, and
``shard.scatter``/``shard.gather`` spans appear in ``repro explain``
traces.
"""

from __future__ import annotations

import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Sequence

from repro.common.budget import BudgetTracker, QueryBudget
from repro.common.values import Value, is_null
from repro.core.sdt import SOURCE_ATTRIBUTE, TARGET_ATTRIBUTE
from repro.execution.datagen import MockDataGenerator
from repro.graph.schema import GraphSchema
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import NOOP_TRACER
from repro.relational.instance import Database, Table
from repro.sql.dialect import SqlDialect
from repro.sql.fragment import FragmentPlan, fragment_query, merge_partials
from repro.sql.pretty import to_sql_text

from repro.backends.async_service import AsyncGraphitiService
from repro.backends.executor import run_indexed
from repro.backends.service import DEFAULT_BACKEND, GraphitiService, PreparedQuery

DEFAULT_NUM_SHARDS = 2


def stable_shard_hash(value: Value) -> int:
    """A process-stable hash of a partition-key value.

    ``hash()`` is unusable here: Python randomises string hashing per
    process, and shard assignment must agree between the process that
    loaded the data and any process reasoning about it (benchmarks,
    tests, a future distributed deployment).  Integers map to themselves
    (so small key spaces spread round-robin-ish); everything else goes
    through CRC-32 of its ``repr``.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    return zlib.crc32(repr(value).encode("utf-8"))


class ShardPartitioner:
    """Hash-partitions an induced-schema database across *num_shards*.

    Node rows land on ``hash(primary key) % num_shards``; edge rows land
    on their ``SRC`` endpoint's shard.  Edges whose endpoints hash to
    different shards are also reported per label — the cross-shard edge
    set a per-shard traversal would silently miss.
    """

    def __init__(self, graph_schema: GraphSchema, sdt, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self._sdt = sdt
        #: table name → index of the column whose value picks the shard.
        self._shard_column: dict[str, int] = {}
        #: edge table name → index of the TGT column (cross-shard check).
        self._target_column: dict[str, int] = {}
        for node_type in graph_schema.node_types:
            table = sdt.table_for(node_type.label)
            attributes = sdt.schema.relation(table).attributes
            self._shard_column[table] = attributes.index(node_type.default_key)
        for edge_type in graph_schema.edge_types:
            table = sdt.table_for(edge_type.label)
            attributes = sdt.schema.relation(table).attributes
            self._shard_column[table] = attributes.index(SOURCE_ATTRIBUTE)
            self._target_column[table] = attributes.index(TARGET_ATTRIBUTE)

    def shard_of(self, value: Value) -> int:
        """The shard a partition-key *value* lives on (NULL → shard 0)."""
        if is_null(value):
            return 0
        return stable_shard_hash(value) % self.num_shards

    def shard_of_row(self, table_name: str, row: tuple) -> int:
        return self.shard_of(row[self._shard_column[table_name]])

    def partition(
        self, database: Database
    ) -> tuple[list[Database], dict[str, Table]]:
        """Split *database* into per-shard instances + cross-shard edges.

        Every row of every table is assigned to exactly one shard (rows
        are conserved: the shard databases are a partition of the input).
        The second element maps each edge label's induced table name to
        the edges whose ``SRC`` and ``TGT`` endpoints live on different
        shards — stored with the ``SRC``-side copy, and the reason
        per-shard traversal is unsound.
        """
        shards = [Database(database.schema) for _ in range(self.num_shards)]
        cross_shard: dict[str, Table] = {}
        for name, table in database.tables.items():
            shard_column = self._shard_column.get(name)
            target_column = self._target_column.get(name)
            crossing: list[tuple] = []
            for row in table.rows:
                shard = (
                    self.shard_of(row[shard_column]) if shard_column is not None else 0
                )
                shards[shard].tables[name].rows.append(row)
                if (
                    target_column is not None
                    and self.shard_of(row[target_column]) != shard
                ):
                    crossing.append(row)
            if target_column is not None:
                cross_shard[name] = Table(table.attributes, crossing)
        return shards, cross_shard


class ShardedGraphitiService:
    """Scatter-gather serving over hash shards, one pool fleet per shard.

    Duck-type compatible with :class:`GraphitiService` for the surfaces
    the CLI and ``repro explain`` use (``run``/``run_many``/``prepare``/
    ``reference``/``load_*``/``metrics``/``set_tracer``/...), so a
    ``--shards N`` flag can swap it in without new entry points.

    ``**service_kwargs`` (pool sizing, retry policy, breaker tuning,
    budgets, ...) are forwarded to the fallback *and* every shard
    service; ``persistent_cache`` only to the fallback, which is the one
    that transpiles (shards execute coordinator-rendered fragments).
    """

    def __init__(
        self,
        graph_schema: GraphSchema,
        num_shards: int = DEFAULT_NUM_SHARDS,
        default_backend: str = DEFAULT_BACKEND,
        registry: MetricsRegistry | None = None,
        tracer=None,
        **service_kwargs: Any,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.graph_schema = graph_schema
        self.num_shards = num_shards
        self._registry = registry if registry is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        shared = dict(
            service_kwargs, registry=self._registry, tracer=self._tracer
        )
        self._fallback = GraphitiService(graph_schema, default_backend, **shared)
        shard_kwargs = dict(shared)
        shard_kwargs.pop("persistent_cache", None)
        self._shards = [
            GraphitiService(graph_schema, default_backend, **shard_kwargs)
            for _ in range(num_shards)
        ]
        self.partitioner = ShardPartitioner(
            graph_schema, self._fallback.sdt, num_shards
        )
        self.cross_shard_edges: dict[str, Table] = {}
        self._lock = threading.Lock()
        #: (fingerprint, cypher, dialect, level) → (FragmentPlan, rendered
        #: per-dialect shard PreparedQuery cache).
        self._fragments: dict[tuple, tuple[FragmentPlan, dict[str, PreparedQuery]]] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, num_shards * 2), thread_name_prefix="graphiti-shard"
        )
        self._shard_queries = self._registry.counter(
            "repro_shard_queries_total", "Shard-local fragment executions, by shard."
        )
        self._scatters = self._registry.counter(
            "repro_shard_scatters_total",
            "Queries executed by scatter-gather, by fragment kind.",
        )
        self._fallbacks = self._registry.counter(
            "repro_shard_fallbacks_total",
            "Queries routed to the unsharded fallback backend, by reason.",
        )
        self._fanout = self._registry.histogram(
            "repro_shard_fanout", "Shards fanned out to per scattered query."
        )

    # -- GraphitiService surface (delegated) --------------------------------

    @property
    def default_backend(self) -> str:
        return self._fallback.default_backend

    @property
    def opt_level(self) -> int:
        return self._fallback.opt_level

    @property
    def sdt(self):
        return self._fallback.sdt

    @property
    def database(self) -> Database:
        """The full (unpartitioned) instance, held by the fallback."""
        return self._fallback.database

    @property
    def metrics(self) -> MetricsRegistry:
        return self._registry

    @property
    def tracer(self):
        return self._tracer

    def set_tracer(self, tracer) -> None:
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._fallback.set_tracer(tracer)
        for shard in self._shards:
            shard.set_tracer(tracer)

    def dialect_of(self, backend_name: str) -> SqlDialect:
        return self._fallback.dialect_of(backend_name)

    def backends(self) -> tuple[str, ...]:
        return self._fallback.backends()

    def cache_info(self):
        return self._fallback.cache_info()

    def query_stats(self):
        return self._fallback.query_stats()

    def reset_query_stats(self) -> None:
        self._fallback.reset_query_stats()
        for shard in self._shards:
            shard.reset_query_stats()

    def persistent_cache_info(self):
        return self._fallback.persistent_cache_info()

    def explain(
        self,
        cypher_text: str,
        backend: str | None = None,
        opt_level: int | None = None,
    ) -> str:
        """The engine's own plan for the *unsharded* query text (the
        fallback's connection — shard-local plans are identical modulo
        partition contents)."""
        return self._fallback.explain(cypher_text, backend=backend, opt_level=opt_level)

    def breaker(self, backend: str | None = None):
        return self._fallback.breaker(backend)

    def _start_budget(self, budget: QueryBudget | None) -> BudgetTracker | None:
        return self._fallback._start_budget(budget)

    @property
    def slow_queries(self):
        return self._fallback.slow_queries

    # -- data ---------------------------------------------------------------

    def load_database(self, database: Database) -> None:
        """Load the full instance into the fallback and its partition into
        the shards (statistics are collected per slice, so each shard's
        level-2 plans see its own row counts)."""
        shard_databases, cross_shard = self.partitioner.partition(database)
        self._fallback.load_database(database)
        for shard, shard_database in zip(self._shards, shard_databases):
            shard.load_database(shard_database)
        self.cross_shard_edges = cross_shard

    def load_graph(self, graph: object) -> None:
        from repro.transformer.semantics import transform_graph

        sdt = self._fallback.sdt
        self.load_database(transform_graph(sdt.transformer, graph, sdt.schema))

    def load_mock(self, rows_per_table: int, seed: int = 42) -> None:
        generator = MockDataGenerator(
            self.graph_schema, self._fallback.sdt, seed=seed
        )
        self.load_database(generator.induced_instance(rows_per_table))

    def partition_report(self) -> dict:
        """Row placement accounting, for ``--stats`` views and tests."""
        return {
            "shards": self.num_shards,
            "rows_per_shard": [
                shard.database.total_rows() for shard in self._shards
            ],
            "total_rows": self._fallback.database.total_rows(),
            "cross_shard_edges": {
                name: len(table) for name, table in sorted(self.cross_shard_edges.items())
            },
        }

    # -- transpilation + fragmentation --------------------------------------

    def prepare(
        self,
        cypher_text: str,
        dialect: str | SqlDialect | None = None,
        opt_level: int | None = None,
    ) -> PreparedQuery:
        """Fallback-service preparation plus fragment classification.

        The classification is recorded on the prepared query's
        :class:`~repro.sql.planner.PlanReport` (``report.sharding``) so
        ``repro explain`` shows the scatter plan, and cached by plan key
        — it depends only on the optimized algebra, not the shard count.
        """
        prepared = self._fallback.prepare(cypher_text, dialect, opt_level=opt_level)
        self._fragment_for(prepared)
        return prepared

    def transpile_to_sql(
        self,
        cypher_text: str,
        dialect: str | SqlDialect | None = None,
        opt_level: int | None = None,
    ) -> str:
        return self.prepare(cypher_text, dialect, opt_level=opt_level).sql_text

    def fragment_plan(
        self, cypher_text: str, opt_level: int | None = None
    ) -> FragmentPlan:
        """The scatter classification of *cypher_text* (prepared if needed)."""
        return self._fragment_for(self.prepare(cypher_text, opt_level=opt_level))

    def _fragment_for(self, prepared: PreparedQuery) -> FragmentPlan:
        key = (
            prepared.fingerprint,
            prepared.cypher_text,
            prepared.dialect,
            prepared.opt_level,
        )
        with self._lock:
            entry = self._fragments.get(key)
        if entry is None:
            plan = fragment_query(prepared.sql_ast, self._fallback.sdt.schema)
            with self._lock:
                entry = self._fragments.setdefault(key, (plan, {}))
        plan = entry[0]
        if prepared.plan is not None and prepared.plan.sharding is None:
            prepared.plan.sharding = dict(plan.to_dict(), shards=self.num_shards)
        return plan

    def _shard_prepared(
        self, prepared: PreparedQuery, plan: FragmentPlan, backend: str
    ) -> PreparedQuery:
        """The (possibly rewritten) fragment each shard executes, rendered
        in *backend*'s dialect and cached alongside the classification."""
        assert plan.shard_query is not None
        if plan.shard_query is prepared.sql_ast:
            return prepared  # unmodified plan: reuse text and report
        dialect = self.dialect_of(backend)
        key = (
            prepared.fingerprint,
            prepared.cypher_text,
            prepared.dialect,
            prepared.opt_level,
        )
        with self._lock:
            rendered = self._fragments[key][1].get(dialect.name)
        if rendered is not None:
            return rendered
        sql_text = to_sql_text(
            plan.shard_query, self._fallback.sdt.schema, optimized=False,
            dialect=dialect,
        )
        rendered = PreparedQuery(
            prepared.cypher_text,
            plan.shard_query,
            sql_text,
            dialect.name,
            prepared.fingerprint,
            prepared.opt_level,
            prepared.plan,
        )
        with self._lock:
            self._fragments[key][1][dialect.name] = rendered
        return rendered

    # -- execution ----------------------------------------------------------

    def run(
        self,
        cypher_text: str,
        backend: str | None = None,
        opt_level: int | None = None,
        budget: QueryBudget | None = None,
    ) -> Table:
        """Scatter-gather execution (or transparent unsharded fallback)."""
        return self.serve(cypher_text, backend, opt_level, budget)[0]

    def serve(
        self,
        cypher_text: str,
        backend: str | None = None,
        opt_level: int | None = None,
        budget: QueryBudget | None = None,
    ) -> tuple[Table, PreparedQuery]:
        """Like :meth:`run`, but also returns the coordinator's
        :class:`PreparedQuery` (``repro explain`` uses it, same contract
        as :meth:`GraphitiService.serve`)."""
        name = backend or self.default_backend
        with self._tracer.span(
            "query", backend=name, cypher=cypher_text, mode="sharded"
        ) as span:
            result, prepared = self._serve(cypher_text, name, opt_level, budget)
            span.set("opt_level", prepared.opt_level)
            span.set("rows", len(result.rows))
        return result, prepared

    def _serve(
        self,
        cypher_text: str,
        name: str,
        opt_level: int | None,
        budget: QueryBudget | None,
        checkout_timeout: float | None = None,
        tracker: BudgetTracker | None = None,
    ) -> tuple[Table, PreparedQuery]:
        """Scatter-gather, or the transparent unsharded fallback — the
        coordinator's counterpart of :meth:`GraphitiService._serve`, with
        the same signature so the async wrapper serves either."""
        if tracker is None:
            tracker = self._start_budget(budget)
        prepared = self.prepare(cypher_text, self.dialect_of(name), opt_level)
        plan = self._fragment_for(prepared)
        if not plan.fragmentable:
            self._fallbacks.inc(reason=plan.reason)
            with self._tracer.span(
                "shard.fallback", backend=name, reason=plan.reason
            ):
                return self._fallback._serve(
                    cypher_text, name, opt_level, budget, checkout_timeout,
                    tracker=tracker,
                )
        started = time.perf_counter()
        partials = self._scatter(prepared, plan, name, tracker, checkout_timeout)
        result = self._gather(plan, partials)
        self._fallback.record_execution(
            cypher_text, time.perf_counter() - started, backend=name
        )
        return result, prepared

    def _scatter(
        self,
        prepared: PreparedQuery,
        plan: FragmentPlan,
        name: str,
        tracker: BudgetTracker | None,
        checkout_timeout: float | None = None,
    ) -> list[Table]:
        """Execute the shard fragment on every shard concurrently.

        Each shard execution rides that shard service's full guarded
        pipeline (:meth:`GraphitiService._run_prepared`): breaker gate,
        pooled checkout, and eviction-aware retry — so one shard's member
        dying mid-scatter recovers inside the shard instead of failing
        the scatter.  The budget's row and depth limits apply per shard
        execution (each fragment is an independent query against a slice
        of the data); its clock is the query's, started by the caller.
        """
        shard_prepared = self._shard_prepared(prepared, plan, name)
        self._scatters.inc(kind=plan.kind)
        self._fanout.observe(float(self.num_shards))
        with self._tracer.span(
            "shard.scatter", kind=plan.kind, shards=self.num_shards, backend=name,
        ) as scatter_span:

            def run_shard(index: int) -> Table:
                shard = self._shards[index]
                with self._tracer.span(
                    "shard.query", parent=scatter_span, shard=index, backend=name
                ) as shard_span:
                    # execute_fragment applies the shard's *own* parallel
                    # gate: a shard whose local slice still clears the
                    # row threshold partition-scans its fragment.
                    table = shard.execute_fragment(
                        name, prepared.cypher_text, shard_prepared,
                        None if tracker is None else tracker.sibling(),
                        checkout_timeout,
                    )
                    shard_span.set("rows", len(table.rows))
                self._shard_queries.inc(shard=str(index))
                return table

            if self.num_shards == 1:
                return [run_shard(0)]
            futures = [
                self._executor.submit(run_shard, index)
                for index in range(self.num_shards)
            ]
            return [future.result() for future in futures]

    def _gather(self, plan: FragmentPlan, partials: list[Table]) -> Table:
        with self._tracer.span(
            "shard.gather", kind=plan.kind,
            partial_rows=sum(len(partial) for partial in partials),
        ) as span:
            result = merge_partials(plan, partials)
            span.set("rows", len(result.rows))
        return result

    def run_many(
        self,
        cypher_texts: Sequence[str],
        workers: int = 4,
        backend: str | None = None,
        opt_level: int | None = None,
        budget: QueryBudget | None = None,
    ) -> list[Table]:
        """A batch of scatter-gather executions; results in batch order.

        The batch fans across *workers* coordinator threads, each of which
        scatters its query across all shards on the shared shard executor
        (two independent pools, so batch workers never deadlock against
        shard fan-out).
        """
        texts = list(cypher_texts)
        if not texts:
            return []
        name = backend or self.default_backend
        workers = max(1, min(workers, len(texts)))
        self._prepare_batch(texts, name, opt_level, budget, workers)
        with self._tracer.span(
            "query.batch", backend=name, queries=len(texts), workers=workers,
            mode="sharded",
        ) as batch_span:
            results: list[Table | None] = [None] * len(texts)

            def execute_one(index: int) -> None:
                with self._tracer.span(
                    "query", parent=batch_span, backend=name, index=index
                ) as span:
                    table, _ = self._serve(texts[index], name, opt_level, budget)
                    results[index] = table
                    span.set("rows", len(table.rows))

            # Batch fan-out stays off the shard executor: a batch worker
            # blocks on shard futures, so sharing one pool could leave no
            # thread free to run them.
            run_indexed(len(texts), execute_one, workers)
        assert all(table is not None for table in results)
        return results  # type: ignore[return-value]

    def _prepare_batch(
        self,
        texts: Sequence[str],
        name: str,
        opt_level: int | None,
        budget: QueryBudget | None,
        workers: int,
    ) -> None:
        """Classify each text once and raise every pool the batch may
        touch to the fan-out (same contract as
        :meth:`GraphitiService._prepare_batch`)."""
        dialect = self.dialect_of(name)
        for text in dict.fromkeys(texts):
            self.prepare(text, dialect, opt_level=opt_level)
        for service in (self._fallback, *self._shards):
            service.pool(name, min_capacity=workers)

    def reference(
        self,
        cypher_text: str,
        opt_level: int | None = None,
        budget: QueryBudget | None = None,
    ) -> Table:
        """Reference evaluation over the *full* database (the fallback's)."""
        return self._fallback.reference(cypher_text, opt_level=opt_level, budget=budget)

    def record_execution(
        self, cypher_text: str, seconds: float, backend: str | None = None
    ) -> None:
        self._fallback.record_execution(cypher_text, seconds, backend=backend)

    # -- pooling / observability --------------------------------------------

    def warm_pool(self, backend: str | None = None, members: int | None = None) -> None:
        """Warm the fallback's and every shard's pool for *backend*."""
        self._fallback.warm_pool(backend, members)
        for shard in self._shards:
            shard.warm_pool(backend, members)

    def pool_snapshots(self) -> dict[str, dict]:
        """The fallback's pools (the coordinator-level view)."""
        return self._fallback.pool_snapshots()

    def shard_stats(self) -> list[dict]:
        """Per-shard pool and cache counters, for ``repro backends --stats``."""
        stats = []
        for index, shard in enumerate(self._shards):
            cache = shard.cache_info()
            stats.append(
                {
                    "shard": index,
                    "rows": shard.database.total_rows(),
                    "queries": int(
                        self._shard_queries.value(shard=str(index))
                    ),
                    "pools": shard.pool_snapshots(),
                    "cache": {
                        "hits": cache.hits,
                        "misses": cache.misses,
                        "currsize": cache.currsize,
                    },
                }
            )
        return stats

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self._executor.shutdown(wait=True)
        for shard in self._shards:
            shard.close()
        self._fallback.close()

    def __enter__(self) -> "ShardedGraphitiService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class AsyncShardedGraphitiService(AsyncGraphitiService):
    """:class:`AsyncGraphitiService` whose owned service is sharded.

    Wraps an existing :class:`ShardedGraphitiService` (shared shards,
    pools, metrics) or builds an owned one from a
    :class:`~repro.graph.schema.GraphSchema` (``**kwargs`` forwarded).
    Each awaited query offloads the coordinator's whole scatter-gather.
    """

    service_class = ShardedGraphitiService

    @property
    def sharded(self) -> ShardedGraphitiService:
        return self._service


__all__ = [
    "DEFAULT_NUM_SHARDS",
    "AsyncShardedGraphitiService",
    "ShardPartitioner",
    "ShardedGraphitiService",
    "stable_shard_hash",
]
