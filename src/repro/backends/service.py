"""The :class:`GraphitiService` facade: schema → SDT → transpile → execute.

The service wires the whole paper pipeline behind one object so callers
(CLI, benchmarks, applications) never touch the individual passes:

* the induced relational schema and standard transformer are computed once
  per service (``infer_sdt``);
* transpilation + dialect rendering is memoised in two tiers — a
  process-local LRU keyed by ``(schema fingerprint, Cypher text, dialect,
  opt level, statistics digest)``, and an optional persistent on-disk store
  (:class:`~repro.backends.cache.PersistentQueryCache`) under the same
  logical key, so even a *cold process* skips parsing, translation,
  optimisation, and rendering for previously prepared queries;
* execution backends are resolved through the registry and served from
  per-backend :class:`~repro.backends.pool.ConnectionPool`\\ s of warmed,
  bulk-loaded connections, so one loaded dataset serves any number of
  engines — and any number of *threads* — side by side.

The service is thread-safe: the LRU and the per-query-text records are
lock-protected, so is every change to the pool map (a serve reads it
without the lock), and every execution path checks a connection out of
a pool for exclusive use.  :meth:`GraphitiService.run_many`
fans a batch of Cypher texts across a worker-thread pool (results come back
in batch order), which is where pooled connections turn into throughput —
see ``benchmarks/bench_throughput.py`` for the tracked numbers.

The schema fingerprint in the cache key makes cache entries safe to share
between services over the *same* schema and impossible to confuse between
different ones; the statistics digest does the same for level-2 plans,
which legitimately change when fresh data changes the estimated join order.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
import weakref
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from repro.common.budget import (
    BudgetTracker,
    QueryBudget,
    QueryBudgetExceeded,
)
from repro.core.sdt import infer_sdt
from repro.core.transpile import transpile
from repro.cypher.parser import parse_cypher
from repro.execution.datagen import MockDataGenerator
from repro.graph.schema import GraphSchema
from repro.observability.metrics import (
    RATIO_BUCKETS,
    CounterChild,
    HistogramChild,
    MetricsRegistry,
    SlowQueryLog,
)
from repro.observability.tracing import NOOP_TRACER
from repro.relational.instance import Database, Table
from repro.sql import ast as sq
from repro.sql.dialect import SqlDialect, dialect_for
from repro.sql.fragment import fragment_query
from repro.sql.optimize import DEFAULT_OPT_LEVEL, OPT_LEVELS, optimize
from repro.sql.planner import PlanReport
from repro.sql.pretty import to_sql_text
from repro.sql.semantics import evaluate_query as evaluate_sql
from repro.sql.stats import DatabaseStats, collect_stats
from repro.transformer.semantics import transform_graph

from repro.backends.cache import PersistentQueryCache, cache_key
from repro.backends.executor import (
    FragmentExecutor,
    ParallelDecision,
    plan_parallelism,
    run_indexed,
)
from repro.backends.guards import CircuitBreaker, CircuitOpen, RetryPolicy
from repro.backends.pool import ConnectionPool, PoolClosed, PoolTimeout
from repro.backends.registry import available_backends, backend_info

DEFAULT_BACKEND = "sqlite-memory"

#: Per-query latency samples kept for percentile reporting (most recent).
MAX_LATENCY_SAMPLES = 512

#: Cypher texts whose state (:class:`QueryStat` accounting, feedback
#: decision, partition-gate verdicts, engine timing) is kept: the most
#: recently used ones, as inlined literals would otherwise grow the map
#: forever.  An evicted text's decision falls back to epoch 0: it re-learns
#: from the uncorrected plan, at most :data:`MAX_REPLANS` times.  Every plan
#: returns the reference evaluator's bag, so eviction costs only speed.
MAX_TRACKED_QUERIES = 4096

#: Executions before a plan's running mean may trigger a feedback re-plan.
FEEDBACK_MIN_OBSERVATIONS = 2

#: Feedback re-plans per Cypher text, so noisy actuals cannot oscillate.
MAX_REPLANS = 4

#: Prepared queries the in-memory transpilation LRU keeps.
CACHE_SIZE = 128

#: Transparent retries (and their backoff) after a pool member died
#: mid-query or could not be spawned.
RETRY_POLICY = RetryPolicy()

#: Consecutive engine failures that open a backend's circuit breaker.
BREAKER_THRESHOLD = 5

#: Seconds an open circuit sheds calls before it admits a probe.
BREAKER_COOLDOWN_SECONDS = 5.0

#: Seconds a serving checkout (sync or async) may wait on a pool exhausted
#: at capacity before raising PoolTimeout; a budget's remaining clock caps
#: it further.
CHECKOUT_TIMEOUT = 30.0


class _OffLoop(Exception):
    """An on-loop serve reached a step that may wait or sleep: a pool wait
    or spawn, a retry backoff, a partition scatter, or a budget
    downgrade's re-prepare.  ``resume()`` finishes the query from that
    step on a worker thread, under the same budget clock; *attempt* is
    the try the pooled execution resumes at."""

    def __init__(
        self,
        attempt: int = 1,
        resume: Callable[[], tuple[Table, "PreparedQuery"]] | None = None,
    ) -> None:
        super().__init__("serve must leave the event loop")
        self.attempt = attempt
        self.resume = resume


def _depth_cap(budget: QueryBudget | None) -> int | None:
    """The traversal depth cap an (effective) *budget* plans under."""
    if budget is None or not budget.allow_downgrade:
        return None
    return budget.max_depth


def _checkout_timeout(tracker: BudgetTracker) -> float:
    """The tighter of the budget's remaining clock (``None`` when
    unbounded) and :data:`CHECKOUT_TIMEOUT`."""
    remaining = tracker.remaining_seconds()
    if remaining is None:
        return CHECKOUT_TIMEOUT
    return min(remaining, CHECKOUT_TIMEOUT)


def _note_served(span, result: Table, prepared: "PreparedQuery") -> None:
    """The attributes of a recording ``query`` span once *prepared* has
    served *result* (sync and async alike)."""
    span.set("opt_level", prepared.opt_level)
    span.set("rows", len(result.rows))
    plan = prepared.plan
    if plan is not None and plan.estimated_rows is not None:
        span.set("estimated_rows", round(plan.estimated_rows, 1))


def schema_fingerprint(graph_schema: GraphSchema) -> str:
    """A stable digest of *graph_schema*'s node/edge types and keys."""
    parts = []
    for node in graph_schema.node_types:
        parts.append(f"node {node.label}({','.join(node.keys)})")
    for edge in graph_schema.edge_types:
        parts.append(
            f"edge {edge.label}({','.join(edge.keys)}):{edge.source}->{edge.target}"
        )
    canonical = "\n".join(sorted(parts))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def stats_digest(stats: DatabaseStats | None) -> str:
    """A stable content digest of table statistics (cache-key component).

    Processes that load the same data derive the same digest, so level-2
    plans are shareable across processes through the persistent cache;
    different data yields a different digest, invalidating exactly the
    entries whose chosen join order the new statistics could change.
    """
    if stats is None:
        return ""
    parts = []
    for name in sorted(stats):
        table = stats[name]
        distinct = ",".join(f"{c}={n}" for c, n in sorted(table.distinct.items()))
        entry = f"{name}:{table.row_count}:{distinct}"
        if getattr(table, "sampled", False):
            # Sampled NDVs are estimates, not facts — keep their plans
            # keyed apart from exact collections of the same data.
            entry += f":sampled{table.sample_size}"
        parts.append(entry)
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CacheInfo:
    """Transpilation-cache statistics (mirrors ``functools.lru_cache``)."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


@dataclass
class ExecutionFeedback:
    """Observed actual row counts for one cached plan.

    Mutable on purpose: the same object lives in the LRU entry, so every
    execution of a cache-hit plan accumulates here and a later ``repro
    explain`` renders the true observed history, not just the original
    estimate.  Mutations happen under the service lock.
    """

    executions: int = 0
    total_rows: int = 0
    last_rows: int | None = None

    def observe(self, rows: int) -> None:
        self.executions += 1
        self.total_rows += rows
        self.last_rows = rows

    @property
    def mean_rows(self) -> float:
        return self.total_rows / self.executions if self.executions else 0.0

    def to_dict(self) -> dict:
        return {
            "executions": self.executions,
            "last_rows": self.last_rows,
            "mean_rows": round(self.mean_rows, 1),
        }


@dataclass
class _FeedbackDecision:
    """Per-Cypher-text adaptive-execution state (service-internal).

    ``epoch`` is a cache-key component: bumping it invalidates exactly
    this query's entries (both tiers) without touching anything else.
    ``force_recursive``/``row_scale`` are the corrections applied when the
    stats digest did not change; ``last`` summarises the most recent
    re-plan for ``repro explain``.
    """

    epoch: int = 0
    replans: int = 0
    force_recursive: bool = False
    row_scale: float = 1.0
    last: dict | None = None


@dataclass(frozen=True)
class PreparedQuery:
    """A transpiled, rendered query ready for execution.

    ``sql_ast`` is the *optimised* algebra — the reference evaluator
    materialises intermediate results, so evaluating the transpiler's raw
    one-node-per-rule nesting (cross joins under selections) would blow up
    combinatorially on anything beyond toy instances.  ``opt_level``
    records which optimizer pipeline produced it (0 raw / 1 rule rewrites /
    2 cost-based planning).
    """

    cypher_text: str
    sql_ast: sq.Query
    sql_text: str
    dialect: str
    fingerprint: str
    opt_level: int = DEFAULT_OPT_LEVEL
    #: The planner's decision record (``repro explain`` renders it).  It
    #: travels with the prepared query — through both cache tiers — so plan
    #: introspection works even when a trace shows only a cache hit.
    plan: PlanReport | None = None
    #: Observed actual rows, accumulated per execution (mutable — see
    #: :class:`ExecutionFeedback`).  The adaptive layer compares its running
    #: mean against ``plan.estimated_rows`` to decide re-planning.
    feedback: ExecutionFeedback = field(default_factory=ExecutionFeedback)
    #: The feedback epoch this entry was planned under.  Only an entry from
    #: the *current* epoch may trigger a re-plan — a stale entry observed
    #: after the plan already changed must not bump the epoch again.
    feedback_epoch: int = 0


@dataclass(frozen=True)
class QueryStat:
    """Cumulative measurement accounting for one Cypher text.

    One *execution* here is one recorded measurement: a :meth:`~GraphitiService.run`
    call contributes its single wall-clock time, a
    :meth:`~GraphitiService.time` call contributes the median of its
    repeats as one measurement (the repeats exist to stabilise that
    number, not as independent work).  ``mean_seconds`` is therefore the
    mean *per-execution* wall-clock — the typical cost of running the
    query once.  ``samples`` retains the most recent
    :data:`MAX_LATENCY_SAMPLES` measurements so throughput runs can report
    tail latency (:attr:`p50_seconds`, :attr:`p95_seconds`), not just
    totals.
    """

    cypher_text: str
    executions: int
    total_seconds: float
    last_seconds: float
    samples: tuple[float, ...] = ()

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.executions if self.executions else 0.0

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile over the retained samples (0 if none)."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
        return ordered[rank]

    @property
    def p50_seconds(self) -> float:
        return self.percentile(0.50)

    @property
    def p95_seconds(self) -> float:
        return self.percentile(0.95)


class _EngineTiming:
    """The engine seconds of one prepared entry on one backend, since the
    data was loaded (the async service's inline gate reads their mean).
    The entry is held by a weak reference, so an evicted entry is not kept
    alive; a re-planned or re-keyed entry, or another backend, starts a
    new timing."""

    __slots__ = ("backend", "entry", "runs", "seconds")

    def __init__(self, backend: str, entry: PreparedQuery, seconds: float) -> None:
        self.backend = backend
        self.entry = weakref.ref(entry)
        self.runs = 1
        self.seconds = seconds

    def of(self, backend: str, entry: PreparedQuery) -> bool:
        return self.backend == backend and self.entry() is entry


class _QueryState:
    """Everything the service keeps for one Cypher text: the running
    accounting behind its :class:`QueryStat` (:meth:`freeze` takes the
    snapshot), its feedback decision, the partition gate's verdicts, and
    its latest engine timing.  Mutated in place under the service lock."""

    __slots__ = (
        "order", "executions", "total_seconds", "last_seconds", "samples",
        "feedback", "gates", "timing",
    )

    def __init__(self) -> None:
        #: ``None`` until a feedback re-plan triggers.
        self.feedback: _FeedbackDecision | None = None
        #: The gate's ``(decision, executor)`` per ``(dialect, opt level)``;
        #: the schema and the degree are fixed for a service.
        self.gates: dict[
            tuple[str, int], tuple[ParallelDecision, FragmentExecutor | None]
        ] = {}
        #: The timing of the entry and backend that ran last.
        self.timing: _EngineTiming | None = None
        self.reset_stats()

    def reset_stats(self) -> None:
        #: Position of the first recorded execution (``query_stats()`` order).
        self.order: int | None = None
        self.executions = 0
        self.total_seconds = 0.0
        self.last_seconds = 0.0
        self.samples: deque[float] = deque(maxlen=MAX_LATENCY_SAMPLES)

    def add(self, seconds: float) -> None:
        self.executions += 1
        self.total_seconds += seconds
        self.last_seconds = seconds
        self.samples.append(seconds)

    def freeze(self, cypher_text: str) -> QueryStat:
        return QueryStat(
            cypher_text,
            self.executions,
            self.total_seconds,
            self.last_seconds,
            tuple(self.samples),
        )


class _BackendSeries(NamedTuple):
    """The per-query metric series of one backend, bound once."""

    queries: CounterChild
    seconds: HistogramChild
    estimate_error: HistogramChild


class _LruCache:
    """A small, thread-safe LRU map with hit/miss accounting (stdlib only)."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[object, object] = OrderedDict()

    def get(self, key: object, count_miss: bool = True) -> object | None:
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                if count_miss:
                    self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: object, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self.hits, self.misses, self.maxsize, len(self._entries))


class GraphitiService:
    """End-to-end query service over one graph schema.

    Typical use::

        service = GraphitiService(graph_schema)
        service.load_graph(property_graph)        # or load_database / load_mock
        table = service.run("MATCH (n:EMP) RETURN n.name")
        tables = service.run_many([q1, q2, q3, q4], workers=4)
        timings = {b: service.time(q, backend=b) for b in service.backends()}

    *pool_size* caps how many pooled connections each backend may grow to;
    :meth:`run_many` raises the cap when asked for more workers.
    *persistent_cache* enables the cross-process transpilation store: pass
    ``True`` for the default location (see
    :func:`repro.backends.cache.default_cache_dir`), a path, or a
    :class:`~repro.backends.cache.PersistentQueryCache` to share one store
    between services.
    *parallelism* (degree K >= 2) enables intra-query parallelism:
    fragmentable plans whose estimated scan clears
    *parallel_row_threshold* (default
    :data:`repro.backends.executor.PARALLEL_ROW_THRESHOLD`) are split
    into K disjoint rowid range partitions, scattered over pooled
    connections, and merged with the :mod:`repro.sql.fragment` rules —
    see :mod:`repro.backends.executor`.

    The serving policies no caller varies are module constants, read where
    they are used: :data:`CACHE_SIZE`, :data:`RETRY_POLICY`,
    :data:`BREAKER_THRESHOLD`, :data:`BREAKER_COOLDOWN_SECONDS` and
    :data:`CHECKOUT_TIMEOUT`.
    """

    def __init__(
        self,
        graph_schema: GraphSchema,
        default_backend: str = DEFAULT_BACKEND,
        opt_level: int = DEFAULT_OPT_LEVEL,
        pool_size: int = 4,
        persistent_cache: PersistentQueryCache | str | Path | bool | None = None,
        registry: MetricsRegistry | None = None,
        default_budget: QueryBudget | None = None,
        feedback_ratio: float | None = 8.0,
        parallelism: int = 1,
        parallel_row_threshold: float | None = None,
    ) -> None:
        if opt_level not in OPT_LEVELS:
            raise ValueError(f"unknown optimization level {opt_level!r}")
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.graph_schema = graph_schema
        self.sdt = infer_sdt(graph_schema)
        self.fingerprint = schema_fingerprint(graph_schema)
        self.default_backend = default_backend
        self.opt_level = opt_level
        self.pool_size = pool_size
        self._cache = _LruCache(CACHE_SIZE)
        self._persistent, self._owns_persistent = self._open_persistent(
            persistent_cache
        )
        self._database = Database(self.sdt.schema)
        self._stats: DatabaseStats | None = None
        self._stats_digest = ""
        #: Guards the loaded data swap, the per-text records, and every
        #: change to the pool and breaker maps (their readers go lock-free:
        #: under the GIL one dict read is atomic).
        self._lock = threading.RLock()
        self._pools: dict[str, ConnectionPool] = {}
        #: Set by :meth:`close`: from then on :meth:`_pool` makes no pool.
        self._closed = False
        #: One record per Cypher text, least recently used first; capped at
        #: MAX_TRACKED_QUERIES by :meth:`_query_state`.
        self._query_states: OrderedDict[str, _QueryState] = OrderedDict()
        self._query_order = itertools.count()
        # Telemetry: a metrics registry (shared if the caller passes one), a
        # slow-query ring buffer, and the no-op tracer — instrumentation is
        # always on, and costs ~nothing until :meth:`set_tracer` attaches a
        # real Tracer (``repro explain``, the smoke script).
        self._registry = registry if registry is not None else MetricsRegistry()
        self._tracer = NOOP_TRACER
        self.slow_queries = SlowQueryLog()
        self._queries_total = self._registry.counter(
            "repro_queries_total", "Query executions recorded, by backend."
        )
        self._query_seconds = self._registry.histogram(
            "repro_query_seconds", "Engine execution seconds per query."
        )
        self._cache_lookups = self._registry.counter(
            "repro_transpile_cache_total",
            "Transpilation-cache lookups, by tier and result.",
        )
        # Every prepare looks up the memory tier: bind its two series once.
        self._memory_hits = self._cache_lookups.labels(tier="memory", result="hit")
        self._memory_misses = self._cache_lookups.labels(
            tier="memory", result="miss"
        )
        # Resilience: per-call/service-default query budgets, bounded retry
        # on member death, and a per-backend circuit breaker that sheds
        # load fast while an engine is down.
        self.default_budget = default_budget
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Injectable backoff sleep (tests swap in a recorder; no real waits).
        self._retry_sleep = time.sleep
        self._query_retries = self._registry.counter(
            "repro_query_retries_total",
            "Transparent retries after a pool member died mid-query.",
        )
        self._budget_exceeded = self._registry.counter(
            "repro_budget_exceeded_total",
            "Queries stopped by a resource budget, by dimension.",
        )
        self._budget_downgrades = self._registry.counter(
            "repro_budget_downgrades_total",
            "Plan downgrades attempted after a budget trip.",
        )
        self._breaker_transitions = self._registry.counter(
            "repro_breaker_transitions_total",
            "Circuit-breaker state transitions, by backend and new state.",
        )
        self._breaker_rejections = self._registry.counter(
            "repro_breaker_rejections_total",
            "Calls shed instantly because a backend's circuit was open.",
        )
        # Adaptive execution: estimate-vs-actual feedback.  A level-2 plan
        # whose running observed rows diverge from ``estimated_rows`` by at
        # least ``feedback_ratio`` (q-error, so symmetric) after
        # FEEDBACK_MIN_OBSERVATIONS executions is re-planned: stats are
        # re-collected from the live data, and when that alone cannot
        # explain the miss, corrections (forced recursive traversal, a
        # base-row scale) apply under a bumped feedback epoch that
        # invalidates exactly that query's cache entries.
        if feedback_ratio is not None and feedback_ratio <= 1.0:
            raise ValueError(
                f"feedback_ratio must be > 1 (or None to disable), "
                f"got {feedback_ratio}"
            )
        self.feedback_ratio = feedback_ratio
        self._replans_total = self._registry.counter(
            "repro_plan_replans_total",
            "Feedback-triggered query re-plans, by backend and reason.",
        )
        self._estimate_error = self._registry.histogram(
            "repro_estimate_error",
            "Estimate-vs-actual q-error per observed execution.",
            buckets=RATIO_BUCKETS,
        )
        #: Per-query series of each backend name, bound on first use.
        self._backend_series: dict[str, _BackendSeries] = {}
        # Intra-query parallelism: fragmentable plans over large scans are
        # split into rowid range partitions and scattered over pooled
        # connections (see repro.backends.executor).  The gate's verdicts
        # and rendered partition SQL are cached on each text's record; the
        # two persistent thread pools (batch fan-out vs partition fan-out)
        # are deliberately separate so a run_many worker mid-batch can
        # never deadlock waiting for partition slots its siblings hold.
        self.parallelism = parallelism
        self.parallel_row_threshold = parallel_row_threshold
        #: The fan-out executors by kind, with their worker counts (see
        #: :meth:`_executor`).
        self._executors: dict[str, tuple[ThreadPoolExecutor, int]] = {}
        self._parallel_queries = self._registry.counter(
            "repro_parallel_queries_total",
            "Queries served by partition-parallel scatter, by backend and "
            "fragment kind.",
        )
        self._parallel_partitions = self._registry.histogram(
            "repro_parallel_partitions",
            "Partitions per parallel query.",
        )

    @staticmethod
    def _open_persistent(
        setting: PersistentQueryCache | str | Path | bool | None,
    ) -> tuple[PersistentQueryCache | None, bool]:
        if setting is None or setting is False:
            return None, False
        if isinstance(setting, PersistentQueryCache):
            return setting, False  # shared store: caller owns its lifetime
        if setting is True:
            return PersistentQueryCache(), True
        return PersistentQueryCache(setting), True

    # -- data --------------------------------------------------------------

    @property
    def database(self) -> Database:
        """The currently loaded induced-schema instance."""
        return self._database

    def load_database(
        self, database: Database, stats: DatabaseStats | None = None
    ) -> None:
        """Serve queries over *database* (an induced-schema instance).

        Statistics are collected here, once, and handed down to every pool
        member — backends never re-scan the same data.  Large tables are
        reservoir sampled (see :func:`repro.sql.stats.collect_stats`).  Pass
        *stats* to supply precomputed statistics instead — custom sampling
        (``stats=collect_stats(database, sample_threshold=...)``), or
        stale numbers: the adaptive-execution benchmark plans against
        numbers the data has outgrown and watches feedback correct them.
        """
        if database.schema.relations != self.sdt.schema.relations:
            raise ValueError(
                "database schema does not match the induced schema of this service"
            )
        if stats is None:
            stats = collect_stats(database)
        with self._lock:
            self._reset_pools()
            self._database = database
            self._stats = stats
            self._stats_digest = stats_digest(stats)
            # Fresh data: divergence verdicts reached on the old data no
            # longer mean anything, and neither do partition bounds or
            # engine timings.  The decision is detached, not reset in
            # place, so a re-plan that holds it across its stats refresh
            # corrects an orphan.
            for state in self._query_states.values():
                state.feedback = None
                state.gates.clear()
                state.timing = None

    def refresh_stats(self) -> bool:
        """Re-collect statistics from the live data; ``True`` if the digest
        changed (which invalidates exactly the level-2 cache entries).

        Unlike :meth:`load_database` this does **not** reset the pools —
        the data inside the engines is unchanged; only the planner's
        numbers are refreshed.
        """
        with self._lock:
            database = self._database
        stats = collect_stats(database)
        digest = stats_digest(stats)
        with self._lock:
            changed = digest != self._stats_digest
            self._stats = stats
            self._stats_digest = digest
            if changed:
                # Parallel gate verdicts and partition bounds derive from
                # row counts; re-derive them from the fresh numbers.
                for state in self._query_states.values():
                    state.gates.clear()
        return changed

    def load_graph(self, graph: object) -> None:
        """Serve queries over a property graph, via the standard transformer."""
        self.load_database(
            transform_graph(self.sdt.transformer, graph, self.sdt.schema)
        )

    def load_mock(self, rows_per_table: int, seed: int = 42) -> None:
        """Serve queries over generated mock data (benchmarks, demos)."""
        generator = MockDataGenerator(self.graph_schema, self.sdt, seed=seed)
        self.load_database(generator.induced_instance(rows_per_table))

    # -- transpilation (cached) --------------------------------------------

    def prepare(
        self,
        cypher_text: str,
        dialect: str | SqlDialect | None = None,
        opt_level: int | None = None,
        force_recursive: bool = False,
        depth_cap: int | None = None,
    ) -> PreparedQuery:
        """Parse, transpile, optimize, and render *cypher_text* (cached).

        Lookup order: in-memory LRU, then the persistent store (when
        enabled), then the full pipeline.  *opt_level* overrides the
        service default for this query.  The cache key includes the level
        and (at level 2) the statistics digest, since reloaded data can
        legitimately change the chosen join order.

        *force_recursive* and *depth_cap* are the budget downgrades (see
        :func:`repro.sql.optimize.optimize`); they produce distinct plans
        and therefore distinct cache entries in both tiers — a downgraded
        plan must never shadow the normal one.
        """
        if dialect is None:
            dialect = self.dialect_of(self.default_backend)
        prepared = self._prepare(
            cypher_text, dialect_for(dialect), opt_level, force_recursive, depth_cap
        )
        assert prepared is not None
        return prepared

    def _prepare(
        self,
        cypher_text: str,
        dialect: SqlDialect,
        opt_level: int | None,
        force_recursive: bool = False,
        depth_cap: int | None = None,
        memory_only: bool = False,
    ) -> PreparedQuery | None:
        """:meth:`prepare` in a resolved *dialect*; with *memory_only*,
        ``None`` on a memory-tier miss instead of the disk tier and the
        pipeline.  That miss is not counted: the full prepare that follows
        counts the lookup, so every served query counts one (the async
        service's placement lookup)."""
        level = self.opt_level if opt_level is None else opt_level
        if level not in OPT_LEVELS:
            raise ValueError(f"unknown optimization level {level!r}")
        with self._lock:  # a racing load_database must not tear stats/digest
            stats, digest = self._stats, self._stats_digest
            state = (
                self._query_states.get(cypher_text)
                if level >= 2 and self.feedback_ratio is not None
                else None
            )
            decision = state.feedback if state is not None else None
        if level < 2:
            digest = ""
        variant = ""
        if force_recursive or depth_cap is not None:
            variant = f"fr{int(force_recursive)}:dc{depth_cap}"
        # Feedback corrections ride a dedicated cache-key component: bumping
        # the epoch re-keys exactly this query's entries in both tiers, so
        # the superseded plan can never shadow the corrected one.
        epoch = decision.epoch if decision is not None else 0
        fb_force = decision.force_recursive if decision is not None else False
        fb_scale = decision.row_scale if decision is not None else 1.0
        replan_note = decision.last if decision is not None else None
        if epoch:
            variant += f":fb{epoch}.{int(fb_force)}.{fb_scale:.4g}"
        # The parallel degree is a plan-choice input like budgets and
        # feedback: a parallel-enabled service's entries (whose PlanReport
        # records the gate's verdict) must never shadow a serial service's
        # in the shared persistent store, and vice versa.
        if self.parallelism > 1:
            variant += f":par{self.parallelism}"
        key = (self.fingerprint, cypher_text, dialect.name, level, digest, variant)
        tracer = self._tracer
        with tracer.span(
            "query.prepare", dialect=dialect.name, opt_level=level
        ) as prepare_span:
            with tracer.span("cache.lookup", tier="memory") as span:
                cached = self._cache.get(key, count_miss=not memory_only)
                if span.recording:
                    span.set("hit", cached is not None)
            if cached is not None:
                assert isinstance(cached, PreparedQuery)
                self._memory_hits.inc()
                if prepare_span.recording:
                    prepare_span.set("cached", "memory")
                return cached
            if memory_only:
                if prepare_span.recording:
                    prepare_span.set("cached", "deferred")
                return None
            self._memory_misses.inc()
            if self._persistent is not None:
                disk_key = cache_key(
                    self.fingerprint, cypher_text, dialect.name, level, digest,
                    variant=variant,
                )
                with tracer.span("cache.lookup", tier="disk") as span:
                    stored = self._persistent.get(disk_key)
                    span.set("hit", isinstance(stored, PreparedQuery))
                self._cache_lookups.inc(
                    tier="disk",
                    result="hit" if isinstance(stored, PreparedQuery) else "miss",
                )
                if isinstance(stored, PreparedQuery):
                    self._cache.put(key, stored)
                    prepare_span.set("cached", "disk")
                    return stored
            prepare_span.set("cached", "no")
            with tracer.span("query.parse"):
                query = parse_cypher(cypher_text, self.graph_schema)
            with tracer.span("query.transpile"):
                raw = transpile(query, self.graph_schema, self.sdt)
            report = PlanReport()
            with tracer.span("optimize.planner", opt_level=level) as span:
                translated = optimize(
                    raw,
                    level=level,
                    schema=self.sdt.schema,
                    stats=stats,
                    report=report,
                    force_recursive=force_recursive or fb_force,
                    depth_cap=depth_cap,
                    row_scale=fb_scale,
                )
                if epoch and replan_note is not None:
                    report.feedback = dict(replan_note)
                if report.traversal_choice is not None:
                    span.set("traversals", report.traversal_choice)
                span.set("joins_planned", len(report.joins))
                if report.estimated_rows is not None:
                    span.set("estimated_rows", round(report.estimated_rows, 1))
            with tracer.span("query.render", dialect=dialect.name):
                rendered = to_sql_text(
                    translated, self.sdt.schema, optimized=False, dialect=dialect
                )
            prepared = PreparedQuery(
                cypher_text,
                translated,
                rendered,
                dialect.name,
                self.fingerprint,
                level,
                report,
                feedback_epoch=epoch,
            )
            self._cache.put(key, prepared)
            if self._persistent is not None:
                self._persistent.put(disk_key, cypher_text, prepared)
            return prepared

    def transpile_to_sql(
        self,
        cypher_text: str,
        dialect: str | SqlDialect | None = None,
        opt_level: int | None = None,
    ) -> str:
        """The rendered SQL text for *cypher_text* (cached)."""
        return self.prepare(cypher_text, dialect, opt_level=opt_level).sql_text

    def cache_info(self) -> CacheInfo:
        return self._cache.info()

    def persistent_cache_info(self) -> CacheInfo | None:
        """Hit/miss counters of the persistent store (``None`` if disabled)."""
        if self._persistent is None:
            return None
        return CacheInfo(
            self._persistent.hits,
            self._persistent.misses,
            -1,  # unbounded
            len(self._persistent),
        )

    def clear_cache(self) -> None:
        self._cache.clear()

    # -- execution ---------------------------------------------------------

    def run(
        self,
        cypher_text: str,
        backend: str | None = None,
        opt_level: int | None = None,
        budget: QueryBudget | None = None,
    ) -> Table:
        """Execute *cypher_text* on *backend* over the loaded data.

        Thread-safe: the query runs on a pooled connection checked out for
        exclusive use, so any number of threads may call this concurrently.

        *budget* (default: the service's ``default_budget``) bounds the
        query's rows, recursion depth, and wall-clock time; exceeding it
        raises :class:`~repro.common.budget.QueryBudgetExceeded` — after
        the service has attempted a cheaper plan, when the budget allows
        downgrading.  A member that dies mid-query is evicted and the
        query transparently retried on a healthy member (bounded by
        :data:`RETRY_POLICY`); a backend whose engine keeps failing trips
        its circuit breaker, shedding further calls with
        :class:`~repro.backends.guards.CircuitOpen` until a cooldown
        probe succeeds.  A pool exhausted at capacity raises
        :class:`~repro.backends.pool.PoolTimeout` after
        :data:`CHECKOUT_TIMEOUT` seconds (or the budget's remaining
        clock, whichever is tighter).
        """
        return self.serve(cypher_text, backend, opt_level, budget)[0]

    def serve(
        self,
        cypher_text: str,
        backend: str | None = None,
        opt_level: int | None = None,
        budget: QueryBudget | None = None,
    ) -> tuple[Table, PreparedQuery]:
        """Like :meth:`run`, but also returns the :class:`PreparedQuery`
        that actually served the execution — the entry whose plan and
        observed-feedback history describe *this* result, even when the
        adaptive layer re-planned the query right after it ran (``repro
        explain`` relies on this to stay truthful)."""
        name = backend or self.default_backend
        with self._tracer.span("query", backend=name, cypher=cypher_text) as span:
            result, prepared = self._serve(cypher_text, name, opt_level, budget)
            if span.recording:
                _note_served(span, result, prepared)
        return result, prepared

    def _effective_budget(self, budget: QueryBudget | None) -> QueryBudget | None:
        budget = budget if budget is not None else self.default_budget
        if budget is None or budget.unlimited:
            return None
        return budget

    def _start_budget(self, budget: QueryBudget | None) -> BudgetTracker | None:
        """Start the clock of *budget* (or :attr:`default_budget`) for one
        query — ``None`` when the query is unbounded."""
        budget = self._effective_budget(budget)
        return budget.start() if budget is not None else None

    def breaker(self, backend: str | None = None) -> CircuitBreaker:
        """The circuit breaker guarding *backend* (created on first use).

        One breaker per backend name, shared by every query path (sync and
        async), under :data:`BREAKER_THRESHOLD` and
        :data:`BREAKER_COOLDOWN_SECONDS`; its state transitions are
        counted in ``repro_breaker_transitions_total``.
        """
        name = backend or self.default_backend
        breaker = self._breakers.get(name)
        if breaker is not None:
            return breaker
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(
                    backend_name=name,
                    failure_threshold=BREAKER_THRESHOLD,
                    cooldown_seconds=BREAKER_COOLDOWN_SECONDS,
                    on_transition=lambda state, name=name: (
                        self._breaker_transitions.inc(backend=name, state=state)
                    ),
                )
                self._breakers[name] = breaker
            return breaker

    def _serve(
        self,
        cypher_text: str,
        name: str,
        opt_level: int | None,
        budget: QueryBudget | None,
        tracker: BudgetTracker | None = None,
        prepared: PreparedQuery | None = None,
        on_loop: bool = False,
        attempt: int = 1,
    ) -> tuple[Table, PreparedQuery]:
        """Prepare + pooled execution with budget enforcement, transparent
        retry, circuit breaking, and the plan downgrade — the one serving
        pipeline behind :meth:`run`, :meth:`run_many`, and the async
        service.  Each pool checkout waits at most :data:`CHECKOUT_TIMEOUT`
        seconds, capped further by the budget's remaining clock.
        *tracker* is a budget clock the caller already started (from
        :meth:`_start_budget`, which then stands in for *budget*): the
        async service starts it when ``run`` is awaited, so time queued for
        an executor thread counts against the timeout.

        The async service's hooks: *prepared* is the entry the caller
        already looked up, so the lookup is not repeated.  *on_loop*
        serves on the caller's event loop, where nothing may wait or
        sleep: the first step that could raises :class:`_OffLoop`, whose
        ``resume()`` finishes the query on a worker thread.  *attempt* is
        the try a resumed execution starts at (above 1, after the backoff
        that follows the failed try)."""
        if tracker is None:
            tracker = self._start_budget(budget)
        budget = tracker.budget if tracker is not None else None
        depth_cap = _depth_cap(budget)
        if prepared is None:
            prepared = self._prepare(
                cypher_text, self.dialect_of(name), opt_level, depth_cap=depth_cap
            )
        pool = self._pool(name)
        while True:
            try:
                # Serial pooled execution — or the partition-parallel
                # scatter, when this service's degree and the cost gate
                # both say yes.
                runner = (
                    None if self.parallelism < 2 else self._parallel_for(prepared)
                )
                if runner is not None:
                    if on_loop:
                        raise _OffLoop()
                    result = self._run_parallel(
                        pool, name, cypher_text, prepared, runner, tracker
                    )
                else:
                    result = self._run_prepared(
                        pool, name, cypher_text, prepared, tracker,
                        on_loop=on_loop, attempt=attempt,
                    )
                if depth_cap is None:
                    # Depth-capped plans are budget variants — their row
                    # counts say nothing about the normal plan's estimate.
                    self.observe_execution(prepared, len(result.rows), name)
                return result, prepared
            except PoolClosed:
                # A reload closed the pool after this query read the map,
                # so any partition already served came from the old load:
                # the whole query runs again on the pool that replaced it,
                # with no breaker charge, backoff or retry count.  A pool
                # closed while still in service, or by close(), raises.
                replacement = self._pool(name)
                if replacement is pool:
                    raise
                pool, attempt = replacement, 1
            except _OffLoop as leave:
                leave.resume = partial(
                    self._serve, cypher_text, name, opt_level, budget, tracker,
                    prepared, attempt=leave.attempt,
                )
                raise
            except QueryBudgetExceeded as error:
                assert budget is not None and tracker is not None
                downgradable = (
                    budget.allow_downgrade
                    and prepared.plan is not None
                    and any(
                        traversal.choice == "unrolled"
                        for traversal in prepared.plan.traversals
                    )
                )
                if not downgradable:
                    raise
                downgrade = partial(
                    self._downgrade, cypher_text, name, opt_level, depth_cap,
                    pool, tracker, error,
                )
                if on_loop:
                    raise _OffLoop(resume=downgrade) from error
                return downgrade()

    def _downgrade(
        self,
        cypher_text: str,
        name: str,
        opt_level: int | None,
        depth_cap: int | None,
        pool: ConnectionPool,
        tracker: BudgetTracker,
        error: QueryBudgetExceeded,
    ) -> tuple[Table, PreparedQuery]:
        """The unrolled join chains blew the budget: re-plan with the
        recursive CTE (incremental frontier, far smaller intermediates)
        and retry once under the remaining budget."""
        self._budget_downgrades.inc(backend=name)
        tracker.reset_work()
        with self._tracer.span(
            "query.downgrade", backend=name, reason=error.dimension
        ):
            downgraded = self.prepare(
                cypher_text, self.dialect_of(name), opt_level=opt_level,
                force_recursive=True, depth_cap=depth_cap,
            )
            try:
                return (
                    self._run_prepared(pool, name, cypher_text, downgraded, tracker),
                    downgraded,
                )
            except QueryBudgetExceeded as final:
                final.attempted_downgrade = True
                raise

    def _run_prepared(
        self,
        pool: ConnectionPool,
        name: str,
        cypher_text: str,
        prepared: PreparedQuery,
        tracker: BudgetTracker | None,
        record: bool = True,
        on_loop: bool = False,
        attempt: int = 1,
    ) -> Table:
        """One plan's pooled execution: breaker gate, checkout (bounded by
        :data:`CHECKOUT_TIMEOUT` and the budget's remaining time), engine
        guards, damage-aware checkin, and bounded backoff retry when the
        member turns out to be dead or cannot be spawned.

        *record* is off for partition executions — the parallel runner
        accounts the query's wall clock once, not per partition.
        *on_loop* takes only an idle member and raises :class:`_OffLoop`
        where a checkout would wait or spawn, or a retry would back off.
        *attempt* above 1 resumes the retries: its backoff is slept first."""
        breaker = self.breaker(name)
        while True:
            if attempt > 1:
                self._retry_sleep(RETRY_POLICY.delay_for(attempt - 1))
            if tracker is not None:
                tracker.check_timeout(stage="service")
            try:
                probe = breaker.allow()
            except CircuitOpen:
                self._breaker_rejections.inc(backend=name)
                raise
            # Everything past allow() must settle the breaker or release
            # the half-open probe slot, or an exit without a verdict (pool
            # timeout, cancellation) wedges the breaker shedding forever.
            try:
                if on_loop:
                    member = pool.take_idle()
                    if member is None:
                        raise _OffLoop(attempt)
                else:
                    try:
                        member = pool.checkout(
                            timeout=CHECKOUT_TIMEOUT
                            if tracker is None
                            else _checkout_timeout(tracker)
                        )
                    except (PoolClosed, PoolTimeout):
                        # Pool congestion is not engine failure: no breaker
                        # charge.
                        raise
                    except Exception:
                        # Spawning a member failed — the engine refused a
                        # fresh connection, which is exactly what the
                        # breaker watches.
                        breaker.record_failure()
                        if self._retry_after(attempt, tracker, name):
                            attempt += 1
                            continue
                        raise
                try:
                    with self._tracer.span("execute", backend=name) as exec_span:
                        start = time.perf_counter()
                        # budget= only when bounded: keeps stubbed/monkeypatched
                        # engines with the pre-budget signature working.
                        result = (
                            member.execute(prepared.sql_text)
                            if tracker is None
                            else member.execute(prepared.sql_text, budget=tracker)
                        )
                        elapsed = time.perf_counter() - start
                        if exec_span.recording:
                            exec_span.set("rows", len(result.rows))
                except QueryBudgetExceeded as error:
                    # The guard aborted the statement, not the connection —
                    # validate on checkin so the member rejoins the idle set
                    # (never poisons the pool) and the engine is not blamed.
                    pool.checkin(member, damaged=True)
                    breaker.record_success()
                    self._budget_exceeded.inc(
                        backend=name, dimension=error.dimension
                    )
                    raise error.annotate(backend=name, cypher_text=cypher_text)
                except Exception:
                    retained = pool.checkin(member, damaged=True)
                    if retained:
                        # The member is alive: a genuine query error, not a
                        # transient engine fault — retrying cannot help, and
                        # the connection just proved healthy (the breaker
                        # watches engine health, not query validity).
                        breaker.record_success()
                        raise
                    breaker.record_failure()
                    if self._retry_after(attempt, tracker, name):
                        attempt += 1
                        if on_loop:
                            raise _OffLoop(attempt)
                        continue
                    raise
                else:
                    pool.checkin(member)
                    breaker.record_success()
                    if record:
                        self._record(cypher_text, elapsed, name, prepared, pool)
                    return result
            finally:
                breaker.release_probe(probe)

    def _retry_after(
        self, attempt: int, tracker: BudgetTracker | None, name: str
    ) -> bool:
        """Whether to retry a transient failure of *attempt* (counted) —
        ``False`` when the retry policy is spent or the budget's clock
        already ran out (then the engine error is the honest answer).
        The next try sleeps the backoff before it starts."""
        if not RETRY_POLICY.should_retry(attempt) or (
            tracker is not None and tracker.timed_out()
        ):
            return False
        self._query_retries.inc(backend=name)
        return True

    # -- intra-query parallelism (partition-parallel scans) ------------------

    def _parallel_for(self, prepared: PreparedQuery) -> FragmentExecutor | None:
        """*prepared*'s partition executor, or ``None`` to stay serial.

        The gate's verdict under this service's degree is computed once per
        text, dialect, opt level, data load and feedback epoch; it is
        recorded in ``PlanReport.parallelism`` so ``repro explain`` shows it.
        Only a service with a degree of 2 or more asks."""
        key = (prepared.dialect, prepared.opt_level)
        with self._lock:
            state = self._query_state(prepared.cypher_text)
            gate = state.gates.get(key)
            stats = self._stats
            feedback = state.feedback
            row_scale = feedback.row_scale if feedback is not None else 1.0
        computed = gate is None
        if computed:
            dialect = dialect_for(prepared.dialect)
            fragment = fragment_query(prepared.sql_ast, self.sdt.schema)
            decision = plan_parallelism(
                fragment,
                schema=self.sdt.schema,
                stats=stats,
                degree=self.parallelism,
                dialect=dialect,
                row_scale=row_scale,
                threshold=self.parallel_row_threshold,
            )
            runner = None
            if decision.parallel:
                assert stats is not None
                runner = FragmentExecutor.build(
                    fragment,
                    decision,
                    schema=self.sdt.schema,
                    stats=stats,
                    dialect=dialect,
                )
            gate = (decision, runner)
            with self._lock:
                state.gates[key] = gate
        decision, runner = gate
        # Written when the verdict is computed — below opt level 2 a reload
        # keeps the same cache entry, whose old verdict is now stale — or
        # when the entry has none yet; rebuilding the dict on every serve
        # would tax the gated-serial hot path.
        if prepared.plan is not None and (
            computed or prepared.plan.parallelism is None
        ):
            prepared.plan.parallelism = decision.to_dict()
        return runner

    def _run_parallel(
        self,
        pool: ConnectionPool,
        name: str,
        cypher_text: str,
        prepared: PreparedQuery,
        runner: FragmentExecutor,
        tracker: BudgetTracker | None,
    ) -> Table:
        """Scatter *prepared* over rowid partitions and gather.

        Each partition runs through :meth:`_run_prepared` — the full
        breaker/retry/eviction discipline per partition, so a member
        dying mid-partition-scan is retried on a healthy member without
        failing the query.  All partitions charge the one shared
        *tracker*: the budget bounds the query, not each slice.  Wall
        clock is recorded once, against the whole query.
        """
        decision = runner.decision
        degree = decision.degree
        self._pool(name, min_capacity=degree)
        self._parallel_queries.inc(backend=name, kind=decision.kind or "unknown")
        self._parallel_partitions.observe(float(degree), backend=name)
        start = time.perf_counter()
        with self._tracer.span(
            "parallel.scan",
            backend=name,
            degree=degree,
            relation=decision.relation,
            kind=decision.kind,
        ) as scan_span:

            def run_partition(index: int) -> Table:
                partition = replace(prepared, sql_text=runner.statements[index])
                with self._tracer.span(
                    "parallel.partition",
                    parent=scan_span,
                    backend=name,
                    index=index,
                ) as span:
                    partial = self._run_prepared(
                        pool, name, cypher_text, partition, tracker, record=False
                    )
                    span.set("rows", len(partial.rows))
                    return partial

            partials = runner.scatter(
                run_partition, self._executor("partition", degree)
            )
            with self._tracer.span(
                "parallel.gather", backend=name, partitions=degree
            ) as gather_span:
                result = runner.gather(partials)
                gather_span.set("rows", len(result.rows))
        self.record_execution(cypher_text, time.perf_counter() - start, backend=name)
        return result

    # -- adaptive execution (estimate-vs-actual feedback) -------------------

    def observe_execution(
        self,
        prepared: PreparedQuery,
        actual_rows: int,
        backend: str | None = None,
    ) -> None:
        """Feed one execution's actual row count back to the planner.

        Accumulates on the cache entry's :class:`ExecutionFeedback` (so a
        later ``repro explain`` shows the observed history even on cache
        hits), records the q-error, and — when the running mean diverges
        from the plan's estimate by ``feedback_ratio`` or more after
        :data:`FEEDBACK_MIN_OBSERVATIONS` executions — re-plans the query
        (see :meth:`_replan`).  Called by the serving paths (sync and
        async); harmless to call directly.
        """
        name = backend or self.default_backend
        plan = prepared.plan
        with self._lock:
            prepared.feedback.observe(actual_rows)
            executions = prepared.feedback.executions
            mean_rows = prepared.feedback.mean_rows
            state = self._query_states.get(prepared.cypher_text)
            decision = state.feedback if state is not None else None
            current_epoch = decision.epoch if decision is not None else 0
        if (
            self.feedback_ratio is None
            or plan is None
            or plan.level < 2
            or plan.estimated_rows is None
        ):
            return
        estimate = max(float(plan.estimated_rows), 1.0)
        actual = max(float(actual_rows), 1.0)
        self._series_for(name).estimate_error.observe(
            max(actual / estimate, estimate / actual)
        )
        if executions < FEEDBACK_MIN_OBSERVATIONS:
            return
        running = max(mean_rows, 1.0)
        divergence = max(running / estimate, estimate / running)
        if divergence < self.feedback_ratio:
            return
        if prepared.feedback_epoch != current_epoch:
            # A newer plan already exists; this entry is a superseded
            # straggler and must not re-plan again.
            return
        self._replan(prepared, running, divergence, name)

    def _replan(
        self,
        prepared: PreparedQuery,
        observed_rows: float,
        divergence: float,
        backend: str,
    ) -> None:
        """Correct a diverged plan: refresh stats, derive corrections, bump
        the feedback epoch, and eagerly re-prepare under the new key.

        A stats refresh whose digest changes re-keys every level-2 entry
        and usually explains the miss on its own, so corrections reset.
        When the digest did *not* change (the skew is invisible to
        row counts and NDVs) the estimator itself is corrected: a diverged
        unrolled traversal is forced recursive — the budget-downgrade
        machinery's variant, now driven by evidence instead of a blown
        budget — and otherwise observed rows scale the estimator's base
        cardinalities.
        """
        cypher_text = prepared.cypher_text
        plan = prepared.plan
        assert plan is not None and plan.estimated_rows is not None
        estimate = max(float(plan.estimated_rows), 1.0)
        reason = "underestimate" if observed_rows >= estimate else "overestimate"
        with self._lock:
            state = self._query_state(cypher_text)
            decision = state.feedback = state.feedback or _FeedbackDecision()
            if decision.epoch != prepared.feedback_epoch:
                return  # lost the race: another thread re-planned first
            if decision.replans >= MAX_REPLANS:
                return  # refusing to oscillate forever on noisy actuals
        with self._tracer.span(
            "optimize.feedback",
            backend=backend,
            reason=reason,
            divergence=round(divergence, 1),
        ) as span:
            stats_changed = self.refresh_stats()
            with self._lock:
                if decision.epoch != prepared.feedback_epoch:
                    return
                decision.epoch += 1
                decision.replans += 1
                # The gate's verdicts priced the superseded estimate.
                state.gates.clear()
                if stats_changed:
                    # Fresh statistics take precedence over blind nudges.
                    decision.force_recursive = False
                    decision.row_scale = 1.0
                elif any(
                    traversal.choice == "unrolled"
                    for traversal in plan.traversals
                ):
                    # The estimator is badly wrong *in either direction*
                    # around an unrolled traversal: a skew the NDVs cannot
                    # see (hot hubs behind an average fan-out) blows up the
                    # chain's intermediates while the output stays small.
                    # The unroll decision rests on those same numbers, so
                    # take the conservative plan — the incremental frontier.
                    # No row-scale here: a correction computed against the
                    # unrolled plan's estimate is meaningless for the
                    # recursive plan it is about to produce.
                    decision.force_recursive = True
                else:
                    ratio = observed_rows / estimate
                    decision.row_scale = min(
                        max(decision.row_scale * ratio, 1.0 / 1024), 1024.0
                    )
                decision.last = {
                    "epoch": decision.epoch,
                    "reason": reason,
                    "divergence": round(divergence, 2),
                    "observed_rows": round(observed_rows, 1),
                    "previous_estimate": round(estimate, 1),
                    "stats_refreshed": stats_changed,
                    "force_recursive": decision.force_recursive,
                    "row_scale": round(decision.row_scale, 4),
                }
            self._replans_total.inc(backend=backend, reason=reason)
            span.set("epoch", decision.epoch)
            span.set("stats_refreshed", stats_changed)
            # Eager re-prepare: the next execution finds the corrected plan
            # already cached under the new epoch's key.
            self.prepare(
                cypher_text,
                self.dialect_of(backend),
                opt_level=prepared.opt_level,
            )

    def feedback_state(self, cypher_text: str) -> dict | None:
        """The adaptive layer's decision record for *cypher_text* (or
        ``None`` when no re-plan triggered since the last load or the text's
        eviction) — introspection for tests, benchmarks, ``repro explain``."""
        with self._lock:
            state = self._query_states.get(cypher_text)
            decision = state.feedback if state is not None else None
            if decision is None:
                return None
            return {
                "epoch": decision.epoch,
                "replans": decision.replans,
                "force_recursive": decision.force_recursive,
                "row_scale": decision.row_scale,
                "last": dict(decision.last) if decision.last else None,
            }

    def run_many(
        self,
        cypher_texts: Sequence[str],
        workers: int = 4,
        backend: str | None = None,
        opt_level: int | None = None,
        budget: QueryBudget | None = None,
    ) -> list[Table]:
        """Execute a batch of Cypher texts concurrently; results in order.

        Fans the batch across *workers* threads, each executing on its own
        pooled connection (the pool's capacity grows to *workers* if it was
        smaller).  Transpilation happens up front on the calling thread —
        it is cached and GIL-bound anyway — so worker time is pure engine
        execution.  ``results[i]`` is the table for ``cypher_texts[i]``.

        *budget* applies per query, not to the batch: each query gets its
        own fresh tracker, and one query exceeding its budget fails the
        batch (the exception propagates) without affecting members serving
        the others.
        """
        texts = list(cypher_texts)
        if not texts:
            return []
        name = backend or self.default_backend
        workers = max(1, min(workers, len(texts)))
        with self._tracer.span(
            "query.batch", backend=name, queries=len(texts), workers=workers
        ) as batch_span:
            self._prepare_batch(texts, name, opt_level, budget, workers)
            results: list[Table | None] = [None] * len(texts)

            def execute_one(index: int) -> None:
                text = texts[index]
                # parent= crosses the thread boundary explicitly: each
                # worker's subtree hangs off the batch span, and the spans
                # it opens inside (pool.checkout, execute) parent under the
                # worker's own per-query span via the context variable —
                # never under another worker's.
                with self._tracer.span(
                    "query", parent=batch_span, backend=name, index=index
                ) as span:
                    table, _ = self._serve(text, name, opt_level, budget)
                    results[index] = table
                    span.set("rows", len(table.rows))

            run_indexed(
                len(texts),
                execute_one,
                None if workers == 1 else self._executor("batch", workers),
            )
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
        """Before a batch fans out (sync or async): transpile each text
        once up front — cached and GIL-bound anyway — and raise the pool's
        capacity to the fan-out."""
        dialect = self.dialect_of(name)
        depth_cap = _depth_cap(self._effective_budget(budget))
        for text in dict.fromkeys(texts):
            self.prepare(text, dialect, opt_level=opt_level, depth_cap=depth_cap)
        self._pool(name, min_capacity=workers)

    def reference(
        self,
        cypher_text: str,
        opt_level: int | None = None,
        budget: QueryBudget | None = None,
    ) -> Table:
        """The reference bag-semantics evaluation of the transpiled query.

        *budget* (default: the service's ``default_budget``) bounds the
        evaluator's rows, fixpoint depth, and wall clock — the reference
        layer never downgrades plans; it raises directly.
        """
        prepared = self.prepare(cypher_text, opt_level=opt_level)
        effective = self._effective_budget(budget)
        try:
            return evaluate_sql(prepared.sql_ast, self._database, budget=effective)
        except QueryBudgetExceeded as error:
            self._budget_exceeded.inc(backend="reference", dimension=error.dimension)
            raise error.annotate(backend="reference", cypher_text=cypher_text)

    def explain(
        self,
        cypher_text: str,
        backend: str | None = None,
        opt_level: int | None = None,
    ) -> str:
        name = backend or self.default_backend
        prepared = self.prepare(cypher_text, self.dialect_of(name), opt_level=opt_level)
        with self._pool(name).connection() as engine:
            return engine.explain(prepared.sql_text)

    def time(
        self,
        cypher_text: str,
        backend: str | None = None,
        repeats: int = 3,
        opt_level: int | None = None,
    ) -> float:
        """Median execution seconds of *cypher_text* on *backend*."""
        name = backend or self.default_backend
        prepared = self.prepare(cypher_text, self.dialect_of(name), opt_level=opt_level)
        with self._pool(name).connection() as engine:
            seconds = engine.time(prepared.sql_text, repeats=repeats)
        self.record_execution(cypher_text, seconds, backend=name)
        return seconds

    # -- pooling -----------------------------------------------------------

    def pool(self, backend: str | None = None, min_capacity: int = 1) -> ConnectionPool:
        """The connection pool serving *backend* (created on first use).

        *min_capacity* raises the pool's capacity ceiling when a caller —
        :meth:`run_many`, or the async layer fanning out a batch — is about
        to drive that many connections concurrently.
        """
        return self._pool(backend or self.default_backend, min_capacity=min_capacity)

    def warm_pool(self, backend: str | None = None, members: int | None = None) -> None:
        """Eagerly spawn pool members (benchmarks: pay load cost up front)."""
        members = self.pool_size if members is None else members
        self._pool(backend or self.default_backend, min_capacity=members).warm(members)

    # -- observability -----------------------------------------------------

    @property
    def tracer(self):
        """The span producer instrumentation reports to (no-op by default)."""
        return self._tracer

    def set_tracer(self, tracer) -> None:
        """Attach *tracer* (or ``None`` for the no-op) service-wide.

        Propagates to every existing pool, so ``pool.checkout`` spans land
        in the same trees; pools created later inherit it at construction.
        """
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        with self._lock:
            for pool in self._pools.values():
                pool.tracer = self._tracer

    @property
    def metrics(self) -> MetricsRegistry:
        """The metrics registry every serving-stack counter reports into."""
        return self._registry

    def pool_snapshots(self) -> dict[str, dict]:
        """Per-backend pool state, for ``--stats`` views."""
        with self._lock:
            pools = dict(self._pools)
        return {name: pool.snapshot() for name, pool in sorted(pools.items())}

    def query_stats(self) -> tuple[QueryStat, ...]:
        """Per-query execution accounting (first-recorded order), for ``--stats``.

        Covers the :data:`MAX_TRACKED_QUERIES` most recently used texts.
        """
        with self._lock:
            entries = sorted(
                (item for item in self._query_states.items() if item[1].executions),
                key=lambda item: item[1].order,
            )
            return tuple(state.freeze(text) for text, state in entries)

    def reset_query_stats(self) -> None:
        """Zero every text's execution accounting; its feedback, gates and
        engine timing stay."""
        with self._lock:
            for state in self._query_states.values():
                state.reset_stats()

    def record_execution(
        self, cypher_text: str, seconds: float, backend: str | None = None
    ) -> None:
        """Account one execution of *cypher_text* (thread-safe).

        Public so callers that time executions on their own schedule feed
        the same :class:`QueryStat` accounting as :meth:`run`/:meth:`run_many`.
        """
        self._record(cypher_text, seconds, backend or self.default_backend)

    def _record(
        self,
        cypher_text: str,
        seconds: float,
        name: str,
        prepared: PreparedQuery | None = None,
        pool: ConnectionPool | None = None,
    ) -> None:
        """:meth:`record_execution`; *prepared* is the entry whose engine
        call on *name*, on a member of *pool*, took *seconds*.  That also
        feeds the entry's timing, unless a reload replaced *pool* since:
        the call ran on the old data."""
        series = self._series_for(name)
        series.queries.inc()
        series.seconds.observe(seconds)
        self.slow_queries.record(cypher_text, name, seconds)
        with self._lock:
            state = self._query_state(cypher_text)
            if state.order is None:
                state.order = next(self._query_order)
            state.add(seconds)
            if prepared is not None and self._pools.get(name) is pool:
                timing = state.timing
                if timing is not None and timing.of(name, prepared):
                    timing.runs += 1
                    timing.seconds += seconds
                else:
                    state.timing = _EngineTiming(name, prepared, seconds)

    def _engine_seconds(self, prepared: PreparedQuery, name: str) -> float | None:
        """Mean engine seconds of *prepared* on backend *name* since the
        data was loaded (``None`` before its first execution there)."""
        with self._lock:
            state = self._query_states.get(prepared.cypher_text)
            timing = state.timing if state is not None else None
            if timing is None or not timing.of(name, prepared):
                return None
            return timing.seconds / timing.runs

    def _query_state(self, cypher_text: str) -> _QueryState:
        """*cypher_text*'s record, created if missing and marked most
        recently used; past :data:`MAX_TRACKED_QUERIES` the least recently
        used record is evicted.  The caller holds ``self._lock``."""
        states = self._query_states
        state = states.get(cypher_text)
        if state is None:
            state = states[cypher_text] = _QueryState()
            if len(states) > MAX_TRACKED_QUERIES:
                states.popitem(last=False)
        else:
            states.move_to_end(cypher_text)
        return state

    def _series_for(self, name: str) -> _BackendSeries:
        """Backend *name*'s per-query series, bound on first use (two
        racing threads both bind, harmlessly: children of one label set
        share its storage)."""
        series = self._backend_series.get(name)
        if series is None:
            series = self._backend_series[name] = _BackendSeries(
                self._queries_total.labels(backend=name),
                self._query_seconds.labels(backend=name),
                self._estimate_error.labels(backend=name),
            )
        return series

    def backends(self) -> tuple[str, ...]:
        """Backends this service could run on here (registry availability)."""
        return available_backends()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            executors, self._executors = self._executors, {}
        # Shut the persistent executors down before the pools: in-flight
        # work still holds checked-out members.
        for executor, _ in executors.values():
            executor.shutdown(wait=True)
        with self._lock:
            self._closed = True
            self._reset_pools()
        if self._owns_persistent and self._persistent is not None:
            self._persistent.close()

    def __enter__(self) -> "GraphitiService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _executor(self, kind: str, workers: int) -> ThreadPoolExecutor:
        """The persistent fan-out executor of *kind* — ``"batch"`` for
        :meth:`run_many`, ``"partition"`` for the scatter — grown on demand.

        One pool per kind for the service's lifetime (shut down in
        :meth:`close`) instead of a throwaway per call; when a caller asks
        for more workers than the pool has, it is replaced by a larger
        one — the old pool's threads drain their queue and exit on their
        own.  The kinds are separate on purpose: a batch worker scattering
        partitions must never compete with (or wait behind) its own
        siblings for fan-out slots — shared pools deadlock when every
        batch thread blocks on partition futures no free thread can run.
        """
        with self._lock:
            current = self._executors.get(kind)
            if current is not None and current[1] >= workers:
                return current[0]
            size = max(4, workers)
            executor = ThreadPoolExecutor(
                max_workers=size, thread_name_prefix=f"graphiti-{kind}"
            )
            self._executors[kind] = (executor, size)
            if current is not None:
                current[0].shutdown(wait=False)
            return executor

    def _pool(self, name: str, min_capacity: int = 1) -> ConnectionPool:
        """Backend *name*'s pool, created on first use, its capacity raised
        to *min_capacity*; locks only to create or grow it.  A closed
        service makes no pool: :class:`PoolClosed`."""
        pool = self._pools.get(name)
        if pool is not None and (min_capacity == 1 or pool.capacity >= min_capacity):
            return pool
        with self._lock:
            pool = self._pools.get(name)
            if pool is None:
                if self._closed:
                    raise PoolClosed(f"service is closed: no pool for {name!r}")
                pool = ConnectionPool(
                    name,
                    self._database,
                    capacity=max(self.pool_size, min_capacity),
                    stats=self._stats,
                    registry=self._registry,
                    tracer=self._tracer,
                )
                self._pools[name] = pool
            elif pool.capacity < min_capacity:
                pool.grow_to(min_capacity)
            return pool

    def dialect_of(self, backend_name: str) -> SqlDialect:
        """The SQL dialect *backend_name*'s SQL text must be rendered in."""
        return backend_info(backend_name).backend_class.dialect

    def _reset_pools(self) -> None:
        """Close every pool, taking each out of the map first: a lock-free
        reader then either finds no pool (and makes one for the current
        data) or one it will see raise :class:`PoolClosed`, which
        :meth:`_serve` answers by serving again on the replacement."""
        while self._pools:
            _, pool = self._pools.popitem()
            pool.close()
