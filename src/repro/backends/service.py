"""The :class:`GraphitiService` facade: schema → SDT → transpile → execute.

The service wires the whole paper pipeline behind one object so callers
(CLI, benchmarks, applications) never touch the individual passes:

* the induced relational schema and standard transformer are computed once
  per service (``infer_sdt``);
* transpilation + dialect rendering is memoised in two tiers — a
  process-local LRU and an optional persistent on-disk store
  (:class:`~repro.backends.cache.PersistentQueryCache`), both keyed by one
  :class:`~repro.backends.cache.PlanKey`: schema fingerprint, Cypher text,
  dialect, opt level, statistics digest, forced recursion, depth cap,
  feedback epoch, row scale and parallel degree.  Even a *cold process*
  skips parsing, translation, optimisation, and rendering for previously
  prepared queries;
* execution backends are resolved through the registry and served from
  per-backend :class:`~repro.backends.pool.ConnectionPool`\\ s of warmed,
  bulk-loaded connections, so one loaded dataset serves any number of
  engines — and any number of *threads* — side by side.

Everything derived from one plan lives on its cache entry, so the key that
names the plan also scopes it: the partition gate's verdict (the entry's
:class:`~repro.backends.executor.FragmentExecutor`, or none), the observed
rows, and the engine seconds per backend, tagged with the pool they ran
on.  Per Cypher text the service keeps only its :class:`QueryStat`
accounting and its feedback decision.

The service is thread-safe: the LRU and the per-query-text records are
lock-protected, so is every change to the pool map (a serve reads it
without the lock), and every execution path checks a connection out of
a pool for exclusive use.  :meth:`GraphitiService.run_many`
fans a batch of Cypher texts across a worker-thread pool (results come back
in batch order), which is where pooled connections turn into throughput —
see ``benchmarks/bench_throughput.py`` for the tracked numbers.

The schema fingerprint in the cache key makes cache entries safe to share
between services over the *same* schema and impossible to confuse between
different ones; the statistics digest does the same for the entries that
read statistics: level-2 plans, whose join order fresh data can change,
and on a partition-parallel service every plan, whose gate verdict and
partition bounds derive from row counts.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
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
    as_tracker,
)
from repro.core.sdt import infer_sdt
from repro.core.transpile import transpile
from repro.cypher.parser import parse_cypher
from repro.execution.datagen import MockDataGenerator
from repro.graph.schema import GraphSchema
from repro.observability.metrics import (
    RATIO_BUCKETS,
    HistogramChild,
    MetricsRegistry,
    SlowQueryLog,
)
from repro.observability.tracing import NOOP_SPAN, NOOP_TRACER
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

from repro.backends.cache import PersistentQueryCache, PlanKey, cache_key
from repro.backends.executor import FragmentExecutor, plan_parallelism, run_indexed
from repro.backends.guards import CircuitBreaker, CircuitOpen, RetryPolicy
from repro.backends.pool import ConnectionPool, PoolClosed, PoolTimeout
from repro.backends.registry import available_backends, backend_info

DEFAULT_BACKEND = "sqlite-memory"

#: Per-query latency samples kept for percentile reporting (most recent).
MAX_LATENCY_SAMPLES = 512

#: Cypher texts whose state (:class:`QueryStat` accounting, feedback
#: decision) is kept: the most recently used ones, as inlined literals
#: would otherwise grow the map forever.  An evicted text's decision falls
#: back to epoch 0: it re-learns from the uncorrected plan, at most
#: :data:`MAX_REPLANS` times.  Every plan returns the reference evaluator's
#: bag, so eviction costs only speed.
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


def _checkout_timeout(tracker: BudgetTracker) -> float:
    """The tighter of the budget's remaining clock (``None`` when
    unbounded) and :data:`CHECKOUT_TIMEOUT`."""
    remaining = tracker.remaining_seconds()
    if remaining is None:
        return CHECKOUT_TIMEOUT
    return min(remaining, CHECKOUT_TIMEOUT)


def _note_served(span, result: Table, prepared: "PreparedQuery") -> None:
    """The attributes of a recording ``query`` span once *prepared* has
    served *result* (sync and async, single and batched alike)."""
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
    """Observed actual row counts, and engine seconds, for one cached plan.

    Mutable on purpose: the same object lives in the LRU entry, so every
    execution of a cache-hit plan accumulates here and a later ``repro
    explain`` renders the true observed history, not just the original
    estimate.  Mutations happen under the service lock.
    """

    executions: int = 0
    total_rows: int = 0
    last_rows: int | None = None
    #: Per backend name, ``(pool number, runs, seconds)`` of the engine
    #: calls on that pool (the async service's inline gate reads the mean).
    #: A call on another pool starts over, so a reload's new pool starts
    #: untimed; each update replaces the tuple whole.
    timings: dict[str, tuple[int, int, float]] = field(default_factory=dict)
    #: The number of the pool this entry's feedback settled on (see
    #: :meth:`GraphitiService.observe_execution`), or ``None``.  A plain
    #: default, so an entry pickled before the field existed still loads.
    settled_pool: int | None = None

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
            "settled": self.settled_pool is not None,
        }


@dataclass(frozen=True)
class _FeedbackDecision:
    """Per-Cypher-text adaptive-execution state (service-internal).

    ``epoch`` and the corrections ``force_recursive``/``row_scale``
    (applied when the stats digest did not change) are
    :class:`~repro.backends.cache.PlanKey` fields: bumping the epoch
    invalidates exactly this query's entries (both tiers) without touching
    anything else.  ``last`` summarises the most recent re-plan for
    ``repro explain``.

    Frozen: a re-plan publishes a new decision under the service lock, so
    a reader that goes without the lock (:meth:`GraphitiService._plan_key`)
    sees one whole decision.
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
    #: The partition gate's executor, or ``None`` to serve serially; the
    #: gate sets it after the store is written, so it is never persisted.
    runner: FragmentExecutor | None = None


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


class _QueryState:
    """What the service keeps for one Cypher text: the running accounting
    behind its :class:`QueryStat` (:meth:`freeze` takes the snapshot) and
    its feedback decision.  What derives from one plan lives on its cache
    entry.  Mutated in place under the service lock; the decision is
    replaced whole, and :meth:`GraphitiService._plan_key` reads it without
    the lock."""

    __slots__ = (
        "order", "executions", "total_seconds", "last_seconds", "samples",
        "feedback",
    )

    def __init__(self) -> None:
        #: ``None`` until a feedback re-plan triggers.
        self.feedback: _FeedbackDecision | None = None
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

    def put_if_absent(self, key: object, value: object) -> object:
        """Store *value* under *key* unless an entry is there already;
        either way, the entry the cache keeps (marked most recently used)."""
        with self._lock:
            kept = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            return kept

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
        #: under the GIL one dict read is atomic).  A warm serve takes it
        #: once, in :meth:`_record`.
        self._lock = threading.RLock()
        self._pools: dict[str, ConnectionPool] = {}
        #: Set by :meth:`close`: from then on :meth:`_pool` makes no pool.
        self._closed = False
        #: One record per Cypher text, least recently used first; capped at
        #: MAX_TRACKED_QUERIES by :meth:`_query_state`.
        self._query_states: OrderedDict[str, _QueryState] = OrderedDict()
        self._query_order = itertools.count()
        # Telemetry: a metrics registry (shared if the caller passes one), a
        # slow-query ring buffer, and the no-op tracer — a warm serve opens
        # no span until :meth:`set_tracer` attaches a real Tracer (``repro
        # explain``, the smoke script).
        self._registry = registry if registry is not None else MetricsRegistry()
        self._tracer = NOOP_TRACER
        self.slow_queries = SlowQueryLog()
        self._query_seconds = self._registry.histogram(
            "repro_query_seconds", "Engine execution seconds per query."
        )
        # Every recorded execution is one observation of the histogram.
        self._registry.counter_of(
            "repro_queries_total",
            "Query executions recorded, by backend.",
            self._query_seconds,
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
        # connections (see repro.backends.executor).  The gate's verdict
        # and rendered partition SQL are cached on each entry; the
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
            # longer mean anything.  The decision is detached, so a re-plan
            # that holds it across its stats refresh finds it is no longer
            # the text's and drops its correction.  A new digest re-keys
            # every entry the partition gate priced, and the new pools time
            # entries anew.
            for state in self._query_states.values():
                state.feedback = None

    def refresh_stats(self) -> bool:
        """Re-collect statistics from the live data; ``True`` if the digest
        changed, which re-keys exactly the entries that read statistics:
        level-2 plans and, at a partition degree of 2 or more, every plan
        (the gate's verdict and bounds derive from row counts).

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
    ) -> PreparedQuery:
        """Parse, transpile, optimize, and render *cypher_text* (cached).

        Lookup order: in-memory LRU, then the persistent store (when
        enabled), then the full pipeline, both tiers keyed by the query's
        :class:`~repro.backends.cache.PlanKey` (see :meth:`_plan_key`).
        *dialect* is a registered dialect or its name (default: the
        default backend's); *opt_level* overrides the service default.
        """
        if dialect is None:
            dialect = self.dialect_of(self.default_backend)
        prepared = self._prepare(self._plan_key(cypher_text, dialect, opt_level, None))
        assert prepared is not None
        return prepared

    def _plan_key(
        self,
        text: str,
        dialect: str | SqlDialect,
        opt_level: int | None,
        tracker: BudgetTracker | None,
        force_recursive: bool = False,
    ) -> PlanKey:
        """The key of *text*'s plan in *dialect* (a dialect or its name) at
        *opt_level* (default: the service's) under the budget clock
        *tracker* (``None`` when unbounded): the only place a
        :class:`~repro.backends.cache.PlanKey` is built.

        A budget that allows downgrades caps traversals at its
        ``max_depth``; *force_recursive* is the downgrade after a budget
        trip.  At level 2 the text's feedback decision joins the key, so
        bumping its epoch re-keys exactly this text's entries.  The
        statistics digest joins it wherever the entry reads statistics:
        at level 2, and at a partition degree of 2 or more.

        Lock-free: a load replaces the digest whole and a re-plan publishes
        a whole frozen decision.  A key built across a reload may pair one
        load's digest with the other's decision; its entry answers
        correctly, as every plan does, under a key later serves no longer
        build."""
        level = self.opt_level if opt_level is None else opt_level
        if level not in OPT_LEVELS:
            raise ValueError(f"unknown optimization level {level!r}")
        digest, epoch, row_scale = "", 0, 1.0
        if level >= 2:
            digest = self._stats_digest
            state = self._query_states.get(text)
            decision = state.feedback if state is not None else None
            if decision is not None:
                epoch, row_scale = decision.epoch, decision.row_scale
                force_recursive = force_recursive or decision.force_recursive
        elif self.parallelism >= 2:
            digest = self._stats_digest  # for the partition gate
        depth_cap = None
        if tracker is not None and tracker.budget.allow_downgrade:
            depth_cap = tracker.budget.max_depth
        name = dialect if isinstance(dialect, str) else dialect.name
        # tuple.__new__, not PlanKey(...): the NamedTuple's own __new__ is
        # a Python-level call, and every serve builds a key.
        return tuple.__new__(PlanKey, (
            self.fingerprint, text, name, level, digest,
            force_recursive, depth_cap, epoch, row_scale, self.parallelism,
        ))

    def _prepare(
        self, key: PlanKey, memory_only: bool = False
    ) -> PreparedQuery | None:
        """*key*'s entry: from the memory LRU, the persistent store (when
        enabled), or the pipeline, which plans from *key*'s fields alone
        and writes the store before :meth:`_admit` gates the entry.
        With *memory_only*, ``None`` on a memory-tier miss instead of the
        disk tier and the pipeline.  That miss is not counted: the full
        prepare that follows counts the lookup, so every served query
        counts one (the async service's placement lookup).

        The ``query.prepare`` and ``cache.lookup`` spans open only when
        the tracer records; otherwise the lookup runs bare."""
        tracer = self._tracer
        if not tracer.enabled:
            cached = self._cache.get(key, count_miss=not memory_only)
            if cached is not None:
                assert isinstance(cached, PreparedQuery)
                self._memory_hits.inc()
                return cached
            if memory_only:
                return None
            return self._prepare_missed(key, NOOP_SPAN)
        with tracer.span(
            "query.prepare", dialect=key.dialect, opt_level=key.level
        ) as prepare_span:
            with tracer.span("cache.lookup", tier="memory") as span:
                cached = self._cache.get(key, count_miss=not memory_only)
                span.set("hit", cached is not None)
            if cached is not None:
                assert isinstance(cached, PreparedQuery)
                self._memory_hits.inc()
                prepare_span.set("cached", "memory")
                return cached
            if memory_only:
                prepare_span.set("cached", "deferred")
                return None
            return self._prepare_missed(key, prepare_span)

    def _prepare_missed(self, key: PlanKey, prepare_span) -> PreparedQuery:
        """*key*'s entry after a memory-tier miss: from the persistent
        store (when enabled) or the pipeline, each stage under its own
        span, with the tier that answered set on *prepare_span* (the
        no-op span when the tracer does not record)."""
        tracer = self._tracer
        self._memory_misses.inc()
        dialect = dialect_for(key.dialect)
        with self._lock:  # one load's statistics with their digest
            stats, digest = self._stats, self._stats_digest
            state = self._query_states.get(key.text)
            decision = state.feedback if state is not None else None
        # A reload since the key was built replaced the statistics its
        # digest names: the entry serves this query but is keyed nowhere.
        keyed = digest == key.stats_digest or (
            key.level < 2 and key.parallelism < 2
        )
        if self._persistent is not None:
            disk_key = cache_key(*key)
            with tracer.span("cache.lookup", tier="disk") as span:
                stored = self._persistent.get(disk_key)
                span.set("hit", isinstance(stored, PreparedQuery))
            self._cache_lookups.inc(
                tier="disk",
                result="hit" if isinstance(stored, PreparedQuery) else "miss",
            )
            if isinstance(stored, PreparedQuery):
                prepare_span.set("cached", "disk")
                return self._admit(key, stored, stats, keyed)
        prepare_span.set("cached", "no")
        with tracer.span("query.parse"):
            query = parse_cypher(key.text, self.graph_schema)
        with tracer.span("query.transpile"):
            raw = transpile(query, self.graph_schema, self.sdt)
        report = PlanReport()
        with tracer.span("optimize.planner", opt_level=key.level) as span:
            translated = optimize(
                raw,
                level=key.level,
                schema=self.sdt.schema,
                stats=stats,
                report=report,
                force_recursive=key.force_recursive,
                depth_cap=key.depth_cap,
                row_scale=key.row_scale,
            )
            if decision is not None and decision.epoch == key.feedback_epoch:
                if decision.last is not None:
                    report.feedback = dict(decision.last)
            if report.traversal_choice is not None:
                span.set("traversals", report.traversal_choice)
            span.set("joins_planned", len(report.joins))
            if report.estimated_rows is not None:
                span.set("estimated_rows", round(report.estimated_rows, 1))
        with tracer.span("query.render", dialect=key.dialect):
            rendered = to_sql_text(
                translated, self.sdt.schema, optimized=False, dialect=dialect
            )
        prepared = PreparedQuery(
            key.text,
            translated,
            rendered,
            key.dialect,
            key.fingerprint,
            key.level,
            report,
            feedback_epoch=key.feedback_epoch,
        )
        if keyed and self._persistent is not None:
            self._persistent.put(disk_key, key.text, prepared)
        return self._admit(key, prepared, stats, keyed)

    def _admit(
        self,
        key: PlanKey,
        prepared: PreparedQuery,
        stats: DatabaseStats | None,
        keyed: bool,
    ) -> PreparedQuery:
        """*prepared* past the partition gate, then into the memory tier
        when *keyed*.  At a degree of 2 or more the gate prices the entry
        once, before it first serves, under *key*'s degree and row scale
        and the *stats* its digest names: the verdict lands in
        ``PlanReport.parallelism`` (``repro explain`` shows it), and an
        open gate gives the entry the executor that scatters it.  The
        store never sees that executor: it is written before this runs,
        so no serve changes an entry while it is pickled.

        When threads that missed one key race here, the first entry stored
        is the one every one of them serves, so no serve records its
        execution on an entry the key no longer reaches."""
        if key.parallelism >= 2:
            dialect = dialect_for(key.dialect)
            fragment = fragment_query(prepared.sql_ast, self.sdt.schema)
            decision = plan_parallelism(
                fragment,
                schema=self.sdt.schema,
                stats=stats,
                degree=key.parallelism,
                dialect=dialect,
                row_scale=key.row_scale,
                threshold=self.parallel_row_threshold,
            )
            if prepared.plan is not None:
                prepared.plan.parallelism = decision.to_dict()
            if decision.parallel:
                assert stats is not None
                runner = FragmentExecutor.build(
                    fragment,
                    decision,
                    schema=self.sdt.schema,
                    stats=stats,
                    dialect=dialect,
                )
                prepared = replace(prepared, runner=runner)
        if keyed:
            return self._cache.put_if_absent(key, prepared)
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
        explain`` relies on this to stay truthful).

        The ``query`` span opens only when the tracer records."""
        name = backend or self.default_backend
        tracer = self._tracer
        if not tracer.enabled:
            tracker = self._start_budget(budget)
            key = self._plan_key(cypher_text, self.dialect_of(name), opt_level, tracker)
            return self._serve(key, name, tracker)
        with tracer.span("query", backend=name, cypher=cypher_text) as span:
            tracker = self._start_budget(budget)
            key = self._plan_key(cypher_text, self.dialect_of(name), opt_level, tracker)
            result, prepared = self._serve(key, name, tracker)
            _note_served(span, result, prepared)
        return result, prepared

    def _start_budget(self, budget: QueryBudget | None) -> BudgetTracker | None:
        """Start the clock of *budget* (or :attr:`default_budget`) for one
        query — ``None`` when the query is unbounded."""
        return as_tracker(budget if budget is not None else self.default_budget)

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
        key: PlanKey,
        name: str,
        tracker: BudgetTracker | None,
        prepared: PreparedQuery | None = None,
        on_loop: bool = False,
        attempt: int = 1,
    ) -> tuple[Table, PreparedQuery]:
        """Prepare + pooled execution with budget enforcement, transparent
        retry, circuit breaking, and the plan downgrade — the one serving
        pipeline behind :meth:`run`, :meth:`run_many`, and the async
        service.  The caller starts the budget clock *tracker* (``None``
        when unbounded) and builds the plan *key* under it: the async
        service does so when ``run`` is awaited, so time queued for an
        executor thread counts against the timeout.  Each pool checkout
        waits at most :data:`CHECKOUT_TIMEOUT` seconds, capped further by
        the budget's remaining clock.  A serial execution is recorded in
        one service-lock section (:meth:`_record`), which also adds the
        rows of an entry settled on the pool; an unsettled entry's rows go
        through :meth:`observe_execution`'s full check.

        The async service's hooks: *prepared* is the entry the caller
        already looked up, so the lookup is not repeated.  *on_loop*
        serves on the caller's event loop, where nothing may wait or
        sleep: the first step that could raises :class:`_OffLoop`, whose
        ``resume()`` finishes the query on a worker thread.  *attempt* is
        the try a resumed execution starts at (above 1, after the backoff
        that follows the failed try)."""
        if prepared is None:
            prepared = self._prepare(key)
        pool = self._pool(name)
        while True:
            try:
                # Serial pooled execution — or the partition-parallel
                # scatter, when the gate gave the entry an executor.
                runner = prepared.runner
                if runner is not None:
                    if on_loop:
                        raise _OffLoop()
                    result = self._run_parallel(pool, name, prepared, runner, tracker)
                else:
                    result, seconds = self._run_prepared(
                        pool, name, prepared, tracker, on_loop=on_loop, attempt=attempt
                    )
                    if self._record(
                        prepared.cypher_text, seconds, name, prepared, pool,
                        len(result.rows),
                    ):
                        return result, prepared
                self.observe_execution(prepared, len(result.rows), name, pool)
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
                    self._serve, key, name, tracker, prepared, attempt=leave.attempt
                )
                raise
            except QueryBudgetExceeded as error:
                assert tracker is not None
                downgradable = (
                    tracker.budget.allow_downgrade
                    and prepared.plan is not None
                    and any(
                        traversal.choice == "unrolled"
                        for traversal in prepared.plan.traversals
                    )
                )
                if not downgradable:
                    raise
                downgrade = partial(self._downgrade, key, name, pool, tracker, error)
                if on_loop:
                    raise _OffLoop(resume=downgrade) from error
                return downgrade()

    def _downgrade(
        self,
        key: PlanKey,
        name: str,
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
            downgraded = self._prepare(
                self._plan_key(
                    key.text, key.dialect, key.level, tracker, force_recursive=True
                )
            )
            try:
                result, seconds = self._run_prepared(pool, name, downgraded, tracker)
            except QueryBudgetExceeded as final:
                final.attempted_downgrade = True
                raise
            self._record(downgraded.cypher_text, seconds, name, downgraded, pool)
            return result, downgraded

    def _run_prepared(
        self,
        pool: ConnectionPool,
        name: str,
        prepared: PreparedQuery,
        tracker: BudgetTracker | None,
        on_loop: bool = False,
        attempt: int = 1,
    ) -> tuple[Table, float]:
        """One plan's pooled execution: breaker gate, checkout (bounded by
        :data:`CHECKOUT_TIMEOUT` and the budget's remaining time), engine
        guards, damage-aware checkin, and bounded backoff retry when the
        member turns out to be dead or cannot be spawned.  Returns the
        table and the engine call's seconds, and records nothing: the
        caller records a serve (a partition records nothing; the parallel
        runner accounts the query's wall clock once).

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
                    # budget= only when bounded: keeps stubbed/monkeypatched
                    # engines with the pre-budget signature working.
                    execute = (
                        member.execute
                        if tracker is None
                        else partial(member.execute, budget=tracker)
                    )
                    # The ``execute`` span opens only when the tracer records.
                    tracer = self._tracer
                    if not tracer.enabled:
                        start = time.perf_counter()
                        result = execute(prepared.sql_text)
                        elapsed = time.perf_counter() - start
                    else:
                        with tracer.span("execute", backend=name) as exec_span:
                            start = time.perf_counter()
                            result = execute(prepared.sql_text)
                            elapsed = time.perf_counter() - start
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
                    raise error.annotate(
                        backend=name, cypher_text=prepared.cypher_text
                    )
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
                    return result, elapsed
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

    def _run_parallel(
        self,
        pool: ConnectionPool,
        name: str,
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
                    partial, _ = self._run_prepared(pool, name, partition, tracker)
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
        self.record_execution(
            prepared.cypher_text, time.perf_counter() - start, backend=name
        )
        return result

    # -- adaptive execution (estimate-vs-actual feedback) -------------------

    def observe_execution(
        self,
        prepared: PreparedQuery,
        actual_rows: int,
        backend: str | None = None,
        pool: ConnectionPool | None = None,
    ) -> None:
        """Feed one execution's actual row count back to the planner.

        Accumulates on the cache entry's :class:`ExecutionFeedback` (so a
        later ``repro explain`` shows the observed history even on cache
        hits), records the q-error, and — when the running mean diverges
        from the plan's estimate by ``feedback_ratio`` or more after
        :data:`FEEDBACK_MIN_OBSERVATIONS` executions — re-plans the query
        (see :meth:`_replan`).  A depth-capped plan is a budget variant:
        the cap truncates its rows, so they are recorded on its entry and
        compared with nothing.  Called by the serving paths (sync and
        async), which pass the *pool* the query ran on, for an entry not
        settled there (:meth:`_record` adds a settled entry's rows);
        harmless to call directly.

        An entry *settles* on that pool once it has run there
        :data:`FEEDBACK_MIN_OBSERVATIONS` times (counted by its timing on
        the pool, which a partition-parallel entry does not keep, so it
        never settles), its running mean is exactly the row count it
        returned, and that count's q-error is inside ``feedback_ratio``.
        Its row count depends only on its plan and the pool's data, which
        only :meth:`load_database` changes (with new pools), and a changed
        statistics digest re-keys it: its mean cannot move, so this check
        could never re-plan it.  Until the entry serves on another pool,
        each call just adds its rows.  A call without *pool* checks the
        backend's current pool and never settles an entry.
        """
        name = backend or self.default_backend
        feedback = prepared.feedback
        current = pool if pool is not None else self._pools.get(name)
        if current is not None and feedback.settled_pool == current.number:
            with self._lock:
                feedback.observe(actual_rows)
            return
        plan = prepared.plan
        with self._lock:
            feedback.observe(actual_rows)
            # Not the pool the entry settled on, if any (a reload, or a
            # straggler one overtook): these rows may move the mean, so
            # check every execution until the entry settles again.
            feedback.settled_pool = None
            executions = feedback.executions
            mean_rows = feedback.mean_rows
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
        for traversal in plan.traversals:
            if traversal.choice == "depth-capped":
                return
        estimate = max(float(plan.estimated_rows), 1.0)
        actual = max(float(actual_rows), 1.0)
        error = max(actual / estimate, estimate / actual)
        self._series_for(name).estimate_error.observe(error)
        if executions < FEEDBACK_MIN_OBSERVATIONS:
            return
        running = max(mean_rows, 1.0)
        divergence = max(running / estimate, estimate / running)
        if divergence < self.feedback_ratio:
            timing = feedback.timings.get(name)
            if (
                pool is not None
                and error < self.feedback_ratio
                and timing is not None
                and timing[0] == pool.number
                and timing[1] >= FEEDBACK_MIN_OBSERVATIONS
            ):
                with self._lock:  # no other pool's rows landed meanwhile
                    if feedback.total_rows == feedback.executions * actual_rows:
                        feedback.settled_pool = pool.number
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
                # Not the decision read above: another thread re-planned
                # first, or a reload detached it, and a correction learned
                # on the old data must not land on the new.
                if state.feedback is not decision:
                    return
                force_recursive = decision.force_recursive
                row_scale = decision.row_scale
                if stats_changed:
                    # Fresh statistics take precedence over blind nudges.
                    force_recursive, row_scale = False, 1.0
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
                    force_recursive = True
                else:
                    ratio = observed_rows / estimate
                    row_scale = min(max(row_scale * ratio, 1.0 / 1024), 1024.0)
                epoch = decision.epoch + 1
                decision = state.feedback = replace(
                    decision,
                    epoch=epoch,
                    replans=decision.replans + 1,
                    force_recursive=force_recursive,
                    row_scale=row_scale,
                    last={
                        "epoch": epoch,
                        "reason": reason,
                        "divergence": round(divergence, 2),
                        "observed_rows": round(observed_rows, 1),
                        "previous_estimate": round(estimate, 1),
                        "stats_refreshed": stats_changed,
                        "force_recursive": force_recursive,
                        "row_scale": round(row_scale, 4),
                    },
                )
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
            dialect = self.dialect_of(name)
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
                    tracker = self._start_budget(budget)
                    key = self._plan_key(text, dialect, opt_level, tracker)
                    table, prepared = self._serve(key, name, tracker)
                    results[index] = table
                    if span.recording:
                        _note_served(span, table, prepared)

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
        capacity to the fan-out.  The keys are those its queries will
        serve under *budget*: a ``max_depth`` budget prepares the
        depth-capped plans."""
        dialect = self.dialect_of(name)
        tracker = self._start_budget(budget)
        for text in dict.fromkeys(texts):
            self._prepare(self._plan_key(text, dialect, opt_level, tracker))
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
        try:
            return evaluate_sql(
                prepared.sql_ast, self._database, budget=self._start_budget(budget)
            )
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
        """Zero every text's execution accounting; its feedback decision
        stays."""
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
        rows: int | None = None,
    ) -> bool:
        """:meth:`record_execution`, in one service-lock section; *prepared*
        is the entry whose engine call on *name*, on a member of *pool*,
        took *seconds*, which also feeds the entry's timing on that pool.
        The same section adds the call's *rows* to the entry's feedback
        when the entry has settled on *pool*, and says so: on ``False``
        the caller passes them to :meth:`observe_execution`."""
        self._series_for(name).seconds.observe(seconds)
        self.slow_queries.record(cypher_text, name, seconds)
        with self._lock:
            state = self._query_state(cypher_text)
            if state.order is None:
                state.order = next(self._query_order)
            state.add(seconds)
            if prepared is None:
                return False
            assert pool is not None
            feedback = prepared.feedback
            number = pool.number
            timing = feedback.timings.get(name)
            if timing is None or timing[0] != number:
                timing = (number, 0, 0.0)
            feedback.timings[name] = (number, timing[1] + 1, timing[2] + seconds)
            if rows is None or feedback.settled_pool != number:
                return False
            feedback.observe(rows)
            return True

    def _engine_seconds(self, prepared: PreparedQuery, name: str) -> float | None:
        """Mean engine seconds of *prepared* on backend *name*'s current
        pool, that is since the data was loaded (``None`` before its first
        execution there).  Lock-free: a timing is replaced whole, and a
        call that ran on a replaced pool names that pool."""
        timing = prepared.feedback.timings.get(name)
        pool = self._pools.get(name)
        if timing is None or pool is None or timing[0] != pool.number:
            return None
        return timing[2] / timing[1]

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
