"""Pluggable multi-backend execution.

The subsystem has four layers:

* :mod:`repro.backends.base` — the :class:`ExecutionBackend` contract
  (connect, batched bulk-load, execute, explain, timing) plus the shared
  DB-API implementation.
* :mod:`repro.backends.registry` — name → backend factory with
  availability gating (:func:`available_backends`, :func:`create_backend`,
  :func:`load_backend`).
* Engines: :mod:`repro.backends.sqlite` (``sqlite-memory``,
  ``sqlite-file``; always available) and
  :mod:`repro.backends.duckdb_backend` (``duckdb``; skipped when the
  package is absent).  Importing this package registers all of them.
* :mod:`repro.backends.pool` — :class:`ConnectionPool`: per-backend pools
  of warmed, schema-loaded connections (checkout/checkin, lazy growth,
  clone-based members where the engine shares storage).
* :mod:`repro.backends.cache` — :class:`PersistentQueryCache`: the
  cross-process on-disk transpilation store.
* :mod:`repro.backends.service` — the :class:`GraphitiService` facade:
  schema → SDT → cached transpile → pooled, thread-safe execution
  (``run_many`` fans batches across worker threads), multi-engine.
* :mod:`repro.backends.async_service` — :class:`AsyncGraphitiService`:
  the asyncio serving layer over the same pools and caches (``await
  run``/``run_many``: each query calls the sync pipeline inline on the
  loop when the measured executor hop would cost more than the query,
  and otherwise awaits one call of it on an executor of
  ``max_concurrency`` threads).
* :mod:`repro.backends.executor` — intra-query parallelism:
  :func:`plan_parallelism` gates fragmentable scans on estimated row
  counts, :class:`FragmentExecutor` splits the scanned relation into
  disjoint rowid ranges and scatter-gathers them over pooled
  connections, :func:`run_indexed` is the shared fan-out loop behind
  ``run_many`` batches and the partition scatter, and :class:`HopClock`
  measures an executor round trip's fixed cost.
* :mod:`repro.backends.guards` — :class:`RetryPolicy` (bounded backoff
  with jitter) and :class:`CircuitBreaker` (per-backend load shedding),
  the recovery primitives both serving layers compose.
* :mod:`repro.backends.faults` — :class:`FaultInjectingBackend`
  (``faulty``; available only while a :class:`FaultPlan` is installed):
  deterministic failure schedules for resilience testing.

Adding an engine: subclass :class:`DbApiBackend` (or
:class:`ExecutionBackend` for exotic engines), give it a ``name`` and a
:class:`~repro.sql.dialect.SqlDialect`, and decorate with
:func:`register_backend`.
"""

from repro.backends.base import (
    BackendUnavailable,
    DbApiBackend,
    ExecutionBackend,
    infer_column_types,
)
from repro.backends.registry import (
    BackendInfo,
    available_backends,
    backend_info,
    create_backend,
    load_backend,
    register_backend,
    registered_backends,
)

# Importing the engine modules registers them.
from repro.backends import sqlite as _sqlite  # noqa: F401
from repro.backends import duckdb_backend as _duckdb  # noqa: F401
from repro.backends import faults as _faults  # noqa: F401
from repro.backends.sqlite import SqliteFileBackend, SqliteMemoryBackend
from repro.backends.duckdb_backend import DuckDbBackend
from repro.backends.pool import ConnectionPool, PoolClosed, PoolTimeout
from repro.backends.cache import PersistentQueryCache, default_cache_dir
from repro.backends.service import (
    CacheInfo,
    ExecutionFeedback,
    GraphitiService,
    PreparedQuery,
    QueryStat,
    schema_fingerprint,
    stats_digest,
)
from repro.backends.async_service import AsyncGraphitiService
from repro.backends.executor import (
    PARALLEL_ROW_THRESHOLD,
    FragmentExecutor,
    ParallelDecision,
    partition_bounds,
    partition_statements,
    plan_parallelism,
    run_indexed,
)
from repro.backends.guards import (
    NO_RETRY,
    CircuitBreaker,
    CircuitOpen,
    RetryPolicy,
)
from repro.backends.faults import (
    FaultInjectingBackend,
    FaultInjected,
    FaultPlan,
    injected_faults,
)
from repro.common.budget import (
    BudgetTracker,
    QueryBudget,
    QueryBudgetExceeded,
)
from repro.backends.comparison import (
    DEFAULT_WORKLOAD,
    BackendTiming,
    compare_backends,
)

__all__ = [
    "BackendUnavailable",
    "DbApiBackend",
    "ExecutionBackend",
    "infer_column_types",
    "BackendInfo",
    "available_backends",
    "backend_info",
    "create_backend",
    "load_backend",
    "register_backend",
    "registered_backends",
    "SqliteFileBackend",
    "SqliteMemoryBackend",
    "DuckDbBackend",
    "ConnectionPool",
    "PoolClosed",
    "PoolTimeout",
    "PersistentQueryCache",
    "default_cache_dir",
    "CacheInfo",
    "AsyncGraphitiService",
    "GraphitiService",
    "PARALLEL_ROW_THRESHOLD",
    "FragmentExecutor",
    "ParallelDecision",
    "partition_bounds",
    "partition_statements",
    "plan_parallelism",
    "run_indexed",
    "ExecutionFeedback",
    "PreparedQuery",
    "QueryStat",
    "schema_fingerprint",
    "stats_digest",
    "DEFAULT_WORKLOAD",
    "BackendTiming",
    "compare_backends",
    "NO_RETRY",
    "CircuitBreaker",
    "CircuitOpen",
    "RetryPolicy",
    "FaultInjectingBackend",
    "FaultInjected",
    "FaultPlan",
    "injected_faults",
    "BudgetTracker",
    "QueryBudget",
    "QueryBudgetExceeded",
]
