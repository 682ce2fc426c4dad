"""The :class:`ExecutionBackend` abstraction.

An execution backend owns one connection to a relational engine and knows
how to (1) materialise a :class:`~repro.relational.schema.RelationalSchema`
as DDL in the engine's dialect, (2) bulk-load a
:class:`~repro.relational.instance.Database` in batches, (3) execute SQL
text and marshal results back into :class:`~repro.relational.instance.Table`
values (so results compare directly against the reference bag-semantics
evaluator), and (4) report timings and query plans.

:class:`DbApiBackend` implements the whole contract over any DB-API-2.0-ish
connection (qmark paramstyle); concrete engines usually only provide
``_open_connection`` plus value-conversion tweaks.  Engines that cannot be
imported in the current environment raise :class:`BackendUnavailable` from
``connect`` and report ``is_available() == False`` so callers (registry,
benchmarks, tests) can skip them gracefully.

Threading: one backend instance is one connection and must only be used by
one thread at a time.  Concurrency comes from *many* instances — see
:class:`repro.backends.pool.ConnectionPool`, which keeps warmed instances
and uses :meth:`ExecutionBackend.clone_for_pool` to stamp out additional
members cheaply (sharing a database file or an in-memory engine) instead of
re-loading the data per member where the engine allows it.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from operator import itemgetter
from typing import Any, Iterable, Sequence

from repro.common.budget import (
    BudgetTracker,
    QueryBudget,
    QueryBudgetExceeded,
    as_tracker,
)
from repro.common.values import NULL, Value, is_null
from repro.relational.instance import Database, Table
from repro.relational.schema import ForeignKey, RelationalSchema
from repro.sql.dialect import SQLITE, SqlDialect
from repro.sql.pretty import create_table_ddl


class BackendUnavailable(RuntimeError):
    """The requested engine is not importable/usable in this environment."""


class ExecutionBackend(ABC):
    """Abstract interface every execution engine implements."""

    #: Registry name; subclasses override.
    name: str = "abstract"
    #: SQL dialect the backend's SQL text must be rendered in.
    dialect: SqlDialect = SQLITE

    def __init__(self, schema: RelationalSchema) -> None:
        self.schema = schema

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def is_available(cls) -> bool:
        """Whether the engine can run in this environment."""
        return True

    @abstractmethod
    def connect(self) -> None:
        """Open the connection (idempotent); DDL runs lazily before first use."""

    @abstractmethod
    def close(self) -> None:
        """Release the connection and any on-disk state."""

    def __enter__(self) -> "ExecutionBackend":
        self.connect()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def clone_for_pool(self) -> "ExecutionBackend | None":
        """A new, connected backend sharing this one's loaded data — or
        ``None`` when the engine cannot share storage between connections.

        :class:`~repro.backends.pool.ConnectionPool` calls this on its
        primary (warmed, schema-loaded) member when growing; a ``None``
        return makes the pool fall back to loading a fresh member from the
        source database (per-worker clone loading).  Implementations must
        return a backend that is safe to use from a different thread than
        the one that created the primary.
        """
        return None

    # -- loading -----------------------------------------------------------

    @abstractmethod
    def insert_rows(
        self,
        relation: str,
        rows: Iterable[Sequence[Value]],
        batch_size: int = 1000,
        commit_mode: str = "end",
    ) -> None:
        """Append *rows* to *relation* in *batch_size* ``executemany`` chunks.

        *commit_mode* is ``"end"`` (one commit when all rows are in — the
        default and the fast path), ``"batch"`` (a commit per chunk; only
        useful to measure what the single-transaction load saves), or
        ``"none"`` (the caller owns the transaction, as :meth:`bulk_load`
        does to wrap a whole multi-table load in one commit).
        """

    def bulk_load(self, database: Database, batch_size: int = 1000) -> None:
        """Load every table of *database* (schemas must agree) in a single
        transaction — one commit once every table is in."""
        for name, table in database.tables.items():
            self.insert_rows(name, table.rows, batch_size=batch_size, commit_mode="none")
        self._commit_load()

    def _commit_load(self) -> None:
        """Commit an in-flight bulk load (hook; no-op for autocommit engines)."""

    @abstractmethod
    def create_indexes(self) -> None:
        """Index declared primary/foreign keys (fair benchmark comparisons)."""

    # -- execution ---------------------------------------------------------

    @abstractmethod
    def execute(
        self,
        sql_text: str,
        budget: "QueryBudget | BudgetTracker | None" = None,
    ) -> Table:
        """Run *sql_text*, returning the result as a :class:`Table`.

        *budget* bounds the statement where the engine allows: the row
        limit is enforced by incremental fetching, the wall-clock limit by
        a native interrupt mechanism where one exists (sqlite progress
        handler, duckdb ``interrupt``).  A tripped budget raises
        :class:`~repro.common.budget.QueryBudgetExceeded`; the connection
        stays usable (guards abort the statement, not the session).
        """

    def ping(self) -> bool:
        """Cheap liveness probe: can this backend still run a statement?

        Must never open a new connection — a dead member should report
        dead, not silently resurrect (the pool owns respawn policy).  The
        default refuses when no connection is visibly open (a falsy or
        missing ``connection`` attribute), because :meth:`execute` would
        otherwise reconnect on the way to the probe statement; subclasses
        whose connection state lives elsewhere must override this with an
        equally non-reconnecting check (as :class:`DbApiBackend` does).
        """
        if getattr(self, "connection", None) is None:
            return False
        try:
            self.execute("SELECT 1")
        except Exception:
            return False
        return True

    @abstractmethod
    def explain(self, sql_text: str) -> str:
        """The engine's query plan for *sql_text*, as display text."""

    def time(self, sql_text: str, repeats: int = 3) -> float:
        """Median wall-clock execution time of *sql_text* in seconds."""
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.execute(sql_text)
            samples.append(time.perf_counter() - start)
        samples.sort()
        return samples[len(samples) // 2]


class DbApiBackend(ExecutionBackend):
    """Shared implementation over a DB-API connection (qmark paramstyle).

    Subclasses provide :meth:`_open_connection` and may override the value
    conversion hooks (:meth:`_to_db`, :meth:`_from_db_rows`) and
    :meth:`_column_types` (typed-DDL engines infer types at load time, so
    they defer DDL to :meth:`bulk_load`; see the DuckDB backend).
    """

    def __init__(self, schema: RelationalSchema) -> None:
        super().__init__(schema)
        self.connection: Any = None
        self._schema_created = False

    # -- hooks -------------------------------------------------------------

    @abstractmethod
    def _open_connection(self) -> Any:
        """Open and return the raw engine connection."""

    def _to_db(self, value: Value) -> Any:
        """Convert a repro value for a bound parameter."""
        if isinstance(value, bool):
            return int(value)
        if is_null(value):
            return None
        return value

    def _from_db_rows(self, rows: list) -> list:
        """Convert fetched engine rows (tuples) back into repro rows.

        Converts a row at a time, not a cell at a time: SQL ``NULL``
        (``None``) becomes :data:`~repro.common.values.NULL`, and a row
        without one — most rows — passes through untouched.
        """
        return [
            row
            if None not in row
            else tuple(NULL if value is None else value for value in row)
            for row in rows
        ]

    def _column_types(self) -> dict[str, dict[str, str]] | None:
        """DDL type hints per relation/attribute (``None`` = untyped)."""
        return None

    # -- lifecycle ---------------------------------------------------------

    def connect(self) -> None:
        if not type(self).is_available():
            raise BackendUnavailable(
                f"backend {self.name!r} is not available in this environment"
            )
        if self.connection is None:
            self.connection = self._open_connection()

    def _create_schema(self) -> None:
        # Deferred past connect() so typed-DDL engines can first observe
        # the data they are about to load (infer_column_types).
        for statement in create_table_ddl(
            self.schema, self.dialect, self._column_types()
        ):
            self.connection.execute(statement)
        self._commit()
        self._schema_created = True

    def _commit(self) -> None:
        commit = getattr(self.connection, "commit", None)
        if commit is not None:
            commit()

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        self._schema_created = False

    def _ensure_connected(self) -> None:
        if self.connection is None:
            self.connect()
        if not self._schema_created:
            self._create_schema()

    # -- loading -----------------------------------------------------------

    def insert_rows(
        self,
        relation: str,
        rows: Iterable[Sequence[Value]],
        batch_size: int = 1000,
        commit_mode: str = "end",
    ) -> None:
        if commit_mode not in ("end", "batch", "none"):
            raise ValueError(f"unknown commit mode {commit_mode!r}")
        self._ensure_connected()
        relation_def = self.schema.relation(relation)
        placeholders = ", ".join("?" for _ in relation_def.attributes)
        statement = (
            f"INSERT INTO {self.dialect.quote(relation)} VALUES ({placeholders})"
        )
        batch: list[tuple[Any, ...]] = []
        for row in rows:
            batch.append(tuple(self._to_db(v) for v in row))
            if len(batch) >= batch_size:
                self.connection.executemany(statement, batch)
                if commit_mode == "batch":
                    self._commit()
                batch.clear()
        if batch:
            self.connection.executemany(statement, batch)
        if commit_mode != "none":
            self._commit()

    def _commit_load(self) -> None:
        self._commit()

    def create_indexes(self) -> None:
        """One index per declared key.  A foreign-key index carries the
        relation's other foreign keys as trailing columns, so an edge
        table gets ``(SRC, TGT)`` and ``(TGT, SRC)``: a join or a
        traversal step from either endpoint reads the other one from the
        index without visiting the table row."""
        self._ensure_connected()
        quote = self.dialect.quote
        constraints = self.schema.constraints
        counter = 0
        for constraint in (*constraints.primary_keys, *constraints.foreign_keys):
            counter += 1
            columns = [constraint.attribute]
            if isinstance(constraint, ForeignKey):
                columns += [
                    fk.attribute
                    for fk in constraints.foreign_keys_of(constraint.relation)
                    if fk.attribute not in columns
                ]
            self.connection.execute(
                f"CREATE INDEX IF NOT EXISTS {quote(f'idx{counter}')} "
                f"ON {quote(constraint.relation)} "
                f"({', '.join(quote(column) for column in columns)})"
            )
        self._commit()

    # -- execution ---------------------------------------------------------

    #: How many rows to fetch per round when a row budget is active —
    #: large enough to amortise the per-batch budget check, small enough
    #: that a runaway result stops within one batch of its limit.
    _BUDGET_FETCH_SIZE = 1024

    def execute(
        self,
        sql_text: str,
        budget: "QueryBudget | BudgetTracker | None" = None,
    ) -> Table:
        if self.connection is None or not self._schema_created:
            self._ensure_connected()
        tracker = None if budget is None else as_tracker(budget)
        if tracker is None:
            cursor = self.connection.execute(sql_text)
            attributes = tuple(map(itemgetter(0), cursor.description or ()))
            rows = self._from_db_rows(cursor.fetchall())
            if len(set(attributes)) == len(attributes):
                return Table(attributes, rows)
            return Table(dedup_attributes(attributes), rows)
        guard = self._install_budget_guard(tracker)
        try:
            cursor = self.connection.execute(sql_text)
            attributes = tuple(
                description[0] for description in cursor.description or ()
            )
            rows = self._fetch_budgeted(cursor, tracker)
        except QueryBudgetExceeded:
            raise
        except Exception as error:
            if guard is not None and guard.tripped:
                raise QueryBudgetExceeded(
                    f"query interrupted by the {self.name} engine after "
                    f"{tracker.elapsed_seconds:.3f}s, over the budget of "
                    f"{tracker.budget.timeout_seconds:g}s",
                    dimension="timeout",
                    limit=tracker.budget.timeout_seconds,
                    rows_produced=tracker.rows_produced,
                    depth_reached=tracker.depth_reached or None,
                    elapsed_seconds=tracker.elapsed_seconds,
                    stage="engine",
                ) from error
            raise
        finally:
            if guard is not None:
                guard.cancel()
        tracker.check_timeout(stage="engine")
        return Table(dedup_attributes(attributes), rows)

    def _fetch_budgeted(self, cursor: Any, tracker: BudgetTracker) -> list:
        """Drain *cursor* incrementally, charging the row budget per batch
        so a runaway result set stops near its limit instead of being
        materialised whole before anyone looks at its size."""
        rows: list = []
        while True:
            batch = cursor.fetchmany(self._BUDGET_FETCH_SIZE)
            if not batch:
                return rows
            rows.extend(self._from_db_rows(batch))
            tracker.charge_rows(len(batch), stage="engine")

    def _install_budget_guard(self, tracker: BudgetTracker):
        """Arm the engine's native interrupt mechanism for *tracker*'s
        wall-clock deadline, returning a guard object with a ``tripped``
        flag and a ``cancel()`` method — or ``None`` when the engine has
        no such mechanism (the deadline is then only checked between
        fetch batches and after the statement)."""
        return None

    def ping(self) -> bool:
        if self.connection is None:
            return False
        try:
            self.connection.execute("SELECT 1").fetchall()
        except Exception:
            return False
        return True

    def explain(self, sql_text: str) -> str:
        self._ensure_connected()
        cursor = self.connection.execute(
            f"{self.dialect.explain_prefix} {sql_text}"
        )
        return "\n".join(
            " ".join(str(cell) for cell in row) for row in cursor.fetchall()
        )

    def time(self, sql_text: str, repeats: int = 3) -> float:
        """Median execution time, fetching raw rows (no value conversion)."""
        self._ensure_connected()
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            cursor = self.connection.execute(sql_text)
            cursor.fetchall()
            samples.append(time.perf_counter() - start)
        samples.sort()
        return samples[len(samples) // 2]


def infer_column_types(
    database: Database, dialect: SqlDialect
) -> dict[str, dict[str, str]]:
    """DDL type hints for *database*'s columns, unified over all their values.

    Typed-DDL engines (DuckDB, the ANSI display dialect) need a type per
    column; the repro's values are dynamically typed, so scan the data:
    all-integer columns type as integers, an int/float mix widens to the
    real type, and any string (or any other mix) falls back to the text
    type, which every value converts into.  Columns with no non-null
    values use the dialect default.
    """
    hints: dict[str, dict[str, str]] = {}
    for name, table in database.tables.items():
        per_column: dict[str, str] = {}
        for index, attribute in enumerate(table.attributes):
            per_column[attribute] = _unified_type(
                (row[index] for row in table.rows), dialect
            )
        hints[name] = per_column
    return hints


def _unified_type(values, dialect: SqlDialect) -> str:
    saw_int = saw_real = False
    for value in values:
        if is_null(value):
            continue
        if isinstance(value, bool) or isinstance(value, int):
            saw_int = True
        elif isinstance(value, float):
            saw_real = True
        else:
            return dialect.text_type
    if saw_real:
        return dialect.real_type
    if saw_int:
        return dialect.integer_type
    return dialect.default_column_type


def dedup_attributes(attributes: tuple[str, ...]) -> tuple[str, ...]:
    """Engines may report duplicate column names for SELECT *; uniquify."""
    seen: dict[str, int] = {}
    out = []
    for attribute in attributes:
        if attribute in seen:
            seen[attribute] += 1
            out.append(f"{attribute}:{seen[attribute]}")
        else:
            seen[attribute] = 0
            out.append(attribute)
    return tuple(out)
