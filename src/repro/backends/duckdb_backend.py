"""DuckDB execution backend (feature-detected).

DuckDB is an optional dependency (``pip install repro[duckdb]``); when the
package is missing the backend stays registered but reports
``is_available() == False``, so registry lookups raise
:class:`~repro.backends.base.BackendUnavailable` and benchmarks/tests skip
it instead of failing.

DuckDB demands typed DDL, while the repro's values are dynamically typed —
so :meth:`DuckDbBackend.bulk_load` samples the data it is about to load and
creates the tables with inferred column types before the first insert
(schema DDL is deferred until then; see ``DbApiBackend._create_schema``).
"""

from __future__ import annotations

import threading
from importlib import import_module, util

from repro.common.budget import BudgetTracker
from repro.relational.instance import Database
from repro.sql.dialect import DUCKDB

from repro.backends.base import DbApiBackend, infer_column_types
from repro.backends.registry import register_backend


class _InterruptDeadlineGuard:
    """A timer-armed ``connection.interrupt()`` deadline for DuckDB.

    DuckDB has no progress-handler hook, but its connections expose
    ``interrupt()``, which aborts the currently running statement (the
    connection survives).  A daemon timer fires it at the budget deadline;
    ``cancel()`` both stops the timer and closes a small race window — a
    timer that fires after the statement finished must not interrupt the
    *next* statement, so firing and cancelling are mutually excluded.
    """

    def __init__(self, connection, delay_seconds: float) -> None:
        self.tripped = False
        self._connection = connection
        self._lock = threading.Lock()
        self._cancelled = False
        self._timer = threading.Timer(max(delay_seconds, 0.0), self._fire)
        self._timer.daemon = True
        self._timer.start()

    def _fire(self) -> None:
        with self._lock:
            if self._cancelled:
                return
            self.tripped = True
            try:
                self._connection.interrupt()
            except Exception:
                pass

    def cancel(self) -> None:
        with self._lock:
            self._cancelled = True
        self._timer.cancel()


@register_backend
class DuckDbBackend(DbApiBackend):
    """An in-memory DuckDB instance (skipped when duckdb is not installed)."""

    name = "duckdb"
    dialect = DUCKDB

    def __init__(self, schema) -> None:
        super().__init__(schema)
        self._type_hints: dict[str, dict[str, str]] | None = None

    @classmethod
    def is_available(cls) -> bool:
        return util.find_spec("duckdb") is not None

    def _open_connection(self):
        duckdb = import_module("duckdb")
        return duckdb.connect(":memory:")

    def _column_types(self) -> dict[str, dict[str, str]] | None:
        return self._type_hints

    def bulk_load(self, database: Database, batch_size: int = 1000) -> None:
        if not self._schema_created:
            self._type_hints = infer_column_types(database, self.dialect)
        super().bulk_load(database, batch_size=batch_size)

    def clone_for_pool(self):
        """Another connection into the same in-memory DuckDB database.

        ``duckdb.Connection.cursor()`` returns an independent connection
        sharing the parent's database (DuckDB supports concurrent readers),
        so pool members see the primary's loaded tables without re-loading.
        Closing the clone closes only its own cursor, never the shared
        database — that stays owned by the primary member.
        """
        clone = DuckDbBackend(self.schema)
        clone._type_hints = self._type_hints
        clone.connection = self.connection.cursor()
        clone._schema_created = True
        return clone

    def _install_budget_guard(self, tracker: BudgetTracker):
        remaining = tracker.remaining_seconds()
        if remaining is None or not hasattr(self.connection, "interrupt"):
            return None
        return _InterruptDeadlineGuard(self.connection, remaining)

    def explain(self, sql_text: str) -> str:
        self._ensure_connected()
        cursor = self.connection.execute(
            f"{self.dialect.explain_prefix} {sql_text}"
        )
        # DuckDB's EXPLAIN yields (key, rendered-plan-text) rows.
        return "\n".join(str(row[-1]) for row in cursor.fetchall())
