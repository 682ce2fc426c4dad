"""SQLite execution backends: in-memory and file-backed.

SQLite ships with CPython, so these two backends are always available and
serve as the reference engines for cross-backend equivalence tests.  The
file-backed variant exists because its performance profile differs (page
cache, fsync on commit) — useful as a second data point in
``bench-backends`` — and because it demonstrates backends that own on-disk
state they must clean up on ``close``.

Connections are opened with ``check_same_thread=False`` so a pooled backend
can be checked out by whichever worker thread is free; the pool guarantees
one thread at a time per member, which is the actual safety requirement.
Pooling strategies differ by storage:

* ``sqlite-file`` clones cheaply — extra pool members are additional
  read connections to the primary member's database file (SQLite allows
  any number of concurrent readers);
* ``sqlite-memory`` cannot share a plain ``:memory:`` database between
  connections, so it reports ``clone_for_pool() -> None`` and the pool
  falls back to per-worker clone loading (each member gets its own
  loaded copy — embarrassingly parallel reads at the cost of memory).
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
import time

from repro.common.budget import BudgetTracker
from repro.relational.schema import RelationalSchema
from repro.sql.dialect import SQLITE

from repro.backends.base import DbApiBackend, ExecutionBackend
from repro.backends.registry import register_backend


class _ProgressDeadlineGuard:
    """A sqlite progress-handler deadline: aborts the running statement
    once the wall clock passes the budget's deadline.

    SQLite calls the handler every ``_OPS_INTERVAL`` virtual-machine
    instructions; returning non-zero aborts the statement with
    ``OperationalError: interrupted`` — the *statement*, not the
    connection, which stays fully usable (this is what keeps a tripped
    budget from poisoning the pool member).
    """

    #: VM instructions between clock checks — coarse enough to stay under
    #: the guard-overhead budget, fine enough for sub-millisecond response.
    _OPS_INTERVAL = 4000

    def __init__(self, connection: sqlite3.Connection, deadline: float) -> None:
        self.tripped = False
        self._connection = connection
        self._deadline = deadline
        connection.set_progress_handler(self._tick, self._OPS_INTERVAL)

    def _tick(self) -> int:
        if time.monotonic() > self._deadline:
            self.tripped = True
            return 1
        return 0

    def cancel(self) -> None:
        self._connection.set_progress_handler(None, 0)


class _SqliteBackend(DbApiBackend):
    """Shared SQLite behaviour; subclasses pick the database location."""

    dialect = SQLITE

    def _database_path(self) -> str:
        return ":memory:"

    def _open_connection(self) -> sqlite3.Connection:
        # check_same_thread=False: members of a ConnectionPool migrate
        # between worker threads (never concurrently — the pool serialises
        # checkout/checkin), which the default same-thread guard would veto.
        return sqlite3.connect(self._database_path(), check_same_thread=False)

    def _install_budget_guard(self, tracker: BudgetTracker):
        deadline = tracker.deadline()
        if deadline is None:
            return None
        return _ProgressDeadlineGuard(self.connection, deadline)


@register_backend
class SqliteMemoryBackend(_SqliteBackend):
    """An in-memory SQLite instance — the default, fastest-startup engine."""

    name = "sqlite-memory"


@register_backend
class SqliteFileBackend(_SqliteBackend):
    """A file-backed SQLite instance.

    Uses *path* when given; otherwise a temporary file that is deleted on
    ``close``.
    """

    name = "sqlite-file"

    def __init__(self, schema: RelationalSchema, path: str | None = None) -> None:
        super().__init__(schema)
        self._owns_file = path is None
        if path is None:
            descriptor, path = tempfile.mkstemp(prefix="graphiti-", suffix=".sqlite")
            os.close(descriptor)
        self.path = path

    def _database_path(self) -> str:
        return self.path

    def clone_for_pool(self) -> ExecutionBackend | None:
        """Another read connection to the same database file.

        The clone does not own the file (the primary's ``close`` removes
        it) and skips DDL (the schema already exists on disk).
        """
        clone = SqliteFileBackend(self.schema, path=self.path)
        clone.connect()
        clone._schema_created = True
        return clone

    def close(self) -> None:
        super().close()
        if self._owns_file and os.path.exists(self.path):
            os.unlink(self.path)
