"""Deterministic fault injection for resilience testing.

:class:`FaultInjectingBackend` is a registered backend (name ``"faulty"``)
that wraps an in-memory SQLite engine and executes a shared
:class:`FaultPlan` — a deterministic schedule of failures indexed by
global operation count, so a test can say "the 2nd execute kills its
connection, the 3rd member spawn fails" and assert exactly what the
serving stack did about it.

Fault kinds:

``die_on_executes``
    Close the member's engine connection *before* running the statement —
    the execute raises and every later liveness probe fails, modelling an
    engine process that died mid-query.  The pool should evict and
    respawn; the service should retry on a healthy member.
``error_on_executes``
    Raise :class:`FaultInjected` while leaving the connection healthy —
    a plain query error, which must *not* be retried.
``hang_on_executes``
    Sleep ``hang_seconds`` before running — a slow member, for timeout
    and latency tests.
``fail_spawns``
    Raise from ``connect`` on the N-th member creation — a checkout-path
    spawn failure, which the service's retry should absorb.

The backend reports ``is_available() == False`` unless a plan is
installed (:func:`install_plan` / :func:`injected_faults`), so it never
appears in ``available_backends()`` during normal operation and other
test modules are unaffected.  Counters are global across all members of
a pool — that is what makes "the N-th execute anywhere" expressible.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.common.budget import BudgetTracker, QueryBudget
from repro.relational.instance import Database, Table
from repro.relational.schema import RelationalSchema
from repro.sql.dialect import SQLITE

from repro.backends.base import ExecutionBackend
from repro.backends.registry import register_backend
from repro.backends.sqlite import SqliteMemoryBackend


class FaultInjected(RuntimeError):
    """An injected failure (spawn refusal or transient engine error)."""


class FaultPlan:
    """A deterministic, thread-safe failure schedule.

    Indices are 1-based and count operations *globally* across every
    member sharing the plan.  ``events`` records what fired, in order,
    as ``(kind, index)`` pairs for test assertions; :meth:`heal` clears
    all remaining schedules (the engine "comes back up").
    """

    def __init__(
        self,
        *,
        die_on_executes: tuple[int, ...] = (),
        error_on_executes: tuple[int, ...] = (),
        hang_on_executes: tuple[int, ...] = (),
        hang_seconds: float = 0.0,
        fail_spawns: tuple[int, ...] = (),
    ) -> None:
        self._lock = threading.Lock()
        self._die = set(die_on_executes)
        self._error = set(error_on_executes)
        self._hang = set(hang_on_executes)
        self.hang_seconds = hang_seconds
        self._fail_spawns = set(fail_spawns)
        self.executes = 0
        self.spawns = 0
        self.events: list[tuple[str, int]] = []

    def on_spawn(self) -> None:
        """Called per member creation; raises when this spawn is doomed."""
        with self._lock:
            self.spawns += 1
            index = self.spawns
            doomed = index in self._fail_spawns
            if doomed:
                self.events.append(("fail_spawn", index))
        if doomed:
            raise FaultInjected(f"injected spawn failure (spawn #{index})")

    def on_execute(self) -> str | None:
        """Called per statement; the fault kind to apply, or ``None``."""
        with self._lock:
            self.executes += 1
            index = self.executes
            if index in self._die:
                self.events.append(("die", index))
                return "die"
            if index in self._error:
                self.events.append(("error", index))
                return "error"
            if index in self._hang:
                self.events.append(("hang", index))
                return "hang"
            return None

    def heal(self) -> None:
        """Clear every remaining scheduled fault."""
        with self._lock:
            self._die.clear()
            self._error.clear()
            self._hang.clear()
            self._fail_spawns.clear()


_active_plan: FaultPlan | None = None
_plan_lock = threading.Lock()


def install_plan(plan: FaultPlan) -> None:
    """Make *plan* the active schedule (and ``"faulty"`` available)."""
    global _active_plan
    with _plan_lock:
        _active_plan = plan


def clear_plan() -> None:
    global _active_plan
    with _plan_lock:
        _active_plan = None


def active_plan() -> FaultPlan | None:
    with _plan_lock:
        return _active_plan


@contextmanager
def injected_faults(**schedule) -> Iterator[FaultPlan]:
    """``with injected_faults(die_on_executes=(2,)) as plan: ...`` —
    installs a fresh :class:`FaultPlan` for the block, always clears it."""
    plan = FaultPlan(**schedule)
    install_plan(plan)
    try:
        yield plan
    finally:
        clear_plan()


@register_backend
class FaultInjectingBackend(ExecutionBackend):
    """An in-memory SQLite backend that executes the active fault plan."""

    name = "faulty"
    dialect = SQLITE

    def __init__(self, schema: RelationalSchema) -> None:
        super().__init__(schema)
        self._inner = SqliteMemoryBackend(schema)

    @classmethod
    def is_available(cls) -> bool:
        return active_plan() is not None

    # -- lifecycle ---------------------------------------------------------

    def connect(self) -> None:
        plan = active_plan()
        if plan is not None:
            plan.on_spawn()
        self._inner.connect()

    def close(self) -> None:
        self._inner.close()

    def clone_for_pool(self) -> ExecutionBackend | None:
        # No storage sharing: every pool member is its own loaded copy,
        # which keeps the plan's spawn counter meaningful per member.
        return None

    # -- loading -----------------------------------------------------------

    def insert_rows(self, relation, rows, batch_size=1000, commit_mode="end"):
        self._inner.insert_rows(
            relation, rows, batch_size=batch_size, commit_mode=commit_mode
        )

    def bulk_load(self, database: Database, batch_size: int = 1000) -> None:
        self._inner.bulk_load(database, batch_size=batch_size)

    def create_indexes(self) -> None:
        self._inner.create_indexes()

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        sql_text: str,
        budget: "QueryBudget | BudgetTracker | None" = None,
    ) -> Table:
        plan = active_plan()
        action = plan.on_execute() if plan is not None else None
        if action == "die":
            # The engine "process" dies out from under the statement: the
            # execute below raises, and every later ping fails too.
            self._inner.connection.close()
        elif action == "error":
            raise FaultInjected("injected transient engine error")
        elif action == "hang" and plan is not None:
            time.sleep(plan.hang_seconds)
        return self._inner.execute(sql_text, budget=budget)

    def ping(self) -> bool:
        # Probes bypass the plan: health checks must observe faults'
        # consequences (a closed connection), not consume fault indices.
        return self._inner.ping()

    def explain(self, sql_text: str) -> str:
        return self._inner.explain(sql_text)

    def time(self, sql_text: str, repeats: int = 3) -> float:
        return self._inner.time(sql_text, repeats=repeats)
