"""Query resource budgets: row, recursion-depth, and wall-clock limits.

A :class:`QueryBudget` describes how much work one query is allowed to do;
a :class:`BudgetTracker` carries the running totals while that query
executes.  The same budget is enforced at every layer that can do work
without bound:

* the reference evaluator's semi-naive fixpoint
  (:func:`repro.sql.semantics.evaluate_query`) charges rounds and
  accumulated rows per iteration,
* the engine adapters install native guards
  (sqlite ``set_progress_handler`` / duckdb ``interrupt``) for the
  wall-clock limit and fetch incrementally for the row limit, and
* the serving layer (:class:`repro.backends.service.GraphitiService`)
  checks the clock between retries and plan downgrades.

Exceeding any dimension raises :class:`QueryBudgetExceeded`, which carries
partial-progress diagnostics (rows produced, depth reached, elapsed time)
so operators can see *how far* a runaway query got before the guard fired.
Interrupting a query must never poison its connection: guards abort the
statement, not the session, and the serving layer validates the member
before returning it to the pool.

This module lives under ``repro.common`` (not ``repro.backends``) because
the reference evaluator in ``repro.sql`` needs it too and must not import
the backends package.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.common.errors import GraphitiError


class QueryBudgetExceeded(GraphitiError):
    """A query hit its :class:`QueryBudget` and was stopped.

    Structured fields describe which limit fired and how far the query got:

    ``dimension``
        ``"rows"``, ``"depth"``, or ``"timeout"``.
    ``limit``
        The configured bound for that dimension.
    ``rows_produced`` / ``depth_reached`` / ``elapsed_seconds``
        Partial progress at the moment the guard fired (``None`` when the
        enforcing layer cannot observe that dimension — e.g. an engine
        interrupt knows elapsed time but not the recursion depth).
    ``stage``
        Which layer stopped the query (``"fixpoint"``, ``"engine"``,
        ``"service"``).
    ``backend`` / ``cypher_text``
        Serving context, filled in by the service when available.
    ``attempted_downgrade``
        True when the service already tried a cheaper plan (e.g. re-planned
        an unrolled traversal as a recursive CTE) and the budget still
        fired.
    """

    def __init__(
        self,
        message: str,
        *,
        dimension: str,
        limit: float | int | None = None,
        rows_produced: int | None = None,
        depth_reached: int | None = None,
        elapsed_seconds: float | None = None,
        stage: str | None = None,
        backend: str | None = None,
        cypher_text: str | None = None,
        attempted_downgrade: bool = False,
    ) -> None:
        super().__init__(message)
        self.dimension = dimension
        self.limit = limit
        self.rows_produced = rows_produced
        self.depth_reached = depth_reached
        self.elapsed_seconds = elapsed_seconds
        self.stage = stage
        self.backend = backend
        self.cypher_text = cypher_text
        self.attempted_downgrade = attempted_downgrade

    def annotate(
        self, *, backend: str | None = None, cypher_text: str | None = None
    ) -> "QueryBudgetExceeded":
        """Fill in serving context in place (the service knows it; the
        fixpoint/engine layers that raise do not)."""
        if backend is not None and self.backend is None:
            self.backend = backend
        if cypher_text is not None and self.cypher_text is None:
            self.cypher_text = cypher_text
        return self

    def diagnostics(self) -> dict[str, object]:
        """The structured fields as a dict (CLI/metrics serialization)."""
        return {
            "dimension": self.dimension,
            "limit": self.limit,
            "rows_produced": self.rows_produced,
            "depth_reached": self.depth_reached,
            "elapsed_seconds": self.elapsed_seconds,
            "stage": self.stage,
            "backend": self.backend,
            "attempted_downgrade": self.attempted_downgrade,
        }


@dataclass(frozen=True)
class QueryBudget:
    """Per-query resource limits; ``None`` means unlimited in that dimension.

    ``max_rows``
        Cap on result/intermediate rows a single query may produce.
    ``max_depth``
        Cap on recursion depth (fixpoint rounds / traversal hops).
    ``timeout_seconds``
        Wall-clock limit for one query, spanning retries and downgrades.
    ``allow_downgrade``
        Whether the service may degrade a budget-pressured query before
        giving up.  Two distinct mechanisms gate on it: (1) a
        budget-tripped unrolled traversal is re-planned as a recursive
        CTE and retried once — result-preserving, only the plan shape
        changes; (2) when ``max_depth`` is set, open-bound traversals are
        planned depth-capped from the start, which *truncates* engine
        answers to paths of at most ``max_depth`` hops (the reference
        evaluator has no such cap and raises
        :class:`QueryBudgetExceeded` instead, so the two paths diverge on
        depth-limited queries).  Defaults to on.
    """

    max_rows: int | None = None
    max_depth: int | None = None
    timeout_seconds: float | None = None
    allow_downgrade: bool = True

    def __post_init__(self) -> None:
        if self.max_rows is not None and self.max_rows <= 0:
            raise ValueError("max_rows must be positive (or None for unlimited)")
        if self.max_depth is not None and self.max_depth <= 0:
            raise ValueError("max_depth must be positive (or None for unlimited)")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(
                "timeout_seconds must be positive (or None for unlimited)"
            )

    @property
    def unlimited(self) -> bool:
        return (
            self.max_rows is None
            and self.max_depth is None
            and self.timeout_seconds is None
        )

    def start(self, clock=time.monotonic) -> "BudgetTracker":
        """Begin tracking one query's spend against this budget."""
        return BudgetTracker(self, clock=clock)


class BudgetTracker:
    """Running totals for one query's spend against a :class:`QueryBudget`.

    One tracker belongs to one query execution, but that execution may
    fan out: a partition-parallel scan
    (:mod:`repro.backends.executor`) charges every partition's rows
    against the *same* tracker from concurrent threads, so the counter
    updates are lock-protected.  The charge methods raise
    :class:`QueryBudgetExceeded` the moment a limit is crossed; callers
    pass ``stage`` so the error names the enforcing layer.
    """

    def __init__(self, budget: QueryBudget, clock=time.monotonic) -> None:
        self.budget = budget
        self._clock = clock
        self._lock = threading.Lock()
        self.started_at = clock()
        self.rows_produced = 0
        self.depth_reached = 0

    @property
    def elapsed_seconds(self) -> float:
        return self._clock() - self.started_at

    def remaining_seconds(self) -> float | None:
        """Seconds left on the wall clock, or ``None`` when untimed."""
        if self.budget.timeout_seconds is None:
            return None
        return self.budget.timeout_seconds - self.elapsed_seconds

    def deadline(self) -> float | None:
        """Absolute ``clock()`` value the query must finish by, or ``None``."""
        if self.budget.timeout_seconds is None:
            return None
        return self.started_at + self.budget.timeout_seconds

    def charge_rows(self, count: int, stage: str = "fixpoint") -> None:
        """Record *count* more rows produced; raise if over ``max_rows``."""
        with self._lock:
            self.rows_produced += count
            produced = self.rows_produced
        limit = self.budget.max_rows
        if limit is not None and produced > limit:
            raise self._exceeded(
                "rows",
                limit,
                f"query produced {produced} rows, over the "
                f"budget of {limit}",
                stage,
            )

    def charge_depth(self, depth: int, stage: str = "fixpoint") -> None:
        """Record recursion reaching *depth*; raise if over ``max_depth``."""
        with self._lock:
            self.depth_reached = max(self.depth_reached, depth)
            reached = self.depth_reached
        limit = self.budget.max_depth
        if limit is not None and reached > limit:
            raise self._exceeded(
                "depth",
                limit,
                f"recursion reached depth {self.depth_reached}, over the "
                f"budget of {limit}",
                stage,
            )

    def check_timeout(self, stage: str = "fixpoint") -> None:
        """Raise if the wall-clock limit has passed."""
        limit = self.budget.timeout_seconds
        if limit is not None and self.elapsed_seconds > limit:
            raise self._exceeded(
                "timeout",
                limit,
                f"query ran {self.elapsed_seconds:.3f}s, over the budget "
                f"of {limit:g}s",
                stage,
            )

    def timed_out(self) -> bool:
        remaining = self.remaining_seconds()
        return remaining is not None and remaining <= 0

    def reset_work(self) -> None:
        """Zero the row/depth counters for a fresh attempt (transparent
        retry on another member, or a plan downgrade).  The wall clock is
        deliberately *not* reset — the timeout spans all attempts."""
        with self._lock:
            self.rows_produced = 0
            self.depth_reached = 0

    def _exceeded(
        self, dimension: str, limit: float | int, message: str, stage: str
    ) -> QueryBudgetExceeded:
        return QueryBudgetExceeded(
            message,
            dimension=dimension,
            limit=limit,
            rows_produced=self.rows_produced,
            depth_reached=self.depth_reached,
            elapsed_seconds=self.elapsed_seconds,
            stage=stage,
        )


def as_tracker(
    budget: "QueryBudget | BudgetTracker | None",
) -> BudgetTracker | None:
    """Normalize a budget-or-tracker argument: callers may pass either a
    fresh :class:`QueryBudget` (a tracker is started for them) or an
    in-flight :class:`BudgetTracker` (shared spend across layers)."""
    if budget is None:
        return None
    if isinstance(budget, QueryBudget):
        return None if budget.unlimited else budget.start()
    return budget
