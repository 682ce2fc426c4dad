"""Intra-query parallelism: partition-parallel scans over one connection pool.

One query's scan is split into **rowid range partitions** of the scanned
base table and the partitions run concurrently on pooled connections,
without moving a single row.  The fragment classifier
(:mod:`repro.sql.fragment`) decides whether a plan can scatter that way:

* ``shard_local`` fragments bag-union — each input row lives in exactly
  one rowid range, so the union of per-partition results is the answer;
* ``merge_aggregable`` fragments fold — partitions compute partial
  aggregates (Avg decomposed into Sum+Count) and
  :func:`~repro.sql.fragment.merge_partials` combines them.

Partition SQL is built by rewriting the fragment's scanned relation to a
synthetic CTE that selects the same columns restricted to one rowid range::

    WITH "__partition" AS (
        SELECT "uid", "uname", "age" FROM "USER"
        WHERE "rowid" >= 500 AND "rowid" < 1000
    ) SELECT ... original fragment body over "__partition" ...

Engines that expose a rowid pseudo-column (SQLite, DuckDB — see
:attr:`~repro.sql.dialect.SqlDialect.rowid_column`) inline the single-use
CTE, so the range predicate reaches the base table's b-tree and each
partition genuinely scans a disjoint slice.  The rewrite is safe because
fragmentable plans never contain a ``WITH`` of their own (the classifier
rejects :class:`~repro.sql.ast.WithQuery`), so prefixing one cannot
collide.

The cost gate (:func:`plan_parallelism`) keeps a query serial unless the
:class:`~repro.sql.planner.CardinalityEstimator`'s row count for the
scanned relation clears :data:`PARALLEL_ROW_THRESHOLD` — splitting a small
scan buys nothing and pays thread + merge overhead.  The verdict, either
way, is recorded in :attr:`~repro.sql.planner.PlanReport.parallelism` so
``repro explain`` shows the chosen degree or the reason it stayed serial.

The module also hosts :func:`run_indexed`, the one fan-out loop behind
``run_many`` batches and the partition scatter — in-order results and
first-failure propagation live in a single place — and :class:`HopClock`,
the measured fixed cost of one round trip through an executor.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.relational.instance import Table
from repro.relational.schema import Relation, RelationalSchema
from repro.sql import ast
from repro.sql.analysis import referenced_relations
from repro.sql.dialect import SqlDialect
from repro.sql.fragment import FragmentPlan, merge_partials
from repro.sql.planner import CardinalityEstimator
from repro.sql.pretty import to_sql_text
from repro.sql.stats import DatabaseStats

#: Estimated scanned rows below which a fragmentable plan stays serial —
#: partitioning a small scan costs more in thread handoff and merge than
#: the engine saves.  Services override per instance
#: (``parallel_row_threshold``); tests force the gate open with ``0``.
PARALLEL_ROW_THRESHOLD = 2048.0

#: Name of the synthetic range-restricted CTE each partition scans.  The
#: double underscore keeps it out of the way of induced relation names
#: (Cypher identifiers cannot start with ``_``), mirroring the hidden Avg
#: aliases of the fragment seam.
PARTITION_CTE = "__partition"


# ---------------------------------------------------------------------------
# The cost gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParallelDecision:
    """Whether (and how) one prepared query's scan is partitioned.

    ``degree`` is the *effective* fan-out — the requested degree, possibly
    clamped down when the table has fewer rows than partitions; ``1``
    whenever ``parallel`` is false.  ``reason`` explains the serial
    verdict (or restates the gate that opened); ``estimated_rows`` is the
    estimator's (feedback-scaled) row count the threshold was compared
    against, when the gate got that far.
    """

    parallel: bool
    degree: int
    requested: int
    reason: str
    relation: str | None = None
    kind: str | None = None
    estimated_rows: float | None = None
    threshold: float | None = None

    def to_dict(self) -> dict:
        """JSON-friendly summary, embedded in ``PlanReport.parallelism``."""
        document: dict = {
            "parallel": self.parallel,
            "degree": self.degree,
            "requested": self.requested,
            "reason": self.reason,
        }
        if self.relation is not None:
            document["relation"] = self.relation
        if self.kind is not None:
            document["kind"] = self.kind
        if self.estimated_rows is not None:
            document["estimated_rows"] = round(self.estimated_rows, 1)
        if self.threshold is not None:
            document["threshold"] = self.threshold
        return document


def _serial(requested: int, reason: str, **fields) -> ParallelDecision:
    return ParallelDecision(False, 1, requested, reason, **fields)


def plan_parallelism(
    fragment: FragmentPlan,
    *,
    schema: RelationalSchema,
    stats: DatabaseStats | None,
    degree: int,
    dialect: SqlDialect,
    row_scale: float = 1.0,
    threshold: float | None = None,
) -> ParallelDecision:
    """Decide whether *fragment* should scatter over rowid partitions.

    Serial verdicts name their gate: parallelism not requested, a dialect
    without a rowid pseudo-column, a non-fragmentable plan, missing row
    statistics, a scanned column shadowing the rowid name, or an
    estimated scan too small to beat the threshold.  *row_scale* is the
    adaptive layer's base-cardinality correction, so a feedback-scaled
    estimate opens (or closes) the same gate the join planner sees.
    """
    limit = PARALLEL_ROW_THRESHOLD if threshold is None else float(threshold)
    if degree < 2:
        return _serial(degree, "parallelism not requested (degree < 2)")
    if dialect.rowid_column is None:
        return _serial(
            degree,
            f"dialect {dialect.name!r} has no rowid pseudo-column to partition by",
        )
    if not fragment.fragmentable or fragment.shard_query is None:
        return _serial(degree, fragment.reason, kind=fragment.kind)
    scanned = referenced_relations(fragment.shard_query)
    assert len(scanned) == 1  # fragmentable plans scan exactly one relation
    relation = next(iter(scanned))
    rowid = dialect.rowid_column.lower()
    if any(a.lower() == rowid for a in schema.relation(relation).attributes):
        return _serial(
            degree,
            f"relation {relation!r} has a real {dialect.rowid_column!r} column "
            "shadowing the pseudo-column",
            relation=relation,
            kind=fragment.kind,
        )
    if stats is None or relation not in stats:
        return _serial(
            degree,
            f"no row statistics for {relation!r}; cannot derive partition bounds",
            relation=relation,
            kind=fragment.kind,
        )
    row_count = stats[relation].row_count
    estimator = CardinalityEstimator(schema, stats, row_scale=row_scale)
    estimated = estimator.base_rows(relation)
    if estimated < limit:
        return _serial(
            degree,
            f"estimated {estimated:.0f} rows below the parallel threshold "
            f"of {limit:.0f}",
            relation=relation,
            kind=fragment.kind,
            estimated_rows=estimated,
            threshold=limit,
        )
    effective = min(degree, max(row_count, 1))
    if effective < 2:
        return _serial(
            degree,
            f"{relation!r} has too few rows ({row_count}) to partition",
            relation=relation,
            kind=fragment.kind,
            estimated_rows=estimated,
            threshold=limit,
        )
    return ParallelDecision(
        True,
        effective,
        degree,
        f"{fragment.kind} fragment over {relation!r}: estimated "
        f"{estimated:.0f} rows clear the threshold of {limit:.0f}",
        relation=relation,
        kind=fragment.kind,
        estimated_rows=estimated,
        threshold=limit,
    )


# ---------------------------------------------------------------------------
# Partition SQL
# ---------------------------------------------------------------------------


def partition_bounds(
    row_count: int, degree: int
) -> list[tuple[int | None, int | None]]:
    """*degree* disjoint, covering ``(lower, upper)`` rowid ranges.

    Bounds are half-open — ``lower <= rowid < upper`` — with the first
    lower and last upper left ``None`` (unbounded), so the split is
    correct whatever the engine's rowid base is (SQLite numbers from 1,
    DuckDB from 0) and keeps covering rows inserted after the statistics
    were collected.  Interior boundaries come from the stats row count;
    a stale count only skews the *balance* of the split, never its
    correctness.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if degree == 1:
        return [(None, None)]
    cuts = [round(index * row_count / degree) for index in range(1, degree)]
    bounds: list[tuple[int | None, int | None]] = []
    previous: int | None = None
    for cut in cuts:
        bounds.append((previous, cut))
        previous = cut
    bounds.append((previous, None))
    return bounds


def _replace_relation(query: ast.Query, old: str, new: str) -> ast.Query:
    if isinstance(query, ast.Relation):
        return ast.Relation(new) if query.name == old else query
    return ast.map_children(query, lambda child: _replace_relation(child, old, new))


def partition_statements(
    fragment: FragmentPlan,
    relation: str,
    bounds: Sequence[tuple[int | None, int | None]],
    schema: RelationalSchema,
    dialect: SqlDialect,
) -> list[str]:
    """One SQL statement per partition: the fragment body over a
    range-restricted CTE standing in for the scanned relation.

    The body is rendered once (the partitions differ only in the WHERE
    range of the prefixed CTE), against a schema extended with the CTE
    name carrying the original relation's attributes.
    """
    base = schema.relation(relation)
    extended = RelationalSchema.of(
        (*schema.relations, Relation(PARTITION_CTE, base.attributes)),
        schema.constraints,
    )
    rewritten = _replace_relation(fragment.shard_query, relation, PARTITION_CTE)
    body = to_sql_text(rewritten, extended, optimized=False, dialect=dialect)
    columns = ", ".join(dialect.quote(a) for a in base.attributes)
    rowid = dialect.quote(dialect.rowid_column)
    statements = []
    for lower, upper in bounds:
        conditions = []
        if lower is not None:
            conditions.append(f"{rowid} >= {lower}")
        if upper is not None:
            conditions.append(f"{rowid} < {upper}")
        where = f" WHERE {' AND '.join(conditions)}" if conditions else ""
        statements.append(
            f"WITH {dialect.quote(PARTITION_CTE)} AS "
            f"(SELECT {columns} FROM {dialect.quote(relation)}{where}) {body}"
        )
    return statements


# ---------------------------------------------------------------------------
# The partition executor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FragmentExecutor:
    """One fragmentable plan, split into executable rowid partitions.

    Built once per (prepared query, degree) and cached alongside the
    prepared query; holds the fragment plan (whose merge rules
    :func:`~repro.sql.fragment.merge_partials` consumes), the gate's
    verdict, and the rendered per-partition SQL.  Execution mechanics —
    pooled connections, retry, budgets, spans — stay with the serving
    layer, which passes a ``run_partition(index) -> Table`` callback to
    :meth:`scatter` and merges the partials with :meth:`gather`.
    """

    fragment: FragmentPlan
    decision: ParallelDecision
    statements: tuple[str, ...]

    @classmethod
    def build(
        cls,
        fragment: FragmentPlan,
        decision: ParallelDecision,
        *,
        schema: RelationalSchema,
        stats: DatabaseStats,
        dialect: SqlDialect,
    ) -> "FragmentExecutor":
        """Derive partition bounds from the stats row count and render the
        per-partition statements for a gate-approved *decision*."""
        assert decision.parallel and decision.relation is not None
        bounds = partition_bounds(
            stats[decision.relation].row_count, decision.degree
        )
        statements = partition_statements(
            fragment, decision.relation, bounds, schema, dialect
        )
        return cls(fragment, decision, tuple(statements))

    def scatter(
        self, run_partition: Callable[[int], Table], executor: ThreadPoolExecutor
    ) -> list[Table]:
        """Run every partition concurrently on *executor*; partials in
        partition order."""
        partials: list[Table | None] = [None] * len(self.statements)

        def one(index: int) -> None:
            partials[index] = run_partition(index)

        run_indexed(len(self.statements), one, executor)
        assert all(partial is not None for partial in partials)
        return partials  # type: ignore[return-value]

    def gather(self, partials: list[Table]) -> Table:
        """Merge per-partition partials into the query's answer.

        Applies the :func:`~repro.sql.fragment.merge_partials` rules: bag
        union for shard-local fragments (DISTINCT re-applied),
        distributive folds and the Avg Sum/Count recomposition for
        merge-aggregable ones, ORDER BY/LIMIT re-applied over the merged
        rows.
        """
        return merge_partials(self.fragment, partials)


# ---------------------------------------------------------------------------
# Fan-out (shared by run_many batches and partition scatter)
# ---------------------------------------------------------------------------


def run_indexed(
    total: int,
    execute_one: Callable[[int], None],
    executor: ThreadPoolExecutor | None,
) -> None:
    """Run ``execute_one(0..total-1)``, fanned across *executor*'s threads.

    The single fan-out loop behind ``GraphitiService.run_many`` and the
    partition scatter, so their semantics cannot drift: callers write
    results into their own index-addressed list (in-order by
    construction), every submitted call runs to completion even when a
    sibling fails, and the first failure (in index order) propagates.
    The work runs on the caller's persistent pool; with no *executor* (or
    a single item) it degenerates to an inline loop.
    """
    if executor is None or total <= 1:
        for index in range(total):
            execute_one(index)
        return
    _drain([executor.submit(execute_one, i) for i in range(total)])


def _drain(futures: list[Future]) -> None:
    first_error: BaseException | None = None
    for future in futures:
        try:
            future.result()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            if first_error is None:
                first_error = error
    if first_error is not None:
        raise first_error


# ---------------------------------------------------------------------------
# The hop: fixed cost of one round trip through an executor
# ---------------------------------------------------------------------------

#: Round trips that found an idle worker behind a :class:`HopClock`
#: estimate; it stays unknown until that many were seen.
HOP_SAMPLES = 32


class HopClock:
    """The fixed cost of one round trip through an executor, as measured
    by the side that submits the work and waits for it.

    Each trip reports its round trip (submit to result in hand) and the
    time the work itself took on the worker; the difference is the hop:
    hand-off, thread wake-up, and the wake-up of the waiting side.  Only
    trips that found an idle worker count, since a queued trip measures
    the queue.  Workers are taken to be spawned on demand and kept, as
    :class:`~concurrent.futures.ThreadPoolExecutor` does, so one is idle
    while fewer trips are in flight than ever overlapped (up to
    *workers*).

    :attr:`seconds` is the smallest of the first :data:`HOP_SAMPLES`
    counted trips, and ``None`` until then.  Anything that slows a trip
    only adds to it: other threads holding the interpreter lock can
    stretch the median to milliseconds, and an inflated hop would let
    slow work skip the executor.  Thread-safe.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        #: The measured hop in seconds (``None`` until measured).
        self.seconds: float | None = None
        self._lock = threading.Lock()
        self._in_flight = 0
        self._threads = 0
        self._counted = 0
        self._least = float("inf")

    def start(self) -> bool:
        """Note one trip submitted; ``True`` when an idle worker took it."""
        with self._lock:
            idle = self._in_flight < self._threads
            self._in_flight += 1
            self._threads = min(max(self._threads, self._in_flight), self.workers)
            return idle

    def finish(self, idle: bool, round_trip: float | None, work: float = 0.0) -> None:
        """Note one trip finished (``round_trip=None``: it failed or was
        abandoned, so it measured nothing)."""
        with self._lock:
            self._in_flight -= 1
            if not idle or round_trip is None or self.seconds is not None:
                return
            self._least = min(self._least, max(round_trip - work, 0.0))
            self._counted += 1
            if self._counted >= HOP_SAMPLES:
                self.seconds = self._least


__all__ = [
    "HOP_SAMPLES",
    "HopClock",
    "PARALLEL_ROW_THRESHOLD",
    "PARTITION_CTE",
    "ParallelDecision",
    "FragmentExecutor",
    "partition_bounds",
    "partition_statements",
    "plan_parallelism",
    "run_indexed",
]
