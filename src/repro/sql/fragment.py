"""Query fragmentation for scatter-gather execution over row partitions.

Partition-parallel execution (:mod:`repro.backends.executor`) splits the
scanned base table into disjoint partitions, so every base-table row lives
in exactly one partition.  A query is *fragmentable* when running it
unchanged (or lightly rewritten) on each partition and combining the
partial results reproduces the reference answer over the whole table.
This module is the planner seam that decides — statically, on the
optimized algebra — which of three regimes a plan falls into, and the
gather step (:func:`merge_partials`) that combines the partials:

``shard_local``
    The plan scans exactly one base relation and computes no aggregate:
    every output row is derived from a single input row, and each input
    row lives in exactly one partition, so the bag union of the
    per-partition results *is* the global result.  A root ``DISTINCT`` or
    ``ORDER BY``/``LIMIT`` is re-applied after the union (per-partition
    ``ORDER BY x LIMIT k`` is kept as sound top-k pruning: the global
    top-k is a subset of the union of per-partition top-ks).

``merge_aggregable``
    A root ``GroupBy`` whose aggregates are all distributive
    (``Count``/``Sum``/``Min``/``Max``) or algebraic (``Avg``, decomposed
    into per-partition ``Sum`` + ``Count`` columns) over a single scanned
    relation.  Partitions compute partial aggregates per group; the
    gather re-groups partials by the group-key columns and folds them
    with :func:`~repro.common.aggregates.combine` itself, so the paper's
    aggregate quirk holds by construction: a partial is ``NULL`` when the
    group's argument was ``NULL`` on every row of that partition, and the
    merged value is ``NULL`` only when *every* partition's partial is
    ``NULL`` — including ``Count``.

``non_fragmentable``
    Everything else — joins and subqueries (row provenance spans
    partitions once more than one scan participates), recursive
    traversals (the fixpoint needs the full edge relation), CTEs (a
    binding scanned twice is a self-join), HAVING, DISTINCT aggregates,
    bare ``LIMIT`` without ``ORDER BY`` (nondeterministic), and anything
    whose output the classifier cannot prove reconstructible.  Such a
    query runs serially, unchanged, with the reason recorded in the
    :class:`~repro.sql.planner.PlanReport`.

Classification is a property of the plan alone — it does not depend on
the partition count — so the serving layer computes it once per cache
entry, when the partition gate prices that entry.

The gather defines no row semantics of its own: DISTINCT, grouping, the
folds and ``ORDER BY``/``LIMIT`` are the reference evaluators' operations
from :mod:`repro.common`, and an ``ORDER BY`` key resolves by the SQL
name lookup, :func:`repro.sql.analysis.resolve_attribute`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.aggregates import combine, dedup, group_by
from repro.common.errors import SemanticsError
from repro.common.values import NULL, Value, is_null, order_rows
from repro.relational.instance import Table
from repro.relational.schema import RelationalSchema
from repro.sql import ast
from repro.sql.analysis import iter_nodes, output_attributes, resolve_attribute

SHARD_LOCAL = "shard_local"
MERGE_AGGREGABLE = "merge_aggregable"
NON_FRAGMENTABLE = "non_fragmentable"

#: Alias prefix for the per-partition Sum/Count columns an Avg decomposes into.
#: Double-underscore keeps them out of the way of user-visible aliases
#: (Cypher identifiers cannot start with ``_``).
_AVG_SUM = "__shard_avg_sum_"
_AVG_COUNT = "__shard_avg_count_"


@dataclass(frozen=True)
class MergeColumn:
    """How the gather reconstructs one output column from partials.

    *kind* is ``"key"`` (group key: all partials in a merged group agree,
    take any), ``"sum"`` (``Count``/``Sum``: fold partials by addition),
    ``"min"``/``"max"``, or ``"avg"`` (divide the merged hidden ``Sum``
    partial by the merged hidden ``Count`` partial).  *source* is the
    column's position in the *partition* result; for ``"avg"`` the
    decomposed pair lives at *source* (sum) and *count_source* (count).
    """

    alias: str
    kind: str
    source: int
    count_source: int | None = None


@dataclass(frozen=True)
class OrderSpec:
    """A root ``ORDER BY``/``LIMIT`` the gather re-applies post-union."""

    indexes: tuple[int, ...]
    ascending: tuple[bool, ...]
    limit: int | None


@dataclass(frozen=True)
class FragmentPlan:
    """The classifier's verdict plus everything the gather needs.

    For fragmentable plans, *shard_query* is the algebra each partition
    executes (possibly rewritten: Avg decomposed, ORDER BY stripped from
    aggregate fragments) and *attributes* names the final merged output
    columns.  *merge* and *key_indexes* drive the merge-aggregable fold;
    *order* the post-union sort; *distinct* the post-union dedup.
    """

    kind: str
    reason: str
    shard_query: ast.Query | None = None
    attributes: tuple[str, ...] | None = None
    merge: tuple[MergeColumn, ...] = ()
    key_indexes: tuple[int, ...] = ()
    distinct: bool = False
    order: OrderSpec | None = None

    @property
    def fragmentable(self) -> bool:
        return self.kind != NON_FRAGMENTABLE


def _non_fragmentable(reason: str) -> FragmentPlan:
    return FragmentPlan(NON_FRAGMENTABLE, reason)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def fragment_query(query: ast.Query, schema: RelationalSchema) -> FragmentPlan:
    """Classify *query* (an optimized plan) for scatter-gather execution."""
    scans = 0
    for node in iter_nodes(query):
        if isinstance(node, ast.RecursiveQuery):
            return _non_fragmentable(
                "recursive traversal needs the full edge relation "
                "(a per-partition fixpoint misses cross-partition paths)"
            )
        if isinstance(node, ast.WithQuery):
            return _non_fragmentable(
                "CTE binding may be scanned more than once (self-join across partitions)"
            )
        if isinstance(node, ast.Relation):
            scans += 1
        if isinstance(node, ast.Aggregate) and node.distinct:
            return _non_fragmentable(
                "DISTINCT aggregate cannot be folded from per-partition partials"
            )
    if scans == 0:
        return _non_fragmentable("plan scans no base relation")
    if scans > 1:
        return _non_fragmentable(
            f"plan scans {scans} base relations; join/subquery provenance "
            "spans partition boundaries"
        )

    body, order, order_error = _peel_root_order(query, schema)
    if order_error is not None:
        return _non_fragmentable(order_error)
    for node in iter_nodes(body):
        if isinstance(node, ast.OrderBy):
            return _non_fragmentable(
                "ORDER BY below the plan root cannot be re-applied after the union"
            )
        if isinstance(node, ast.Projection) and node.distinct and node is not body:
            return _non_fragmentable(
                "DISTINCT below the plan root would drop cross-partition duplicates late"
            )

    if isinstance(body, ast.GroupBy):
        return _classify_group_by(query, body, order, schema)

    for node in iter_nodes(body):
        if isinstance(node, (ast.GroupBy, ast.Aggregate)):
            return _non_fragmentable(
                "aggregation below the plan root cannot be merged after the gather"
            )

    attributes = output_attributes(query, schema)
    if attributes is None:
        return _non_fragmentable("output attributes are not statically determinable")
    # Per-partition top-k is sound pruning for a root ORDER BY + LIMIT, so
    # the partition query keeps the whole plan (including the OrderBy
    # node); the gather re-sorts the union and re-applies the limit.
    return FragmentPlan(
        SHARD_LOCAL,
        "single-relation scan: per-partition results union to the global bag",
        shard_query=query,
        attributes=attributes,
        distinct=isinstance(body, ast.Projection) and body.distinct,
        order=order,
    )


def _peel_root_order(
    query: ast.Query, schema: RelationalSchema
) -> tuple[ast.Query, OrderSpec | None, str | None]:
    """Split a root ``OrderBy`` off *query*; (body, spec, error)."""
    if not isinstance(query, ast.OrderBy):
        return query, None, None
    if not query.keys:
        if query.limit is not None:
            return query, None, (
                "LIMIT without ORDER BY keys selects nondeterministic rows "
                "across partitions"
            )
        return query.query, None, None
    inner_attributes = output_attributes(query.query, schema)
    if inner_attributes is None:
        return query, None, "ORDER BY over statically unknown output attributes"
    indexes: list[int] = []
    for key in query.keys:
        if not isinstance(key, ast.AttributeRef):
            return query, None, "ORDER BY key is not a plain column reference"
        try:
            attribute = resolve_attribute(key.name, inner_attributes)
        except SemanticsError as error:
            return query, None, f"ORDER BY key: {error}"
        if attribute is None:
            return query, None, f"ORDER BY key {key.name!r} not found in output"
        indexes.append(inner_attributes.index(attribute))
    spec = OrderSpec(tuple(indexes), tuple(query.ascending), query.limit)
    return query.query, spec, None


def _classify_group_by(
    query: ast.Query,
    group: ast.GroupBy,
    order: OrderSpec | None,
    schema: RelationalSchema,
) -> FragmentPlan:
    if group.having != ast.TRUE:
        return _non_fragmentable(
            "HAVING filters on final aggregate values, unknown before the merge"
        )
    for node in iter_nodes(group.query):
        if isinstance(node, (ast.GroupBy, ast.Aggregate)):
            return _non_fragmentable(
                "nested aggregation below the grouping cannot be merged"
            )
    column_expressions = {column.expression for column in group.columns}
    for key in group.keys:
        if key not in column_expressions:
            return _non_fragmentable(
                "a grouping key is not in the output; partials cannot be re-grouped"
            )

    merge: list[MergeColumn] = []
    shard_columns: list[ast.OutputColumn] = []
    key_indexes: list[int] = []
    avg_serial = 0
    for column in group.columns:
        expression = column.expression
        source = len(shard_columns)
        if isinstance(expression, ast.Aggregate):
            if expression.function in ("Count", "Sum"):
                merge.append(MergeColumn(column.alias, "sum", source))
                shard_columns.append(column)
            elif expression.function in ("Min", "Max"):
                merge.append(
                    MergeColumn(column.alias, expression.function.lower(), source)
                )
                shard_columns.append(column)
            elif expression.function == "Avg":
                # Algebraic decomposition: partitions emit the Sum and Count
                # partials under reserved aliases; the gather divides.
                assert expression.argument is not None
                merge.append(
                    MergeColumn(column.alias, "avg", source, count_source=source + 1)
                )
                shard_columns.append(
                    ast.OutputColumn(
                        f"{_AVG_SUM}{avg_serial}",
                        ast.Aggregate("Sum", expression.argument),
                    )
                )
                shard_columns.append(
                    ast.OutputColumn(
                        f"{_AVG_COUNT}{avg_serial}",
                        ast.Aggregate("Count", expression.argument),
                    )
                )
                avg_serial += 1
            else:  # pragma: no cover - Aggregate.VALID bounds the functions
                return _non_fragmentable(
                    f"aggregate {expression.function} has no merge rule"
                )
        elif expression in group.keys:
            key_indexes.append(source)
            merge.append(MergeColumn(column.alias, "key", source))
            shard_columns.append(column)
        else:
            return _non_fragmentable(
                "output column mixes aggregates into a non-key expression"
            )

    shard_query: ast.Query = ast.GroupBy(
        group.query, group.keys, tuple(shard_columns), group.having
    )
    # A root ORDER BY is *not* kept in the partition query: ordering (and
    # top-k pruning) by partial aggregate values would be unsound.  The
    # gather sorts the merged groups instead.
    return FragmentPlan(
        MERGE_AGGREGABLE,
        "distributive aggregates over one relation: partials fold at the gather",
        shard_query=shard_query,
        attributes=tuple(column.alias for column in group.columns),
        merge=tuple(merge),
        key_indexes=tuple(key_indexes),
        order=order,
    )


# ---------------------------------------------------------------------------
# Gather (the merge of partition results)
# ---------------------------------------------------------------------------


def merge_partials(plan: FragmentPlan, partials: list[Table]) -> Table:
    """Combine per-partition result tables into the global answer for *plan*."""
    if not plan.fragmentable or plan.shard_query is None:
        raise ValueError("cannot merge partials of a non-fragmentable plan")
    assert plan.attributes is not None
    rows: list[tuple] = []
    for partial in partials:
        rows.extend(partial.rows)
    if plan.kind == SHARD_LOCAL:
        if plan.distinct:
            rows = dedup(rows)
    else:
        rows = _merge_groups(plan, rows)
    order = plan.order
    if order is not None:
        rows = order_rows(
            rows,
            lambda row: [row[index] for index in order.indexes],
            order.ascending,
            order.limit,
        )
    return Table(plan.attributes, rows, ordered=order is not None)


def _merge_groups(plan: FragmentPlan, rows: list[tuple]) -> list[tuple]:
    """Re-group the partitions' partial aggregate rows by key tuple and
    fold each column.

    Each fold is :func:`repro.common.aggregates.combine` over the partials:
    it skips NULL partials and yields NULL only when every partial is NULL,
    as an aggregate (Count included) over an all-NULL argument is NULL.  A
    group a partition has no rows for simply contributes no partial, which
    is also how the reference's Cypher grouping treats empty input (no
    groups).
    """
    groups = group_by(rows, lambda row: tuple(row[index] for index in plan.key_indexes))
    merged: list[tuple] = []
    for group_rows in groups.values():
        out: list[Value] = []
        for column in plan.merge:
            partial_values = [row[column.source] for row in group_rows]
            if column.kind == "key":
                out.append(partial_values[0])
            elif column.kind == "avg":
                assert column.count_source is not None
                total = combine("Sum", partial_values)
                count = combine("Sum", [row[column.count_source] for row in group_rows])
                out.append(NULL if is_null(total) or is_null(count) else total / count)
            elif column.kind == "sum":
                out.append(combine("Sum", partial_values))
            elif column.kind == "min":
                out.append(combine("Min", partial_values))
            else:
                out.append(combine("Max", partial_values))
        merged.append(tuple(out))
    return merged


__all__ = [
    "FragmentPlan",
    "MergeColumn",
    "OrderSpec",
    "SHARD_LOCAL",
    "MERGE_AGGREGABLE",
    "NON_FRAGMENTABLE",
    "fragment_query",
    "merge_partials",
]
