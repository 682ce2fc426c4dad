"""Reference bag semantics for Featherweight SQL.

This module implements the denotational semantics the paper inherits from
VeriEQL [He et al. 2024]: queries are functions from database instances to
bags of rows, predicates follow three-valued logic, and ``GROUP BY``
partitions rows by key-tuple equality (with NULL equal to NULL, as in SQL).

The evaluator supports correlated subqueries: ``IN (SELECT ...)`` and
``EXISTS (SELECT ...)`` bodies may reference attributes of enclosing rows.
Resolution is innermost-scope-first, falling back outward — SQL's standard
name resolution.

This interpreter is the semantic ground truth for the whole library: the
bounded model checker executes candidate counterexamples with it, the
property tests validate the transpiler against it, and the execution
backend's SQLite renderings are cross-checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common import arithmetic
from repro.common.aggregates import combine, count_rows, dedup, group_by
from repro.common.budget import BudgetTracker, QueryBudget, as_tracker
from repro.common.errors import SemanticsError
from repro.common.values import (
    NULL,
    Value,
    compare,
    is_null,
    order_rows,
    sql_and,
    sql_not,
    sql_or,
    value_eq,
)
from repro.relational.instance import Database, Row, Table
from repro.sql import ast
from repro.sql.analysis import resolve_attribute


@dataclass(frozen=True)
class _RowScope:
    """One visible row during predicate/expression evaluation."""

    attributes: tuple[str, ...]
    row: Row

    def lookup(self, name: str) -> tuple[bool, Value]:
        """Resolve *name*; returns ``(found, value)``."""
        if name not in self.attributes:
            name = resolve_attribute(name, self.attributes)
            if name is None:
                return False, NULL
        return True, self.row[self.attributes.index(name)]


@dataclass(frozen=True)
class _Context:
    """Evaluation context: the database, CTE bindings, and outer row scopes."""

    database: Database
    ctes: tuple[tuple[str, Table], ...] = ()
    outer: tuple[_RowScope, ...] = ()
    budget: BudgetTracker | None = None

    def cte(self, name: str) -> Table | None:
        for cte_name, table in reversed(self.ctes):
            if cte_name == name:
                return table
        return None

    def with_cte(self, name: str, table: Table) -> "_Context":
        return replace(self, ctes=self.ctes + ((name, table),))

    def with_outer(self, scopes: tuple[_RowScope, ...]) -> "_Context":
        return replace(self, outer=scopes)


def evaluate_query(
    query: ast.Query,
    database: Database,
    budget: "QueryBudget | BudgetTracker | None" = None,
) -> Table:
    """Evaluate ``⟦Q⟧_D`` — the public entry point.

    *budget* (a :class:`~repro.common.budget.QueryBudget` or an in-flight
    :class:`~repro.common.budget.BudgetTracker`) bounds the semi-naive
    fixpoint: rounds charge recursion depth, admitted rows charge the row
    limit, and the wall clock is checked per round.  Exceeding any limit
    raises :class:`~repro.common.budget.QueryBudgetExceeded` with
    partial-progress diagnostics.  The final result is charged against the
    row limit too, so non-recursive queries are bounded as well.
    """
    tracker = as_tracker(budget)
    result = _eval(query, _Context(database, budget=tracker))
    if tracker is not None:
        tracker.charge_rows(len(result.rows), stage="reference")
        tracker.check_timeout(stage="reference")
    return result


# ---------------------------------------------------------------------------
# Query evaluation
# ---------------------------------------------------------------------------


def _eval(query: ast.Query, ctx: _Context) -> Table:
    if isinstance(query, ast.Relation):
        return _eval_relation(query, ctx)
    if isinstance(query, ast.Projection):
        return _eval_projection(query, ctx)
    if isinstance(query, ast.Selection):
        return _eval_selection(query, ctx)
    if isinstance(query, ast.Renaming):
        return _eval_renaming(query, ctx)
    if isinstance(query, ast.Join):
        return _eval_join(query, ctx)
    if isinstance(query, ast.UnionOp):
        return _eval_union(query, ctx)
    if isinstance(query, ast.GroupBy):
        return _eval_group_by(query, ctx)
    if isinstance(query, ast.WithQuery):
        return _eval_with(query, ctx)
    if isinstance(query, ast.RecursiveQuery):
        return _eval_recursive(query, ctx)
    if isinstance(query, ast.OrderBy):
        return _eval_order_by(query, ctx)
    raise SemanticsError(f"cannot evaluate query node {type(query).__name__}")


def _eval_relation(query: ast.Relation, ctx: _Context) -> Table:
    cte = ctx.cte(query.name)
    if cte is not None:
        return Table(cte.attributes, list(cte.rows))
    table = ctx.database.table(query.name)
    return Table(table.attributes, list(table.rows))


def _eval_projection(query: ast.Projection, ctx: _Context) -> Table:
    inner = _eval(query.query, ctx)
    attributes = tuple(column.alias for column in query.columns)
    rows: list[Row] = []
    for row in inner:
        scope = _RowScope(inner.attributes, row)
        rows.append(
            tuple(
                _eval_scalar(column.expression, (scope,) + ctx.outer, ctx)
                for column in query.columns
            )
        )
    if query.distinct:
        rows = dedup(rows)
    return Table(attributes, rows)


def _eval_selection(query: ast.Selection, ctx: _Context) -> Table:
    inner = _eval(query.query, ctx)
    rows = []
    for row in inner:
        scope = _RowScope(inner.attributes, row)
        if _eval_predicate(query.predicate, (scope,) + ctx.outer, ctx) is True:
            rows.append(row)
    return Table(inner.attributes, rows)


def _eval_renaming(query: ast.Renaming, ctx: _Context) -> Table:
    inner = _eval(query.query, ctx)
    attributes = tuple(ast.qualify(query.name, a) for a in inner.attributes)
    return Table(attributes, list(inner.rows))


def _eval_join(query: ast.Join, ctx: _Context) -> Table:
    left = _eval(query.left, ctx)
    right = _eval(query.right, ctx)
    attributes = left.attributes + right.attributes
    if len(set(attributes)) != len(attributes):
        raise SemanticsError(
            "join would produce duplicate attribute names; rename the operands"
        )
    null_right = tuple([NULL] * len(right.attributes))
    null_left = tuple([NULL] * len(left.attributes))
    rows: list[Row] = []
    if query.kind is ast.JoinKind.CROSS:
        for left_row in left:
            for right_row in right:
                rows.append(left_row + right_row)
        return Table(attributes, rows)

    matched_right: set[int] = set()
    for left_row in left:
        matched = False
        for right_index, right_row in enumerate(right):
            combined = left_row + right_row
            scope = _RowScope(attributes, combined)
            if _eval_predicate(query.predicate, (scope,) + ctx.outer, ctx) is True:
                rows.append(combined)
                matched = True
                matched_right.add(right_index)
        if not matched and query.kind in (ast.JoinKind.LEFT, ast.JoinKind.FULL):
            rows.append(left_row + null_right)
    if query.kind in (ast.JoinKind.RIGHT, ast.JoinKind.FULL):
        for right_index, right_row in enumerate(right):
            if right_index not in matched_right:
                rows.append(null_left + right_row)
    if query.kind is ast.JoinKind.RIGHT:
        # A plain right join also keeps the matched pairs computed above.
        pass
    return Table(attributes, rows)


def _eval_union(query: ast.UnionOp, ctx: _Context) -> Table:
    return _eval(query.left, ctx).union(_eval(query.right, ctx), distinct=not query.all)


def _eval_group_by(query: ast.GroupBy, ctx: _Context) -> Table:
    inner = _eval(query.query, ctx)

    def key(row: Row) -> tuple:
        scopes = (_RowScope(inner.attributes, row),) + ctx.outer
        return tuple(_eval_scalar(key_expr, scopes, ctx) for key_expr in query.keys)

    attributes = tuple(column.alias for column in query.columns)
    rows: list[Row] = []
    for member_rows in group_by(inner.rows, key).values():
        if _eval_group_predicate(query.having, member_rows, inner.attributes, ctx) is not True:
            continue
        rows.append(
            tuple(
                _eval_in_group(column.expression, member_rows, inner.attributes, ctx)
                for column in query.columns
            )
        )
    return Table(attributes, rows)


def _eval_with(query: ast.WithQuery, ctx: _Context) -> Table:
    definition = _eval(query.definition, ctx)
    return _eval(query.body, ctx.with_cte(query.name, definition))


#: Fixpoint safety rails: a well-formed distinct-union recursion saturates
#: long before these (its state space is finite); a runaway bag-union
#: recursion must error out instead of looping forever.
_RECURSION_MAX_ROUNDS = 10_000
_RECURSION_MAX_ROWS = 2_000_000


def _eval_recursive(query: ast.RecursiveQuery, ctx: _Context) -> Table:
    """SQL-engine queue semantics: each round the step sees the rows the
    previous round added; with distinct union a row already accumulated is
    never re-enqueued, which is what makes cyclic traversals terminate."""
    base = _eval(query.base, ctx)
    if len(base.attributes) != len(query.columns):
        raise SemanticsError(
            f"recursive CTE {query.name!r} declares {len(query.columns)} columns "
            f"but its base case produces {len(base.attributes)}"
        )
    accumulated: list[Row] = []
    seen: set[Row] = set()

    def admit(rows: list[Row]) -> list[Row]:
        fresh: list[Row] = []
        for row in rows:
            if not query.union_all:
                if row in seen:
                    continue
                seen.add(row)
            accumulated.append(row)
            fresh.append(row)
        return fresh

    tracker = ctx.budget
    frontier = admit(list(base.rows))
    if tracker is not None:
        tracker.charge_rows(len(frontier), stage="fixpoint")
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > _RECURSION_MAX_ROUNDS or len(accumulated) > _RECURSION_MAX_ROWS:
            raise SemanticsError(
                f"recursive CTE {query.name!r} exceeded the evaluation budget "
                f"({rounds} rounds, {len(accumulated)} rows) — diverging recursion?"
            )
        if tracker is not None:
            tracker.charge_depth(rounds, stage="fixpoint")
            tracker.check_timeout(stage="fixpoint")
        delta = Table(query.columns, frontier)
        produced = _eval(query.step, ctx.with_cte(query.name, delta))
        if len(produced.attributes) != len(query.columns):
            raise SemanticsError(
                f"recursive CTE {query.name!r} declares {len(query.columns)} columns "
                f"but its recursive step produces {len(produced.attributes)}"
            )
        frontier = admit(list(produced.rows))
        if tracker is not None:
            tracker.charge_rows(len(frontier), stage="fixpoint")
    fixpoint = Table(query.columns, accumulated)
    return _eval(query.body, ctx.with_cte(query.name, fixpoint))


def _eval_order_by(query: ast.OrderBy, ctx: _Context) -> Table:
    inner = _eval(query.query, ctx)

    def keys(row: Row) -> list[Value]:
        scopes = (_RowScope(inner.attributes, row),) + ctx.outer
        return [_eval_scalar(key_expr, scopes, ctx) for key_expr in query.keys]

    rows = order_rows(inner.rows, keys, query.ascending, query.limit)
    return Table(inner.attributes, rows, ordered=True)


# ---------------------------------------------------------------------------
# Scalar expression evaluation (no aggregates)
# ---------------------------------------------------------------------------


def _eval_scalar(
    expression: ast.Expression, scopes: tuple[_RowScope, ...], ctx: _Context
) -> Value:
    if isinstance(expression, ast.AttributeRef):
        return _resolve(expression.name, scopes)
    if isinstance(expression, ast.Literal):
        return expression.value
    if isinstance(expression, ast.BinaryOp):
        left = _eval_scalar(expression.left, scopes, ctx)
        right = _eval_scalar(expression.right, scopes, ctx)
        return arithmetic.apply_binary(expression.op, left, right)
    if isinstance(expression, ast.CastPredicate):
        verdict = _eval_predicate(expression.predicate, scopes, ctx)
        if is_null(verdict):
            return NULL
        return 1 if verdict else 0
    if isinstance(expression, ast.Aggregate):
        raise SemanticsError(
            f"aggregate {expression} outside a GROUP BY output list"
        )
    raise SemanticsError(f"cannot evaluate expression node {type(expression).__name__}")


def _resolve(name: str, scopes: tuple[_RowScope, ...]) -> Value:
    for scope in scopes:
        found, value = scope.lookup(name)
        if found:
            return value
    raise SemanticsError(f"unknown attribute reference {name!r}")


# ---------------------------------------------------------------------------
# Group-mode evaluation (aggregates allowed)
# ---------------------------------------------------------------------------


def _eval_in_group(
    expression: ast.Expression,
    rows: list[Row],
    attributes: tuple[str, ...],
    ctx: _Context,
) -> Value:
    if isinstance(expression, ast.Aggregate):
        return _eval_aggregate(expression, rows, attributes, ctx)
    if isinstance(expression, ast.BinaryOp):
        left = _eval_in_group(expression.left, rows, attributes, ctx)
        right = _eval_in_group(expression.right, rows, attributes, ctx)
        return arithmetic.apply_binary(expression.op, left, right)
    head_scope = _RowScope(attributes, rows[0])
    return _eval_scalar(expression, (head_scope,) + ctx.outer, ctx)


def _eval_aggregate(
    aggregate: ast.Aggregate,
    rows: list[Row],
    attributes: tuple[str, ...],
    ctx: _Context,
) -> Value:
    if aggregate.argument is None:
        return count_rows(len(rows))
    values = []
    for row in rows:
        scope = _RowScope(attributes, row)
        values.append(_eval_scalar(aggregate.argument, (scope,) + ctx.outer, ctx))
    return combine(aggregate.function, values, aggregate.distinct)


def _eval_group_predicate(
    predicate: ast.Predicate,
    rows: list[Row],
    attributes: tuple[str, ...],
    ctx: _Context,
):
    """3VL predicate over a whole group (for HAVING)."""
    if isinstance(predicate, ast.BoolLit):
        return predicate.value
    if isinstance(predicate, ast.Comparison):
        left = _eval_in_group(predicate.left, rows, attributes, ctx)
        right = _eval_in_group(predicate.right, rows, attributes, ctx)
        return compare(predicate.op, left, right)
    if isinstance(predicate, ast.IsNull):
        value = _eval_in_group(predicate.operand, rows, attributes, ctx)
        verdict = is_null(value)
        return (not verdict) if predicate.negated else verdict
    if isinstance(predicate, ast.And):
        return sql_and(
            _eval_group_predicate(predicate.left, rows, attributes, ctx),
            _eval_group_predicate(predicate.right, rows, attributes, ctx),
        )
    if isinstance(predicate, ast.Or):
        return sql_or(
            _eval_group_predicate(predicate.left, rows, attributes, ctx),
            _eval_group_predicate(predicate.right, rows, attributes, ctx),
        )
    if isinstance(predicate, ast.Not):
        return sql_not(_eval_group_predicate(predicate.operand, rows, attributes, ctx))
    head_scope = _RowScope(attributes, rows[0])
    return _eval_predicate(predicate, (head_scope,) + ctx.outer, ctx)


# ---------------------------------------------------------------------------
# Predicate evaluation (3VL)
# ---------------------------------------------------------------------------


def _eval_predicate(
    predicate: ast.Predicate, scopes: tuple[_RowScope, ...], ctx: _Context
):
    if isinstance(predicate, ast.BoolLit):
        return predicate.value
    if isinstance(predicate, ast.Comparison):
        left = _eval_scalar(predicate.left, scopes, ctx)
        right = _eval_scalar(predicate.right, scopes, ctx)
        return compare(predicate.op, left, right)
    if isinstance(predicate, ast.IsNull):
        value = _eval_scalar(predicate.operand, scopes, ctx)
        verdict = is_null(value)
        return (not verdict) if predicate.negated else verdict
    if isinstance(predicate, ast.InValues):
        operand = _eval_scalar(predicate.operand, scopes, ctx)
        verdict = False
        for candidate in predicate.values:
            verdict = sql_or(verdict, value_eq(operand, candidate))
        return verdict
    if isinstance(predicate, ast.InQuery):
        return _eval_in_query(predicate, scopes, ctx)
    if isinstance(predicate, ast.ExistsQuery):
        subquery_ctx = ctx.with_outer(scopes)
        result = _eval(predicate.query, subquery_ctx)
        verdict = len(result.rows) > 0
        return (not verdict) if predicate.negated else verdict
    if isinstance(predicate, ast.And):
        return sql_and(
            _eval_predicate(predicate.left, scopes, ctx),
            _eval_predicate(predicate.right, scopes, ctx),
        )
    if isinstance(predicate, ast.Or):
        return sql_or(
            _eval_predicate(predicate.left, scopes, ctx),
            _eval_predicate(predicate.right, scopes, ctx),
        )
    if isinstance(predicate, ast.Not):
        return sql_not(_eval_predicate(predicate.operand, scopes, ctx))
    raise SemanticsError(f"cannot evaluate predicate node {type(predicate).__name__}")


def _eval_in_query(
    predicate: ast.InQuery, scopes: tuple[_RowScope, ...], ctx: _Context
):
    operands = tuple(_eval_scalar(e, scopes, ctx) for e in predicate.operands)
    subquery_ctx = ctx.with_outer(scopes)
    result = _eval(predicate.query, subquery_ctx)
    if len(result.attributes) != len(operands):
        raise SemanticsError(
            f"IN subquery arity {len(result.attributes)} does not match "
            f"left-hand tuple arity {len(operands)}"
        )
    verdict = False
    for row in result:
        row_match = True
        for operand, cell in zip(operands, row):
            row_match = sql_and(row_match, value_eq(operand, cell))
        verdict = sql_or(verdict, row_match)
    if predicate.negated:
        return sql_not(verdict)
    return verdict
