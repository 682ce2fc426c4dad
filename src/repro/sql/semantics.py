"""Reference bag semantics for Featherweight SQL.

This module implements the denotational semantics the paper inherits from
VeriEQL [He et al. 2024]: queries are functions from database instances to
bags of rows, predicates follow three-valued logic, and ``GROUP BY``
partitions rows by key-tuple equality (with NULL equal to NULL, as in SQL).

The evaluator supports correlated subqueries: ``IN (SELECT ...)`` and
``EXISTS (SELECT ...)`` bodies may reference attributes of enclosing rows.
Resolution is innermost-scope-first, falling back outward — SQL's standard
name resolution.

Expressions and predicates follow the rules both reference evaluators share
(:class:`repro.common.semantics.ExpressionSemantics`), per row in
projections, selections, joins and sort and grouping keys, and over the
group in a grouped output list and ``HAVING``.  This module supplies only
what SQL does its own way: an ``AttributeRef`` reads the scopes, and an
``IN``/``EXISTS`` subquery runs with them as its outer rows.

This interpreter is the semantic ground truth for the whole library: the
bounded model checker executes candidate counterexamples with it, the
property tests validate the transpiler against it, and the execution
backend's SQLite renderings are cross-checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.aggregates import dedup, group_by
from repro.common.budget import BudgetTracker, QueryBudget, as_tracker
from repro.common.errors import SemanticsError
from repro.common.semantics import ExpressionSemantics, membership
from repro.common.values import NULL, Truth, Value, order_rows
from repro.relational.instance import Database, Row, Table
from repro.sql import ast
from repro.sql.analysis import resolve_attribute

#: One visible row: its attribute names and its values.  A row as a
#: reference reads it is a tuple of scopes, innermost first.
_Scope = tuple[tuple[str, ...], Row]


@dataclass(frozen=True)
class _Context(ExpressionSemantics):
    """Evaluation context: the database, CTE bindings, and outer row scopes.

    It evaluates expressions and predicates with the shared rules, reading
    an ``AttributeRef`` through the scopes and ``IN``/``EXISTS`` subqueries
    with the scopes as their outer rows.
    """

    REFERENCES = ast.AttributeRef

    database: Database
    ctes: tuple[tuple[str, Table], ...] = ()
    outer: tuple[_Scope, ...] = ()
    budget: BudgetTracker | None = None

    def cte(self, name: str) -> Table | None:
        for cte_name, table in reversed(self.ctes):
            if cte_name == name:
                return table
        return None

    def with_cte(self, name: str, table: Table) -> "_Context":
        return replace(self, ctes=self.ctes + ((name, table),))

    def with_outer(self, scopes: tuple[_Scope, ...]) -> "_Context":
        return replace(self, outer=scopes)

    def reference(self, node: ast.AttributeRef, scopes: tuple[_Scope, ...]) -> Value:
        """Innermost scope first, falling back outward: SQL's name resolution."""
        name = node.name
        for attributes, row in scopes:
            if name in attributes:
                return row[attributes.index(name)]
            resolved = resolve_attribute(name, attributes)
            if resolved is not None:
                return row[attributes.index(resolved)]
        raise SemanticsError(f"unknown attribute reference {name!r}")

    def subquery(
        self, node: ast.Predicate, scopes: tuple[_Scope, ...], group: list | None
    ) -> Truth:
        if isinstance(node, ast.InQuery):
            operands = tuple(self.expression(e, scopes, group) for e in node.operands)
            result = _eval(node.query, self.with_outer(scopes))
            if len(result.attributes) != len(operands):
                raise SemanticsError(
                    f"IN subquery arity {len(result.attributes)} does not match "
                    f"left-hand tuple arity {len(operands)}"
                )
            return membership(operands, result.rows, node.negated)
        if isinstance(node, ast.ExistsQuery):
            verdict = len(_eval(node.query, self.with_outer(scopes)).rows) > 0
            return (not verdict) if node.negated else verdict
        return super().subquery(node, scopes, group)


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
        scopes = ((inner.attributes, row),) + ctx.outer
        rows.append(
            tuple(ctx.expression(column.expression, scopes) for column in query.columns)
        )
    if query.distinct:
        rows = dedup(rows)
    return Table(attributes, rows)


def _eval_selection(query: ast.Selection, ctx: _Context) -> Table:
    inner = _eval(query.query, ctx)
    rows = []
    for row in inner:
        scopes = ((inner.attributes, row),) + ctx.outer
        if ctx.predicate(query.predicate, scopes) is True:
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
            scopes = ((attributes, combined),) + ctx.outer
            if ctx.predicate(query.predicate, scopes) is True:
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

    def key(scopes: tuple[_Scope, ...]) -> tuple:
        return tuple(ctx.expression(key_expr, scopes) for key_expr in query.keys)

    attributes = tuple(column.alias for column in query.columns)
    rows: list[Row] = []
    scoped = [((inner.attributes, row),) + ctx.outer for row in inner]
    for group in group_by(scoped, key).values():
        head = group[0]
        if ctx.predicate(query.having, head, group) is not True:
            continue
        rows.append(
            tuple(ctx.expression(column.expression, head, group) for column in query.columns)
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
        scopes = ((inner.attributes, row),) + ctx.outer
        return [ctx.expression(key_expr, scopes) for key_expr in query.keys]

    rows = order_rows(inner.rows, keys, query.ascending, query.limit)
    return Table(inner.attributes, rows, ordered=True)
