"""The expression and predicate rules of both reference semantics.

Featherweight Cypher and Featherweight SQL share their expression (E) and
predicate (φ) forms, defined once in :mod:`repro.common.expressions`, and
the transpiler maps each one onto itself (paper Figures 21–22).
:class:`ExpressionSemantics` evaluates them once, for both reference
evaluators: literals, arithmetic, aggregates, ``Cast``, comparisons,
``IS [NOT] NULL``, ``IN``, and ``AND``/``OR``/``NOT`` in three-valued logic.
Each evaluator subclasses it and overrides only what its language does its
own way: how a reference reads a row
(:meth:`~ExpressionSemantics.reference`) and what a subquery means
(:meth:`~ExpressionSemantics.subquery`).

``IN`` is one membership rule, :func:`membership`: a tuple tested against a
list of tuples.  ``E IN (v, ...)`` is its one-column case and SQL's
``(E, ...) IN (SELECT ...)`` its subquery case.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.common.aggregates import combine, count_rows
from repro.common.arithmetic import apply_binary
from repro.common.errors import SemanticsError
from repro.common.expressions import (
    Aggregate,
    And,
    BinaryOp,
    BoolLit,
    CastPredicate,
    Comparison,
    InValues,
    IsNull,
    Literal,
    Not,
    Or,
)
from repro.common.values import (
    NULL,
    Truth,
    Value,
    compare,
    is_null,
    sql_and,
    sql_not,
    sql_or,
    value_eq,
)


def membership(
    operands: tuple[Value, ...], rows: Iterable[Sequence[Value]], negated: bool = False
) -> Truth:
    """3VL ``(v1, ..., vn) [NOT] IN rows``: some row equals the operands
    column by column (``AND`` over the columns, ``OR`` over the rows), so a
    ``NULL`` on either side makes the test ``NULL`` unless another row
    matches.  No step raises, so the scan stops at the first match."""
    verdict: Truth = False
    for row in rows:
        match: Truth = True
        for operand, cell in zip(operands, row):
            match = sql_and(match, value_eq(operand, cell))
        verdict = sql_or(verdict, match)
        if verdict is True:
            break
    return sql_not(verdict) if negated else verdict


class ExpressionSemantics:
    """``⟦E⟧`` and ``⟦φ⟧`` over a row, or over a group of rows.

    A *row* is whatever a reference reads: a binding in Cypher, the
    correlated scopes in SQL.  *group* is ``None`` per row; in a grouped
    output list or a ``HAVING`` predicate it is the group's rows, and *row*
    is its first.  An aggregate folds over the group it is given and
    raises without one; its argument is evaluated per member, with no
    group, so an aggregate nested in an aggregate raises too.  ``AND`` and
    ``OR`` evaluate both operands, so an error on either side surfaces.
    """

    #: The reference node class (or classes) that :meth:`reference` reads;
    #: tested first, since references are the most frequent leaf.
    REFERENCES: type | tuple[type, ...]

    # -- what each language does its own way ----------------------------------

    def reference(self, node: Any, row: Any) -> Value:
        """The value the reference *node* reads from *row*."""
        raise NotImplementedError

    def subquery(self, node: Any, row: Any, group: list | None) -> Truth:
        """A predicate over a query or a pattern, which only one language has."""
        raise SemanticsError(f"cannot evaluate predicate node {type(node).__name__}")

    # -- the shared rules ------------------------------------------------------

    def expression(self, node: Any, row: Any, group: list | None = None) -> Value:
        """``⟦E⟧``: the value of the expression *node* on *row* (and *group*)."""
        if isinstance(node, self.REFERENCES):
            return self.reference(node, row)
        if isinstance(node, Literal):
            return node.value
        if isinstance(node, BinaryOp):
            left = self.expression(node.left, row, group)
            right = self.expression(node.right, row, group)
            return apply_binary(node.op, left, right)
        if isinstance(node, Aggregate):
            if group is None:
                raise SemanticsError(f"aggregate {node} outside a GROUP BY output list")
            if node.argument is None:
                return count_rows(len(group))
            values = [self.expression(node.argument, member) for member in group]
            return combine(node.function, values, node.distinct)
        if isinstance(node, CastPredicate):
            verdict = self.predicate(node.predicate, row, group)
            if is_null(verdict):
                return NULL
            return 1 if verdict else 0
        raise SemanticsError(f"cannot evaluate expression node {type(node).__name__}")

    def predicate(self, node: Any, row: Any, group: list | None = None) -> Truth:
        """``⟦φ⟧``: the 3VL truth of the predicate *node* on *row* (and *group*)."""
        if isinstance(node, BoolLit):
            return node.value
        if isinstance(node, Comparison):
            left = self.expression(node.left, row, group)
            right = self.expression(node.right, row, group)
            return compare(node.op, left, right)
        if isinstance(node, IsNull):
            verdict = is_null(self.expression(node.operand, row, group))
            return (not verdict) if node.negated else verdict
        if isinstance(node, InValues):
            operand = self.expression(node.operand, row, group)
            return membership((operand,), zip(node.values))
        if isinstance(node, And):
            return sql_and(
                self.predicate(node.left, row, group),
                self.predicate(node.right, row, group),
            )
        if isinstance(node, Or):
            return sql_or(
                self.predicate(node.left, row, group),
                self.predicate(node.right, row, group),
            )
        if isinstance(node, Not):
            return sql_not(self.predicate(node.operand, row, group))
        return self.subquery(node, row, group)
