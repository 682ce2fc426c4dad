"""The expression and predicate forms Featherweight Cypher and Featherweight
SQL share (paper Figures 9–10).

Both languages write literals, aggregates, arithmetic, ``Cast``, Boolean
literals, comparisons, ``IsNull``, ``IN`` lists and ``AND``/``OR``/``NOT``
alike, and the transpiler maps each of these forms onto itself (Figures
21–22).  Each is defined here once; :mod:`repro.cypher.ast` and
:mod:`repro.sql.ast` import them and add only the forms one language has:
its references (``PropertyRef``/``VariableRef``, ``AttributeRef``), Cypher's
``Exists`` pattern and SQL's ``InQuery``/``ExistsQuery`` subqueries.  So
``repro.cypher.ast.Comparison is repro.sql.ast.Comparison``, and the shared
grammar, evaluator and rebuild reach these classes without knowing the
language.

Their child fields are listed here only: :data:`CHILDREN` reads them, and
:func:`rebuild`, the one structural rebuild over these forms, hands every
node that is not one of them to a leaf function.

All nodes are frozen dataclasses, so expressions hash and compare
structurally.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.common.values import Value

#: A child field holds a node of its language's ``Expression`` or
#: ``Predicate`` union (each AST module adds its references and
#: subqueries), so the shared forms type their children loosely.
Expression = typing.Any
Predicate = typing.Any

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    """A constant value ``v``."""

    value: Value

    def __str__(self) -> str:
        # The SQL parser names an unaliased output column with this text.
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return repr(self.value)


@dataclass(frozen=True)
class Aggregate:
    """``Agg(E)`` with ``Agg ∈ {Count, Avg, Sum, Min, Max}``.

    ``argument is None`` encodes ``Count(*)``; ``distinct`` covers
    ``Count(DISTINCT e)``.
    """

    function: str
    argument: Expression | None
    distinct: bool = False

    VALID = ("Count", "Avg", "Sum", "Min", "Max")

    def __post_init__(self) -> None:
        if self.function not in self.VALID:
            raise ValueError(f"unknown aggregate {self.function!r}")
        if self.argument is None and self.function != "Count":
            raise ValueError(f"{self.function}(*) is not well-formed")

    def __str__(self) -> str:
        inner = "*" if self.argument is None else str(self.argument)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.function}({inner})"


@dataclass(frozen=True)
class BinaryOp:
    """Arithmetic ``E ⊕ E`` with ``⊕ ∈ {+, -, *, /, %}``."""

    op: str
    left: Expression
    right: Expression

    VALID = ("+", "-", "*", "/", "%")

    def __post_init__(self) -> None:
        if self.op not in self.VALID:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class CastPredicate:
    """``Cast(φ)``: coerce a predicate to 1 / 0 / NULL."""

    predicate: Predicate

    def __str__(self) -> str:
        return f"Cast({self.predicate})"


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoolLit:
    """``⊤`` or ``⊥``."""

    value: bool

    def __str__(self) -> str:
        return "TRUE" if self.value else "FALSE"


TRUE = BoolLit(True)
FALSE = BoolLit(False)


@dataclass(frozen=True)
class Comparison:
    """``E ⊙ E`` with ``⊙ ∈ {=, <>, <, <=, >, >=}``."""

    op: str
    left: Expression
    right: Expression

    VALID = ("=", "<>", "<", "<=", ">", ">=")

    def __post_init__(self) -> None:
        if self.op not in self.VALID:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class IsNull:
    """``IsNull(E)``, or ``E IS NOT NULL`` when *negated*."""

    operand: Expression
    negated: bool = False

    def __str__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand} {suffix}"


@dataclass(frozen=True)
class InValues:
    """``E ∈ v̄`` — membership in a literal list."""

    operand: Expression
    values: tuple[Value, ...]

    def __str__(self) -> str:
        return f"{self.operand} IN {list(self.values)!r}"


@dataclass(frozen=True)
class And:
    left: Predicate
    right: Predicate

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@dataclass(frozen=True)
class Or:
    left: Predicate
    right: Predicate

    def __str__(self) -> str:
        return f"({self.left} OR {self.right})"


@dataclass(frozen=True)
class Not:
    operand: Predicate

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


# ---------------------------------------------------------------------------
# Walks
# ---------------------------------------------------------------------------


#: Shared form → its direct child nodes, in field declaration order.
CHILDREN: dict[type, typing.Callable[[typing.Any], tuple]] = {
    Literal: lambda e: (),
    Aggregate: lambda e: () if e.argument is None else (e.argument,),
    BinaryOp: lambda e: (e.left, e.right),
    CastPredicate: lambda e: (e.predicate,),
    BoolLit: lambda p: (),
    Comparison: lambda p: (p.left, p.right),
    IsNull: lambda p: (p.operand,),
    InValues: lambda p: (p.operand,),
    And: lambda p: (p.left, p.right),
    Or: lambda p: (p.left, p.right),
    Not: lambda p: (p.operand,),
}


def has_aggregate(expression: Expression) -> bool:
    """``hasAgg(E)`` from the translation rules: an aggregate reached through
    arithmetic alone (a ``Cast`` predicate is not looked into)."""
    if isinstance(expression, Aggregate):
        return True
    if isinstance(expression, BinaryOp):
        return has_aggregate(expression.left) or has_aggregate(expression.right)
    return False


def conjuncts(predicate: Predicate) -> list[Predicate]:
    """Flatten a conjunction into its list of conjuncts, dropping ``TRUE``
    (``TRUE`` → ``[]``)."""
    if isinstance(predicate, And):
        return conjuncts(predicate.left) + conjuncts(predicate.right)
    return [] if predicate == TRUE else [predicate]


def conjoin(predicates: typing.Iterable[Predicate]) -> Predicate:
    """Left-deep conjunction of *predicates*, dropping ``TRUE`` operands
    (none left → ``TRUE``)."""
    result = TRUE
    for predicate in predicates:
        if predicate != TRUE:
            result = predicate if result == TRUE else And(result, predicate)
    return result


Leaf = typing.Callable[[typing.Any], typing.Any]


def rebuild(node: typing.Any, leaf: Leaf) -> typing.Any:
    """Rebuild the expression or predicate *node*, with ``leaf(n)`` in place
    of every node ``n`` under it that is not a form of this module (a
    reference, a subquery, Cypher's ``Exists``); *leaf* does not see what
    is under ``n``.

    Returns ``None`` when *leaf* does.  When every leaf comes back as the
    very same object, so does *node*: a walk that changes nothing allocates
    nothing, and callers test for change with ``is``.  A leaf costs one
    table lookup before *leaf* runs.
    """
    step = _STEPS.get(node.__class__)
    if step is None:
        return leaf(node)
    return step(node, leaf)


def _unchanged(node, leaf):
    return node


def _operator(node, leaf):
    left = rebuild(node.left, leaf)
    if left is None:
        return None
    right = rebuild(node.right, leaf)
    if right is None:
        return None
    if left is node.left and right is node.right:
        return node
    return node.__class__(node.op, left, right)


def _connective(node, leaf):
    left = rebuild(node.left, leaf)
    if left is None:
        return None
    right = rebuild(node.right, leaf)
    if right is None:
        return None
    if left is node.left and right is node.right:
        return node
    return node.__class__(left, right)


def _aggregate(node, leaf):
    if node.argument is None:
        return node
    argument = rebuild(node.argument, leaf)
    if argument is None:
        return None
    if argument is node.argument:
        return node
    return Aggregate(node.function, argument, node.distinct)


def _cast(node, leaf):
    predicate = rebuild(node.predicate, leaf)
    if predicate is None:
        return None
    if predicate is node.predicate:
        return node
    return CastPredicate(predicate)


def _is_null(node, leaf):
    operand = rebuild(node.operand, leaf)
    if operand is None:
        return None
    if operand is node.operand:
        return node
    return IsNull(operand, node.negated)


def _in_values(node, leaf):
    operand = rebuild(node.operand, leaf)
    if operand is None:
        return None
    if operand is node.operand:
        return node
    return InValues(operand, node.values)


def _not(node, leaf):
    operand = rebuild(node.operand, leaf)
    if operand is None:
        return None
    if operand is node.operand:
        return node
    return Not(operand)


#: Shared form → how :func:`rebuild` rebuilds it; every other class is a leaf.
_STEPS: dict[type, typing.Callable[[typing.Any, Leaf], typing.Any]] = {
    Literal: _unchanged,
    BoolLit: _unchanged,
    Aggregate: _aggregate,
    BinaryOp: _operator,
    Comparison: _operator,
    CastPredicate: _cast,
    IsNull: _is_null,
    InValues: _in_values,
    And: _connective,
    Or: _connective,
    Not: _not,
}
