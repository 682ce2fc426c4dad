"""Conjunctive-query normal form for the deductive verifier.

The Mediator-style backend (paper Section 6.2) supports the
aggregation-free, outer-join-free SQL fragment.  Queries in that fragment
normalise to *unions of conjunctive queries* (UCQs):

    CQ = (atoms, conditions, head, distinct)

* ``atoms`` — bag of relational atoms ``R(t1, ..., tn)`` over variables and
  constants (the tableau);
* ``conditions`` — non-equality constraints (``<``, ``<=``, ``<>``,
  ``IS [NOT] NULL``) kept as normalised triples;
* ``head`` — output terms, possibly arithmetic expression trees;
* ``distinct`` — set semantics flag (``SELECT DISTINCT`` / ``UNION``).

Equalities are eliminated eagerly: variable/variable equalities merge
equivalence classes (union-find), variable/constant equalities substitute.
Constructs outside the fragment raise :class:`UnsupportedError`, which the
deductive checker converts into an ``UNSUPPORTED`` verdict — exactly how the
paper reports Mediator's fragment (196 of 410 benchmarks supported).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, replace
from itertools import count

from repro.common.errors import SemanticsError, UnsupportedError
from repro.common.values import Value
from repro.relational.schema import RelationalSchema
from repro.sql import ast
from repro.sql.analysis import resolve_attribute

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """A tableau variable (identified by an integer id)."""

    id: int

    def __str__(self) -> str:
        return f"x{self.id}"


@dataclass(frozen=True)
class Const:
    """A constant term."""

    value: Value

    def __str__(self) -> str:
        return repr(self.value)


Term = typing.Union[Var, Const]


@dataclass(frozen=True)
class Expr:
    """An arithmetic head expression over terms (op, operands)."""

    op: str
    operands: tuple["HeadTerm", ...]

    def __str__(self) -> str:
        return f"({f' {self.op} '.join(str(o) for o in self.operands)})"


HeadTerm = typing.Union[Var, Const, Expr]


@dataclass(frozen=True)
class Atom:
    """``R(t1, ..., tn)``."""

    relation: str
    terms: tuple[Term, ...]

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(str(t) for t in self.terms)})"


@dataclass(frozen=True)
class Condition:
    """A normalised non-equality constraint.

    ``op`` ∈ {"<", "<=", "<>", "isnull", "isnotnull"}; ``right`` is ``None``
    for the unary null tests.  ``<``/``<=`` orient left-to-right; ``>`` and
    ``>=`` are normalised by swapping.  ``<>`` keeps the operand order it
    was written in; :meth:`key` reads its operands as an unordered pair, so
    compare conditions through it.
    """

    op: str
    left: Term
    right: Term | None = None

    def key(self) -> tuple:
        """Equal for two conditions that state the same constraint."""
        if self.op == "<>":
            return (self.op, frozenset((self.left, self.right)))
        return (self.op, self.left, self.right)

    def __str__(self) -> str:
        if self.right is None:
            return f"{self.op}({self.left})"
        return f"{self.left} {self.op} {self.right}"


@dataclass
class ConjunctiveQuery:
    """One disjunct of a UCQ in tableau form."""

    atoms: list[Atom]
    conditions: list[Condition]
    head: list[HeadTerm]
    distinct: bool = False

    def __str__(self) -> str:
        atoms = ", ".join(str(a) for a in self.atoms)
        conditions = ", ".join(str(c) for c in self.conditions)
        head = ", ".join(str(t) for t in self.head)
        parts = [f"head({head}) :- {atoms}"]
        if conditions:
            parts.append(f"where {conditions}")
        if self.distinct:
            parts.append("[set]")
        return " ".join(parts)


def expr_vars(term: HeadTerm) -> set[Var]:
    if isinstance(term, Var):
        return {term}
    if isinstance(term, Expr):
        out: set[Var] = set()
        for operand in term.operands:
            out |= expr_vars(operand)
        return out
    return set()


# ---------------------------------------------------------------------------
# Normalisation
# ---------------------------------------------------------------------------


@dataclass
class _Block:
    """Intermediate result: a CQ plus its column naming."""

    columns: list[str]
    head: list[HeadTerm]
    atoms: list[Atom]
    conditions: list[Condition]

    def resolve(self, name: str) -> HeadTerm:
        try:
            column = resolve_attribute(name, self.columns)
        except SemanticsError:
            raise UnsupportedError(f"ambiguous attribute {name!r} in tableau") from None
        if column is None:
            raise UnsupportedError(f"unknown attribute {name!r} in tableau")
        return self.head[self.columns.index(column)]


class Normalizer:
    """Lowers Featherweight SQL (the supported fragment) into UCQs."""

    def __init__(self, schema: RelationalSchema) -> None:
        self.schema = schema
        self._fresh = count(1)

    def fresh(self) -> Var:
        return Var(next(self._fresh))

    # -- queries -----------------------------------------------------------

    def normalize(self, query: ast.Query) -> list[ConjunctiveQuery]:
        """Normalise *query* to a union (bag) of conjunctive queries."""
        blocks, distinct = self._query(query, {})
        out = []
        for block in blocks:
            out.append(
                ConjunctiveQuery(
                    atoms=block.atoms,
                    conditions=block.conditions,
                    head=list(block.head),
                    distinct=distinct,
                )
            )
        return out

    def _query(
        self, query: ast.Query, ctes: dict[str, tuple[list[_Block], bool]]
    ) -> tuple[list[_Block], bool]:
        if isinstance(query, ast.Relation):
            return [self._relation_block(query.name, ctes)], False
        if isinstance(query, ast.Renaming):
            blocks, distinct = self._query(query.query, ctes)
            renamed = [
                replace(b, columns=[ast.qualify(query.name, c) for c in b.columns])
                for b in blocks
            ]
            return renamed, distinct
        if isinstance(query, ast.Selection):
            blocks, distinct = self._query(query.query, ctes)
            return [self._apply_predicate(b, query.predicate) for b in blocks], distinct
        if isinstance(query, ast.Projection):
            blocks, distinct = self._query(query.query, ctes)
            projected = [self._project(b, query.columns) for b in blocks]
            return projected, distinct or query.distinct
        if isinstance(query, ast.Join):
            return self._join(query, ctes)
        if isinstance(query, ast.UnionOp):
            left, left_distinct = self._query(query.left, ctes)
            right, right_distinct = self._query(query.right, ctes)
            if not query.all:
                return left + right, True
            if left_distinct or right_distinct:
                raise UnsupportedError("UNION ALL over DISTINCT operands")
            return left + right, False
        if isinstance(query, ast.WithQuery):
            definition = self._query(query.definition, ctes)
            extended = dict(ctes)
            extended[query.name] = definition
            return self._query(query.body, extended)
        if isinstance(query, ast.GroupBy):
            raise UnsupportedError("aggregation (GROUP BY) is outside the fragment")
        if isinstance(query, ast.OrderBy):
            raise UnsupportedError("ORDER BY is outside the fragment")
        raise UnsupportedError(f"unsupported query node {type(query).__name__}")

    def _relation_block(
        self, name: str, ctes: dict[str, tuple[list[_Block], bool]]
    ) -> _Block:
        if name in ctes:
            blocks, distinct = ctes[name]
            if distinct or len(blocks) != 1:
                raise UnsupportedError("CTE with union/distinct body inside a join")
            block = blocks[0]
            return self._instantiate(block)
        relation = self.schema.relation(name)
        variables: list[HeadTerm] = [self.fresh() for _ in relation.attributes]
        atom = Atom(name, tuple(variables))  # type: ignore[arg-type]
        return _Block(
            columns=list(relation.attributes),
            head=variables,
            atoms=[atom],
            conditions=[],
        )

    def _instantiate(self, block: _Block) -> _Block:
        """Copy a block with fresh variables (CTE reuse safety)."""
        renamed: dict[Var, Var] = {}

        def rename(variable: Var) -> Var:
            if variable not in renamed:
                renamed[variable] = self.fresh()
            return renamed[variable]

        return map_terms(block, rename)

    def _join(
        self, query: ast.Join, ctes: dict[str, tuple[list[_Block], bool]]
    ) -> tuple[list[_Block], bool]:
        if query.kind in (ast.JoinKind.LEFT, ast.JoinKind.RIGHT, ast.JoinKind.FULL):
            raise UnsupportedError("outer joins are outside the fragment")
        left_blocks, left_distinct = self._query(query.left, ctes)
        right_blocks, right_distinct = self._query(query.right, ctes)
        if left_distinct or right_distinct:
            raise UnsupportedError("join over DISTINCT operands")
        out: list[_Block] = []
        for left in left_blocks:
            for right in right_blocks:
                if not set(left.columns).isdisjoint(right.columns):
                    # The reference semantics (``_eval_join``) reject it.
                    raise UnsupportedError(
                        "join would produce duplicate attribute names"
                    )
                combined = _Block(
                    columns=left.columns + right.columns,
                    head=left.head + right.head,
                    atoms=left.atoms + right.atoms,
                    conditions=left.conditions + right.conditions,
                )
                if query.kind is ast.JoinKind.INNER:
                    combined = self._apply_predicate(combined, query.predicate)
                out.append(combined)
        return out, False

    def _project(self, block: _Block, columns: tuple[ast.OutputColumn, ...]) -> _Block:
        head = [self._expression(c.expression, block) for c in columns]
        return replace(block, columns=[c.alias for c in columns], head=head)

    # -- predicates ----------------------------------------------------------

    def _apply_predicate(self, block: _Block, predicate: ast.Predicate) -> _Block:
        for conjunct in ast.conjuncts(predicate):
            block = self._apply_atomic(block, conjunct)
        return block

    def _apply_atomic(self, block: _Block, predicate: ast.Predicate) -> _Block:
        if isinstance(predicate, ast.BoolLit):
            if predicate.value:
                return block
            raise UnsupportedError("constant-FALSE predicates are outside the fragment")
        if isinstance(predicate, ast.Comparison):
            return self._apply_comparison(block, predicate.op, predicate.left, predicate.right)
        if isinstance(predicate, ast.Not):
            inner = predicate.operand
            if isinstance(inner, ast.Comparison):
                negated = _negate_comparison(inner.op)
                return self._apply_comparison(block, negated, inner.left, inner.right)
            if isinstance(inner, ast.IsNull):
                return self._apply_isnull(block, inner.operand, not inner.negated)
            raise UnsupportedError("NOT over non-comparison predicates")
        if isinstance(predicate, ast.IsNull):
            return self._apply_isnull(block, predicate.operand, predicate.negated)
        if isinstance(predicate, ast.InValues):
            if len(predicate.values) == 1:
                return self._apply_comparison(
                    block, "=", predicate.operand, ast.Literal(predicate.values[0])
                )
            raise UnsupportedError("multi-value IN is outside the fragment")
        if isinstance(predicate, (ast.InQuery, ast.ExistsQuery)):
            raise UnsupportedError("subquery predicates are outside the fragment")
        if isinstance(predicate, ast.Or):
            raise UnsupportedError("disjunctive predicates are outside the fragment")
        raise UnsupportedError(
            f"unsupported predicate node {type(predicate).__name__}"
        )

    def _apply_comparison(
        self, block: _Block, op: str, left: ast.Expression, right: ast.Expression
    ) -> _Block:
        left_term = self._expression(left, block)
        right_term = self._expression(right, block)
        if op == "=":
            if isinstance(left_term, Expr) or isinstance(right_term, Expr):
                raise UnsupportedError(
                    "equalities over arithmetic are outside the fragment"
                )
            return _unify(block, left_term, right_term)
        if op in (">", ">="):
            op = "<" if op == ">" else "<="
            left_term, right_term = right_term, left_term
        if isinstance(left_term, Expr) or isinstance(right_term, Expr):
            raise UnsupportedError("inequalities over arithmetic are outside the fragment")
        return _with_condition(block, Condition(op, left_term, right_term))

    def _apply_isnull(self, block: _Block, operand: ast.Expression, negated: bool) -> _Block:
        term = self._expression(operand, block)
        if isinstance(term, Expr):
            raise UnsupportedError("IS NULL over arithmetic is outside the fragment")
        op = "isnotnull" if negated else "isnull"
        return _with_condition(block, Condition(op, term))

    # -- expressions ----------------------------------------------------------

    def _expression(self, expression: ast.Expression, block: _Block) -> HeadTerm:
        if isinstance(expression, ast.AttributeRef):
            return block.resolve(expression.name)
        if isinstance(expression, ast.Literal):
            return Const(expression.value)
        if isinstance(expression, ast.BinaryOp):
            left = self._expression(expression.left, block)
            right = self._expression(expression.right, block)
            return Expr(expression.op, (left, right))
        if isinstance(expression, ast.Aggregate):
            raise UnsupportedError("aggregates are outside the fragment")
        raise UnsupportedError(
            f"unsupported expression node {type(expression).__name__}"
        )


# ---------------------------------------------------------------------------
# Block surgery
# ---------------------------------------------------------------------------


def _negate_comparison(op: str) -> str:
    return {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}[op]


def _unify(block: _Block, left: Term, right: Term) -> _Block:
    if isinstance(left, Const) and isinstance(right, Const):
        if left.value != right.value:
            raise UnsupportedError("contradictory constant equality")
        return block
    if isinstance(left, Const):
        left, right = right, left
    assert isinstance(left, Var)
    return substitute(block, left, right)


def _with_condition(block: _Block, condition: Condition) -> _Block:
    return replace(block, conditions=block.conditions + [condition])


# ---------------------------------------------------------------------------
# Renaming
# ---------------------------------------------------------------------------

Tableau = typing.TypeVar("Tableau", ConjunctiveQuery, _Block)


def map_terms(
    tableau: Tableau, variable: typing.Callable[[Var], Term | None]
) -> Tableau | None:
    """A copy of *tableau* with each variable ``v`` of its atoms, conditions
    and head (through ``Expr``) replaced by ``variable(v)``; ``None`` when
    ``variable`` returns ``None`` for any of them."""
    unmapped = False

    def term(t: HeadTerm) -> HeadTerm:
        nonlocal unmapped
        if isinstance(t, Var):
            mapped = variable(t)
            unmapped = unmapped or mapped is None
            return mapped
        if isinstance(t, Expr):
            return Expr(t.op, tuple(map(term, t.operands)))
        return t

    copy = replace(
        tableau,
        atoms=[Atom(a.relation, tuple(map(term, a.terms))) for a in tableau.atoms],
        conditions=[
            Condition(c.op, term(c.left), None if c.right is None else term(c.right))
            for c in tableau.conditions
        ],
        head=[term(t) for t in tableau.head],
    )
    return None if unmapped else copy


def substitute(tableau: Tableau, old: Var, new: Term) -> Tableau:
    """A copy of *tableau* with every occurrence of *old* replaced by *new*."""
    return map_terms(tableau, lambda v: new if v == old else v)
