"""Featherweight SQL abstract syntax (paper Figure 10).

The grammar::

    Query  Q ::= R | Pi_L(Q) | sigma_phi(Q) | rho_R(Q) | Q u Q | Q U+ Q | Q (x) Q
               | GroupBy(Q, E*, L, phi) | With(Q, R, Q) | OrderBy(Q, a, b)
    AttrList L ::= E | rho_a(E) | L, L
    AttrExpr E ::= a | v | Cast(phi) | Agg(E) | E (+) E
    Predicate phi ::= b | E (.) E | IsNull(E) | E in v* | E in Q
               | phi and phi | phi or phi | not phi
    JoinOp  (x) ::= cross | inner | left | right | full

Attribute naming convention: relation scans produce unqualified attributes;
``rho_T(Q)`` re-qualifies every output attribute to ``T.<flattened local
name>`` (dots in the old name become underscores; :func:`qualify`).
References resolve by exact match first, then by unique match of the
:func:`local_name` — mirroring SQL name resolution while keeping the
algebra purely positional-free (the lookup is
:func:`repro.sql.analysis.resolve_attribute`).  Every module that names or
finds an attribute calls these; none re-spells them.

All nodes are frozen dataclasses.  The expression and predicate forms
Cypher shares (literals, aggregates, arithmetic, ``Cast``, Boolean
literals, comparisons, ``IsNull``, ``IN`` lists and the connectives) are
defined once, in :mod:`repro.common.expressions`, and imported here; this
module defines only the forms SQL alone has: ``AttributeRef`` and the
``InQuery``/``ExistsQuery`` subqueries.

Which fields of a node are its children is written down in this module
only (in :mod:`repro.common.expressions` for the shared forms):
:func:`map_children` and :func:`map_predicate` rebuild queries,
:func:`map_refs` rebuilds expressions and predicates around their
attribute references (the shared ``rebuild`` with a leaf for the SQL-only
forms), and :func:`children` reads the children of any node.
"""

from __future__ import annotations

import enum
import functools
import typing
from dataclasses import dataclass

from repro.common.expressions import (  # noqa: F401  (re-exported)
    CHILDREN,
    FALSE,
    TRUE,
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
    conjoin,
    conjuncts,
    rebuild,
)

# ---------------------------------------------------------------------------
# Attribute expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttributeRef:
    """``a`` — a (possibly qualified) attribute reference like ``c2.CID``."""

    name: str

    def __str__(self) -> str:
        return self.name

    @property
    def local_name(self) -> str:
        """The unqualified trailing component of the reference."""
        return local_name(self.name)


Expression = typing.Union[AttributeRef, Literal, Aggregate, BinaryOp, CastPredicate]


@dataclass(frozen=True)
class OutputColumn:
    """``ρ_a(E)`` — one projection-list entry with its output name."""

    alias: str
    expression: Expression

    def __str__(self) -> str:
        return f"{self.expression} AS {self.alias}"


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InQuery:
    """``Ē ∈ Q`` — (tuple) membership in a subquery's result bag.

    The paper's rule P-Exists produces a two-attribute membership test, so
    the left side is a tuple of expressions matched positionally against the
    subquery's output columns.
    """

    operands: tuple[Expression, ...]
    query: "Query"
    negated: bool = False

    def __str__(self) -> str:
        left = ", ".join(str(e) for e in self.operands)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({left}) {keyword} (<subquery>)"


@dataclass(frozen=True)
class ExistsQuery:
    """``EXISTS (Q)`` — non-emptiness of a (possibly correlated) subquery."""

    query: "Query"
    negated: bool = False

    def __str__(self) -> str:
        keyword = "NOT EXISTS" if self.negated else "EXISTS"
        return f"{keyword} (<subquery>)"


Predicate = typing.Union[
    BoolLit, Comparison, IsNull, InValues, InQuery, ExistsQuery, And, Or, Not
]


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


class JoinKind(enum.Enum):
    """``⊗ ::= × | ⋈ | ⟕ | ⟖ | ⟗``."""

    CROSS = "CROSS"
    INNER = "INNER"
    LEFT = "LEFT"
    RIGHT = "RIGHT"
    FULL = "FULL"


@dataclass(frozen=True)
class Relation:
    """``R`` — a base-relation scan."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Projection:
    """``Π_L(Q)``."""

    query: "Query"
    columns: tuple[OutputColumn, ...]
    distinct: bool = False

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("projection needs at least one output column")


@dataclass(frozen=True)
class Selection:
    """``σ_φ(Q)``."""

    query: "Query"
    predicate: Predicate


@dataclass(frozen=True)
class Renaming:
    """``ρ_T(Q)`` — re-qualify every output attribute under prefix *name*."""

    name: str
    query: "Query"


@dataclass(frozen=True)
class Join:
    """``Q ⊗_φ Q``; the predicate is ignored for cross joins."""

    kind: JoinKind
    left: "Query"
    right: "Query"
    predicate: Predicate = TRUE


@dataclass(frozen=True)
class UnionOp:
    """``Q ∪ Q`` (set) or ``Q ⊎ Q`` (bag) depending on *all*."""

    left: "Query"
    right: "Query"
    all: bool = False


@dataclass(frozen=True)
class GroupBy:
    """``GroupBy(Q, Ē, L, φ)`` — group, aggregate, and filter with HAVING.

    Grouping by the empty key list partitions each row into the single
    group of its (empty) key tuple; on empty input there are **no** groups,
    matching the paper's Cypher aggregation semantics (Appendix A) rather
    than SQL's one-row global aggregate.  This keeps the two reference
    evaluators aligned, which is what equivalence checking requires.
    """

    query: "Query"
    keys: tuple[Expression, ...]
    columns: tuple[OutputColumn, ...]
    having: Predicate = TRUE


@dataclass(frozen=True)
class WithQuery:
    """``With(Q1, R, Q2)`` — bind *name* to ``Q1`` while evaluating ``Q2``."""

    name: str
    definition: "Query"
    body: "Query"


@dataclass(frozen=True)
class OrderBy:
    """``OrderBy(Q, ā, b̄)`` — sort; output is order-sensitive (Def 4.4 fn. 4)."""

    query: "Query"
    keys: tuple[Expression, ...]
    ascending: tuple[bool, ...]
    limit: int | None = None

    def __post_init__(self) -> None:
        if len(self.keys) != len(self.ascending):
            raise ValueError("OrderBy needs one direction per key")


@dataclass(frozen=True)
class ReachInfo:
    """Traversal metadata a :class:`RecursiveQuery` may carry.

    The transpiler attaches it to the fixpoints it builds for
    variable-length relationship patterns, recording enough structure for
    the cost-based planner to rewrite the recursion into an equivalent
    bounded unrolling (a UNION of k-hop join chains) without re-deriving
    it from the algebra:

    * *edge_table* / *fanout_columns* — the scanned edge relation and the
      column(s) a hop fans out over (``SRC``, ``TGT``, or both for
      undirected traversal), used for cardinality estimation;
    * *hop_relation* — the name of the sibling CTE holding the oriented
      one-hop ``(src, tgt)`` pairs, which unrolled join chains rescan;
    * *min_hops* / *max_hops* — the hop bounds (``None`` = unbounded, in
      which case unrolling is impossible).
    """

    edge_table: str
    hop_relation: str
    fanout_columns: tuple[str, ...]
    min_hops: int
    max_hops: int | None


@dataclass(frozen=True)
class RecursiveQuery:
    """``WithRec(R, Q_base, Q_step, Q_body)`` — a recursive CTE.

    Binds *name* to the fixpoint of ``base ∪ step`` (``∪`` is bag union
    when *union_all*, else distinct union — the cycle-safe default) while
    evaluating *body*; *step* and *body* reference the binding as
    ``Relation(name)``.  Evaluation follows the SQL engines' queue
    semantics: each round the step sees only the rows the previous round
    added.  Rendered as ``WITH RECURSIVE name(columns) AS (base UNION
    step) body``.
    """

    name: str
    columns: tuple[str, ...]
    base: "Query"
    step: "Query"
    body: "Query"
    union_all: bool = False
    reach: "ReachInfo | None" = None

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("recursive query needs at least one column")


Query = typing.Union[
    Relation,
    Projection,
    Selection,
    Renaming,
    Join,
    UnionOp,
    GroupBy,
    WithQuery,
    OrderBy,
    RecursiveQuery,
]


def map_children(
    query: Query,
    query_fn: typing.Callable[["Query"], "Query"],
    predicate_fn: typing.Callable[["Predicate"], "Predicate"] | None = None,
) -> Query:
    """Rebuild *query* with *query_fn* applied to each direct child query
    (and *predicate_fn*, when given, to each attached predicate).

    The structural-recursion helper behind the optimizer's rewrite,
    planning, and pruning passes.  When every child (and attached
    predicate) comes back as the very same object, *query* itself is
    returned, so a walk that changes nothing allocates nothing and callers
    can test for change with ``is``.  Leaf nodes (``Relation``) are returned
    unchanged.

    A new node type needs an entry in ``_CHILDREN`` (read by
    :func:`children`), plus a branch here when it is a ``Query``; one only
    SQL has that is an expression or a predicate is a leaf that
    :func:`map_refs` handles.  A form both languages have is defined in
    :mod:`repro.common.expressions`, with its ``CHILDREN`` entry and its
    :func:`~repro.common.expressions.rebuild` step.
    """
    if isinstance(query, Relation):
        return query
    if isinstance(query, Projection):
        child = query_fn(query.query)
        if child is query.query:
            return query
        return Projection(child, query.columns, query.distinct)
    if isinstance(query, Selection):
        child = query_fn(query.query)
        predicate = query.predicate if predicate_fn is None else predicate_fn(query.predicate)
        if child is query.query and predicate is query.predicate:
            return query
        return Selection(child, predicate)
    if isinstance(query, Renaming):
        child = query_fn(query.query)
        if child is query.query:
            return query
        return Renaming(query.name, child)
    if isinstance(query, Join):
        left = query_fn(query.left)
        right = query_fn(query.right)
        predicate = query.predicate if predicate_fn is None else predicate_fn(query.predicate)
        if left is query.left and right is query.right and predicate is query.predicate:
            return query
        return Join(query.kind, left, right, predicate)
    if isinstance(query, UnionOp):
        left = query_fn(query.left)
        right = query_fn(query.right)
        if left is query.left and right is query.right:
            return query
        return UnionOp(left, right, query.all)
    if isinstance(query, GroupBy):
        child = query_fn(query.query)
        having = query.having if predicate_fn is None else predicate_fn(query.having)
        if child is query.query and having is query.having:
            return query
        return GroupBy(child, query.keys, query.columns, having)
    if isinstance(query, WithQuery):
        definition = query_fn(query.definition)
        body = query_fn(query.body)
        if definition is query.definition and body is query.body:
            return query
        return WithQuery(query.name, definition, body)
    if isinstance(query, OrderBy):
        child = query_fn(query.query)
        if child is query.query:
            return query
        return OrderBy(child, query.keys, query.ascending, query.limit)
    if isinstance(query, RecursiveQuery):
        base = query_fn(query.base)
        step = query_fn(query.step)
        body = query_fn(query.body)
        if base is query.base and step is query.step and body is query.body:
            return query
        return RecursiveQuery(
            query.name, query.columns, base, step, body, query.union_all, query.reach
        )
    return query


def map_predicate(
    predicate: Predicate,
    query_fn: typing.Callable[["Query"], "Query"],
    predicate_fn: typing.Callable[["Predicate"], "Predicate"] | None = None,
) -> Predicate:
    """Rebuild *predicate* with *query_fn* applied to the subquery of every
    ``InQuery``/``ExistsQuery`` reachable through ``And``, ``Or`` and
    ``Not`` — the predicate counterpart of :func:`map_children`, with the
    same contract: *predicate* itself comes back when nothing under it
    changed.

    *predicate_fn*, when given, is applied to the direct operands of a
    connective instead of this recursion, so a rewrite can act at every
    connective on the way up.  Atoms (comparisons, ``IsNull``, ``InValues``,
    Boolean literals) are returned unchanged.
    """
    if isinstance(predicate, (And, Or, Not)):
        if predicate_fn is None:
            predicate_fn = functools.partial(map_predicate, query_fn=query_fn)
        if isinstance(predicate, Not):
            operand = predicate_fn(predicate.operand)
            return predicate if operand is predicate.operand else Not(operand)
        left = predicate_fn(predicate.left)
        right = predicate_fn(predicate.right)
        if left is predicate.left and right is predicate.right:
            return predicate
        return type(predicate)(left, right)
    if isinstance(predicate, InQuery):
        query = query_fn(predicate.query)
        if query is predicate.query:
            return predicate
        return InQuery(predicate.operands, query, predicate.negated)
    if isinstance(predicate, ExistsQuery):
        query = query_fn(predicate.query)
        if query is predicate.query:
            return predicate
        return ExistsQuery(query, predicate.negated)
    return predicate


#: Node type → its direct child nodes, in field declaration order; the
#: columns of a projection or aggregation contribute their expressions.
_CHILDREN: dict[type, typing.Callable[[typing.Any], tuple]] = {
    **CHILDREN,
    Relation: lambda q: (),
    Projection: lambda q: (q.query, *[c.expression for c in q.columns]),
    Selection: lambda q: (q.query, q.predicate),
    Renaming: lambda q: (q.query,),
    Join: lambda q: (q.left, q.right, q.predicate),
    UnionOp: lambda q: (q.left, q.right),
    GroupBy: lambda q: (q.query, *q.keys, *[c.expression for c in q.columns], q.having),
    WithQuery: lambda q: (q.definition, q.body),
    OrderBy: lambda q: (q.query, *q.keys),
    RecursiveQuery: lambda q: (q.base, q.step, q.body),
    AttributeRef: lambda e: (),
    InQuery: lambda p: (*p.operands, p.query),
    ExistsQuery: lambda p: (p.query,),
}


def children(node: object) -> tuple:
    """The direct child nodes of any query, expression or predicate.

    The read-only walk for analyses that only need to reach every node
    (sizes, scanned relations, feature tests, constant seeding): a child
    query, expression or predicate is a child wherever it sits, subquery
    bodies included.  Raises ``TypeError`` for anything that is not a node.
    """
    get = _CHILDREN.get(type(node))
    if get is None:
        raise TypeError(f"not a SQL AST node: {type(node).__name__}")
    return get(node)


def map_refs(
    node: "Expression | Predicate",
    ref_fn: typing.Callable[[AttributeRef], "Expression | None"],
) -> "Expression | Predicate | None":
    """Rebuild the expression or predicate *node* with every
    ``AttributeRef`` replaced by ``ref_fn(ref)``.

    Returns ``None`` when *ref_fn* does, or when the walk reaches an
    ``InQuery``/``ExistsQuery``: a subquery may be correlated with the
    enclosing scope, so no reference map is safe across it.  Same identity
    contract as :func:`map_children`: *node* itself comes back when every
    reference under it did, so a *ref_fn* that records each reference and
    returns it collects references without allocating a node.
    """

    def leaf(node: object) -> "Expression | None":
        if isinstance(node, AttributeRef):
            return ref_fn(node)
        if isinstance(node, (InQuery, ExistsQuery)):
            return None
        raise TypeError(f"not a SQL expression or predicate: {type(node).__name__}")

    return rebuild(node, leaf)


def local_name(attribute: str) -> str:
    """The part of *attribute* after its last ``.`` (``T.c1_CID`` → ``c1_CID``):
    the name a reference may use when no attribute is named exactly so."""
    return attribute.rsplit(".", 1)[-1]


def qualify(alias: str, attribute: str) -> str:
    """The name ``ρ_alias`` gives *attribute*: ``alias.<attribute>`` with the
    attribute's own dots flattened to ``_`` (``qualify("T", "c1.CID")`` →
    ``T.c1_CID``), so the result has exactly one qualifier."""
    return f"{alias}.{attribute.replace('.', '_')}"


#: ``(alias, attributes)`` pairs :func:`qualify_all` keeps.  An alias is a
#: query variable, so the cache is bounded: texts keep bringing new ones.
QUALIFY_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=QUALIFY_CACHE_SIZE)
def qualify_all(alias: str, attributes: tuple[str, ...]) -> tuple[str, ...]:
    """:func:`qualify` of each of *attributes*, in order: what ``ρ_alias``
    outputs over a scan of a relation with *attributes*.  Those names
    follow from the variable and the schema alone, so they are computed
    once per pair, not once per node that reads them.  Callers pass a
    relation's declared attributes only, so no key holds a literal."""
    return tuple([qualify(alias, attribute) for attribute in attributes])


def columns_of(expressions: typing.Iterable[Expression], names: typing.Iterable[str]) -> tuple[OutputColumn, ...]:
    """Zip expressions and aliases into projection columns."""
    return tuple(OutputColumn(alias, expr) for alias, expr in zip(names, expressions))
