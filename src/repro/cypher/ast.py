"""Featherweight Cypher abstract syntax (paper Figure 9).

The grammar::

    Query      Q  ::= R | OrderBy(R, k, b) | Union(Q, Q) | UnionAll(Q, Q)
    ReturnQ    R  ::= Return(C, E*, k*)
    Clause     C  ::= Match(PP, phi) | Match(C, PP, phi)
                    | OptMatch(C, PP, phi) | With(C, X*, X*)
    PathPatt   PP ::= NP | NP, EP, PP
    NodePatt   NP ::= (X, l)        EdgePatt EP ::= (X, l, d)
    Expression E  ::= k | v | Cast(phi) | Agg(E) | E (+) E
    Predicate phi ::= T | F | E (.) E | IsNull(E) | E in v* | Exists(PP)
                    | phi and phi | phi or phi | not phi

Design notes:

* Property references are *qualified*: ``m.dname`` is
  ``PropertyRef("m", "dname")``.  The paper writes bare keys ``k`` but its
  examples always qualify, and qualification is required once two variables
  share a label (``c1``/``c2`` in the motivating example).
* ``Count(*)`` is ``Aggregate("Count", None)``.
* Directions follow the paper's ``d ∈ {→, ←, ↔}`` as :class:`Direction`.
* The expression and predicate forms SQL shares (literals, aggregates,
  arithmetic, ``Cast``, Boolean literals, comparisons, ``IsNull``, ``IN``
  lists and the connectives) are defined once, in
  :mod:`repro.common.expressions`, and imported here; this module defines
  only the forms Cypher alone has: the references and ``Exists``.

All nodes are frozen dataclasses so queries hash and compare structurally,
which the checkers and benchmark infrastructure rely on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from repro.common.expressions import (  # noqa: F401  (re-exported)
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
)

# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


class Direction(enum.Enum):
    """Edge-pattern direction ``d ∈ {→, ←, ↔}``."""

    OUT = "->"
    IN = "<-"
    BOTH = "--"


@dataclass(frozen=True)
class NodePattern:
    """``(X, l)``: bind variable *variable* to nodes labelled *label*."""

    variable: str
    label: str


@dataclass(frozen=True)
class EdgePattern:
    """``(X, l, d)``: bind *variable* to edges labelled *label*."""

    variable: str
    label: str
    direction: Direction


@dataclass(frozen=True)
class VarLengthEdgePattern:
    """``(X, l, d, lo..hi)`` — a variable-length relationship pattern.

    Surface forms: ``-[r:REL*]->`` (1 or more hops), ``-[r:REL*n]->``
    (exactly *n*), ``-[r:REL*lo..hi]->``, ``-[r:REL*lo..]->`` (unbounded
    above), ``-[r:REL*..hi]->`` (*lo* defaults to 1).  ``max_hops is None``
    encodes an unbounded upper bound.

    Semantics are *reachability* (endpoint-distinct): the pattern binds one
    row per distinct ``(head, last)`` node pair connected by a walk whose
    hop count lies in ``[min_hops, max_hops]``.  The edge variable names
    the whole traversal and is **not** a bindable element — referencing it
    in expressions is a semantic error (a list-valued binding is outside
    the featherweight value domain).
    """

    variable: str
    label: str
    direction: Direction
    min_hops: int = 1
    max_hops: int | None = None

    def __post_init__(self) -> None:
        if self.min_hops < 0:
            raise ValueError(f"variable-length pattern needs min_hops >= 0, got {self.min_hops}")
        if self.max_hops is not None and self.max_hops < self.min_hops:
            raise ValueError(
                f"variable-length pattern bounds are inverted: "
                f"*{self.min_hops}..{self.max_hops}"
            )

    @property
    def hops_text(self) -> str:
        """The surface spelling of the hop bounds (``*``, ``*2``, ``*1..3``, ...)."""
        if self.min_hops == 1 and self.max_hops is None:
            return "*"
        if self.max_hops is None:
            return f"*{self.min_hops}.."
        if self.max_hops == self.min_hops:
            return f"*{self.min_hops}"
        return f"*{self.min_hops}..{self.max_hops}"


#: Alternating node/edge pattern chain of odd length:
#: ``(NP,)`` or ``(NP, EP, NP, EP, NP, ...)``.
PathPattern = tuple[Union[NodePattern, EdgePattern, VarLengthEdgePattern], ...]


def path_pattern(*elements: NodePattern | EdgePattern | VarLengthEdgePattern) -> PathPattern:
    """Validate and build a path pattern from alternating node/edge patterns."""
    if not elements or len(elements) % 2 == 0:
        raise ValueError("path pattern must alternate nodes and edges, ending on a node")
    for index, element in enumerate(elements):
        if index % 2 == 0:
            if not isinstance(element, NodePattern):
                raise ValueError(
                    f"path pattern element {index} should be NodePattern, "
                    f"got {type(element).__name__}"
                )
        elif not isinstance(element, (EdgePattern, VarLengthEdgePattern)):
            raise ValueError(
                f"path pattern element {index} should be an edge pattern, "
                f"got {type(element).__name__}"
            )
    return tuple(elements)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyRef:
    """``X.k`` — the value of property key *key* on the element bound to *variable*."""

    variable: str
    key: str

    def __str__(self) -> str:
        return f"{self.variable}.{self.key}"


@dataclass(frozen=True)
class VariableRef:
    """``X`` — a bare variable, e.g. in ``Count(n)``.

    Evaluates to the element's default-property-key value (NULL when the
    variable is an unmatched optional binding), which is how the paper's
    Example 3.4 reads ``Count(n)`` as ``Count(n.id)``.
    """

    variable: str

    def __str__(self) -> str:
        return self.variable


Expression = Union[PropertyRef, VariableRef, Literal, Aggregate, BinaryOp, CastPredicate]


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exists:
    """``Exists(PP)`` — some match of the pattern (satisfying *predicate*)
    agrees with the current binding on shared variables (paper rule
    P-Exists; the optional predicate captures inline property constraints
    such as ``{CID: 1}``)."""

    pattern: PathPattern
    predicate: "Predicate" = TRUE

    def __str__(self) -> str:
        return f"EXISTS({pattern_text(self.pattern)} WHERE {self.predicate})"


Predicate = Union[BoolLit, Comparison, IsNull, InValues, Exists, And, Or, Not]


# ---------------------------------------------------------------------------
# Clauses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Match:
    """``Match(PP, φ)`` or ``Match(C, PP, φ)`` when *previous* is set."""

    pattern: PathPattern
    predicate: Predicate = TRUE
    previous: "Clause | None" = None

    def __str__(self) -> str:
        base = f"MATCH {pattern_text(self.pattern)} WHERE {self.predicate}"
        return f"{self.previous}\n{base}" if self.previous else base


@dataclass(frozen=True)
class OptMatch:
    """``OptMatch(C, PP, φ)`` — OPTIONAL MATCH extending a previous clause."""

    previous: "Clause"
    pattern: PathPattern
    predicate: Predicate = TRUE

    def __str__(self) -> str:
        return f"{self.previous}\nOPTIONAL MATCH {pattern_text(self.pattern)} WHERE {self.predicate}"


@dataclass(frozen=True)
class With:
    """``With(C, X̄, Ȳ)`` — keep only the listed variables, renamed old→new."""

    previous: "Clause"
    old_names: tuple[str, ...]
    new_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.old_names) != len(self.new_names):
            raise ValueError("With clause needs matching old/new name lists")

    def __str__(self) -> str:
        items = ", ".join(
            old if old == new else f"{old} AS {new}"
            for old, new in zip(self.old_names, self.new_names)
        )
        return f"{self.previous}\nWITH {items}"


Clause = Union[Match, OptMatch, With]


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Return:
    """``Return(C, Ē, k̄)`` — shape matched subgraphs into a table."""

    clause: Clause
    expressions: tuple[Expression, ...]
    names: tuple[str, ...]
    distinct: bool = False

    def __post_init__(self) -> None:
        if len(self.expressions) != len(self.names):
            raise ValueError("Return needs one output name per expression")
        if not self.expressions:
            raise ValueError("Return needs at least one expression")

    def __str__(self) -> str:
        items = ", ".join(
            f"{expr} AS {name}" for expr, name in zip(self.expressions, self.names)
        )
        keyword = "RETURN DISTINCT" if self.distinct else "RETURN"
        return f"{self.clause}\n{keyword} {items}"


@dataclass(frozen=True)
class OrderBy:
    """``OrderBy(R, k̄, b̄)`` — sort the rows of a return query."""

    query: "Query"
    keys: tuple[str, ...]
    ascending: tuple[bool, ...]
    limit: int | None = None

    def __post_init__(self) -> None:
        if len(self.keys) != len(self.ascending):
            raise ValueError("OrderBy needs one direction per key")

    def __str__(self) -> str:
        items = ", ".join(
            f"{key} {'ASC' if asc else 'DESC'}"
            for key, asc in zip(self.keys, self.ascending)
        )
        text = f"{self.query}\nORDER BY {items}"
        if self.limit is not None:
            text += f" LIMIT {self.limit}"
        return text


@dataclass(frozen=True)
class Union:
    """``Union(Q, Q)`` — duplicate-eliminating union."""

    left: "Query"
    right: "Query"

    def __str__(self) -> str:
        return f"{self.left}\nUNION\n{self.right}"


@dataclass(frozen=True)
class UnionAll:
    """``UnionAll(Q, Q)`` — bag union."""

    left: "Query"
    right: "Query"

    def __str__(self) -> str:
        return f"{self.left}\nUNION ALL\n{self.right}"


import typing as _typing  # noqa: E402  (the class `Union` shadows typing.Union above)

Query = _typing.Union[Return, OrderBy, Union, UnionAll]


def pattern_text(pattern: PathPattern) -> str:
    """Render a path pattern in surface syntax, e.g. ``(n:EMP)-[e:WORK_AT]->(m:DEPT)``.

    The single rendering used by both the ``__str__`` forms here and the
    pretty-printer (:mod:`repro.cypher.pretty`).
    """
    chunks: list[str] = []
    for element in pattern:
        if isinstance(element, NodePattern):
            chunks.append(f"({element.variable}:{element.label})")
        else:
            hops = element.hops_text if isinstance(element, VarLengthEdgePattern) else ""
            body = f"[{element.variable}:{element.label}{hops}]"
            arrow = {
                Direction.OUT: f"-{body}->",
                Direction.IN: f"<-{body}-",
                Direction.BOTH: f"-{body}-",
            }[element.direction]
            chunks.append(arrow)
    return "".join(chunks)
