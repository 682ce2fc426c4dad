"""Reference semantics for Featherweight Cypher (paper Appendix A).

A query maps a property graph to a table.  Clauses produce lists of
*bindings* — finite maps from pattern variables to graph elements (or NULL
for unmatched optional parts).  A binding is the executable form of the
paper's "subgraph with variable-indexed property map": the paper's
``(N, E, P, T)`` subgraphs key their property map by ``(X, k)`` pairs, which
is exactly a variable binding.

Expressions and predicates follow the rules both reference evaluators share
(:class:`repro.common.semantics.ExpressionSemantics`), per binding in
``WHERE`` and grouping keys, and over the group in an aggregating
``RETURN``.  This module supplies only what Cypher does its own way: a
reference reads an element of a binding, and ``EXISTS`` matches a pattern.

Two places where this implementation resolves ambiguities in the paper's
formalization (both resolved in favour of the SQL translation, whose
soundness theorem fixes the intended meaning — and both matching Neo4j):

* ``OPTIONAL MATCH`` whose pattern shares no variable with the current
  binding produces a cross product with the pattern's matches (the SQL
  left-outer-join behaviour) rather than always nullifying.
* ``EXISTS`` correlates the pattern with the enclosing binding on **shared
  variables** (by element identity) rather than on a key-based lookup of the
  head/last node's default property key.  When only the head/last variables
  are shared this coincides with rule P-Exists.
"""

from __future__ import annotations

from repro.common.aggregates import dedup, group_by
from repro.common.errors import SemanticsError
from repro.common.semantics import ExpressionSemantics
from repro.common.values import NULL, Truth, Value, order_rows
from repro.cypher import ast
from repro.cypher.analysis import (
    has_aggregate,
    pattern_bindable_variables,
    var_length_step_error,
)
from repro.graph.instance import Edge, Node, PropertyGraph
from repro.relational.instance import Row, Table

Element = Node | Edge


class Binding:
    """One match result: variable → element (or NULL), variable → label.

    The two maps are dicts that no one changes once the binding is built.
    Two bindings are equal when their maps are, in whatever order their
    variables were bound.
    """

    __slots__ = ("elements", "labels")

    def __init__(self, elements: dict[str, Element | None], labels: dict[str, str]) -> None:
        self.elements = elements
        self.labels = labels

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Binding)
            and self.elements == other.elements
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash(frozenset(self.elements.items()))

    def get(self, variable: str) -> Element | None:
        try:
            return self.elements[variable]
        except KeyError:
            raise SemanticsError(f"unbound pattern variable {variable!r}") from None

    def has(self, variable: str) -> bool:
        return variable in self.elements


def merge_bindings(left: Binding, right: Binding) -> Binding | None:
    """``merge(g1, g2)`` — union, or ``None`` if shared variables disagree.

    Agreement is element identity (uid); a NULL binding only agrees with
    another NULL binding of the same variable.
    """
    left_elements = left.elements
    for name, element in right.elements.items():
        if name in left_elements:
            existing = left_elements[name]
            if existing is None or element is None:
                if existing is not element:
                    return None
            elif existing.uid != element.uid:
                return None
    # A shared variable keeps the left element, and the right label.
    return Binding({**right.elements, **left_elements}, {**left.labels, **right.labels})


# ---------------------------------------------------------------------------
# Query evaluation
# ---------------------------------------------------------------------------


def evaluate_query(query: ast.Query, graph: PropertyGraph) -> Table:
    """``⟦Q⟧_G`` — evaluate a Featherweight Cypher query to a table."""
    if isinstance(query, ast.Return):
        return _eval_return(query, graph)
    if isinstance(query, ast.OrderBy):
        return _eval_order_by(query, graph)
    if isinstance(query, (ast.Union, ast.UnionAll)):
        left = evaluate_query(query.left, graph)
        right = evaluate_query(query.right, graph)
        return left.union(right, distinct=isinstance(query, ast.Union))
    raise SemanticsError(f"cannot evaluate query node {type(query).__name__}")


def _eval_return(query: ast.Return, graph: PropertyGraph) -> Table:
    rules = _Semantics(graph)
    bindings = evaluate_clause(query.clause, rules)
    attributes = tuple(query.names)
    if not any(has_aggregate(e) for e in query.expressions):
        rows = [
            tuple(rules.expression(expr, binding) for expr in query.expressions)
            for binding in bindings
        ]
    else:
        rows = _eval_aggregated_return(query, rules, bindings)
    if query.distinct:
        rows = dedup(rows)
    return Table(attributes, rows)


def _eval_aggregated_return(
    query: ast.Return, rules: _Semantics, bindings: list[Binding]
) -> list[Row]:
    """Grouping per Appendix A: group by the non-aggregate expressions."""
    grouping = [e for e in query.expressions if not has_aggregate(e)]
    groups = group_by(
        bindings,
        lambda binding: tuple(rules.expression(e, binding) for e in grouping),
    )
    return [
        tuple(rules.expression(expr, group[0], group) for expr in query.expressions)
        for group in groups.values()
    ]


def _eval_order_by(query: ast.OrderBy, graph: PropertyGraph) -> Table:
    inner = evaluate_query(query.query, graph)
    rows = order_rows(
        inner.rows,
        lambda row: [inner.value(row, name) for name in query.keys],
        query.ascending,
        query.limit,
    )
    return Table(inner.attributes, rows, ordered=True)


# ---------------------------------------------------------------------------
# Clause evaluation
# ---------------------------------------------------------------------------


def evaluate_clause(clause: ast.Clause, rules: _Semantics) -> list[Binding]:
    """``⟦C⟧_G`` — a clause maps the graph (``rules.graph``) to a list of
    bindings."""
    if isinstance(clause, ast.Match):
        return _eval_match(clause, rules)
    if isinstance(clause, ast.OptMatch):
        return _eval_opt_match(clause, rules)
    if isinstance(clause, ast.With):
        return _eval_with(clause, rules)
    raise SemanticsError(f"cannot evaluate clause node {type(clause).__name__}")


def _eval_match(clause: ast.Match, rules: _Semantics) -> list[Binding]:
    pattern_matches = match_pattern(clause.pattern, rules.graph)
    if clause.previous is None:
        candidates = pattern_matches
    else:
        previous = evaluate_clause(clause.previous, rules)
        candidates = []
        for left in previous:
            for right in pattern_matches:
                merged = merge_bindings(left, right)
                if merged is not None:
                    candidates.append(merged)
    return [
        binding
        for binding in candidates
        if rules.predicate(clause.predicate, binding) is True
    ]


def _eval_opt_match(clause: ast.OptMatch, rules: _Semantics) -> list[Binding]:
    previous = evaluate_clause(clause.previous, rules)
    pattern_matches = match_pattern(clause.pattern, rules.graph)
    # A variable-length edge variable is not bindable, so OPTIONAL MATCH
    # does not nullify it.
    pattern_vars = pattern_bindable_variables(clause.pattern)
    results: list[Binding] = []
    for left in previous:
        matched: list[Binding] = []
        for right in pattern_matches:
            merged = merge_bindings(left, right)
            if merged is not None and rules.predicate(clause.predicate, merged) is True:
                matched.append(merged)
        if matched:
            results.extend(matched)
        else:
            nullified_elements = dict(left.elements)
            nullified_labels = dict(left.labels)
            for variable, label in pattern_vars.items():
                if variable not in nullified_elements:
                    nullified_elements[variable] = None
                    nullified_labels[variable] = label
            results.append(Binding(nullified_elements, nullified_labels))
    return results


def _eval_with(clause: ast.With, rules: _Semantics) -> list[Binding]:
    previous = evaluate_clause(clause.previous, rules)
    results = []
    for binding in previous:
        elements: dict[str, Element | None] = {}
        labels: dict[str, str] = {}
        for old, new in zip(clause.old_names, clause.new_names):
            elements[new] = binding.get(old)
            labels[new] = binding.labels[old]
        results.append(Binding(elements, labels))
    return results


# ---------------------------------------------------------------------------
# Pattern matching
# ---------------------------------------------------------------------------


def match_pattern(pattern: ast.PathPattern, graph: PropertyGraph) -> list[Binding]:
    """``⟦PP⟧_G`` — all bindings of the pattern's variables."""
    if len(pattern) == 1:
        node_pattern = pattern[0]
        assert isinstance(node_pattern, ast.NodePattern)
        return [
            Binding({node_pattern.variable: node}, {node_pattern.variable: node_pattern.label})
            for node in graph.nodes_with_label(node_pattern.label)
        ]
    first, edge, *rest = pattern
    assert isinstance(first, ast.NodePattern)
    assert isinstance(edge, (ast.EdgePattern, ast.VarLengthEdgePattern))
    tail = tuple(rest)
    tail_matches = match_pattern(tail, graph)
    connector = tail[0]
    assert isinstance(connector, ast.NodePattern)
    if isinstance(edge, ast.VarLengthEdgePattern):
        steps = _match_var_length(first, edge, connector, graph)
    else:
        steps = _match_step(first, edge, connector, graph)
    results: list[Binding] = []
    for tail_binding in tail_matches:
        for step in steps:
            merged = merge_bindings(step, tail_binding)
            if merged is not None:
                results.append(merged)
    return results


def _match_step(
    left: ast.NodePattern,
    edge: ast.EdgePattern,
    right: ast.NodePattern,
    graph: PropertyGraph,
) -> list[Binding]:
    """``Subgraphs(G, [NP1, EP, NP2])`` — single-edge matches."""
    results: list[Binding] = []
    for candidate in graph.edges_with_label(edge.label):
        source = graph.source_of(candidate)
        target = graph.target_of(candidate)
        orientations: list[tuple[Node, Node]] = []
        if edge.direction in (ast.Direction.OUT, ast.Direction.BOTH):
            orientations.append((source, target))
        if edge.direction in (ast.Direction.IN, ast.Direction.BOTH):
            orientations.append((target, source))
        for left_node, right_node in orientations:
            if left_node.label != left.label or right_node.label != right.label:
                continue
            binding = Binding(
                {
                    left.variable: left_node,
                    edge.variable: candidate,
                    right.variable: right_node,
                },
                {
                    left.variable: left.label,
                    edge.variable: edge.label,
                    right.variable: right.label,
                },
            )
            results.append(binding)
    # A self-loop matched in both orientations binds the same subgraph twice.
    return dedup(results)


def _match_var_length(
    left: ast.NodePattern,
    edge: ast.VarLengthEdgePattern,
    right: ast.NodePattern,
    graph: PropertyGraph,
) -> list[Binding]:
    """``Subgraphs(G, [NP1, EP*lo..hi, NP2])`` — reachability matches.

    One binding per distinct ``(left, right)`` node pair connected by a
    walk of ``lo..hi`` hops along *edge*'s label and direction.  The
    frontier expansion is cycle-safe: it explores BFS states ``(node,
    capped depth)`` — depth saturates at ``max(lo, 1)`` when the upper
    bound is open — so it terminates on any graph, cyclic or not.
    """
    problem = var_length_step_error(left, edge, right, graph.schema)
    if problem is not None:
        raise SemanticsError(problem)
    adjacency: dict[int, list[int]] = {}
    for candidate in graph.edges_with_label(edge.label):
        if edge.direction in (ast.Direction.OUT, ast.Direction.BOTH):
            adjacency.setdefault(candidate.source_uid, []).append(candidate.target_uid)
        if edge.direction in (ast.Direction.IN, ast.Direction.BOTH):
            adjacency.setdefault(candidate.target_uid, []).append(candidate.source_uid)
    results: list[Binding] = []
    for start in graph.nodes_with_label(left.label):
        for uid in sorted(
            _reachable_uids(start.uid, adjacency, edge.min_hops, edge.max_hops)
        ):
            target = graph.node_by_uid(uid)
            if left.variable == right.variable:
                if target.uid != start.uid:
                    continue
                elements: dict[str, Element | None] = {left.variable: start}
                labels = {left.variable: left.label}
            else:
                elements = {left.variable: start, right.variable: target}
                labels = {left.variable: left.label, right.variable: right.label}
            results.append(Binding(elements, labels))
    return results


def _reachable_uids(
    start: int, adjacency: dict[int, list[int]], lo: int, hi: int | None
) -> set[int]:
    """Node uids connected to *start* by a walk of ``lo..hi`` hops."""
    qualified: set[int] = set()
    if lo == 0:
        qualified.add(start)
    if hi == 0:
        return qualified
    cap = max(lo, 1)  # saturation point for an open upper bound
    seen = {(start, 0)}
    frontier = [(start, 0)]
    while frontier:
        next_frontier: list[tuple[int, int]] = []
        for uid, depth in frontier:
            if hi is not None and depth >= hi:
                continue
            if hi is None:
                new_depth = depth + 1 if depth < cap else cap
            else:
                new_depth = depth + 1
            for successor in adjacency.get(uid, ()):
                state = (successor, new_depth)
                if state in seen:
                    continue
                seen.add(state)
                next_frontier.append(state)
                if new_depth >= lo:
                    qualified.add(successor)
        frontier = next_frontier
    return qualified


# ---------------------------------------------------------------------------
# Expressions and predicates
# ---------------------------------------------------------------------------


class _Semantics(ExpressionSemantics):
    """The shared E and φ rules over *graph*: a row is a :class:`Binding`,
    and ``EXISTS`` matches a pattern."""

    REFERENCES = (ast.PropertyRef, ast.VariableRef)

    def __init__(self, graph: PropertyGraph) -> None:
        self.graph = graph

    def reference(self, node: ast.PropertyRef | ast.VariableRef, binding: Binding) -> Value:
        """``X.k``, or a bare ``X`` read as its default property key; NULL for
        an unmatched optional binding."""
        element = binding.get(node.variable)
        if element is None:
            return NULL
        if isinstance(node, ast.PropertyRef):
            return element.value(node.key)
        return element.value(self.graph.type_of(element).default_key)

    def subquery(self, node: ast.Predicate, binding: Binding, group: list | None) -> Truth:
        """``Exists(PP)``: some pattern match agrees with *binding* on every
        shared variable (by element identity)."""
        if not isinstance(node, ast.Exists):
            return super().subquery(node, binding, group)
        shared = [
            element.variable
            for element in node.pattern
            if binding.has(element.variable)
        ]
        for match in match_pattern(node.pattern, self.graph):
            if self.predicate(node.predicate, match) is not True:
                continue
            agrees = True
            for variable in shared:
                outer_element = binding.get(variable)
                inner_element = match.get(variable)
                if outer_element is None or inner_element is None:
                    agrees = outer_element is inner_element
                else:
                    agrees = outer_element.uid == inner_element.uid
                if not agrees:
                    break
            if agrees:
                return True
        return False
