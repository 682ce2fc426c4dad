"""Reference semantics for Featherweight Cypher (paper Appendix A).

A query maps a property graph to a table.  Clauses produce lists of
*bindings* — finite maps from pattern variables to graph elements (or NULL
for unmatched optional parts).  A binding is the executable form of the
paper's "subgraph with variable-indexed property map": the paper's
``(N, E, P, T)`` subgraphs key their property map by ``(X, k)`` pairs, which
is exactly a variable binding.

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

from dataclasses import dataclass

from repro.common import arithmetic
from repro.common.aggregates import combine, count_rows, dedup, group_by
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
from repro.cypher import ast
from repro.cypher.analysis import (
    has_aggregate,
    pattern_bindable_variables,
    var_length_step_error,
)
from repro.graph.instance import Edge, Node, PropertyGraph
from repro.relational.instance import Row, Table

Element = Node | Edge


@dataclass(frozen=True)
class Binding:
    """One match result: variable → element (or NULL), variable → label."""

    elements: tuple[tuple[str, Element | None], ...]
    labels: tuple[tuple[str, str], ...]

    @classmethod
    def of(cls, elements: dict[str, Element | None], labels: dict[str, str]) -> "Binding":
        return cls(tuple(sorted(elements.items(), key=lambda kv: kv[0])),
                   tuple(sorted(labels.items(), key=lambda kv: kv[0])))

    @property
    def element_map(self) -> dict[str, Element | None]:
        return dict(self.elements)

    @property
    def label_map(self) -> dict[str, str]:
        return dict(self.labels)

    def variables(self) -> set[str]:
        return {name for name, _ in self.elements}

    def get(self, variable: str) -> Element | None:
        for name, element in self.elements:
            if name == variable:
                return element
        raise SemanticsError(f"unbound pattern variable {variable!r}")

    def has(self, variable: str) -> bool:
        return any(name == variable for name, _ in self.elements)


def merge_bindings(left: Binding, right: Binding) -> Binding | None:
    """``merge(g1, g2)`` — union, or ``None`` if shared variables disagree.

    Agreement is element identity (uid); a NULL binding only agrees with
    another NULL binding of the same variable.
    """
    left_map = left.element_map
    merged_elements = dict(left_map)
    merged_labels = left.label_map
    for name, element in right.elements:
        if name in left_map:
            existing = left_map[name]
            if existing is None or element is None:
                if existing is not element:
                    return None
            elif existing.uid != element.uid:
                return None
        else:
            merged_elements[name] = element
    merged_labels.update(right.label_map)
    return Binding.of(merged_elements, merged_labels)


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
    bindings = evaluate_clause(query.clause, graph)
    attributes = tuple(query.names)
    if not any(has_aggregate(e) for e in query.expressions):
        rows = [
            tuple(eval_expression(expr, graph, [binding]) for expr in query.expressions)
            for binding in bindings
        ]
    else:
        rows = _eval_aggregated_return(query, graph, bindings)
    if query.distinct:
        rows = dedup(rows)
    return Table(attributes, rows)


def _eval_aggregated_return(
    query: ast.Return, graph: PropertyGraph, bindings: list[Binding]
) -> list[Row]:
    """Grouping per Appendix A: group by the non-aggregate expressions."""
    grouping = [e for e in query.expressions if not has_aggregate(e)]
    groups = group_by(
        bindings,
        lambda binding: tuple(eval_expression(e, graph, [binding]) for e in grouping),
    )
    return [
        tuple(eval_expression(expr, graph, group) for expr in query.expressions)
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


def evaluate_clause(clause: ast.Clause, graph: PropertyGraph) -> list[Binding]:
    """``⟦C⟧_G`` — a clause maps the graph to a list of bindings."""
    if isinstance(clause, ast.Match):
        return _eval_match(clause, graph)
    if isinstance(clause, ast.OptMatch):
        return _eval_opt_match(clause, graph)
    if isinstance(clause, ast.With):
        return _eval_with(clause, graph)
    raise SemanticsError(f"cannot evaluate clause node {type(clause).__name__}")


def _eval_match(clause: ast.Match, graph: PropertyGraph) -> list[Binding]:
    pattern_matches = match_pattern(clause.pattern, graph)
    if clause.previous is None:
        candidates = pattern_matches
    else:
        previous = evaluate_clause(clause.previous, graph)
        candidates = []
        for left in previous:
            for right in pattern_matches:
                merged = merge_bindings(left, right)
                if merged is not None:
                    candidates.append(merged)
    return [
        binding
        for binding in candidates
        if eval_predicate(clause.predicate, graph, [binding]) is True
    ]


def _eval_opt_match(clause: ast.OptMatch, graph: PropertyGraph) -> list[Binding]:
    previous = evaluate_clause(clause.previous, graph)
    pattern_matches = match_pattern(clause.pattern, graph)
    # A variable-length edge variable is not bindable, so OPTIONAL MATCH
    # does not nullify it.
    pattern_vars = pattern_bindable_variables(clause.pattern)
    results: list[Binding] = []
    for left in previous:
        matched: list[Binding] = []
        for right in pattern_matches:
            merged = merge_bindings(left, right)
            if merged is not None and eval_predicate(clause.predicate, graph, [merged]) is True:
                matched.append(merged)
        if matched:
            results.extend(matched)
        else:
            nullified_elements = left.element_map
            nullified_labels = left.label_map
            for variable, label in pattern_vars.items():
                if variable not in nullified_elements:
                    nullified_elements[variable] = None
                    nullified_labels[variable] = label
            results.append(Binding.of(nullified_elements, nullified_labels))
    return results


def _eval_with(clause: ast.With, graph: PropertyGraph) -> list[Binding]:
    previous = evaluate_clause(clause.previous, graph)
    results = []
    for binding in previous:
        elements: dict[str, Element | None] = {}
        labels: dict[str, str] = {}
        label_map = binding.label_map
        for old, new in zip(clause.old_names, clause.new_names):
            elements[new] = binding.get(old)
            labels[new] = label_map[old]
        results.append(Binding.of(elements, labels))
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
            Binding.of({node_pattern.variable: node}, {node_pattern.variable: node_pattern.label})
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
            binding = Binding.of(
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
            results.append(Binding.of(elements, labels))
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
# Expression evaluation
# ---------------------------------------------------------------------------


def eval_expression(
    expression: ast.Expression, graph: PropertyGraph, group: list[Binding]
) -> Value:
    """``⟦E⟧_{G, gs}`` — evaluate over a group of bindings.

    Non-aggregate expressions read the head of the group (the paper
    guarantees singleton groups in non-aggregate position).
    """
    if isinstance(expression, ast.PropertyRef):
        element = group[0].get(expression.variable)
        if element is None:
            return NULL
        return element.value(expression.key)
    if isinstance(expression, ast.VariableRef):
        element = group[0].get(expression.variable)
        if element is None:
            return NULL
        default_key = graph.type_of(element).default_key
        return element.value(default_key)
    if isinstance(expression, ast.Literal):
        return expression.value
    if isinstance(expression, ast.Aggregate):
        return _eval_aggregate(expression, graph, group)
    if isinstance(expression, ast.BinaryOp):
        left = eval_expression(expression.left, graph, group)
        right = eval_expression(expression.right, graph, group)
        return arithmetic.apply_binary(expression.op, left, right)
    if isinstance(expression, ast.CastPredicate):
        verdict = eval_predicate(expression.predicate, graph, group)
        if is_null(verdict):
            return NULL
        return 1 if verdict else 0
    raise SemanticsError(f"cannot evaluate expression node {type(expression).__name__}")


def _eval_aggregate(
    aggregate: ast.Aggregate, graph: PropertyGraph, group: list[Binding]
) -> Value:
    if aggregate.argument is None:
        return count_rows(len(group))
    values = [
        eval_expression(aggregate.argument, graph, [binding]) for binding in group
    ]
    return combine(aggregate.function, values, aggregate.distinct)


# ---------------------------------------------------------------------------
# Predicate evaluation (3VL)
# ---------------------------------------------------------------------------


def eval_predicate(
    predicate: ast.Predicate, graph: PropertyGraph, group: list[Binding]
):
    """``⟦φ⟧_{G, gs}`` — three-valued predicate evaluation."""
    if isinstance(predicate, ast.BoolLit):
        return predicate.value
    if isinstance(predicate, ast.Comparison):
        left = eval_expression(predicate.left, graph, group)
        right = eval_expression(predicate.right, graph, group)
        return compare(predicate.op, left, right)
    if isinstance(predicate, ast.IsNull):
        value = eval_expression(predicate.operand, graph, group)
        verdict = is_null(value)
        return (not verdict) if predicate.negated else verdict
    if isinstance(predicate, ast.InValues):
        operand = eval_expression(predicate.operand, graph, group)
        verdict = False
        for candidate in predicate.values:
            verdict = sql_or(verdict, value_eq(operand, candidate))
        return verdict
    if isinstance(predicate, ast.Exists):
        return _eval_exists(predicate, graph, group)
    if isinstance(predicate, ast.And):
        return sql_and(
            eval_predicate(predicate.left, graph, group),
            eval_predicate(predicate.right, graph, group),
        )
    if isinstance(predicate, ast.Or):
        return sql_or(
            eval_predicate(predicate.left, graph, group),
            eval_predicate(predicate.right, graph, group),
        )
    if isinstance(predicate, ast.Not):
        return sql_not(eval_predicate(predicate.operand, graph, group))
    raise SemanticsError(f"cannot evaluate predicate node {type(predicate).__name__}")


def _eval_exists(predicate: ast.Exists, graph: PropertyGraph, group: list[Binding]) -> bool:
    """``Exists(PP)``: some pattern match agrees with the current binding on
    every shared variable (by element identity)."""
    outer = group[0]
    shared = [
        element.variable
        for element in predicate.pattern
        if outer.has(element.variable)
    ]
    for match in match_pattern(predicate.pattern, graph):
        if eval_predicate(predicate.predicate, graph, [match]) is not True:
            continue
        agrees = True
        for variable in shared:
            outer_element = outer.get(variable)
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
