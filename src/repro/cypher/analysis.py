"""Static analysis over Featherweight Cypher ASTs.

``ast_size`` counts AST nodes (the metric of the paper's Table 1);
``collect_variables`` and ``has_aggregate`` (defined once, in
:mod:`repro.common.expressions`) support the transpiler and the
benchmark infrastructure; ``var_length_step_error`` is the shared semantic
check for variable-length relationship patterns (both the reference
evaluator and the transpiler consult it so they reject exactly the same
ill-typed traversals).
"""

from __future__ import annotations

from repro.common.expressions import CHILDREN, has_aggregate
from repro.cypher import ast
from repro.graph.schema import GraphSchema


def ast_size(node: object) -> int:
    """Number of AST nodes in a query/clause/pattern/expression/predicate."""
    if isinstance(node, ast.Return):
        return 1 + ast_size(node.clause) + sum(ast_size(e) for e in node.expressions)
    if isinstance(node, ast.OrderBy):
        return 1 + ast_size(node.query) + len(node.keys)
    if isinstance(node, (ast.Union, ast.UnionAll)):
        return 1 + ast_size(node.left) + ast_size(node.right)
    if isinstance(node, ast.Match):
        size = 1 + _pattern_size(node.pattern) + ast_size(node.predicate)
        if node.previous is not None:
            size += ast_size(node.previous)
        return size
    if isinstance(node, ast.OptMatch):
        return 1 + ast_size(node.previous) + _pattern_size(node.pattern) + ast_size(node.predicate)
    if isinstance(node, ast.With):
        return 1 + ast_size(node.previous) + len(node.old_names)
    if isinstance(node, ast.PropertyRef):
        return 2  # variable + key
    if isinstance(node, ast.VariableRef):
        return 1
    if isinstance(node, ast.Exists):
        return 1 + _pattern_size(node.pattern) + ast_size(node.predicate)
    children = CHILDREN.get(type(node))
    if children is None:
        raise TypeError(f"not a Cypher AST node: {type(node).__name__}")
    # Each value of an ``IN`` list counts as one node, as on the SQL side.
    size = 1 + sum(map(ast_size, children(node)))
    return size + len(node.values) if isinstance(node, ast.InValues) else size


def _pattern_size(pattern: ast.PathPattern) -> int:
    """Pattern elements count at token granularity: a node pattern ``(X, l)``
    is three nodes (tuple, variable, label), an edge pattern ``(X, l, d)``
    four and a variable-length edge ``(X, l, d, lo..hi)`` six — matching how
    the paper's Table 1 sizes weigh pattern-heavy Cypher queries above their
    SQL counterparts."""
    size = 0
    for element in pattern:
        if isinstance(element, ast.NodePattern):
            size += 3
        elif isinstance(element, ast.VarLengthEdgePattern):
            size += 6
        else:
            size += 4
    return size


def pattern_bindable_variables(pattern: ast.PathPattern) -> dict[str, str]:
    """Variable → label for every *bindable* element of *pattern*.

    A variable-length edge variable names the whole traversal, not a graph
    element, so it never enters the binding scope (see
    :class:`~repro.cypher.ast.VarLengthEdgePattern`).
    """
    return {
        element.variable: element.label
        for element in pattern
        if not isinstance(element, ast.VarLengthEdgePattern)
    }


def collect_variables(clause: ast.Clause) -> dict[str, str]:
    """All variables in scope after *clause* (variable → label)."""
    if isinstance(clause, ast.Match):
        variables: dict[str, str] = {}
        if clause.previous is not None:
            variables.update(collect_variables(clause.previous))
        variables.update(pattern_bindable_variables(clause.pattern))
        return variables
    if isinstance(clause, ast.OptMatch):
        variables = collect_variables(clause.previous)
        variables.update(pattern_bindable_variables(clause.pattern))
        return variables
    if isinstance(clause, ast.With):
        inner = collect_variables(clause.previous)
        return {
            new: inner[old]
            for old, new in zip(clause.old_names, clause.new_names)
        }
    raise TypeError(f"not a Cypher clause: {type(clause).__name__}")


def query_clause(query: ast.Query) -> ast.Clause:
    """The innermost clause of a (non-union) query."""
    if isinstance(query, ast.Return):
        return query.clause
    if isinstance(query, ast.OrderBy):
        return query_clause(query.query)
    raise TypeError("union queries have no single clause")


def uses_optional_match(query: ast.Query) -> bool:
    """Whether any clause in *query* is an OPTIONAL MATCH."""

    def clause_uses(clause: ast.Clause) -> bool:
        if isinstance(clause, ast.OptMatch):
            return True
        if isinstance(clause, ast.Match):
            return clause.previous is not None and clause_uses(clause.previous)
        if isinstance(clause, ast.With):
            return clause_uses(clause.previous)
        return False

    if isinstance(query, ast.Return):
        return clause_uses(query.clause)
    if isinstance(query, ast.OrderBy):
        return uses_optional_match(query.query)
    if isinstance(query, (ast.Union, ast.UnionAll)):
        return uses_optional_match(query.left) or uses_optional_match(query.right)
    return False


def uses_aggregation(query: ast.Query) -> bool:
    """Whether the query's RETURN list contains an aggregate."""
    if isinstance(query, ast.Return):
        return any(has_aggregate(e) for e in query.expressions)
    if isinstance(query, ast.OrderBy):
        return uses_aggregation(query.query)
    if isinstance(query, (ast.Union, ast.UnionAll)):
        return uses_aggregation(query.left) or uses_aggregation(query.right)
    return False


def uses_var_length(query: ast.Query) -> bool:
    """Whether any pattern of *query* contains a variable-length edge."""

    def pattern_uses(pattern: ast.PathPattern) -> bool:
        return any(isinstance(e, ast.VarLengthEdgePattern) for e in pattern)

    def predicate_uses(predicate: ast.Predicate) -> bool:
        if isinstance(predicate, ast.Exists):
            return pattern_uses(predicate.pattern) or predicate_uses(predicate.predicate)
        if isinstance(predicate, (ast.And, ast.Or)):
            return predicate_uses(predicate.left) or predicate_uses(predicate.right)
        if isinstance(predicate, ast.Not):
            return predicate_uses(predicate.operand)
        return False

    def clause_uses(clause: ast.Clause) -> bool:
        if isinstance(clause, ast.Match):
            return (
                pattern_uses(clause.pattern)
                or predicate_uses(clause.predicate)
                or (clause.previous is not None and clause_uses(clause.previous))
            )
        if isinstance(clause, ast.OptMatch):
            return (
                pattern_uses(clause.pattern)
                or predicate_uses(clause.predicate)
                or clause_uses(clause.previous)
            )
        if isinstance(clause, ast.With):
            return clause_uses(clause.previous)
        return False

    if isinstance(query, ast.Return):
        return clause_uses(query.clause)
    if isinstance(query, ast.OrderBy):
        return uses_var_length(query.query)
    if isinstance(query, (ast.Union, ast.UnionAll)):
        return uses_var_length(query.left) or uses_var_length(query.right)
    return False


def var_length_step_error(
    left: ast.NodePattern,
    edge: ast.VarLengthEdgePattern,
    right: ast.NodePattern,
    schema: GraphSchema,
) -> str | None:
    """Why the variable-length step is ill-typed, or ``None`` when fine.

    Multi-hop traversal only typechecks over a *self-referential* edge type
    (every intermediate node carries the same label), and both endpoint
    patterns must carry that node label.  The reference evaluator and the
    transpiler both enforce this, so a query is rejected identically on
    either path.
    """
    edge_type = schema.edge_type(edge.label)
    if edge_type.source != edge_type.target:
        return (
            f"variable-length pattern over {edge.label!r} needs a self-referential "
            f"edge type; {edge.label!r} runs {edge_type.source!r} -> {edge_type.target!r}"
        )
    for node in (left, right):
        if node.label != edge_type.source:
            return (
                f"variable-length pattern endpoint {node.variable!r} is labelled "
                f"{node.label!r}, but {edge.label!r} connects {edge_type.source!r} nodes"
            )
    return None
