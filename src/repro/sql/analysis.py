"""Static analysis over Featherweight SQL ASTs.

``ast_size`` is the Table-1 metric; the ``uses_*`` predicates decide
backend-fragment membership (the Mediator-style deductive verifier rejects
aggregation and outer joins, matching the paper's Section 6.2).

``resolve_attribute`` is the one SQL name lookup: the evaluator, the
renderer, the optimizer, the planner, the partition gather and the CQ
normalizer all find a referenced attribute through it.

The walks that only need to reach every node (``ast_size``,
``referenced_relations``, ``iter_nodes`` and everything built on it) take
a node's children from :func:`repro.sql.ast.children`, so no function here
lists which fields of which node are children.  ``output_attributes``
keeps its own per-node dispatch, because each node's output scope is what
it computes.
"""

from __future__ import annotations

import typing
from collections.abc import Collection

from repro.common.errors import SemanticsError
from repro.sql import ast

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.schema import RelationalSchema


def ast_size(node: object) -> int:
    """Number of AST nodes in a query/expression/predicate; each value of an
    ``IN`` list counts as one node."""
    size = 1 + sum(map(ast_size, ast.children(node)))
    if isinstance(node, ast.InValues):
        size += len(node.values)
    return size


def referenced_relations(query: ast.Query) -> set[str]:
    """Base relations scanned anywhere in *query*.  A scan of a CTE's name
    inside that CTE's scope (a ``WithQuery``'s body, a ``RecursiveQuery``'s
    step and body) reads the binding, not a base relation."""
    names: set[str] = set()

    def walk(node: object, bound: frozenset[str]) -> None:
        if isinstance(node, ast.Relation):
            if node.name not in bound:
                names.add(node.name)
            return
        children = ast.children(node)
        if isinstance(node, (ast.WithQuery, ast.RecursiveQuery)):
            # The first child (definition or base) is outside the name's scope.
            walk(children[0], bound)
            children, bound = children[1:], bound | {node.name}
        for child in children:
            walk(child, bound)

    walk(query, frozenset())
    return names


def output_attributes(
    query: ast.Query,
    schema: "RelationalSchema",
    ctes: dict[str, tuple[str, ...]] | None = None,
) -> tuple[str, ...] | None:
    """The output attribute tuple of *query*, or ``None`` when it cannot be
    determined statically (unknown relation, heterogeneous union, ...).

    Uses the reference evaluator's naming: scans expose the relation's
    declared attributes, ``ρ_T`` names them with :func:`ast.qualify`, and
    projections/aggregations expose their column aliases.  The join planner
    and the column pruner both rely on this to reason about scopes without
    evaluating anything.
    """
    ctes = ctes or {}
    if isinstance(query, ast.Relation):
        if query.name in ctes:
            return ctes[query.name]
        try:
            return tuple(schema.relation(query.name).attributes)
        except Exception:
            return None
    if isinstance(query, ast.Projection):
        return tuple(column.alias for column in query.columns)
    if isinstance(query, (ast.Selection, ast.OrderBy)):
        return output_attributes(query.query, schema, ctes)
    if isinstance(query, ast.Renaming):
        inner = output_attributes(query.query, schema, ctes)
        if inner is None:
            return None
        if isinstance(query.query, ast.Relation) and query.query.name not in ctes:
            return ast.qualify_all(query.name, inner)  # a scan: the schema's names
        return tuple(ast.qualify(query.name, a) for a in inner)
    if isinstance(query, ast.Join):
        left = output_attributes(query.left, schema, ctes)
        right = output_attributes(query.right, schema, ctes)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(query, ast.UnionOp):
        return output_attributes(query.left, schema, ctes)
    if isinstance(query, ast.GroupBy):
        return tuple(column.alias for column in query.columns)
    if isinstance(query, ast.WithQuery):
        definition = output_attributes(query.definition, schema, ctes)
        if definition is None:
            return None
        extended = dict(ctes)
        extended[query.name] = definition
        return output_attributes(query.body, schema, extended)
    if isinstance(query, ast.RecursiveQuery):
        extended = dict(ctes)
        extended[query.name] = query.columns
        return output_attributes(query.body, schema, extended)
    return None


def resolve_attribute(name: str, attributes: Collection[str]) -> str | None:
    """SQL name resolution in one scope: the attribute named exactly *name*,
    else the one attribute whose :func:`~repro.sql.ast.local_name` is
    *name*, else ``None``.  Two or more local matches raise
    :class:`SemanticsError` (an ambiguous reference).

    *attributes* is any collection of names: a tuple of output attributes,
    or the keys of a dict that maps each to its value, fragment or source.
    """
    if name in attributes:
        return name
    if "." in name:
        return None  # a local name has no dot
    found = None
    for attribute in attributes:
        if ast.local_name(attribute) == name:
            if found is not None:
                raise SemanticsError(f"ambiguous attribute reference {name!r}")
            found = attribute
    return found


def join_count(query: ast.Query) -> int:
    """Number of join nodes anywhere in *query* (the "multi-hop" metric)."""
    return sum(1 for node in iter_nodes(query) if isinstance(node, ast.Join))


def uses_aggregation(query: ast.Query) -> bool:
    """Whether any GroupBy or aggregate expression appears in *query*."""
    return _any_node(query, lambda n: isinstance(n, (ast.GroupBy, ast.Aggregate)))


def uses_outer_join(query: ast.Query) -> bool:
    """Whether any LEFT/RIGHT/FULL join appears in *query*."""
    return _any_node(
        query,
        lambda n: isinstance(n, ast.Join)
        and n.kind in (ast.JoinKind.LEFT, ast.JoinKind.RIGHT, ast.JoinKind.FULL),
    )


def uses_order_by(query: ast.Query) -> bool:
    return _any_node(query, lambda n: isinstance(n, ast.OrderBy))


def uses_recursion(query: ast.Query) -> bool:
    """Whether any recursive CTE appears in *query*."""
    return _any_node(query, lambda n: isinstance(n, ast.RecursiveQuery))


def _any_node(root: object, test) -> bool:
    for node in iter_nodes(root):
        if test(node):
            return True
    return False


def iter_nodes(node: object):
    """Depth-first, pre-order iteration over every AST node reachable from
    *node*, subquery bodies included."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(ast.children(node)))
