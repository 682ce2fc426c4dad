"""The walk and normal-form contracts the optimizer's speed relies on.

``map_children`` and ``map_predicate`` hand back the very node they were
given when nothing under it changed, and share every untouched field when
one child did; the optimizer's passes detect "no change" with ``is`` and
skip work on it.  The level-1 normalizer runs in one bottom-up pass, so its
output must be a normal form: no level-1 rule fires at any node of an
optimized plan.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.backends import GraphitiService
from repro.benchmarks.suite import benchmark_suite
from repro.sql import ast
from repro.sql.optimize import _apply_rule, _normalize


def _ref(name: str) -> ast.AttributeRef:
    return ast.AttributeRef(name)


def _relation(name: str = "R") -> ast.Relation:
    return ast.Relation(name)


def _comparison() -> ast.Comparison:
    return ast.Comparison("=", _ref("a"), ast.Literal(1))


def _columns() -> tuple[ast.OutputColumn, ...]:
    return (ast.OutputColumn("a", _ref("a")),)


#: One instance of every Query variant but ``RecursiveQuery`` (covered by
#: ``test_recursive.py::TestAnalysis::test_map_children_rebuilds_all_three_children``),
#: each child a distinct object.
QUERIES = {
    "Relation": lambda: _relation(),
    "Projection": lambda: ast.Projection(_relation(), _columns(), distinct=True),
    "Selection": lambda: ast.Selection(_relation(), _comparison()),
    "Renaming": lambda: ast.Renaming("t", _relation()),
    "Join": lambda: ast.Join(
        ast.JoinKind.INNER, _relation("L"), _relation("R"), _comparison()
    ),
    "UnionOp": lambda: ast.UnionOp(_relation("L"), _relation("R"), all=True),
    "GroupBy": lambda: ast.GroupBy(_relation(), (_ref("a"),), _columns(), _comparison()),
    "WithQuery": lambda: ast.WithQuery("w", _relation("D"), _relation("w")),
    "OrderBy": lambda: ast.OrderBy(_relation(), (_ref("a"),), (False,), limit=3),
}

#: The child-query and attached-predicate fields of every variant.
QUERY_SLOTS = {
    "Relation": (),
    "Projection": ("query",),
    "Selection": ("query",),
    "Renaming": ("query",),
    "Join": ("left", "right"),
    "UnionOp": ("left", "right"),
    "GroupBy": ("query",),
    "WithQuery": ("definition", "body"),
    "OrderBy": ("query",),
}
PREDICATE_SLOTS = {"Selection": "predicate", "Join": "predicate", "GroupBy": "having"}


def _assert_shares_all_but(rebuilt, original, changed: str, replacement) -> None:
    assert type(rebuilt) is type(original)
    assert getattr(rebuilt, changed) is replacement
    for field in dataclasses.fields(original):
        if field.name != changed:
            assert getattr(rebuilt, field.name) is getattr(original, field.name), field.name


def test_every_query_variant_is_covered():
    assert set(QUERIES) | {"RecursiveQuery"} == {t.__name__ for t in ast.Query.__args__}


class TestMapChildren:
    @pytest.mark.parametrize("variant", sorted(QUERIES))
    def test_identity_returns_the_same_node(self, variant):
        query = QUERIES[variant]()
        assert ast.map_children(query, lambda q: q) is query
        assert ast.map_children(query, lambda q: q, lambda p: p) is query

    @pytest.mark.parametrize(
        ("variant", "slot"),
        [(v, s) for v, slots in sorted(QUERY_SLOTS.items()) for s in slots],
    )
    def test_one_changed_child(self, variant, slot):
        query = QUERIES[variant]()
        old, new = getattr(query, slot), _relation("NEW")
        rebuilt = ast.map_children(query, lambda q: new if q is old else q, lambda p: p)
        _assert_shares_all_but(rebuilt, query, slot, new)

    @pytest.mark.parametrize("variant", sorted(PREDICATE_SLOTS))
    def test_changed_predicate(self, variant):
        query = QUERIES[variant]()
        slot = PREDICATE_SLOTS[variant]
        new = ast.IsNull(_ref("b"))
        rebuilt = ast.map_children(query, lambda q: q, lambda p: new)
        _assert_shares_all_but(rebuilt, query, slot, new)


def _subquery() -> ast.Query:
    return ast.Selection(_relation("SUB"), _comparison())


#: One instance of every predicate kind; compound ones hold a subquery.
PREDICATES = {
    "BoolLit": lambda: ast.BoolLit(True),
    "Comparison": _comparison,
    "IsNull": lambda: ast.IsNull(_ref("a"), negated=True),
    "InValues": lambda: ast.InValues(_ref("a"), (1, 2)),
    "InQuery": lambda: ast.InQuery((_ref("a"),), _subquery(), negated=True),
    "ExistsQuery": lambda: ast.ExistsQuery(_subquery(), negated=True),
    "And": lambda: ast.And(_comparison(), ast.ExistsQuery(_subquery())),
    "Or": lambda: ast.Or(ast.ExistsQuery(_subquery()), _comparison()),
    "Not": lambda: ast.Not(ast.ExistsQuery(_subquery())),
}


class TestMapPredicate:
    def test_every_predicate_kind_is_covered(self):
        assert set(PREDICATES) == {t.__name__ for t in ast.Predicate.__args__}

    @pytest.mark.parametrize("kind", sorted(PREDICATES))
    def test_identity_returns_the_same_predicate(self, kind):
        predicate = PREDICATES[kind]()
        assert ast.map_predicate(predicate, lambda q: q) is predicate
        assert ast.map_predicate(predicate, lambda q: q, lambda p: p) is predicate

    @pytest.mark.parametrize("kind", ["InQuery", "ExistsQuery"])
    def test_changed_subquery(self, kind):
        predicate = PREDICATES[kind]()
        new = _relation("NEW")
        rebuilt = ast.map_predicate(predicate, lambda q: new)
        _assert_shares_all_but(rebuilt, predicate, "query", new)

    @pytest.mark.parametrize(
        ("kind", "slot", "other"),
        [("And", "right", "left"), ("Or", "left", "right"), ("Not", "operand", None)],
    )
    def test_changed_subquery_under_a_connective(self, kind, slot, other):
        predicate = PREDICATES[kind]()
        new = _relation("NEW")
        rebuilt = ast.map_predicate(predicate, lambda q: new)
        assert type(rebuilt) is type(predicate)
        assert getattr(rebuilt, slot).query is new
        if other is not None:
            assert getattr(rebuilt, other) is getattr(predicate, other)

    @pytest.mark.parametrize(
        ("kind", "slot"),
        [("And", "left"), ("And", "right"), ("Or", "left"), ("Or", "right"), ("Not", "operand")],
    )
    def test_predicate_fn_maps_direct_operands(self, kind, slot):
        predicate = PREDICATES[kind]()
        old, new = getattr(predicate, slot), ast.IsNull(_ref("b"))
        rebuilt = ast.map_predicate(
            predicate, lambda q: q, lambda p: new if p is old else p
        )
        _assert_shares_all_but(rebuilt, predicate, slot, new)


# ---------------------------------------------------------------------------
# Normal form of optimized plans
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def plan_of():
    """``plan_of(case, level)``: the served plan, one service per universe."""
    services: dict[str, GraphitiService] = {}

    def plan(case, level: int) -> ast.Query:
        service = services.get(case.universe.name)
        if service is None:
            service = services[case.universe.name] = GraphitiService(case.graph_schema)
            service.load_mock(10, seed=3)
        return service.prepare(case.cypher_text, opt_level=level).sql_ast

    yield plan
    for service in services.values():
        service.close()


def _nodes(query: ast.Query) -> list:
    """Every query node and attached predicate under *query*, subqueries
    included."""
    found: list = []

    def visit_query(node: ast.Query) -> ast.Query:
        found.append(node)
        return ast.map_children(node, visit_query, visit_predicate)

    def visit_predicate(predicate: ast.Predicate) -> ast.Predicate:
        found.append(predicate)
        return ast.map_predicate(predicate, visit_query, visit_predicate)

    visit_query(query)
    return found


@pytest.mark.parametrize("level", [1, 2])
def test_optimized_suite_plans_are_normal(plan_of, level):
    """No level-1 rule fires anywhere in an optimized plan, and normalizing
    it again hands back the same object."""
    firing = []
    for case in benchmark_suite():
        plan = plan_of(case, level)
        for node in _nodes(plan):
            if isinstance(node, ast.And) and ast.TRUE in (node.left, node.right):
                firing.append(f"{case.id}: TRUE conjunct")
            elif not isinstance(node, ast.Predicate.__args__) and _apply_rule(node) is not None:
                firing.append(f"{case.id}: rule fires at {type(node).__name__}")
        if _normalize(plan) is not plan:
            firing.append(f"{case.id}: renormalizing changes the plan")
    assert not firing, "\n".join(firing)
