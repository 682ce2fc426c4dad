"""The walk and normal-form contracts the optimizer's speed relies on.

``map_children`` and ``map_predicate`` hand back the very node they were
given when nothing under it changed, and share every untouched field when
one child did; the optimizer's passes detect "no change" with ``is`` and
skip work on it.  ``map_refs`` keeps the same contract over expressions
and predicates and gives up at a subquery.  ``children`` lists the child
fields of every node kind, so ``iter_nodes`` and ``ast_size`` reach every
node.  The level-1 normalizer runs in one bottom-up pass, so its
output must be a normal form: no level-1 rule fires at any node of an
optimized plan.  Like the child fields, the two attribute-naming rules
(``local_name`` and ``qualify``) are spelled in ``sql/ast.py`` only, and
the expression grammar both parsers read SQL and Cypher with is defined
in one module, the expression and predicate rules both reference
evaluators apply are evaluated in ``common/``, and the expression and
predicate forms both languages share are defined once, in ``common/``.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro.backends import GraphitiService
from repro.benchmarks.suite import benchmark_suite
from repro.cypher import ast as cypher_ast
from repro.sql import ast
from repro.sql.analysis import ast_size, iter_nodes
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


# ---------------------------------------------------------------------------
# The read-only walk (children, iter_nodes) and the reference walk (map_refs)
# ---------------------------------------------------------------------------


def _recursive() -> ast.RecursiveQuery:
    return ast.RecursiveQuery("r", ("a",), _relation("B"), _relation("r"), _relation("r"))


#: One instance of every expression kind, each child a distinct object.
EXPRESSIONS = {
    "AttributeRef": lambda: _ref("a"),
    "Literal": lambda: ast.Literal(1),
    "Aggregate": lambda: ast.Aggregate("Sum", _ref("a"), distinct=True),
    "BinaryOp": lambda: ast.BinaryOp("+", _ref("a"), ast.Literal(1)),
    "CastPredicate": lambda: ast.CastPredicate(_comparison()),
}

#: One instance of every node kind.
NODES = {**QUERIES, "RecursiveQuery": _recursive, **EXPRESSIONS, **PREDICATES}

#: Per kind, the fields ``children`` reads, in the order it lists them; a
#: tuple field contributes its elements, an ``OutputColumn`` its expression.
CHILD_FIELDS = {
    "Relation": (),
    "Projection": ("query", "columns"),
    "Selection": ("query", "predicate"),
    "Renaming": ("query",),
    "Join": ("left", "right", "predicate"),
    "UnionOp": ("left", "right"),
    "GroupBy": ("query", "keys", "columns", "having"),
    "WithQuery": ("definition", "body"),
    "OrderBy": ("query", "keys"),
    "RecursiveQuery": ("base", "step", "body"),
    "AttributeRef": (),
    "Literal": (),
    "Aggregate": ("argument",),
    "BinaryOp": ("left", "right"),
    "CastPredicate": ("predicate",),
    "BoolLit": (),
    "Comparison": ("left", "right"),
    "IsNull": ("operand",),
    "InValues": ("operand",),
    "InQuery": ("operands", "query"),
    "ExistsQuery": ("query",),
    "And": ("left", "right"),
    "Or": ("left", "right"),
    "Not": ("operand",),
}


def _expected_children(node) -> list:
    found = []
    for name in CHILD_FIELDS[type(node).__name__]:
        value = getattr(node, name)
        for item in value if isinstance(value, tuple) else (value,):
            if item is not None:
                found.append(item.expression if isinstance(item, ast.OutputColumn) else item)
    return found


def _every_kind(made: list) -> ast.Query:
    """A query holding at least one node of every kind, no node shared; each
    node built is appended to *made*."""

    def node(kind, *fields):
        built = kind(*fields)
        made.append(built)
        return built

    def ref():
        return node(ast.AttributeRef, "a")

    subquery = node(ast.Projection, node(ast.Relation, "S"), (ast.OutputColumn("a", ref()),))
    predicate = node(
        ast.And,
        node(
            ast.Or,
            node(ast.Comparison, "=", ref(), node(ast.Literal, 1)),
            node(ast.Not, node(ast.IsNull, ref())),
        ),
        node(
            ast.Or,
            node(ast.InValues, node(ast.BinaryOp, "+", ref(), node(ast.Literal, 2)), (1, 2)),
            node(
                ast.And,
                node(ast.InQuery, (ref(),), subquery),
                node(ast.ExistsQuery, node(ast.Relation, "E")),
            ),
        ),
    )
    grouped = node(
        ast.GroupBy,
        node(ast.Selection, node(ast.Renaming, "t", node(ast.Relation, "R")), predicate),
        (ref(),),
        (
            ast.OutputColumn("n", node(ast.Aggregate, "Count", None)),
            ast.OutputColumn(
                "s",
                node(ast.Aggregate, "Sum", node(ast.CastPredicate, node(ast.BoolLit, True))),
            ),
        ),
        node(ast.BoolLit, True),
    )
    joined = node(
        ast.Join,
        ast.JoinKind.INNER,
        grouped,
        node(ast.UnionOp, node(ast.Relation, "L"), node(ast.Relation, "R")),
        node(ast.BoolLit, True),
    )
    recursion = node(
        ast.RecursiveQuery, "h", ("a",), node(ast.Relation, "B"), node(ast.Relation, "h"), joined
    )
    scoped = node(ast.WithQuery, "w", node(ast.Relation, "D"), recursion)
    return node(ast.OrderBy, scoped, (ref(),), (True,))


class TestChildren:
    def test_every_node_kind_is_covered(self):
        kinds = {
            t.__name__
            for union in (ast.Query, ast.Expression, ast.Predicate)
            for t in union.__args__
        }
        assert set(NODES) == kinds
        assert set(CHILD_FIELDS) == kinds

    @pytest.mark.parametrize("kind", sorted(NODES))
    def test_lists_every_child_in_field_order(self, kind):
        node = NODES[kind]()
        listed = ast.children(node)
        expected = _expected_children(node)
        assert len(listed) == len(expected)
        assert all(a is b for a, b in zip(listed, expected))

    def test_rejects_non_nodes(self):
        with pytest.raises(TypeError):
            ast.children(ast.OutputColumn("a", _ref("a")))

    def test_iter_nodes_reaches_every_node(self):
        made: list = []
        tree = _every_kind(made)
        assert {type(node).__name__ for node in made} == set(NODES)
        visited = list(iter_nodes(tree))
        assert visited[0] is tree
        assert sorted(map(id, visited)) == sorted(map(id, made))
        # Each value of an IN list counts as one node of the Table-1 metric.
        assert ast_size(tree) == len(made) + 2


#: Inline spellings of the two naming rules: the local name (a split at
#: the last ``.``) and a renaming's flattening (``.`` replaced by ``_``).
NAMING_SPELLINGS = {
    "local_name": re.compile(r"""\.r(?:split|partition)\(\s*(['"])\.\1"""),
    "qualify": re.compile(r"""\.replace\(\s*(['"])\.\1\s*,\s*(['"])_\2\s*\)"""),
}


@pytest.mark.parametrize("rule", sorted(NAMING_SPELLINGS))
def test_naming_rule_is_spelled_only_in_sql_ast(rule):
    """Every other module calls ``ast.local_name``/``ast.qualify`` (and
    ``analysis.resolve_attribute`` to find an attribute) instead of
    re-spelling them; a copy is where a drifted rule would hide."""
    package = Path(repro.__file__).parent
    found = [
        f"{path.relative_to(package).as_posix()}:{number}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if NAMING_SPELLINGS[rule].search(line)
    ]
    assert [where.split(":")[0] for where in found] == ["sql/ast.py"], found


#: The levels of the expression and predicate grammar both surface parsers
#: share, and the aggregate-name table (``"COUNT": "Count"``, ...).
GRAMMAR_DEFINITIONS = {
    **{
        name: re.compile(rf"^\s*def {name}\(")
        for name in (
            "_parse_predicate", "_parse_and", "_parse_not",
            "_parse_atom_predicate", "_parse_in_values",
            "_parenthesised_predicate_ahead", "_parse_expression",
            "_parse_multiplicative", "_parse_unary", "_parse_primary",
            "_parse_aggregate", "_parse_literal_value",
        )
    },
    "aggregate table": re.compile(r"""(['"])COUNT\1\s*:"""),
}


@pytest.mark.parametrize("definition", sorted(GRAMMAR_DEFINITIONS))
def test_grammar_is_defined_in_one_module(definition):
    """The Cypher and SQL parsers subclass one ``ExpressionGrammar`` and
    override only the forms their languages write differently; a second
    copy of a grammar level is where the two front ends would drift."""
    package = Path(repro.__file__).parent
    modules = sorted(
        path.relative_to(package).as_posix()
        for path in package.rglob("*.py")
        if any(
            GRAMMAR_DEFINITIONS[definition].search(line)
            for line in path.read_text().splitlines()
        )
    )
    assert len(modules) == 1, modules


#: The three-valued connectives and the arithmetic that the shared
#: expression and predicate rules (``common/semantics.py``) apply.
RULE_CALLS = ("sql_and", "sql_or", "sql_not", "apply_binary")


@pytest.mark.parametrize("function", RULE_CALLS)
def test_expression_rules_are_evaluated_in_common(function):
    """Both reference evaluators subclass one ``ExpressionSemantics`` and
    override only how a reference reads a row and what a subquery means; a
    module outside ``common/`` that calls a connective or the arithmetic
    holds a copy of a rule, and a copy is where the per-group evaluation of
    ``HAVING`` once drifted."""
    package = Path(repro.__file__).parent
    call = re.compile(rf"\b{function}\(")
    found = [
        f"{path.relative_to(package).as_posix()}:{number}"
        for path in sorted(package.rglob("*.py"))
        if path.relative_to(package).parts[0] != "common"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if call.search(line)
    ]
    assert found == [], found


#: The expression and predicate forms both languages share, and the two
#: Boolean literals.
SHARED_FORMS = (
    "Literal", "Aggregate", "BinaryOp", "CastPredicate", "BoolLit", "Comparison",
    "IsNull", "InValues", "And", "Or", "Not", "TRUE", "FALSE",
)


@pytest.mark.parametrize("name", SHARED_FORMS)
def test_shared_forms_are_defined_once(name):
    """Both AST modules import the shared forms from ``common/expressions.py``,
    so the grammar, the evaluator and the transpiler's rebuild see one class
    per form; a second definition is where the two languages would drift."""
    assert getattr(cypher_ast, name) is getattr(ast, name)
    if name in ("TRUE", "FALSE"):  # instances, not classes
        return
    package = Path(repro.__file__).parent
    definition = re.compile(rf"^\s*class {name}\b")
    found = [
        f"{path.relative_to(package).as_posix()}:{number}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if definition.search(line)
    ]
    assert len(found) == 1, found


#: One subquery-free instance of every expression and predicate kind.
REF_NODES = {
    **EXPRESSIONS,
    "BoolLit": PREDICATES["BoolLit"],
    "Comparison": _comparison,
    "IsNull": PREDICATES["IsNull"],
    "InValues": PREDICATES["InValues"],
    "And": lambda: ast.And(_comparison(), ast.IsNull(_ref("b"))),
    "Or": lambda: ast.Or(ast.IsNull(_ref("b")), _comparison()),
    "Not": lambda: ast.Not(_comparison()),
}


def _ref_names(node) -> list[str]:
    return [n.name for n in iter_nodes(node) if isinstance(n, ast.AttributeRef)]


class TestMapRefs:
    def test_every_expression_and_predicate_kind_is_covered(self):
        kinds = {t.__name__ for t in ast.Expression.__args__ + ast.Predicate.__args__}
        assert set(REF_NODES) | {"InQuery", "ExistsQuery"} == kinds

    @pytest.mark.parametrize("kind", sorted(REF_NODES))
    def test_identity_returns_the_same_node(self, kind):
        node = REF_NODES[kind]()
        assert ast.map_refs(node, lambda ref: ref) is node

    @pytest.mark.parametrize("kind", sorted(set(REF_NODES) - {"AttributeRef"}))
    def test_rebuild_replaces_refs_and_keeps_other_fields(self, kind):
        node = REF_NODES[kind]()
        rebuilt = ast.map_refs(node, lambda ref: _ref(ref.name + "2"))
        assert type(rebuilt) is type(node)
        assert _ref_names(rebuilt) == [name + "2" for name in _ref_names(node)]
        for field in dataclasses.fields(node):
            if field.name not in CHILD_FIELDS[kind]:
                assert getattr(rebuilt, field.name) == getattr(node, field.name)
        if not _ref_names(node):
            assert rebuilt is node

    def test_shares_unchanged_subtrees(self):
        predicate = ast.And(_comparison(), ast.Not(ast.IsNull(_ref("b"), negated=True)))
        rebuilt = ast.map_refs(predicate, lambda ref: _ref("c") if ref.name == "b" else ref)
        assert rebuilt.left is predicate.left
        assert rebuilt.right.operand.operand == _ref("c")
        assert rebuilt.right.operand.negated

    @pytest.mark.parametrize(
        "make",
        [
            PREDICATES["InQuery"],
            PREDICATES["ExistsQuery"],
            PREDICATES["And"],
            PREDICATES["Or"],
            PREDICATES["Not"],
            lambda: ast.CastPredicate(ast.ExistsQuery(_subquery())),
        ],
        ids=["InQuery", "ExistsQuery", "And", "Or", "Not", "CastPredicate"],
    )
    def test_none_at_a_subquery(self, make):
        assert ast.map_refs(make(), lambda ref: ref) is None

    @pytest.mark.parametrize("kind", sorted(REF_NODES))
    def test_none_when_ref_fn_returns_none(self, kind):
        node = REF_NODES[kind]()
        rebuilt = ast.map_refs(node, lambda ref: None)
        assert rebuilt is (None if _ref_names(node) else node)
