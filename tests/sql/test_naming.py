"""One naming rule for the SQL algebra, shared by every module that names
or finds an attribute.

A renaming ``ρ_T`` names an attribute ``T.<name>`` with the name's own dots
flattened to ``_`` (:func:`repro.sql.ast.qualify`); a reference finds the
attribute named exactly so, else the one attribute whose local name (the
part after its last ``.``) matches
(:func:`repro.sql.analysis.resolve_attribute`).  The evaluator and the
renderer call the same two rules, so an engine answers every opt level
with the evaluator's bag, and rejects what the evaluator rejects.  The
lookup's own cases are ``test_semantics.py::TestAttributeIndex``.
"""

import pytest

from repro.backends import available_backends, load_backend
from repro.common.errors import SemanticsError
from repro.relational.instance import Database, tables_equivalent
from repro.relational.schema import Relation, RelationalSchema
from repro.sql import ast
from repro.sql.dialect import SQLITE, SqlDialect
from repro.sql.optimize import OPT_LEVELS, optimize
from repro.sql.pretty import to_sql_text
from repro.sql.semantics import evaluate_query
from repro.sql.stats import collect_stats

SCHEMA = RelationalSchema.of(
    [Relation("emp", ("id", "name")), Relation("dept", ("id", "dname"))]
)
DATABASE = Database.of(
    SCHEMA, emp=[(1, "a"), (2, "b")], dept=[(2, "x"), (3, "y")]
)


def projected_emp_join(alias: str) -> ast.Join:
    """``Π_{alias := id}(emp) ⋈_{id = 3} dept``: the join predicate's ``id``
    is exactly dept's attribute, and locally the projection's ``e.id``."""
    return ast.Join(
        ast.JoinKind.INNER,
        ast.Projection(
            ast.Relation("emp"), (ast.OutputColumn(alias, ast.AttributeRef("id")),)
        ),
        ast.Relation("dept"),
        ast.Comparison("=", ast.AttributeRef("id"), ast.Literal(3)),
    )


def render(query: ast.Query, level: int, dialect: SqlDialect = SQLITE) -> str:
    """*query* as the service sends it: planned at *level*, then rendered."""
    planned = optimize(query, level, SCHEMA, collect_stats(DATABASE))
    return to_sql_text(planned, SCHEMA, optimized=False, dialect=dialect)


class TestExactNameAcrossJoinSides:
    """The right operand's exact ``id`` beats the left operand's local one."""

    def test_reference_pairs_both_emps_with_dept_3(self):
        result = evaluate_query(projected_emp_join("e.id"), DATABASE)
        assert sorted(result.rows) == [(1, 3, "y"), (2, 3, "y")]

    @pytest.mark.parametrize("level", OPT_LEVELS)
    @pytest.mark.parametrize("backend_name", available_backends())
    def test_engine_returns_the_reference_bag(self, backend_name, level):
        query = projected_emp_join("e.id")
        expected = evaluate_query(query, DATABASE)
        with load_backend(backend_name, DATABASE) as backend:
            sql = render(query, level, backend.dialect)
            actual = backend.execute(sql)
        assert tables_equivalent(actual, expected), sql


class TestSharedNameJoin:
    """Join operands that share a name: the evaluator and the renderer both
    raise instead of the engine answering with a renamed ``id:1``."""

    def test_evaluator_raises(self):
        with pytest.raises(SemanticsError, match="duplicate attribute names"):
            evaluate_query(projected_emp_join("id"), DATABASE)

    @pytest.mark.parametrize("level", OPT_LEVELS)
    def test_renderer_raises(self, level):
        with pytest.raises(SemanticsError, match="duplicate attribute names"):
            render(projected_emp_join("id"), level)

