"""SQL static analyses: sizes, relations, feature detection."""

import pytest

from repro.sql import ast
from repro.sql.analysis import (
    ast_size,
    iter_nodes,
    referenced_relations,
    uses_aggregation,
    uses_order_by,
    uses_outer_join,
)
from repro.sql.parser import parse_sql


class TestReferencedRelations:
    def test_simple(self):
        query = parse_sql("SELECT e.x FROM emp AS e JOIN dept AS d ON e.x = d.y")
        assert referenced_relations(query) == {"emp", "dept"}

    def test_subqueries_included(self):
        query = parse_sql(
            "SELECT e.x FROM emp AS e WHERE e.x IN (SELECT s.y FROM shadow AS s)"
        )
        assert referenced_relations(query) == {"emp", "shadow"}

    def test_cte_names_excluded(self):
        query = parse_sql(
            "WITH t AS (SELECT e.x FROM emp AS e) SELECT t.x FROM t"
        )
        assert referenced_relations(query) == {"emp"}

    @pytest.mark.parametrize(
        "scoped",
        [
            ast.WithQuery("emp", ast.Relation("dept"), ast.Relation("emp")),
            ast.RecursiveQuery(
                "emp",
                ("x",),
                ast.Relation("dept"),
                ast.Relation("emp"),
                ast.Relation("emp"),
            ),
        ],
        ids=["with", "recursive"],
    )
    def test_cte_name_hides_only_the_scans_in_its_scope(self, scoped):
        query = ast.Join(ast.JoinKind.CROSS, scoped, ast.Relation("emp"))
        assert referenced_relations(query) == {"dept", "emp"}


class TestFeatureDetection:
    def test_aggregation(self):
        assert uses_aggregation(parse_sql("SELECT COUNT(*) AS c FROM t"))
        assert not uses_aggregation(parse_sql("SELECT t.x FROM t"))

    def test_outer_join(self):
        assert uses_outer_join(
            parse_sql("SELECT a.x FROM r AS a LEFT JOIN s AS b ON a.x = b.y")
        )
        assert not uses_outer_join(
            parse_sql("SELECT a.x FROM r AS a JOIN s AS b ON a.x = b.y")
        )

    def test_order_by(self):
        assert uses_order_by(parse_sql("SELECT t.x AS k FROM t ORDER BY k"))
        assert not uses_order_by(parse_sql("SELECT t.x FROM t"))

    def test_features_inside_subqueries_found(self):
        query = parse_sql(
            "SELECT a.x FROM r AS a WHERE EXISTS "
            "(SELECT b.y FROM s AS b LEFT JOIN u AS c ON b.y = c.z)"
        )
        assert uses_outer_join(query)


class TestAstSize:
    def test_size_positive_and_monotone(self):
        small = parse_sql("SELECT t.x FROM t")
        large = parse_sql("SELECT t.x FROM t WHERE t.x = 1 AND t.y < 2")
        assert 0 < ast_size(small) < ast_size(large)

    def test_iter_nodes_covers_predicates(self):
        query = parse_sql("SELECT t.x FROM t WHERE t.x IS NOT NULL")
        kinds = {type(node).__name__ for node in iter_nodes(query)}
        assert "IsNull" in kinds
        assert "Relation" in kinds

    def test_rejects_non_nodes(self):
        with pytest.raises(TypeError):
            ast_size(42)
