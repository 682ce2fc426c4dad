"""Cypher surface-syntax parsing."""

import pytest

from repro.common.errors import ParseError
from repro.cypher import ast
from repro.cypher.parser import parse_cypher


class TestPatterns:
    def test_single_hop(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name", emp_dept_schema
        )
        assert isinstance(query, ast.Return)
        clause = query.clause
        assert isinstance(clause, ast.Match)
        assert len(clause.pattern) == 3
        assert clause.pattern[1].direction is ast.Direction.OUT

    def test_incoming_edge(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (m:DEPT)<-[e:WORK_AT]-(n:EMP) RETURN n.name", emp_dept_schema
        )
        assert query.clause.pattern[1].direction is ast.Direction.IN

    def test_undirected_edge(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP)-[e:WORK_AT]-(m:DEPT) RETURN n.name", emp_dept_schema
        )
        assert query.clause.pattern[1].direction is ast.Direction.BOTH

    def test_anonymous_edge_gets_fresh_variable(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP)-[:WORK_AT]->(m:DEPT) RETURN n.name", emp_dept_schema
        )
        assert query.clause.pattern[1].variable.startswith("_a")

    def test_edge_label_inference(self, emp_dept_schema):
        query = parse_cypher("MATCH (n:EMP)-[]->(m:DEPT) RETURN n.name", emp_dept_schema)
        assert query.clause.pattern[1].label == "WORK_AT"

    def test_node_label_inference(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n)-[e:WORK_AT]->(m:DEPT) RETURN m.dname", emp_dept_schema
        )
        assert query.clause.pattern[0].label == "EMP"

    def test_uninferable_label_rejected(self, emp_dept_schema):
        with pytest.raises(ParseError, match="cannot infer"):
            parse_cypher("MATCH (n) RETURN n.name", emp_dept_schema)

    def test_unknown_edge_type_next_to_an_unlabelled_node_rejected(
        self, emp_dept_schema
    ):
        with pytest.raises(ParseError, match="unknown edge type 'NOPE'") as caught:
            parse_cypher("MATCH (a)-[r:NOPE]->(d:DEPT) RETURN d.dname", emp_dept_schema)
        assert (caught.value.line, caught.value.column) == (1, 30)

    def test_inline_properties_desugar_to_where(self, emp_dept_schema):
        query = parse_cypher("MATCH (n:EMP {id: 3}) RETURN n.name", emp_dept_schema)
        predicate = query.clause.predicate
        assert isinstance(predicate, ast.Comparison)
        assert predicate.left == ast.PropertyRef("n", "id")
        assert predicate.right == ast.Literal(3)

    def test_comma_patterns_desugar_to_nested_match(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP), (m:DEPT) WHERE n.id = m.dnum RETURN n.name",
            emp_dept_schema,
        )
        outer = query.clause
        assert isinstance(outer, ast.Match)
        assert isinstance(outer.previous, ast.Match)
        assert outer.previous.previous is None


class TestClauses:
    def test_multiple_match_clauses(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) "
            "MATCH (n2:EMP)-[e2:WORK_AT]->(m:DEPT) RETURN n2.name",
            emp_dept_schema,
        )
        assert query.clause.previous is not None

    def test_optional_match(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname",
            emp_dept_schema,
        )
        assert isinstance(query.clause, ast.OptMatch)

    def test_optional_match_cannot_open(self, emp_dept_schema):
        with pytest.raises(ParseError, match="cannot open"):
            parse_cypher("OPTIONAL MATCH (n:EMP) RETURN n.name", emp_dept_schema)

    def test_with_renames(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) WITH m AS kept RETURN kept.dname",
            emp_dept_schema,
        )
        clause = query.clause
        assert isinstance(clause, ast.With)
        assert clause.old_names == ("m",)
        assert clause.new_names == ("kept",)

    def test_with_expression_rejected(self, emp_dept_schema):
        with pytest.raises(ParseError, match="bare variables"):
            parse_cypher(
                "MATCH (n:EMP) WITH n.name AS x RETURN x.name", emp_dept_schema
            )


class TestReturnAndQuery:
    def test_aliases(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname AS name, Count(*) AS num",
            emp_dept_schema,
        )
        assert query.names == ("name", "num")
        assert query.expressions[1] == ast.Aggregate("Count", None)

    def test_count_variable_becomes_identity_count(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN Count(n) AS c", emp_dept_schema
        )
        aggregate = query.expressions[0]
        assert aggregate == ast.Aggregate("Count", ast.VariableRef("n"))

    def test_distinct(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN DISTINCT m.dname",
            emp_dept_schema,
        )
        assert query.distinct

    def test_order_by_alias(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP) RETURN n.name AS who ORDER BY who DESC LIMIT 3",
            emp_dept_schema,
        )
        assert isinstance(query, ast.OrderBy)
        assert query.keys == ("who",)
        assert query.ascending == (False,)
        assert query.limit == 3

    def test_order_by_unknown_alias_rejected(self, emp_dept_schema):
        with pytest.raises(ParseError, match="does not name"):
            parse_cypher(
                "MATCH (n:EMP) RETURN n.name AS who ORDER BY nothere", emp_dept_schema
            )

    def test_union(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP) RETURN n.name UNION MATCH (m:EMP) RETURN m.name",
            emp_dept_schema,
        )
        assert isinstance(query, ast.Union)

    def test_union_all(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP) RETURN n.name UNION ALL MATCH (m:EMP) RETURN m.name",
            emp_dept_schema,
        )
        assert isinstance(query, ast.UnionAll)


class TestPredicates:
    def test_comparison_operators(self, emp_dept_schema):
        for op in ("=", "<>", "<", "<=", ">", ">="):
            query = parse_cypher(
                f"MATCH (n:EMP) WHERE n.id {op} 3 RETURN n.name", emp_dept_schema
            )
            assert isinstance(query.clause.predicate, ast.Comparison)

    def test_bang_equals_normalised(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP) WHERE n.id != 3 RETURN n.name", emp_dept_schema
        )
        assert query.clause.predicate.op == "<>"

    def test_is_null(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP) WHERE n.name IS NULL RETURN n.id", emp_dept_schema
        )
        assert isinstance(query.clause.predicate, ast.IsNull)

    def test_is_not_null(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP) WHERE n.name IS NOT NULL RETURN n.id", emp_dept_schema
        )
        assert query.clause.predicate.negated

    def test_in_list(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP) WHERE n.id IN [1, 2, 3] RETURN n.name", emp_dept_schema
        )
        assert query.clause.predicate == ast.InValues(
            ast.PropertyRef("n", "id"), (1, 2, 3)
        )

    def test_boolean_connectives(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP) WHERE n.id = 1 OR NOT n.id = 2 AND n.id < 5 RETURN n.name",
            emp_dept_schema,
        )
        assert isinstance(query.clause.predicate, ast.Or)

    def test_exists_braces(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP) WHERE EXISTS { MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) } "
            "RETURN n.name",
            emp_dept_schema,
        )
        assert isinstance(query.clause.predicate, ast.Exists)

    def test_exists_with_inner_where(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP) WHERE EXISTS { MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) "
            "WHERE m.dnum = 1 } RETURN n.name",
            emp_dept_schema,
        )
        exists = query.clause.predicate
        assert isinstance(exists.predicate, ast.Comparison)

    def test_arithmetic_precedence(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP) WHERE n.id + 2 * 3 = 7 RETURN n.name", emp_dept_schema
        )
        comparison = query.clause.predicate
        assert isinstance(comparison.left, ast.BinaryOp)
        assert comparison.left.op == "+"
        assert comparison.left.right.op == "*"


class TestErrors:
    def test_trailing_garbage(self, emp_dept_schema):
        with pytest.raises(ParseError):
            parse_cypher("MATCH (n:EMP) RETURN n.name garbage", emp_dept_schema)

    def test_missing_return(self, emp_dept_schema):
        with pytest.raises(ParseError):
            parse_cypher("MATCH (n:EMP)", emp_dept_schema)

    def test_bad_character(self, emp_dept_schema):
        with pytest.raises(ParseError):
            parse_cypher("MATCH (n:EMP) RETURN n.name ~", emp_dept_schema)
