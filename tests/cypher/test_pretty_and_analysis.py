"""Cypher pretty-printer round trips and static analyses."""

import pytest

from repro.cypher import ast
from repro.cypher.analysis import (
    ast_size,
    collect_variables,
    has_aggregate,
    uses_aggregation,
    uses_optional_match,
)
from repro.cypher.parser import parse_cypher
from repro.cypher.pretty import pretty

ROUND_TRIP_QUERIES = [
    "MATCH (n:EMP) RETURN n.name AS out",
    "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) WHERE n.id = 3 RETURN n.name AS a, m.dname AS b",
    "MATCH (m:DEPT)<-[e:WORK_AT]-(n:EMP) RETURN DISTINCT n.name AS who",
    "MATCH (n:EMP) WHERE n.id IN [1, 2] RETURN n.name AS who",
    "MATCH (n:EMP) WHERE n.name IS NOT NULL RETURN n.id AS i",
    "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname AS grp, Count(*) AS c",
    "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname AS d",
    "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) WITH m AS kept RETURN kept.dname AS d",
    "MATCH (n:EMP) RETURN n.name AS a UNION MATCH (m:EMP) RETURN m.name AS a",
    "MATCH (n:EMP) RETURN n.name AS w, n.id AS k ORDER BY k DESC LIMIT 2",
    "MATCH (n:EMP) WHERE EXISTS { MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) } RETURN n.id AS i",
    # A string prints with its quotes and backslashes escaped, a float
    # positionally: the number token has no exponent.
    r"MATCH (n:EMP) WHERE n.name = 'it\'s' RETURN n.id AS i",
    r"MATCH (n:EMP) WHERE n.name IN ['a\\b', '\\\'', 'say \"hi\"'] RETURN n.id AS i",
    "MATCH (n:EMP) WHERE n.id > 0.00001 AND n.id < 100000000000000000000000.0 RETURN n.id AS i",
    "MATCH (n:EMP) RETURN n.id * 0.00001",
    # Cast(φ) prints as toInteger(φ), which parses back to the cast.
    "MATCH (n:EMP) RETURN toInteger(n.id > 3) AS c",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", ROUND_TRIP_QUERIES)
    def test_parse_pretty_parse(self, text, emp_dept_schema):
        first = parse_cypher(text, emp_dept_schema)
        rendered = pretty(first)
        second = parse_cypher(rendered, emp_dept_schema)
        assert first == second, rendered


class TestAstSize:
    def test_monotone_in_pattern_length(self, emp_dept_schema):
        short = parse_cypher("MATCH (n:EMP) RETURN n.name", emp_dept_schema)
        long = parse_cypher(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name", emp_dept_schema
        )
        assert ast_size(long) > ast_size(short)

    def test_union_sums_sides(self, emp_dept_schema):
        left = parse_cypher("MATCH (n:EMP) RETURN n.name", emp_dept_schema)
        union = parse_cypher(
            "MATCH (n:EMP) RETURN n.name UNION MATCH (m:EMP) RETURN m.name",
            emp_dept_schema,
        )
        assert ast_size(union) == 1 + 2 * ast_size(left)

    def test_rejects_non_nodes(self):
        with pytest.raises(TypeError):
            ast_size("not a node")


class TestCollectVariables:
    def test_match_chain(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) "
            "MATCH (n2:EMP)-[e2:WORK_AT]->(m:DEPT) RETURN n2.name",
            emp_dept_schema,
        )
        variables = collect_variables(query.clause)
        assert variables == {
            "n": "EMP", "e": "WORK_AT", "m": "DEPT", "n2": "EMP", "e2": "WORK_AT",
        }

    def test_with_narrows_scope(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) WITH m AS kept RETURN kept.dname",
            emp_dept_schema,
        )
        assert collect_variables(query.clause) == {"kept": "DEPT"}


class TestFeatureChecks:
    def test_has_aggregate(self):
        assert has_aggregate(ast.Aggregate("Count", None))
        assert has_aggregate(
            ast.BinaryOp("+", ast.Literal(1), ast.Aggregate("Sum", ast.Literal(2)))
        )
        assert not has_aggregate(ast.Literal(1))

    def test_uses_aggregation(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP) RETURN Count(*) AS c", emp_dept_schema
        )
        assert uses_aggregation(query)

    def test_uses_optional_match(self, emp_dept_schema):
        query = parse_cypher(
            "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) "
            "RETURN m.dname",
            emp_dept_schema,
        )
        assert uses_optional_match(query)
        plain = parse_cypher("MATCH (n:EMP) RETURN n.name", emp_dept_schema)
        assert not uses_optional_match(plain)
