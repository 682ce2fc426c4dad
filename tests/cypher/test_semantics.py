"""Cypher reference semantics (paper Appendix A)."""

import pytest

from repro.benchmarks.universes import SOCIAL
from repro.common.values import NULL, is_null
from repro.cypher.parser import parse_cypher
from repro.cypher.semantics import evaluate_query
from repro.graph.builder import GraphBuilder
from repro.relational.instance import Table, tables_equivalent


def run(text, schema, graph):
    return evaluate_query(parse_cypher(text, schema), graph)


class TestMatch:
    def test_node_scan(self, emp_dept_schema, emp_dept_graph):
        result = run("MATCH (n:EMP) RETURN n.name", emp_dept_schema, emp_dept_graph)
        assert sorted(result.column("n.name")) == ["A", "B"]

    def test_one_hop(self, emp_dept_schema, emp_dept_graph):
        result = run(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname",
            emp_dept_schema,
            emp_dept_graph,
        )
        assert tables_equivalent(
            result, Table.of(("a", "b"), [("A", "CS"), ("B", "CS")])
        )

    def test_reverse_direction(self, emp_dept_schema, emp_dept_graph):
        result = run(
            "MATCH (m:DEPT)<-[e:WORK_AT]-(n:EMP) RETURN n.name",
            emp_dept_schema,
            emp_dept_graph,
        )
        assert sorted(result.column("n.name")) == ["A", "B"]

    def test_undirected_self_loop_matches_once(self):
        builder = GraphBuilder(SOCIAL.graph_schema)
        ann = builder.add_node("USER", uid=1, uname="ann", age=30)
        bob = builder.add_node("USER", uid=2, uname="bob", age=40)
        builder.add_edge("FOLLOWS", ann, ann, fid=1)
        builder.add_edge("FOLLOWS", ann, bob, fid=2)
        result = run(
            "MATCH (a:USER)-[f:FOLLOWS]-(b:USER) RETURN a.uid, b.uid",
            SOCIAL.graph_schema,
            builder.build(),
        )
        # Both orientations of the self-loop bind one subgraph: one match.
        assert sorted(result.rows) == [(1, 1), (1, 2), (2, 1)]

    def test_where_filter(self, emp_dept_schema, emp_dept_graph):
        result = run(
            "MATCH (n:EMP) WHERE n.id = 1 RETURN n.name",
            emp_dept_schema,
            emp_dept_graph,
        )
        assert result.column("n.name") == ["A"]

    def test_where_null_comparison_drops_row(self, emp_dept_schema):
        builder = GraphBuilder(emp_dept_schema)
        builder.add_node("EMP", id=1, name=NULL)
        graph = builder.build()
        result = run(
            "MATCH (n:EMP) WHERE n.name = 'A' RETURN n.id", emp_dept_schema, graph
        )
        assert len(result) == 0

    def test_shared_variable_across_matches(self, emp_dept_schema, emp_dept_graph):
        result = run(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) "
            "MATCH (n2:EMP)-[e2:WORK_AT]->(m:DEPT) "
            "RETURN n.name, n2.name",
            emp_dept_schema,
            emp_dept_graph,
        )
        # 2 workers × 2 workers sharing the CS department.
        assert len(result) == 4


class TestOptionalMatch:
    def test_null_padding(self, emp_dept_schema):
        builder = GraphBuilder(emp_dept_schema)
        a = builder.add_node("EMP", id=1, name="A")
        b = builder.add_node("EMP", id=2, name="B")
        cs = builder.add_node("DEPT", dnum=1, dname="CS")
        builder.add_edge("WORK_AT", a, cs, wid=10)
        graph = builder.build()
        result = run(
            "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) "
            "RETURN n.name, m.dname",
            emp_dept_schema,
            graph,
        )
        rows = set(result.rows)
        assert ("A", "CS") in rows
        assert ("B", NULL) in rows

    def test_no_shared_variables_is_cross_product(self, emp_dept_schema, emp_dept_graph):
        result = run(
            "MATCH (n:EMP) OPTIONAL MATCH (d:DEPT) RETURN n.name, d.dname",
            emp_dept_schema,
            emp_dept_graph,
        )
        assert len(result) == 4  # 2 emps × 2 depts

    def test_predicate_failure_nullifies(self, emp_dept_schema, emp_dept_graph):
        result = run(
            "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) "
            "WHERE m.dnum = 99 RETURN n.name, m.dname",
            emp_dept_schema,
            emp_dept_graph,
        )
        assert all(is_null(value) for value in result.column("m.dname"))


class TestWith:
    def test_with_projects_and_renames(self, emp_dept_schema, emp_dept_graph):
        result = run(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) WITH m AS kept "
            "RETURN kept.dname",
            emp_dept_schema,
            emp_dept_graph,
        )
        # Multiplicity preserved: one row per original match.
        assert result.column("kept.dname") == ["CS", "CS"]


class TestAggregation:
    def test_count_star_groups(self, emp_dept_schema, emp_dept_graph):
        result = run(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname, Count(*)",
            emp_dept_schema,
            emp_dept_graph,
        )
        assert result.rows == [("CS", 2)]

    def test_count_variable_skips_nulls(self, emp_dept_schema):
        builder = GraphBuilder(emp_dept_schema)
        a = builder.add_node("EMP", id=1, name="A")
        builder.add_node("EMP", id=2, name="B")
        cs = builder.add_node("DEPT", dnum=1, dname="CS")
        builder.add_edge("WORK_AT", a, cs, wid=10)
        graph = builder.build()
        result = run(
            "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) "
            "RETURN Count(m) AS c, Count(*) AS total",
            emp_dept_schema,
            graph,
        )
        assert result.rows == [(1, 2)]

    def test_empty_input_yields_no_groups(self, emp_dept_schema):
        graph = GraphBuilder(emp_dept_schema).build()
        result = run(
            "MATCH (n:EMP) RETURN Count(*) AS c", emp_dept_schema, graph
        )
        # Paper Appendix A: Groups over an empty match list is empty.
        assert len(result) == 0

    def test_sum_avg_min_max(self, emp_dept_schema, emp_dept_graph):
        result = run(
            "MATCH (n:EMP) RETURN Sum(n.id) AS s, Avg(n.id) AS a, "
            "Min(n.id) AS lo, Max(n.id) AS hi",
            emp_dept_schema,
            emp_dept_graph,
        )
        assert result.rows == [(3, 1.5, 1, 2)]


class TestExists:
    def test_exists_filters(self, emp_dept_schema):
        builder = GraphBuilder(emp_dept_schema)
        a = builder.add_node("EMP", id=1, name="A")
        builder.add_node("EMP", id=2, name="B")
        cs = builder.add_node("DEPT", dnum=1, dname="CS")
        builder.add_edge("WORK_AT", a, cs, wid=10)
        graph = builder.build()
        result = run(
            "MATCH (n:EMP) WHERE EXISTS { MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) } "
            "RETURN n.name",
            emp_dept_schema,
            graph,
        )
        assert result.column("n.name") == ["A"]

    def test_exists_with_inner_predicate(self, emp_dept_schema, emp_dept_graph):
        result = run(
            "MATCH (n:EMP) WHERE EXISTS { MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) "
            "WHERE m.dname = 'EE' } RETURN n.name",
            emp_dept_schema,
            emp_dept_graph,
        )
        assert len(result) == 0


class TestQueryForms:
    def test_union_deduplicates(self, emp_dept_schema, emp_dept_graph):
        result = run(
            "MATCH (n:EMP) RETURN n.name UNION MATCH (m:EMP) RETURN m.name",
            emp_dept_schema,
            emp_dept_graph,
        )
        assert sorted(result.column("n.name")) == ["A", "B"]

    def test_union_all_keeps_duplicates(self, emp_dept_schema, emp_dept_graph):
        result = run(
            "MATCH (n:EMP) RETURN n.name UNION ALL MATCH (m:EMP) RETURN m.name",
            emp_dept_schema,
            emp_dept_graph,
        )
        assert len(result) == 4

    def test_order_by_desc_limit(self, emp_dept_schema, emp_dept_graph):
        result = run(
            "MATCH (n:EMP) RETURN n.name AS who, n.id AS k ORDER BY k DESC LIMIT 1",
            emp_dept_schema,
            emp_dept_graph,
        )
        assert result.ordered
        assert result.rows == [("B", 2)]

    def test_distinct(self, emp_dept_schema, emp_dept_graph):
        result = run(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN DISTINCT m.dname",
            emp_dept_schema,
            emp_dept_graph,
        )
        assert result.rows == [("CS",)]

    def test_arithmetic_projection(self, emp_dept_schema, emp_dept_graph):
        result = run(
            "MATCH (n:EMP) RETURN n.id * 10 AS v", emp_dept_schema, emp_dept_graph
        )
        assert sorted(result.column("v")) == [10, 20]
