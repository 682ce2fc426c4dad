"""Bounded model checker: generation, refutation, shrinking."""

import re

import pytest

from repro.checkers import bounded
from repro.checkers.base import CheckRequest, Verdict
from repro.checkers.bounded import BoundedChecker
from repro.checkers.generation import InstanceGenerator, collect_constant_seeds
from repro.checkers.random_testing import RandomTester
from repro.core.equivalence import check_equivalence
from repro.cypher.parser import parse_cypher
from repro.graph.parser import parse_graph_schema
from repro.relational.parser import parse_relational_schema
from repro.sql import ast as sq
from repro.sql.parser import parse_sql
from repro.transformer.parser import parse_transformer


class TestGeneration:
    def test_instances_satisfy_constraints(self, emp_dept_sdt):
        generator = InstanceGenerator(emp_dept_sdt.schema)
        for _ in range(50):
            instance = generator.random_instance(3)
            assert instance.constraint_violation() is None, str(instance)

    def test_bound_respected(self, emp_dept_sdt):
        generator = InstanceGenerator(emp_dept_sdt.schema)
        for _ in range(30):
            instance = generator.random_instance(2)
            for table in instance.tables.values():
                assert len(table) <= 2

    def test_constant_seeding(self):
        seeds = collect_constant_seeds(
            [parse_sql("SELECT e.name FROM emp AS e WHERE e.id = 42")], []
        )
        assert 42 in seeds["id"]

    def test_arithmetic_literals_seed_global_pool(self):
        seeds = collect_constant_seeds(
            [parse_sql("SELECT e.id + 7 AS x FROM emp AS e")], []
        )
        assert 7 in seeds[""]

    def test_in_values_seeded(self):
        seeds = collect_constant_seeds(
            [parse_sql("SELECT e.id FROM emp AS e WHERE e.name IN ('x', 'y')")], []
        )
        assert seeds["name"] == {"x", "y"}

    def test_literals_under_a_recursion_seeded(self):
        def hop(source: sq.Query) -> sq.Query:
            return sq.Projection(
                source,
                (
                    sq.OutputColumn("src", sq.AttributeRef("SRC")),
                    sq.OutputColumn("tgt", sq.AttributeRef("TGT")),
                ),
            )

        base = hop(
            sq.Selection(
                sq.Relation("FOLLOWS"),
                sq.Comparison("=", sq.AttributeRef("SRC"), sq.Literal(5)),
            )
        )
        query = sq.RecursiveQuery(
            "reach", ("src", "tgt"), base, hop(sq.Relation("reach")), sq.Relation("reach")
        )
        seeds = collect_constant_seeds([query], [])
        assert 5 in seeds["SRC"]


class TestVerdicts:
    def _check(self, cypher_text, sql_text, schema, target_schema, transformer, **kw):
        checker = BoundedChecker(
            max_bound=kw.pop("max_bound", 3),
            samples_per_bound=kw.pop("samples", 200),
            time_budget_seconds=10.0,
            seed=kw.pop("seed", 5),
        )
        return check_equivalence(
            schema,
            parse_cypher(cypher_text, schema),
            target_schema,
            parse_sql(sql_text),
            transformer,
            checker,
        )

    def test_equivalent_pair_not_refuted(
        self, emp_dept_schema, merged_target_schema, merged_transformer
    ):
        result = self._check(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname",
            "SELECT e.ename, d.dname FROM emp AS e JOIN dept AS d ON e.deptno = d.dno",
            emp_dept_schema,
            merged_target_schema,
            merged_transformer,
        )
        assert result.verdict is Verdict.BOUNDED_EQUIVALENT
        assert result.outcome.checked_bound >= 1

    def test_filter_bug_refuted_with_counterexample(
        self, emp_dept_schema, merged_target_schema, merged_transformer
    ):
        result = self._check(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) WHERE m.dnum = 1 RETURN n.name",
            "SELECT e.ename FROM emp AS e JOIN dept AS d ON e.deptno = d.dno "
            "WHERE d.dno = 2",
            emp_dept_schema,
            merged_target_schema,
            merged_transformer,
        )
        assert result.verdict is Verdict.NOT_EQUIVALENT
        assert result.counterexample is not None

    def test_shrunk_counterexample_is_minimal_ish(
        self, emp_dept_schema, merged_target_schema, merged_transformer
    ):
        result = self._check(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN DISTINCT m.dname",
            "SELECT d.dname FROM emp AS e JOIN dept AS d ON e.deptno = d.dno",
            emp_dept_schema,
            merged_target_schema,
            merged_transformer,
        )
        assert result.verdict is Verdict.NOT_EQUIVALENT
        # Missing DISTINCT needs two joining rows; shrinking should not go
        # far above that.
        assert result.counterexample.induced_database.total_rows() <= 6

    def test_counterexample_satisfies_transformer(
        self, emp_dept_schema, merged_target_schema, merged_transformer
    ):
        from repro.transformer.semantics import graph_relational_equivalent

        result = self._check(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.id + 1 AS x",
            "SELECT e.eid + 2 AS x FROM emp AS e JOIN dept AS d ON e.deptno = d.dno",
            emp_dept_schema,
            merged_target_schema,
            merged_transformer,
        )
        assert result.verdict is Verdict.NOT_EQUIVALENT
        cex = result.counterexample
        assert graph_relational_equivalent(
            merged_transformer, cex.graph, cex.target_database
        )


class TestInstancesThatRaise:
    """An instance on which a query raises is evidence of neither verdict."""

    GRAPH = "node EMP(id, dept)\n"
    TABLES = "table emp(id, dept)\npk emp.id\n"
    TRANSFORMER = "EMP(id, dept) -> emp(id, dept)\n"

    def _check(self, sql_text, seed=5, **settings):
        schema = parse_graph_schema(self.GRAPH)
        return check_equivalence(
            schema,
            parse_cypher("MATCH (n:EMP) RETURN n.dept", schema),
            parse_relational_schema(self.TABLES),
            parse_sql(sql_text),
            parse_transformer(self.TRANSFORMER),
            BoundedChecker(seed=seed, **settings),
        )

    def test_unknown_when_the_bound_is_exhausted(self):
        result = self._check(
            "SELECT e.dept FROM emp AS e WHERE Count(*) > 1",
            max_bound=2,
            samples_per_bound=20,
        )
        assert result.verdict is Verdict.UNKNOWN
        assert re.fullmatch(
            r"\d+ of 40 instances raised: aggregate Count\(\*\) outside a GROUP BY "
            r"output list",
            result.outcome.detail,
        )

    def test_unknown_when_the_time_budget_is_exhausted(self, monkeypatch):
        class Clock:
            """Each reading is one second after the last."""

            now = 0.0

            def monotonic(self):
                self.now += 1.0
                return self.now

        monkeypatch.setattr(bounded, "time", Clock())
        result = self._check(
            "SELECT e.dept FROM emp AS e WHERE Count(*) > 1",
            time_budget_seconds=30.0,
        )
        assert result.verdict is Verdict.UNKNOWN
        assert result.outcome.detail.endswith("; time budget exhausted")
        assert "instances raised: aggregate Count(*)" in result.outcome.detail

    def test_a_counterexample_on_another_instance_refutes(self, monkeypatch):
        """``e.dept < 'a'`` raises on an integer department and refutes on
        a department ``'a'``, which the Cypher query returns."""
        verdicts = []  # per instance tried: True, False, or None if it raised
        disagree = BoundedChecker._disagree

        def recording(checker, request, induced):
            verdicts.append(None)
            verdicts[-1] = disagree(checker, request, induced)
            return verdicts[-1]

        monkeypatch.setattr(BoundedChecker, "_disagree", recording)
        result = self._check(
            "SELECT e.dept FROM emp AS e WHERE e.dept < 'a'",
            seed=3,
            max_bound=2,
            samples_per_bound=50,
        )
        assert result.verdict is Verdict.NOT_EQUIVALENT
        assert result.counterexample is not None
        assert None in verdicts[: verdicts.index(True)]


class TestRandomTester:
    def test_wraps_bounded_checker(
        self, emp_dept_schema, merged_target_schema, merged_transformer
    ):
        tester = RandomTester(bound=3, samples=120, seed=1)
        result = check_equivalence(
            emp_dept_schema,
            parse_cypher(
                "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name", emp_dept_schema
            ),
            merged_target_schema,
            parse_sql(
                "SELECT e.ename FROM emp AS e JOIN dept AS d ON e.deptno = d.dno"
            ),
            merged_transformer,
            tester,
        )
        assert result.verdict is Verdict.BOUNDED_EQUIVALENT
