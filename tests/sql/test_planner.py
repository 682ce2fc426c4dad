"""Golden tests for the cost-based planner: specific rewrites must fire."""

import random
import typing

import pytest

from repro.backends import GraphitiService, available_backends
from repro.benchmarks.universes import SOCIAL
from repro.common.values import NULL
from repro.core.transpile import transpile
from repro.cypher.parser import parse_cypher
from repro.relational.instance import Database, tables_equivalent
from repro.relational.schema import Relation, RelationalSchema
from repro.sql import ast
from repro.sql.analysis import iter_nodes
from repro.sql.optimize import optimize
from repro.sql.planner import CardinalityEstimator, PlanReport
from repro.sql.semantics import evaluate_query
from repro.sql.stats import TableStats, collect_stats


@pytest.fixture
def db() -> Database:
    schema = RelationalSchema.of(
        [Relation("r", ("a", "b")), Relation("s", ("c", "d"))]
    )
    database = Database(schema)
    for row in [(1, 10), (2, 10), (3, NULL)]:
        database.insert("r", row)
    for row in [(10, "x"), (20, "y")]:
        database.insert("s", row)
    return database


def transpiled(cypher: str, schema, sdt) -> ast.Query:
    return transpile(parse_cypher(cypher, schema), schema, sdt)


def joins_of(query: ast.Query) -> list[ast.Join]:
    return [n for n in iter_nodes(query) if isinstance(n, ast.Join)]


def leftmost_leaf(query: ast.Query) -> ast.Query:
    while isinstance(query, (ast.Join, ast.Selection, ast.Projection)):
        query = query.left if isinstance(query, ast.Join) else query.query
    return query


class TestCrossProductElimination:
    def test_one_hop_becomes_equi_joins(self, emp_dept_schema, emp_dept_sdt):
        raw = transpiled(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname",
            emp_dept_schema,
            emp_dept_sdt,
        )
        planned = optimize(raw, level=2, schema=emp_dept_sdt.schema)
        joins = joins_of(planned)
        assert joins, "join tree expected"
        assert all(j.kind is ast.JoinKind.INNER for j in joins)
        assert all(j.predicate != ast.TRUE for j in joins)

    def test_single_table_conjunct_pushed_to_scan(
        self, emp_dept_schema, emp_dept_sdt
    ):
        raw = transpiled(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) WHERE n.id = 3 "
            "RETURN n.name, m.dname",
            emp_dept_schema,
            emp_dept_sdt,
        )
        planned = optimize(raw, level=2, schema=emp_dept_sdt.schema)
        # The filter must sit directly on the EMP scan, below every join.
        selections = [
            n
            for n in iter_nodes(planned)
            if isinstance(n, ast.Selection)
            and isinstance(n.query, ast.Renaming)
            and isinstance(n.query.query, ast.Relation)
            and n.query.query.name == "EMP"
        ]
        assert selections, "pushed-down selection on the EMP scan expected"


class TestJoinReordering:
    def test_skewed_stats_put_small_filtered_table_first(
        self, emp_dept_schema, emp_dept_sdt
    ):
        raw = transpiled(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname",
            emp_dept_schema,
            emp_dept_sdt,
        )
        skewed = {
            "EMP": TableStats(100000, {"id": 100000}),
            "WORK_AT": TableStats(50000, {"SRC": 50000, "TGT": 50000}),
            "DEPT": TableStats(3, {"dnum": 3}),
        }
        planned = optimize(
            raw, level=2, schema=emp_dept_sdt.schema, stats=skewed
        )
        start = leftmost_leaf(planned)
        assert isinstance(start, ast.Renaming) and start.name == "m", (
            "the tiny DEPT scan should drive the join"
        )
        # And with the skew inverted the planner must start elsewhere.
        inverted = {
            "EMP": TableStats(3, {"id": 3}),
            "WORK_AT": TableStats(50000, {"SRC": 50000, "TGT": 50000}),
            "DEPT": TableStats(100000, {"dnum": 100000}),
        }
        replanned = optimize(
            raw, level=2, schema=emp_dept_sdt.schema, stats=inverted
        )
        assert leftmost_leaf(replanned).name == "n"

    def test_reordered_plan_keeps_output(self, emp_dept_schema, emp_dept_sdt):
        from repro.execution.datagen import MockDataGenerator

        raw = transpiled(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname",
            emp_dept_schema,
            emp_dept_sdt,
        )
        database = MockDataGenerator(emp_dept_schema, emp_dept_sdt).induced_instance(20)
        skewed = {
            "EMP": TableStats(100000, {"id": 100000}),
            "WORK_AT": TableStats(50000, {"SRC": 50000, "TGT": 50000}),
            "DEPT": TableStats(3, {"dnum": 3}),
        }
        planned = optimize(raw, level=2, schema=emp_dept_sdt.schema, stats=skewed)
        assert tables_equivalent(
            evaluate_query(raw, database), evaluate_query(planned, database)
        )


class TestColumnPruning:
    def test_optional_match_narrows_join_sides(self, emp_dept_schema, emp_dept_sdt):
        cypher = (
            "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) "
            "RETURN n.name, m.dname"
        )
        raw = transpiled(cypher, emp_dept_schema, emp_dept_sdt)
        level1 = optimize(raw, level=1)
        level2 = optimize(raw, level=2, schema=emp_dept_sdt.schema)

        def widths(query):
            return sorted(
                len(n.columns)
                for n in iter_nodes(query)
                if isinstance(n, ast.Projection)
            )

        left_join = next(
            n
            for n in iter_nodes(level2)
            if isinstance(n, ast.Join) and n.kind is ast.JoinKind.LEFT
        )
        assert isinstance(left_join.right, ast.Projection)
        # The optional side used to carry every EMP/WORK_AT/DEPT attribute;
        # only the join key and the returned dname are actually consumed.
        assert {c.alias for c in left_join.right.columns} == {
            "T2.n_id",
            "T2.m_dname",
        }
        assert sum(widths(level2)) < sum(widths(level1))

    def test_root_output_is_preserved(self, emp_dept_schema, emp_dept_sdt):
        from repro.execution.datagen import MockDataGenerator

        cypher = (
            "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) "
            "RETURN n.name, m.dname"
        )
        raw = transpiled(cypher, emp_dept_schema, emp_dept_sdt)
        level2 = optimize(raw, level=2, schema=emp_dept_sdt.schema)
        database = MockDataGenerator(emp_dept_schema, emp_dept_sdt).induced_instance(15)
        assert tables_equivalent(
            evaluate_query(raw, database), evaluate_query(level2, database)
        )


def test_identical_union_branches_are_planned_apart():
    """Translation renames each clause apart, so a plan almost never holds
    two equal subtrees; a UNION of two identical join branches is the one
    shape that does.  Level 2 plans each branch on its own, with no shared
    ``WITH`` binding, and every engine answers with the reference's bag."""
    text = (
        "MATCH (a:USER)-[f:FOLLOWS]->(b:USER) RETURN a.uname UNION ALL "
        "MATCH (a:USER)-[f:FOLLOWS]->(b:USER) RETURN a.uname"
    )
    with GraphitiService(SOCIAL.graph_schema) as service:
        service.load_mock(15, seed=7)
        assert "WITH" not in service.prepare(text, opt_level=2).sql_text
        expected = service.reference(text)
        assert expected.rows
        for backend in available_backends():
            assert tables_equivalent(
                expected, service.run(text, backend=backend, opt_level=2)
            ), backend


class TestEstimator:
    def test_stats_drive_cardinalities(self, db):
        stats = collect_stats(db)
        assert stats["r"].row_count == 3
        assert stats["r"].distinct_of("b") == 1  # 10, 10, NULL
        estimator = CardinalityEstimator(db.schema, stats)
        assert estimator.cardinality(ast.Relation("r")) == 3.0
        filtered = ast.Selection(
            ast.Relation("r"),
            ast.Comparison("=", ast.AttributeRef("b"), ast.Literal(10)),
        )
        assert estimator.cardinality(filtered) == pytest.approx(3.0)
        cross = ast.Join(ast.JoinKind.CROSS, ast.Relation("r"), ast.Relation("s"))
        assert estimator.cardinality(cross) == 6.0

    def test_defaults_without_stats(self, db):
        estimator = CardinalityEstimator(db.schema, None)
        assert estimator.cardinality(ast.Relation("r")) == 1000.0


class TestLevels:
    def test_level_zero_is_identity(self, emp_dept_schema, emp_dept_sdt):
        raw = transpiled(
            "MATCH (n:EMP) RETURN n.name", emp_dept_schema, emp_dept_sdt
        )
        assert optimize(raw, level=0) is raw

    def test_level_two_without_schema_falls_back_to_level_one(
        self, emp_dept_schema, emp_dept_sdt
    ):
        raw = transpiled(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name",
            emp_dept_schema,
            emp_dept_sdt,
        )
        assert optimize(raw, level=2) == optimize(raw, level=1)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            optimize(ast.Relation("r"), level=7)

    def test_optimize_is_idempotent(self, emp_dept_schema, emp_dept_sdt):
        raw = transpiled(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) WHERE n.id = 1 RETURN n.name",
            emp_dept_schema,
            emp_dept_sdt,
        )
        once = optimize(raw, level=1)
        assert optimize(once, level=1) == once


#: Every node class an estimator can be asked about.
QUERY_NODES = typing.get_args(ast.Query)


def _level_two_plans(service: GraphitiService, texts, force_recursive=False):
    """``(level-2 plan, PlanReport, statistics)`` of each of *texts*."""
    stats = collect_stats(service.database)
    schema = service.sdt.schema
    for text in texts:
        raw = transpiled(text, service.graph_schema, service.sdt)
        report = PlanReport()
        plan = optimize(
            raw,
            level=2,
            schema=schema,
            stats=stats,
            report=report,
            force_recursive=force_recursive,
        )
        yield plan, report, stats


class TestEstimatorMemo:
    """One estimator remembers each subtree it estimated, by identity; its
    answers must be the answers a fresh estimator gives, whatever order it
    is asked in, and a map it handed out must never change afterwards."""

    def test_any_order_twice_gives_fresh_answers(self):
        from tests.backends.test_differential import SOCIAL_WORKLOAD, TRAVERSAL_WORKLOAD

        texts = [*SOCIAL_WORKLOAD.values(), *TRAVERSAL_WORKLOAD.values()]
        with GraphitiService(SOCIAL.graph_schema) as service:
            service.load_mock(20, seed=7)
            schema = service.sdt.schema
            for plan, _, stats in _level_two_plans(service, texts):
                nodes = [n for n in iter_nodes(plan) if isinstance(n, QUERY_NODES)]
                fresh = {
                    id(node): (
                        CardinalityEstimator(schema, stats).cardinality(node),
                        CardinalityEstimator(schema, stats).provenance(node),
                    )
                    for node in nodes
                }
                shuffled = list(nodes)
                random.Random(len(nodes)).shuffle(shuffled)
                for order in (nodes, nodes[::-1], shuffled):
                    estimator = CardinalityEstimator(schema, stats)
                    handed_out = []
                    for node in order + order:
                        rows = estimator.cardinality(node)
                        provenance = estimator.provenance(node)
                        assert (rows, provenance) == fresh[id(node)]
                        handed_out.append((provenance, dict(provenance)))
                    for provenance, copy in handed_out:
                        assert provenance == copy

    def test_a_join_leaves_its_childrens_maps_alone(self, db):
        stats = collect_stats(db)
        left = ast.Renaming("x", ast.Relation("r"))
        right = ast.Renaming("y", ast.Relation("s"))
        join = ast.Join(
            ast.JoinKind.INNER,
            left,
            right,
            ast.Comparison("=", ast.AttributeRef("x.b"), ast.AttributeRef("y.c")),
        )
        estimator = CardinalityEstimator(db.schema, stats)
        before = estimator.provenance(left)
        assert set(estimator.provenance(join)) == {"x.a", "x.b", "y.c", "y.d"}
        assert set(before) == {"x.a", "x.b"}
        assert estimator.provenance(left) == before

    @pytest.mark.parametrize("force_recursive", [False, True])
    def test_report_estimate_is_a_fresh_estimate_of_the_plan(self, force_recursive):
        import importlib.util
        from pathlib import Path

        script = Path(__file__).resolve().parents[2] / "scripts" / "plan_snapshots.py"
        spec = importlib.util.spec_from_file_location("plan_snapshots", script)
        snapshots = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(snapshots)
        checked = 0
        for cases in snapshots.snapshot_cases().values():
            with GraphitiService(cases[0][1]) as service:
                service.load_mock(snapshots.ROWS_PER_TABLE, seed=snapshots.SEED)
                texts = [text for _, _, text in cases]
                for plan, report, stats in _level_two_plans(
                    service, texts, force_recursive
                ):
                    fresh = CardinalityEstimator(service.sdt.schema, stats)
                    assert report.estimated_rows == fresh.cardinality(plan)
                    checked += 1
        assert checked > 400
