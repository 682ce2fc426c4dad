"""GraphitiService behaviour: caching, loading, multi-backend execution."""

import re

import pytest

from repro.backends import GraphitiService, schema_fingerprint
from repro.backends import service as service_module
from repro.benchmarks.universes import SOCIAL
from repro.common.errors import ParseError
from repro.graph.schema import EdgeType, GraphSchema, NodeType
from repro.relational.instance import Database, tables_equivalent

JOIN_QUERY = "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname"
SCAN_QUERY = "MATCH (n:EMP) RETURN n.name"


@pytest.fixture
def service(emp_dept_schema, emp_dept_graph):
    with GraphitiService(emp_dept_schema) as svc:
        svc.load_graph(emp_dept_graph)
        yield svc


class TestTranspilationCache:
    def test_repeated_query_hits_cache(self, service):
        assert service.cache_info().currsize == 0
        first = service.transpile_to_sql(JOIN_QUERY)
        info = service.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
        second = service.transpile_to_sql(JOIN_QUERY)
        info = service.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert first == second

    def test_distinct_queries_are_distinct_entries(self, service):
        service.transpile_to_sql(JOIN_QUERY)
        service.transpile_to_sql(SCAN_QUERY)
        assert service.cache_info().currsize == 2

    def test_dialects_cached_separately(self, service):
        sqlite_sql = service.transpile_to_sql(SCAN_QUERY, dialect="sqlite")
        mysql_sql = service.transpile_to_sql(SCAN_QUERY, dialect="mysql")
        assert service.cache_info().currsize == 2
        assert sqlite_sql != mysql_sql
        assert "`" in mysql_sql

    def test_cache_evicts_least_recently_used(self, emp_dept_schema, monkeypatch):
        monkeypatch.setattr(service_module, "CACHE_SIZE", 2)
        with GraphitiService(emp_dept_schema) as svc:
            svc.transpile_to_sql(SCAN_QUERY)
            svc.transpile_to_sql(JOIN_QUERY)
            svc.transpile_to_sql("MATCH (m:DEPT) RETURN m.dname")
            info = svc.cache_info()
            assert info.currsize == 2
            # The oldest entry (SCAN_QUERY) was evicted: re-preparing misses.
            svc.transpile_to_sql(SCAN_QUERY)
            assert svc.cache_info().misses == 4

    def test_clear_cache(self, service):
        service.transpile_to_sql(SCAN_QUERY)
        service.clear_cache()
        info = service.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_run_reuses_prepared_queries(self, service):
        service.run(JOIN_QUERY)
        misses = service.cache_info().misses
        service.run(JOIN_QUERY)
        assert service.cache_info().misses == misses
        assert service.cache_info().hits >= 1


class TestFingerprint:
    def test_stable_across_instances(self, emp_dept_schema):
        again = GraphSchema.of(
            [NodeType("EMP", ("id", "name")), NodeType("DEPT", ("dnum", "dname"))],
            [EdgeType("WORK_AT", "EMP", "DEPT", ("wid",))],
        )
        assert schema_fingerprint(emp_dept_schema) == schema_fingerprint(again)

    def test_differs_for_different_schemas(self, emp_dept_schema):
        other = GraphSchema.of([NodeType("ONLY", ("oid",))])
        assert schema_fingerprint(emp_dept_schema) != schema_fingerprint(other)

    def test_fingerprint_keys_cache_entries(self, service):
        prepared = service.prepare(SCAN_QUERY)
        assert prepared.fingerprint == service.fingerprint


class TestExecution:
    def test_run_matches_reference(self, service):
        assert tables_equivalent(service.run(JOIN_QUERY), service.reference(JOIN_QUERY))

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_cast_of_a_predicate_matches_reference(self, service, level):
        for text in (
            "MATCH (n:EMP) RETURN toInteger(n.id > 3) AS c",
            "MATCH (n:EMP) WHERE toInteger(n.id > 3) = 0 RETURN n.name",
        ):
            assert tables_equivalent(
                service.run(text, opt_level=level),
                service.reference(text, opt_level=level),
            )

    def test_identical_results_on_two_backends(self, service):
        names = service.backends()
        assert len(names) >= 2, "expected at least two registered backends"
        results = [service.run(JOIN_QUERY, backend=name) for name in names]
        for left, right in zip(results, results[1:]):
            assert tables_equivalent(left, right)

    def test_explain_mentions_table(self, service):
        assert "EMP" in service.explain(SCAN_QUERY) or "n" in service.explain(SCAN_QUERY)

    def test_time_is_nonnegative(self, service):
        assert service.time(SCAN_QUERY, repeats=2) >= 0.0


class TestLoading:
    def test_load_database_requires_induced_schema(self, service):
        from repro.relational.schema import Relation, RelationalSchema

        wrong = Database(RelationalSchema.of([Relation("other", ("x",))]))
        with pytest.raises(ValueError, match="induced schema"):
            service.load_database(wrong)

    def test_load_mock_populates_all_tables(self, emp_dept_schema):
        with GraphitiService(emp_dept_schema) as svc:
            svc.load_mock(20)
            assert svc.database.total_rows() == 60  # 2 node + 1 edge tables
            result = svc.run(SCAN_QUERY)
            assert len(result) == 20

    def test_reload_resets_backends(self, emp_dept_schema):
        with GraphitiService(emp_dept_schema) as svc:
            svc.load_mock(5)
            assert len(svc.run(SCAN_QUERY)) == 5
            svc.load_mock(9)
            assert len(svc.run(SCAN_QUERY)) == 9


class TestOptLevels:
    def test_levels_are_distinct_cache_entries(self, service):
        for level in (0, 1, 2):
            service.prepare(JOIN_QUERY, opt_level=level)
        assert service.cache_info().currsize == 3

    def test_prepared_query_records_level(self, service):
        assert service.prepare(JOIN_QUERY, opt_level=1).opt_level == 1
        assert service.prepare(JOIN_QUERY).opt_level == service.opt_level

    def test_level_two_is_the_default(self, emp_dept_schema):
        with GraphitiService(emp_dept_schema) as svc:
            assert svc.opt_level == 2

    def test_unknown_level_rejected(self, emp_dept_schema, service):
        with pytest.raises(ValueError, match="optimization level"):
            GraphitiService(emp_dept_schema, opt_level=9)
        with pytest.raises(ValueError, match="optimization level"):
            service.prepare(SCAN_QUERY, opt_level=9)

    def test_levels_agree_on_results(self, service):
        results = [service.run(JOIN_QUERY, opt_level=level) for level in (0, 1, 2)]
        for left, right in zip(results, results[1:]):
            assert tables_equivalent(left, right)

    def test_reload_replans_level_two_only(self, emp_dept_schema):
        # Fresh statistics can change the level-2 plan, so a data reload
        # must invalidate level-2 entries; level-1 plans are stats-free.
        with GraphitiService(emp_dept_schema) as svc:
            svc.load_mock(10)
            svc.prepare(JOIN_QUERY, opt_level=1)
            svc.prepare(JOIN_QUERY, opt_level=2)
            svc.load_mock(20)
            svc.prepare(JOIN_QUERY, opt_level=1)
            info = svc.cache_info()
            assert (info.hits, info.misses) == (1, 2)
            svc.prepare(JOIN_QUERY, opt_level=2)
            info = svc.cache_info()
            assert (info.hits, info.misses) == (1, 3)


class TestStatistics:
    def test_load_collects_stats(self, emp_dept_schema):
        with GraphitiService(emp_dept_schema) as svc:
            svc.load_mock(25)
            stats = svc._stats
            assert stats is not None
            assert stats["EMP"].row_count == 25
            assert stats["EMP"].distinct_of("id") == 25


class TestQueryStats:
    def test_run_and_time_are_recorded(self, service):
        service.run(SCAN_QUERY)
        service.run(SCAN_QUERY)
        service.time(JOIN_QUERY, repeats=2)
        stats = {s.cypher_text: s for s in service.query_stats()}
        assert stats[SCAN_QUERY].executions == 2
        assert stats[SCAN_QUERY].total_seconds >= stats[SCAN_QUERY].last_seconds
        assert stats[JOIN_QUERY].executions == 1
        assert stats[JOIN_QUERY].mean_seconds >= 0.0

    def test_reset(self, service):
        service.run(SCAN_QUERY)
        service.reset_query_stats()
        assert service.query_stats() == ()


class TestDuplicateOutputNames:
    """Cypher rejects a repeated result column name; the engine and the
    reference evaluator must not disagree about it (the engine used to
    rename the second column, the reference to raise a schema error)."""

    @pytest.fixture(scope="class")
    def social(self):
        with GraphitiService(SOCIAL.graph_schema) as svc:
            svc.load_mock(30, seed=3)
            yield svc

    @pytest.mark.parametrize(
        ("text", "name", "column"),
        [
            ("MATCH (a:USER) RETURN a.uid, a.uid", "'a.uid' in RETURN", 30),
            ("MATCH (a:USER) RETURN a.uid AS x, a.age AS x", "'x' in RETURN", 44),
            ("MATCH (a:USER) RETURN Count(*), Count(*)", "'Count(*)' in RETURN", 33),
            ("MATCH (a:USER) WITH a, a RETURN a.uid", "'a' in WITH", 24),
            ("MATCH (a:USER)\nWITH a AS b, a AS b RETURN b.uid", "'b' in WITH", 19),
        ],
    )
    def test_every_entry_point_raises_a_positioned_parse_error(
        self, social, text, name, column
    ):
        line = text.count("\n") + 1
        for entry_point in (social.run, social.reference, social.transpile_to_sql):
            with pytest.raises(ParseError, match=f"duplicate .*{re.escape(name)}") as raised:
                entry_point(text)
            assert (raised.value.line, raised.value.column) == (line, column)

    def test_distinct_names_over_the_same_expression_still_serve(self, social):
        text = "MATCH (a:USER) RETURN a.uid, a.uid AS x"
        actual = social.run(text)
        assert actual.attributes == ("a.uid", "x")
        assert tables_equivalent(social.reference(text), actual)
