"""explain_query / render_span_tree: the ``repro explain`` seam."""

from __future__ import annotations

import json

import pytest

from repro.backends.service import GraphitiService
from repro.benchmarks.universes import SOCIAL
from repro.observability.explain import ExplainReport, explain_query, render_span_tree
from repro.observability.tracing import NOOP_TRACER, span_from_dict

VAR_LENGTH = "MATCH (a:USER)-[:FOLLOWS*1..2]->(b:USER) RETURN b.uname"
SCAN = "MATCH (a:USER) RETURN a.uname"


@pytest.fixture()
def service():
    with GraphitiService(SOCIAL.graph_schema, pool_size=2) as svc:
        svc.load_mock(30, seed=7)
        yield svc


class TestExplainQuery:
    def test_trace_has_the_full_lifecycle(self, service):
        report = explain_query(service, VAR_LENGTH)
        trace = report.trace
        assert trace.name == "query"
        prepare = trace.find("query.prepare")
        assert prepare is not None
        assert prepare.find("cache.lookup") is not None
        # First-ever preparation: parse/transpile/planner all ran.
        for stage in ("query.parse", "query.transpile", "optimize.planner"):
            assert prepare.find(stage) is not None, stage
        assert trace.find("pool.checkout") is not None
        execute = trace.find("execute")
        assert execute is not None
        assert execute.attributes["rows"] == report.rows

    def test_cache_hit_run_still_reports_the_plan(self, service):
        first = explain_query(service, VAR_LENGTH)
        second = explain_query(service, VAR_LENGTH)
        # Second run hits the in-memory cache: no parse/transpile spans...
        prepare = second.trace.find("query.prepare")
        assert prepare.attributes["cached"] == "memory"
        assert prepare.find("query.parse") is None
        # ...but the plan travelled with the cached PreparedQuery.
        assert second.plan is not None
        assert second.plan.to_dict() == first.plan.to_dict()
        assert any(t.choice in {"recursive", "unrolled"} for t in second.plan.traversals)

    def test_tracer_swap_is_restored(self, service):
        assert service.tracer is NOOP_TRACER
        explain_query(service, SCAN)
        assert service.tracer is NOOP_TRACER

    def test_tracer_swap_restored_on_error(self, service):
        before = service.tracer
        with pytest.raises(Exception):
            explain_query(service, "MATCH (x:NOPE) RETURN x.name")
        assert service.tracer is before

    def test_explicit_backend_and_opt_level(self, service):
        report = explain_query(service, SCAN, backend="sqlite-memory", opt_level=0)
        assert report.backend == "sqlite-memory"
        assert report.opt_level == 0
        assert report.trace.attributes["backend"] == "sqlite-memory"

    def test_json_document_round_trips(self, service):
        report = explain_query(service, VAR_LENGTH)
        document = report.to_dict()
        decoded = json.loads(json.dumps(document))
        assert decoded["cypher"] == VAR_LENGTH
        assert decoded["rows"] == report.rows
        assert decoded["plan"]["traversals"]
        rebuilt = span_from_dict(decoded["trace"])
        assert [s.name for s in rebuilt.walk()] == [
            s.name for s in report.trace.walk()
        ]


class TestSettledFeedback:
    def test_settled_line_lasts_for_one_data_load(self, service):
        for _ in range(3):
            service.run(SCAN)
        settled = "feedback settled: q-error 1.0 inside ratio 8 on this data load"
        report = explain_query(service, SCAN)
        assert settled in "\n".join(report.render())
        decoded = json.loads(json.dumps(report.to_dict()))
        assert decoded["observed"]["settled"] is True
        # The same data again: the digest and the entry stay, the pool is
        # new, so the entry is checked again before it settles there.
        service.load_mock(30, seed=7)
        report = explain_query(service, SCAN)
        assert "feedback settled" not in "\n".join(report.render())
        assert report.to_dict()["observed"]["settled"] is False


class TestRendering:
    def test_render_span_tree_shows_stages_and_timings(self, service):
        report = explain_query(service, VAR_LENGTH)
        lines = render_span_tree(report.trace)
        assert lines[0].startswith("query (")
        assert "ms)" in lines[0]
        text = "\n".join(lines)
        assert "pool.checkout" in text
        assert "execute" in text
        # Tree glyphs: every non-root line is branch-prefixed.
        for line in lines[1:]:
            assert "├─ " in line or "└─ " in line

    def test_verbose_attributes_hidden_from_tree(self, service):
        report = explain_query(service, VAR_LENGTH)
        text = "\n".join(render_span_tree(report.trace))
        assert "cypher=" not in text
        assert "sql=" not in text
        assert "backend=" in text

    def test_report_render_sections(self, service):
        report = explain_query(service, VAR_LENGTH)
        text = "\n".join(report.render())
        assert "== trace" in text
        assert "== plan ==" in text
        assert "traversal" in text
        assert "== sql ==" in text
        assert f"== result: {report.rows} row(s) ==" in text

    def test_render_can_suppress_sql(self, service):
        report = explain_query(service, SCAN)
        text = "\n".join(report.render(show_sql=False))
        assert "== sql ==" not in text
        assert "SELECT" not in text

    def test_render_without_plan_omits_plan_section(self, service):
        report = explain_query(service, SCAN)
        stripped = ExplainReport(
            cypher_text=report.cypher_text,
            backend=report.backend,
            opt_level=report.opt_level,
            trace=report.trace,
            sql_text=report.sql_text,
            plan=None,
            rows=report.rows,
            metrics={},
        )
        text = "\n".join(stripped.render())
        assert "== plan ==" not in text
        assert stripped.to_dict()["plan"] is None
