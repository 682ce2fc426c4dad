"""Adaptive execution: stats refresh, estimate-vs-actual feedback, re-plans.

The lifecycle under test (PR 9): executions accumulate observed actual
rows on the cache entry; when the running mean diverges from the plan's
estimate by ``feedback_ratio`` (q-error) the service re-plans — stats are
re-collected, and when the digest cannot explain the miss the estimator
itself is corrected (forced recursive traversal / scaled base rows) under
a bumped feedback epoch that re-keys exactly that query's cache entries.
"""

import dataclasses
import pickle
import sys
import threading

import pytest

from repro.backends import GraphitiService, QueryBudget
from repro.backends import service as service_module
from repro.benchmarks.universes import SOCIAL
from repro.core.sdt import infer_sdt
from repro.execution.datagen import MockDataGenerator, build_skewed_database
from repro.observability.explain import explain_query
from repro.relational.instance import tables_equivalent
from repro.sql.stats import collect_stats

JOIN_QUERY = "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname"
SCAN_QUERY = "MATCH (n:EMP) RETURN n.name"
#: A bounded traversal whose unrolled chains explode on a hub-skewed graph
#: while the distinct-pair output stays small.
ADAPTIVE_QUERY = "MATCH (a:USER)-[:FOLLOWS*1..3]->(b:USER) RETURN a.uid, b.uid"


@pytest.fixture
def service(emp_dept_schema, emp_dept_graph):
    with GraphitiService(emp_dept_schema) as svc:
        svc.load_graph(emp_dept_graph)
        yield svc


def grow_table(service, factor=50):
    """Mutate the live data enough to change the stats digest."""
    table = service.database.tables["EMP"]
    width = len(table.attributes)
    base = len(table.rows)
    for index in range(base * factor):
        table.rows.append((10_000 + index,) + ("grown",) * (width - 1))


class TestStatsRefresh:
    def test_unchanged_data_keeps_digest(self, service):
        assert service.refresh_stats() is False

    def test_mutated_data_changes_digest(self, service):
        grow_table(service)
        assert service.refresh_stats() is True
        # And the refreshed numbers reflect the live rows.
        assert service._stats["EMP"].row_count == len(
            service.database.tables["EMP"].rows
        )

    def test_refresh_invalidates_exactly_level_two_entries(self, service):
        service.prepare(SCAN_QUERY, opt_level=1)
        service.prepare(SCAN_QUERY, opt_level=2)
        grow_table(service)
        assert service.refresh_stats() is True
        misses = service.cache_info().misses
        # Level-2 keys include the digest: the old entry is unreachable.
        service.prepare(SCAN_QUERY, opt_level=2)
        assert service.cache_info().misses == misses + 1
        # Level-1 keys do not: still a hit.
        hits = service.cache_info().hits
        service.prepare(SCAN_QUERY, opt_level=1)
        assert service.cache_info().hits == hits + 1

    def test_refresh_does_not_reset_pools(self, service):
        before = service.run(SCAN_QUERY)
        service.refresh_stats()
        assert tables_equivalent(service.run(SCAN_QUERY), before)


class TestFeedbackAccumulation:
    def test_serve_accumulates_on_the_cache_entry(self, service):
        _, first = service.serve(SCAN_QUERY)
        assert first.feedback.executions == 1
        _, second = service.serve(SCAN_QUERY)
        assert second is first  # cache hit: the same entry keeps history
        assert second.feedback.executions == 2
        assert second.feedback.last_rows == len(
            service.database.tables["EMP"].rows
        )

    def test_cache_hit_explain_reports_observed_history(self, service):
        explain_query(service, SCAN_QUERY)
        report = explain_query(service, SCAN_QUERY)
        assert report.observed is not None
        assert report.observed["executions"] >= 2
        assert "observed actual rows" in "\n".join(report.render())

    def test_feedback_ratio_must_exceed_one(self, emp_dept_schema):
        with pytest.raises(ValueError):
            GraphitiService(emp_dept_schema, feedback_ratio=1.0)

    def test_disabled_feedback_never_replans(self, emp_dept_schema, emp_dept_graph):
        with GraphitiService(emp_dept_schema, feedback_ratio=None) as svc:
            svc.load_graph(emp_dept_graph)
            prepared = svc.prepare(SCAN_QUERY)
            for _ in range(5):
                svc.observe_execution(prepared, 1_000_000)
            assert svc.feedback_state(SCAN_QUERY) is None
            # History still accumulates for explain, it just never acts.
            assert prepared.feedback.executions == 5


class TestReplan:
    def trigger(self, service, query=SCAN_QUERY, rows=1_000_000, times=2):
        prepared = service.prepare(query)
        for _ in range(times):
            service.observe_execution(prepared, rows)
        return prepared

    def test_divergence_bumps_epoch_and_rekeys(self, service):
        stale = self.trigger(service)
        assert stale.feedback_epoch == 0
        state = service.feedback_state(SCAN_QUERY)
        assert state is not None
        assert state["epoch"] == 1
        assert state["replans"] == 1
        assert state["last"]["reason"] == "underestimate"
        # The corrected plan lives under the new epoch's cache key; the
        # superseded entry is unreachable but intact.
        corrected = service.prepare(SCAN_QUERY)
        assert corrected is not stale
        assert corrected.feedback_epoch == 1
        assert corrected.plan.feedback["epoch"] == 1

    def test_scan_correction_scales_rows_not_traversal(self, service):
        stale_estimate = service.prepare(SCAN_QUERY).plan.estimated_rows
        self.trigger(service, rows=1_000_000)
        state = service.feedback_state(SCAN_QUERY)
        assert not state["force_recursive"]
        assert state["row_scale"] > 1.0
        corrected = service.prepare(SCAN_QUERY)
        assert corrected.plan.estimated_rows > stale_estimate

    def test_stale_entry_cannot_replan_again(self, service):
        stale = self.trigger(service)
        for _ in range(3):
            service.observe_execution(stale, 1_000_000)
        state = service.feedback_state(SCAN_QUERY)
        assert state["epoch"] == 1
        assert state["replans"] == 1

    def test_max_replans_caps_oscillation(
        self, emp_dept_schema, emp_dept_graph, monkeypatch
    ):
        monkeypatch.setattr(service_module, "MAX_REPLANS", 1)
        with GraphitiService(emp_dept_schema) as svc:
            svc.load_graph(emp_dept_graph)
            prepared = svc.prepare(SCAN_QUERY)
            for _ in range(2):
                svc.observe_execution(prepared, 1_000_000)
            assert svc.feedback_state(SCAN_QUERY)["replans"] == 1
            # The *current* epoch's entry diverges again — capped out.
            corrected = svc.prepare(SCAN_QUERY)
            for _ in range(2):
                svc.observe_execution(corrected, 1)
            assert svc.feedback_state(SCAN_QUERY)["replans"] == 1

    def test_reload_during_a_replan_leaves_no_correction(
        self, service, monkeypatch
    ):
        """A reload that lands while a re-plan refreshes stats detaches the
        decision the re-plan holds: no correction learned on the old data
        survives into the new."""
        refresh_stats = service.refresh_stats

        def reload_then_refresh():
            service.load_mock(30, seed=4)
            return refresh_stats()

        monkeypatch.setattr(service, "refresh_stats", reload_then_refresh)
        self.trigger(service)
        assert service.feedback_state(SCAN_QUERY) is None
        assert service.prepare(SCAN_QUERY).feedback_epoch == 0

    def test_a_replan_publishes_a_new_decision(self, service):
        """A re-plan replaces the text's decision whole and leaves the one
        it replaces as it was, so a reader without the lock never sees half
        of a re-plan."""
        self.trigger(service)
        first = service._query_states[SCAN_QUERY].feedback
        assert (first.epoch, first.replans) == (1, 1)
        corrected = service.prepare(SCAN_QUERY)
        for _ in range(2):
            service.observe_execution(corrected, 1)
        second = service._query_states[SCAN_QUERY].feedback
        assert second is not first
        assert (second.epoch, second.replans) == (2, 2)
        assert (first.epoch, first.replans) == (1, 1)
        assert first.last["epoch"] == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.epoch = 3

    def test_per_text_state_is_bounded(self, service, monkeypatch):
        """A stream of distinct re-planning texts keeps at most
        MAX_TRACKED_QUERIES records; an evicted text falls back to epoch 0,
        still answers correctly, and re-learns its correction."""
        cap = 16
        monkeypatch.setattr(service_module, "MAX_TRACKED_QUERIES", cap)
        texts = [
            f"MATCH (n:EMP) WHERE n.id <> {index} RETURN n.name"
            for index in range(200)
        ]
        for text in texts:
            _, prepared = service.serve(text)
            for _ in range(2):
                service.observe_execution(prepared, 1_000_000)
            assert len(service._query_states) <= cap
        assert service.feedback_state(texts[-1])["epoch"] == 1
        assert len(service._query_states) == cap
        first = texts[0]
        assert service.feedback_state(first) is None
        result, prepared = service.serve(first)
        assert prepared.feedback_epoch == 0
        assert tables_equivalent(result, service.reference(first))
        for _ in range(2):
            service.observe_execution(prepared, 1_000_000)
        state = service.feedback_state(first)
        assert (state["epoch"], state["replans"]) == (1, 1)

    def test_changed_digest_resets_corrections(self, service):
        grow_table(service)  # live data outgrew the loaded stats
        self.trigger(service)
        state = service.feedback_state(SCAN_QUERY)
        assert state["last"]["stats_refreshed"]
        assert not state["force_recursive"]
        assert state["row_scale"] == 1.0

    def test_below_min_observations_never_replans(self, service):
        self.trigger(service, times=1)
        assert service.feedback_state(SCAN_QUERY) is None

    def test_replans_counted_in_metrics(self, service):
        self.trigger(service)
        snapshot = service.metrics.snapshot()
        series = snapshot["repro_plan_replans_total"]["series"]
        assert any(
            entry["labels"]["reason"] == "underestimate" and entry["value"] == 1
            for entry in series
        )
        assert snapshot["repro_estimate_error"]["series"]


def estimate_errors(service) -> int:
    """Observations in ``repro_estimate_error`` so far."""
    metric = service.metrics.snapshot().get("repro_estimate_error")
    return sum(series["count"] for series in metric["series"]) if metric else 0


class TestSettledFeedback:
    """An entry settled on a pool skips the estimate-error observation and
    the divergence check there; its rows still accumulate."""

    def test_settles_on_the_pool_it_served_on(self, service):
        for _ in range(service_module.FEEDBACK_MIN_OBSERVATIONS):
            _, prepared = service.serve(SCAN_QUERY)
        assert prepared.feedback.settled_pool == service.pool().number
        checked = estimate_errors(service)
        for _ in range(3):
            service.serve(SCAN_QUERY)
        assert estimate_errors(service) == checked
        assert prepared.feedback.executions == 5

    def test_diverging_entry_never_settles(self, emp_dept_schema, monkeypatch):
        # Statistics of a far smaller load: every execution is off by more
        # than the ratio, and with no re-plan allowed it stays that way.
        monkeypatch.setattr(service_module, "MAX_REPLANS", 0)
        sdt = infer_sdt(emp_dept_schema)
        generator = MockDataGenerator(emp_dept_schema, sdt, seed=3)
        stale = collect_stats(generator.induced_instance(2))
        with GraphitiService(emp_dept_schema) as svc:
            svc.load_database(generator.induced_instance(200), stats=stale)
            for served in range(1, 6):
                _, prepared = svc.serve(SCAN_QUERY)
                assert prepared.feedback.settled_pool is None
                assert estimate_errors(svc) == served

    def test_a_mean_off_the_pool_count_never_settles(self, service):
        """Rows from elsewhere keep the mean off this pool's count, so the
        mean could still move: the entry is checked on every serve."""
        result, prepared = service.serve(SCAN_QUERY)
        service.observe_execution(prepared, len(result.rows) + 1)
        for _ in range(4):
            service.serve(SCAN_QUERY)
            assert prepared.feedback.settled_pool is None

    def test_settled_entry_rearms_after_a_reload(self, service, emp_dept_graph):
        for _ in range(3):
            _, prepared = service.serve(SCAN_QUERY)
        settled_on = prepared.feedback.settled_pool
        assert settled_on is not None
        checked = estimate_errors(service)
        service.load_graph(emp_dept_graph)  # the same data: the same digest
        result, again = service.serve(SCAN_QUERY)
        assert again is prepared
        assert tables_equivalent(result, service.reference(SCAN_QUERY))
        assert estimate_errors(service) == checked + 1
        assert prepared.feedback.settled_pool is None
        service.serve(SCAN_QUERY)
        assert prepared.feedback.settled_pool == service.pool().number != settled_on

    def test_direct_call_on_an_unsettled_entry_still_replans(self, service):
        _, prepared = service.serve(SCAN_QUERY)
        for _ in range(2):
            service.observe_execution(prepared, 1_000_000)
        assert prepared.feedback.settled_pool is None
        state = service.feedback_state(SCAN_QUERY)
        assert (state["epoch"], state["replans"]) == (1, 1)

    def test_direct_call_checks_the_current_pool_and_never_settles(self, service):
        for _ in range(2):
            result, prepared = service.serve(SCAN_QUERY)
        checked = estimate_errors(service)
        service.observe_execution(prepared, len(result.rows))
        assert estimate_errors(service) == checked  # settled here: skipped
        prepared.feedback.settled_pool = None  # every condition holds but the pool
        service.observe_execution(prepared, len(result.rows))
        assert estimate_errors(service) == checked + 1
        assert prepared.feedback.settled_pool is None

    def test_concurrent_serves_lose_no_execution(self, service):
        """Serves racing on one entry, settled or not, each add their rows."""
        threads, serves = 8, 150
        errors = []

        def serve():
            try:
                for _ in range(serves):
                    service.run(SCAN_QUERY)
            except Exception as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=serve) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        feedback = service.prepare(SCAN_QUERY).feedback
        assert feedback.executions == threads * serves
        assert feedback.settled_pool == service.pool().number

    def test_concurrent_first_misses_serve_one_entry(self, service, monkeypatch):
        """Two serves that miss one key both run the pipeline; both serve
        the entry stored first, so neither execution lands on an entry the
        key no longer reaches."""
        barrier = threading.Barrier(2, timeout=30)
        optimize = service_module.optimize

        def together(*args, **kwargs):
            barrier.wait()  # both threads are inside the pipeline at once
            return optimize(*args, **kwargs)

        monkeypatch.setattr(service_module, "optimize", together)
        served, errors = [], []

        def serve():
            try:
                served.append(service.serve(SCAN_QUERY)[1])
            except Exception as error:
                errors.append(error)

        workers = [threading.Thread(target=serve) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert errors == []
        first, second = served
        assert first is second
        assert service.prepare(SCAN_QUERY).feedback.executions == 2

    def test_an_entry_pickled_without_the_field_loads_unsettled(self):
        feedback = service_module.ExecutionFeedback(executions=2, total_rows=4)
        del feedback.__dict__["settled_pool"]  # as pickled before the field
        loaded = pickle.loads(pickle.dumps(feedback))
        assert loaded.settled_pool is None
        assert loaded.to_dict()["settled"] is False


class TestDepthCappedVariants:
    OPEN = "MATCH (a:USER)-[:FOLLOWS*]->(b:USER) RETURN a.uid, b.uid"
    POINT = "MATCH (a:USER) WHERE a.uid = 7 RETURN a.uid, a.age"

    def test_only_capped_rows_are_kept_from_the_estimate(self):
        """A depth-capped plan's rows are truncated by the cap, so however
        far they fall from the estimate they re-plan nothing; a plan the
        cap leaves alone is observed as usual under the same budget."""
        with GraphitiService(SOCIAL.graph_schema) as svc:
            svc.load_mock(40, seed=5)
            result, capped = svc.serve(self.OPEN, budget=QueryBudget(max_depth=1))
            choices = [traversal.choice for traversal in capped.plan.traversals]
            assert "depth-capped" in choices
            assert len(result.rows) < len(svc.reference(self.OPEN).rows)
            for _ in range(2):
                svc.observe_execution(capped, len(result.rows))
            assert svc.feedback_state(self.OPEN) is None
            for _ in range(3):
                _, point = svc.serve(self.POINT, budget=QueryBudget(max_depth=3))
            assert point.feedback.executions == 3


class TestSkewConvergence:
    """End-to-end on a hub-skewed graph: stale uniform stats pick
    the unrolled traversal, feedback converges on the recursive plan."""

    def test_feedback_flips_unrolled_to_recursive(self):
        sdt = infer_sdt(SOCIAL.graph_schema)
        small = MockDataGenerator(SOCIAL.graph_schema, sdt, seed=7).induced_instance(30)
        stale = collect_stats(small)
        skewed = build_skewed_database(users=40, hubs=6, hub_edges=120)
        with GraphitiService(SOCIAL.graph_schema) as svc:
            svc.load_database(skewed, stats=stale)
            results = []
            epochs = []
            for _ in range(8):
                result, prepared = svc.serve(ADAPTIVE_QUERY)
                results.append(result)
                epochs.append(prepared.feedback_epoch)
            state = svc.feedback_state(ADAPTIVE_QUERY)
            assert state is not None and state["replans"] >= 1
            assert prepared.plan.traversal_choice == "recursive"
            assert state["force_recursive"]
            # Every epoch served the same bag of rows.
            assert all(tables_equivalent(results[0], r) for r in results[1:])
            # Epochs only move forward.
            assert epochs == sorted(epochs)
            assert epochs[-1] >= 1
