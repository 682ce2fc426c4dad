"""Concurrent serving through GraphitiService: run_many, thread hammering.

The regression tests here are the ones that fail loudly if the service's
locking discipline rots: many threads hammering ``run_many`` must lose no
statistics updates and must never hand one query's rows to another query's
caller (cross-query result corruption is the classic symptom of a shared
connection being used from two threads).
"""

import threading

import pytest

from repro.backends import GraphitiService
from repro.relational.instance import tables_equivalent

SCAN = "MATCH (n:EMP) RETURN n.name"
JOIN = "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname"
AGGREGATE = "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname, Count(*)"
DEPT_SCAN = "MATCH (m:DEPT) RETURN m.dname"


@pytest.fixture
def service(emp_dept_schema):
    with GraphitiService(emp_dept_schema, pool_size=4) as svc:
        svc.load_mock(40, seed=11)
        yield svc


class TestRunMany:
    def test_results_in_batch_order(self, service):
        batch = [SCAN, DEPT_SCAN, SCAN, DEPT_SCAN]
        results = service.run_many(batch, workers=4)
        assert len(results) == 4
        assert results[0].attributes == ("n.name",)
        assert results[1].attributes == ("m.dname",)
        assert tables_equivalent(results[0], results[2])
        assert tables_equivalent(results[1], results[3])

    def test_empty_batch(self, service):
        assert service.run_many([], workers=4) == []

    def test_single_worker_matches_parallel(self, service):
        batch = [SCAN, JOIN, AGGREGATE] * 4
        serial = service.run_many(batch, workers=1)
        parallel = service.run_many(batch, workers=4)
        for left, right in zip(serial, parallel):
            assert tables_equivalent(left, right)

    def test_concurrent_results_match_reference(self, service):
        batch = [SCAN, JOIN, AGGREGATE, DEPT_SCAN] * 3
        expected = {text: service.reference(text) for text in set(batch)}
        results = service.run_many(batch, workers=4)
        for text, result in zip(batch, results):
            assert tables_equivalent(expected[text], result)

    def test_workers_capped_by_batch_size(self, service):
        results = service.run_many([SCAN], workers=16)
        assert len(results) == 1
        # One query can use at most one worker/connection.
        assert service.pool().size <= service.pool().capacity

    def test_pool_grows_to_worker_count(self, service):
        service.run_many([SCAN] * 8, workers=6, backend="sqlite-memory")
        assert service.pool("sqlite-memory").capacity >= 6

    def test_run_many_on_explicit_backend(self, service):
        results = service.run_many([SCAN, JOIN], workers=2, backend="sqlite-file")
        assert tables_equivalent(results[0], service.reference(SCAN))
        assert tables_equivalent(results[1], service.reference(JOIN))

    def test_worker_exception_propagates(self, service):
        with pytest.raises(Exception):
            service.run_many(["MATCH (x:NOPE) RETURN x.nope"] * 3, workers=2)


class TestThreadHammer:
    def test_no_lost_stat_updates_and_no_corruption(self, service):
        """Many threads × many run_many calls: counters must add up exactly
        and every returned table must be the right query's result."""
        threads_count, rounds = 6, 5
        batch = [SCAN, JOIN, AGGREGATE, DEPT_SCAN]
        expected = {text: service.reference(text) for text in batch}
        service.reset_query_stats()
        errors = []

        def hammer():
            try:
                for _ in range(rounds):
                    results = service.run_many(batch, workers=4)
                    for text, result in zip(batch, results):
                        assert tables_equivalent(expected[text], result), text
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        workers = [threading.Thread(target=hammer) for _ in range(threads_count)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        assert not errors
        stats = {s.cypher_text: s for s in service.query_stats()}
        for text in batch:
            assert stats[text].executions == threads_count * rounds
            assert len(stats[text].samples) == threads_count * rounds
            assert abs(sum(stats[text].samples) - stats[text].total_seconds) < 1e-9

    def test_concurrent_run_calls_are_safe(self, service):
        expected = service.reference(JOIN)
        errors = []

        def worker():
            try:
                for _ in range(10):
                    assert tables_equivalent(service.run(JOIN), expected)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_concurrent_prepare_stampede_is_consistent(self, service):
        """Racing cold prepares may duplicate work but must agree on SQL."""
        rendered = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            rendered.append(service.transpile_to_sql(JOIN))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(rendered)) == 1


class TestPercentiles:
    def test_samples_accumulate_and_percentiles_order(self, service):
        for _ in range(20):
            service.run(SCAN)
        stat = {s.cypher_text: s for s in service.query_stats()}[SCAN]
        assert stat.executions == 20
        assert len(stat.samples) == 20
        assert 0.0 <= stat.p50_seconds <= stat.p95_seconds <= max(stat.samples)

    def test_percentiles_of_known_samples(self):
        from repro.backends import QueryStat

        samples = tuple(float(n) for n in range(1, 101))  # 1..100
        stat = QueryStat("q", 100, sum(samples), 100.0, samples)
        assert stat.p50_seconds == pytest.approx(50.0, abs=1.0)
        assert stat.p95_seconds == pytest.approx(95.0, abs=1.0)

    def test_empty_samples_percentile_is_zero(self):
        from repro.backends import QueryStat

        stat = QueryStat("q", 0, 0.0, 0.0)
        assert stat.p50_seconds == 0.0
        assert stat.p95_seconds == 0.0

    def test_tracked_texts_are_bounded(self, service):
        """A stream of distinct texts (inlined literals) keeps only the
        most recently recorded MAX_TRACKED_QUERIES of them, and a text
        recorded throughout the stream keeps exact counts."""
        from repro.backends.service import MAX_TRACKED_QUERIES

        hot = "MATCH (n:EMP) WHERE n.id = 0 RETURN n.name"
        for index in range(100_000):
            service.record_execution(f"MATCH (n:EMP) WHERE n.id = {index} RETURN n", 0.5)
            if index % 50 == 0:
                service.record_execution(hot, 0.25)
        stats = service.query_stats()
        assert len(stats) == MAX_TRACKED_QUERIES
        by_text = {stat.cypher_text: stat for stat in stats}
        assert by_text[hot].executions == 2_000
        assert by_text[hot].total_seconds == 500.0
        newest = by_text["MATCH (n:EMP) WHERE n.id = 99999 RETURN n"]
        assert (newest.executions, newest.total_seconds, newest.samples) == (
            1, 0.5, (0.5,)
        )
        assert "MATCH (n:EMP) WHERE n.id = 0 RETURN n" not in by_text
        # Listed in first-recorded order, as before the cap.
        assert stats[0].cypher_text == hot

    def test_sample_window_is_bounded(self, service):
        from repro.backends.service import MAX_LATENCY_SAMPLES

        for _ in range(MAX_LATENCY_SAMPLES + 25):
            service.run(DEPT_SCAN)
        stat = {s.cypher_text: s for s in service.query_stats()}[DEPT_SCAN]
        assert stat.executions == MAX_LATENCY_SAMPLES + 25
        assert len(stat.samples) == MAX_LATENCY_SAMPLES
