"""Concurrent serving through GraphitiService: run_many, thread hammering.

The regression tests here are the ones that fail loudly if the service's
locking discipline rots: many threads hammering ``run_many`` must lose no
statistics updates and must never hand one query's rows to another query's
caller (cross-query result corruption is the classic symptom of a shared
connection being used from two threads).
"""

import asyncio
import itertools
import threading
import time

import pytest

from repro.backends import AsyncGraphitiService, GraphitiService, PoolClosed
from repro.graph.schema import EdgeType, GraphSchema, NodeType
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


COUNT_USERS = "MATCH (n:USER) RETURN Count(*)"

SOCIAL_SCHEMA = GraphSchema.of(
    [NodeType("USER", ("uid",))],
    [EdgeType("FOLLOWS", "USER", "USER", ("fid",))],
)


@pytest.fixture
def social_service():
    with GraphitiService(SOCIAL_SCHEMA) as svc:
        svc.load_mock(50)
        yield svc


@pytest.fixture
def scatter_service():
    """Every ``COUNT_USERS`` scatters over two rowid partitions."""
    with GraphitiService(
        SOCIAL_SCHEMA, parallelism=2, parallel_row_threshold=0
    ) as svc:
        svc.load_mock(50)
        yield svc


def scattered(service) -> float:
    return service.metrics.counter("repro_parallel_queries_total").total()


class TestServeRacingReload:
    """``load_database`` closes the pools a serve may already hold.  The
    serve runs again, whole, on the pool that replaced its own — every
    answer comes from one complete load, and none raises ``PoolClosed``."""

    SECONDS = 1.0

    def reload_while(
        self, service, serve, sizes=(50,)
    ) -> tuple[int, list, list]:
        """*serve(stop, answers, errors)* on this thread while another
        reloads ``load_mock`` with each of *sizes* in turn, one every
        millisecond, for :attr:`SECONDS`."""
        stop = threading.Event()
        reloads = []

        def reload() -> None:
            while not stop.is_set():
                service.load_mock(sizes[len(reloads) % len(sizes)])
                reloads.append(1)
                time.sleep(0.001)

        reloader = threading.Thread(target=reload)
        timer = threading.Timer(self.SECONDS, stop.set)
        answers, errors = [], []
        reloader.start()
        timer.start()
        try:
            serve(stop, answers, errors)
        finally:
            stop.set()
            timer.cancel()
            reloader.join(timeout=30)
        assert not reloader.is_alive()
        return len(reloads), answers, errors

    @staticmethod
    def threads_serving(service):
        def serve(stop, answers, errors) -> None:
            def client() -> None:
                while not stop.is_set():
                    try:
                        answers.append(service.run(COUNT_USERS).rows)
                    except Exception as error:
                        errors.append(error)

            clients = [threading.Thread(target=client) for _ in range(3)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in clients)

        return serve

    def test_sync_serves(self, social_service):
        reloads, answers, errors = self.reload_while(
            social_service, self.threads_serving(social_service)
        )
        assert reloads >= 10
        assert errors == []
        assert answers and all(rows == [(50,)] for rows in answers)

    def test_async_serves(self, social_service):
        async_svc = AsyncGraphitiService(social_service, max_concurrency=3)
        async_svc._hop.seconds = 1.0  # inline whenever the gate allows

        def serve(stop, answers, errors) -> None:
            async def client() -> None:
                while not stop.is_set():
                    try:
                        answers.append((await async_svc.run(COUNT_USERS)).rows)
                    except Exception as error:
                        errors.append(error)

            async def main() -> None:
                await asyncio.gather(*(client() for _ in range(3)))

            asyncio.run(main())

        try:
            reloads, answers, errors = self.reload_while(social_service, serve)
        finally:
            async_svc.close()
        assert reloads >= 10
        assert errors == []
        assert answers and all(rows == [(50,)] for rows in answers)

    def test_scattered_serves_take_one_load(self, scatter_service):
        """Partitions merged from two loads would count part of each: with
        50 and 10 rows, a 50-row split finished on the 10-row data counts
        25 or 35."""
        reloads, answers, errors = self.reload_while(
            scatter_service, self.threads_serving(scatter_service), sizes=(50, 10)
        )
        assert reloads >= 10
        assert errors == []
        assert scattered(scatter_service) > 0
        assert answers and all(rows in ([(50,)], [(10,)]) for rows in answers)

    def test_a_scatter_spanning_a_reload_serves_again(
        self, scatter_service, monkeypatch
    ):
        """One partition finishes on the old load; the reload then lands
        before the other checks out.  The answer is the new load's."""
        service = scatter_service
        assert service.run(COUNT_USERS).rows == [(50,)]
        pool = service.pool()
        checkout = pool.checkout
        calls = itertools.count()
        first_out = threading.Event()

        def checkout_across_reload(timeout=None):
            if next(calls) == 0:
                member = checkout(timeout=timeout)
                first_out.set()
                return member
            assert first_out.wait(timeout=10)
            service.load_mock(10)
            return checkout(timeout=timeout)

        monkeypatch.setattr(pool, "checkout", checkout_across_reload)
        assert service.run(COUNT_USERS).rows == [(10,)]
        assert next(calls) == 2
        assert scattered(service) == 3

    def test_only_a_replaced_pool_is_left_behind(self, social_service, monkeypatch):
        """A serve whose pool a reload replaced runs on the new pool; a
        pool closed while still in service, or a closed service, raises."""
        service = social_service
        pool = service.pool()
        checkout = pool.checkout

        def checkout_after_reload(timeout=None):
            service.load_mock(20)  # lands after the serve read the map
            return checkout(timeout=timeout)

        monkeypatch.setattr(pool, "checkout", checkout_after_reload)
        assert service.run(COUNT_USERS).rows == [(20,)]
        assert service.pool() is not pool
        service.pool().close()
        with pytest.raises(PoolClosed):
            service.run(COUNT_USERS)
        service.load_mock(50)
        service.close()
        with pytest.raises(PoolClosed):
            service.run(COUNT_USERS)
        assert service.pool_snapshots() == {}
