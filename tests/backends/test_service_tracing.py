"""Observability across the serving stack: stats under contention, span
parenting under concurrency, pool-timeout diagnostics, registry counters.

The span-parenting tests are the concurrency contract of the tracer wiring:
``run_many`` over worker threads and async ``run_many`` over coroutines
must both yield ONE ``query.batch`` root whose children are exactly the
batch's queries — balanced (every span closed, children inside parent
bounds) and non-interleaved, even though the work raced on real threads.
"""

from __future__ import annotations

import asyncio
import gc
import threading
import time
import weakref

import pytest

from repro.backends import (
    AsyncGraphitiService,
    ConnectionPool,
    GraphitiService,
    PoolTimeout,
)
from repro.backends import service as service_module
from repro.core.sdt import infer_sdt
from repro.execution.datagen import MockDataGenerator
from repro.observability.metrics import MetricsRegistry, SlowQueryLog
from repro.observability.tracing import NOOP_TRACER, Tracer

SCAN = "MATCH (n:EMP) RETURN n.name"
JOIN = "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname"
AGGREGATE = "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname, Count(*)"
DEPT_SCAN = "MATCH (m:DEPT) RETURN m.dname"
BATCH = [SCAN, JOIN, AGGREGATE, DEPT_SCAN]


@pytest.fixture
def emp_dept_db(emp_dept_schema):
    sdt = infer_sdt(emp_dept_schema)
    return MockDataGenerator(emp_dept_schema, sdt, seed=3).induced_instance(30)


@pytest.fixture
def service(emp_dept_schema):
    with GraphitiService(emp_dept_schema, pool_size=4) as svc:
        svc.load_mock(40, seed=11)
        yield svc


def assert_balanced(root) -> None:
    """Every span closed; every child inside its parent's time bounds."""
    for span in root.walk():
        assert span.end is not None, f"span {span.name!r} never closed"
        for child in span.children:
            assert child.start >= span.start
            assert child.end <= span.end


class TestQueryStatUnderContention:
    """Satellite: percentile accounting must survive a thread-hammer."""

    def test_concurrent_record_execution_exact_counts(self, service):
        threads, per_thread = 8, 200

        def hammer(offset: float) -> None:
            for index in range(per_thread):
                service.record_execution(SCAN, 0.001 * (offset + index))

        workers = [
            threading.Thread(target=hammer, args=(float(i),)) for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        (stat,) = service.query_stats()
        assert stat.cypher_text == SCAN
        assert stat.executions == threads * per_thread
        assert stat.total_seconds == pytest.approx(
            sum(
                0.001 * (offset + index)
                for offset in range(threads)
                for index in range(per_thread)
            )
        )

    def test_percentiles_ordered_and_within_range(self, service):
        def hammer(seconds: float) -> None:
            for _ in range(100):
                service.record_execution(JOIN, seconds)

        workers = [
            threading.Thread(target=hammer, args=(0.001 * (i + 1),)) for i in range(6)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        (stat,) = service.query_stats()
        assert 0.0 < stat.p50_seconds <= stat.p95_seconds <= 0.006
        assert stat.mean_seconds == pytest.approx(stat.total_seconds / stat.executions)

    def test_backend_label_feeds_the_registry(self, service):
        service.record_execution(SCAN, 0.01, backend="sqlite-memory")
        service.record_execution(SCAN, 0.02, backend="sqlite-memory")
        counter = service.metrics.counter("repro_queries_total")
        assert counter.value(backend="sqlite-memory") == 2
        histogram = service.metrics.histogram("repro_query_seconds")
        assert histogram.count(backend="sqlite-memory") == 2
        assert histogram.sum(backend="sqlite-memory") == pytest.approx(0.03)


class TestThreadedSpanParenting:
    """Satellite: balanced, parented spans under ``run_many(workers=N)``."""

    def test_batch_children_match_batch_exactly(self, service):
        tracer = Tracer()
        service.set_tracer(tracer)
        try:
            batch = BATCH * 3
            service.run_many(batch, workers=4)
        finally:
            service.set_tracer(None)
        batch_span = tracer.last_trace()
        assert batch_span.name == "query.batch"
        assert batch_span.attributes["queries"] == len(batch)
        queries = [child for child in batch_span.children if child.name == "query"]
        assert len(queries) == len(batch)
        # index attributes cover the batch: no span lost, none duplicated.
        assert sorted(child.attributes["index"] for child in queries) == list(
            range(len(batch))
        )
        for child in queries:
            assert child.find("execute") is not None
        assert_balanced(batch_span)

    def test_no_interleaving_across_roots(self, service):
        """Two sequential batches yield two disjoint roots, not a tangle."""
        tracer = Tracer()
        service.set_tracer(tracer)
        try:
            service.run_many([SCAN, DEPT_SCAN], workers=2)
            service.run_many([JOIN], workers=2)
        finally:
            service.set_tracer(None)
        roots = [span for span in tracer.traces() if span.name == "query.batch"]
        assert [root.attributes["queries"] for root in roots] == [2, 1]

    def test_single_run_root_span_attributes(self, service):
        tracer = Tracer()
        service.set_tracer(tracer)
        try:
            result = service.run(JOIN)
        finally:
            service.set_tracer(None)
        root = tracer.last_trace()
        assert root.name == "query"
        assert root.attributes["rows"] == len(result.rows)
        assert root.attributes["backend"] == service.default_backend
        assert_balanced(root)


class TestAsyncSpanParenting:
    """Satellite: balanced, parented spans under async ``run_many``."""

    def test_gathered_queries_parent_under_one_batch(self, service):
        tracer = Tracer()
        service.set_tracer(tracer)
        async_svc = AsyncGraphitiService(service, max_concurrency=4)
        try:
            batch = BATCH * 2
            asyncio.run(async_svc.run_many(batch, concurrency=4))
        finally:
            async_svc.close()
            service.set_tracer(None)
        batch_span = tracer.last_trace()
        assert batch_span.name == "query.batch"
        assert batch_span.attributes["mode"] == "async"
        queries = [child for child in batch_span.children if child.name == "query"]
        assert sorted(child.attributes["index"] for child in queries) == list(
            range(len(batch))
        )
        # The execute span crosses the loop→executor boundary and must
        # still land under its own query, not a sibling's.
        for child in queries:
            assert child.find("execute") is not None
        assert_balanced(batch_span)

    def test_async_run_root_is_marked_async(self, service):
        tracer = Tracer()
        service.set_tracer(tracer)
        async_svc = AsyncGraphitiService(service, max_concurrency=2)
        try:
            asyncio.run(async_svc.run(SCAN))
        finally:
            async_svc.close()
            service.set_tracer(None)
        root = tracer.last_trace()
        assert root.name == "query"
        assert root.attributes["mode"] == "async"
        assert root.find("pool.checkout") is not None
        assert root.find("execute") is not None
        assert_balanced(root)


class TestPoolTimeoutDiagnostics:
    """Satellite: PoolTimeout must say capacity / in-use / waiters / wait."""

    def test_sync_timeout_message_and_attributes(self, emp_dept_db):
        pool = ConnectionPool("sqlite-memory", emp_dept_db, capacity=1)
        member = pool.checkout()
        try:
            with pytest.raises(PoolTimeout) as excinfo:
                pool.checkout(timeout=0.05)
        finally:
            pool.checkin(member)
            pool.close()
        error = excinfo.value
        message = str(error)
        assert "capacity 1" in message
        assert "1 in use" in message
        assert "0 idle" in message
        assert "waiter(s)" in message
        assert "waited" in message
        assert error.backend == "sqlite-memory"
        assert error.capacity == 1
        assert error.in_use == 1
        assert error.idle == 0
        assert error.waited_seconds >= 0.05

    def test_async_timeout_carries_the_same_diagnostics(
        self, emp_dept_schema, monkeypatch
    ):
        monkeypatch.setattr(service_module, "CHECKOUT_TIMEOUT", 0.05)
        with GraphitiService(emp_dept_schema, pool_size=1) as service:
            service.load_mock(10, seed=5)
            async_svc = AsyncGraphitiService(service, max_concurrency=2)
            pool = service.pool()
            hog = pool.checkout()
            try:
                with pytest.raises(PoolTimeout) as excinfo:
                    asyncio.run(asyncio.wait_for(async_svc.run(SCAN), timeout=30))
            finally:
                pool.checkin(hog)
                async_svc.close()
        error = excinfo.value
        assert error.capacity == 1
        assert error.in_use == 1
        assert error.waited_seconds is not None
        assert "capacity 1" in str(error)

    def test_sync_run_gives_up_at_the_checkout_ceiling(
        self, emp_dept_schema, monkeypatch
    ):
        """A sync run on a pool exhausted at capacity raises PoolTimeout
        after CHECKOUT_TIMEOUT seconds, as an awaited one does, instead of
        waiting forever."""
        monkeypatch.setattr(service_module, "CHECKOUT_TIMEOUT", 0.1)
        with GraphitiService(emp_dept_schema, pool_size=1) as service:
            service.load_mock(10, seed=5)
            pool = service.pool()
            hog = pool.checkout()
            started = time.monotonic()
            try:
                with pytest.raises(PoolTimeout) as excinfo:
                    service.run(SCAN)
            finally:
                pool.checkin(hog)
        assert time.monotonic() - started < 5
        error = excinfo.value
        assert error.capacity == 1
        assert error.in_use == 1
        assert "capacity 1" in str(error)


class TestRegistryAfterServing:
    """Counters, gauges and the slow-query ring after real traffic."""

    def test_query_counters_match_work_done(self, service):
        service.run_many(BATCH, workers=2)
        service.run(SCAN)
        backend = service.default_backend
        counter = service.metrics.counter("repro_queries_total")
        assert counter.value(backend=backend) == len(BATCH) + 1
        checkouts = service.metrics.counter("repro_pool_checkouts_total")
        assert checkouts.value(backend=backend) >= len(BATCH) + 1

    def test_cache_counter_tiers(self, service):
        service.run(SCAN)
        service.run(SCAN)
        cache = service.metrics.counter("repro_transpile_cache_total")
        assert cache.value(tier="memory", result="miss") == 1
        assert cache.value(tier="memory", result="hit") == 1

    def test_registry_keeps_no_closed_pool_alive(self, emp_dept_schema):
        """The pool's state gauges reach it through a weak reference: a
        registry outliving the service holds neither the pool nor its
        loaded data, and reads the gone pool as empty."""
        registry = MetricsRegistry()
        service = GraphitiService(emp_dept_schema, registry=registry)
        service.load_mock(10, seed=3)
        service.run(SCAN)
        pool = weakref.ref(service.pool())
        database = weakref.ref(service.database)
        service.close()
        del service
        gc.collect()
        assert pool() is None
        assert database() is None
        size = registry.gauge("repro_pool_size")
        assert size.value(backend="sqlite-memory") == 0
        assert 'repro_pool_size{backend="sqlite-memory"} 0' in (
            registry.to_prometheus()
        )

    def test_pool_snapshot_view(self, service):
        service.run(SCAN)
        snapshot = service.pool_snapshots()[service.default_backend]
        assert snapshot["backend"] == service.default_backend
        assert snapshot["capacity"] == 4
        assert snapshot["in_use"] == 0
        assert not snapshot["closed"]

    def test_slow_query_log_records_over_threshold(self, emp_dept_schema):
        with GraphitiService(emp_dept_schema) as svc:
            svc.slow_queries = SlowQueryLog(threshold_seconds=0.0)
            svc.load_mock(10, seed=3)
            svc.run(SCAN)
            entries = svc.slow_queries.entries()
        assert entries
        assert entries[-1].cypher_text == SCAN

    def test_set_tracer_propagates_to_live_pools(self, service):
        service.run(SCAN)  # spawns the pool
        pool = service.pool()
        assert pool.tracer is NOOP_TRACER
        tracer = Tracer()
        service.set_tracer(tracer)
        assert pool.tracer is tracer
        service.set_tracer(None)
        assert pool.tracer is NOOP_TRACER
        assert service.tracer is NOOP_TRACER
