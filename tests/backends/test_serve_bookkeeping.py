"""What a serve records, and how often it takes the service lock.

A warm serve records its execution in one service-lock section: the
text's ``QueryStat``, the entry's timing on its pool, and, once the entry
has settled there, its rows.  Each execution and each checkout is counted
once: ``repro_queries_total`` and ``repro_pool_checkouts_total`` read the
counts of ``repro_query_seconds`` and ``repro_pool_checkout_wait_seconds``,
so on every serving path each counter series equals its histogram's count.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.backends import AsyncGraphitiService, GraphitiService, QueryBudget
from repro.backends import service as service_module
from repro.backends.sqlite import SqliteMemoryBackend
from repro.benchmarks.universes import SOCIAL
from repro.common.budget import QueryBudgetExceeded
from repro.observability.metrics import MetricsRegistry

#: The ``point-hot`` template of ``servebench/workloads.py``.
POINT = "MATCH (n:USER) WHERE n.uid = 7 RETURN n.uname, n.age"
SCAN = "MATCH (n:USER) RETURN n.uid, n.age"
HOPS = "MATCH (a:USER)-[:FOLLOWS*1..2]->(b:USER) RETURN a.uid, b.uid"

#: Each counter and the histogram whose counts it reports.
COUNTED = (
    ("repro_queries_total", "repro_query_seconds"),
    ("repro_pool_checkouts_total", "repro_pool_checkout_wait_seconds"),
)


class CountingLock:
    """Stands in for the service lock and counts the sections taken."""

    def __init__(self, lock) -> None:
        self.lock = lock
        self.sections = 0

    def __enter__(self):
        self.sections += 1
        return self.lock.__enter__()

    def __exit__(self, *exc_info):
        return self.lock.__exit__(*exc_info)


@pytest.fixture
def service():
    with GraphitiService(SOCIAL.graph_schema) as svc:
        svc.load_mock(50, seed=101)
        for _ in range(service_module.FEEDBACK_MIN_OBSERVATIONS):
            svc.run(POINT)
        yield svc


def exposition_samples(registry: MetricsRegistry) -> dict[str, str]:
    """Each sample line of the Prometheus exposition: ``name{labels}`` to
    its value."""
    samples = {}
    for line in registry.to_prometheus().splitlines():
        if not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            samples[series] = value
    return samples


def assert_counted_once(registry: MetricsRegistry) -> None:
    """Each counter's series are its histogram's counts, label set by label
    set, in ``snapshot()`` and in ``to_prometheus()``."""
    snapshot = registry.snapshot()
    samples = exposition_samples(registry)
    for counter, histogram in COUNTED:
        assert snapshot[counter]["type"] == "counter"
        values = {
            tuple(sorted(series["labels"].items())): series["value"]
            for series in snapshot[counter]["series"]
        }
        counts = {
            tuple(sorted(series["labels"].items())): series["count"]
            for series in snapshot[histogram]["series"]
        }
        assert values == counts and values
        assert all(isinstance(value, float) for value in values.values())
        exposed = {
            series[len(counter):]: value
            for series, value in samples.items()
            if series.startswith(counter + "{")
        }
        exposed_counts = {
            series[len(histogram) + len("_count"):]: value
            for series, value in samples.items()
            if series.startswith(histogram + "_count{")
        }
        assert exposed == exposed_counts
        read = registry.counter(counter)
        for labels, count in counts.items():
            assert read.value(**dict(labels)) == count


class TestOneLockSection:
    def test_a_warm_run_takes_the_service_lock_once(self, service):
        service._lock = counting = CountingLock(service._lock)
        for served in range(1, 4):
            service.run(POINT)
            assert counting.sections == served

    def test_an_inline_async_run_takes_the_service_lock_once(self, service):
        async_svc = AsyncGraphitiService(service, max_concurrency=2)
        async_svc._hop.seconds = 1.0  # stands in for the measured hop
        counting = CountingLock(service._lock)

        async def main() -> None:
            await async_svc.run(POINT)  # the loop's own first-run set-up
            service._lock = counting
            await async_svc.run(POINT)

        try:
            asyncio.run(main())
        finally:
            async_svc.close()
        placements = service.metrics.counter("repro_async_placement_total")
        backend = service.default_backend
        assert placements.value(backend=backend, placement="inline") == 2
        assert counting.sections == 1


class TestCountedOnce:
    def test_no_series_before_the_first_checkout(self):
        with GraphitiService(SOCIAL.graph_schema) as svc:
            svc.load_mock(20, seed=3)
            svc.pool()  # built, never checked out
            snapshot = svc.metrics.snapshot()
            for counter, histogram in COUNTED:
                assert snapshot[counter]["series"] == []
                assert snapshot[histogram]["series"] == []
            exposition = svc.metrics.to_prometheus()
            for counter, _ in COUNTED:
                assert f"# TYPE {counter} counter" in exposition
                assert f"\n{counter}{{" not in exposition

    def test_sync_and_run_many(self, service):
        service.run(SCAN)
        service.run_many([SCAN, POINT, SCAN, POINT], workers=2)
        assert_counted_once(service.metrics)
        backend = service.default_backend
        assert service.metrics.counter("repro_queries_total").value(
            backend=backend
        ) == service_module.FEEDBACK_MIN_OBSERVATIONS + 5

    def test_inline_and_offloaded_async(self, service):
        async_svc = AsyncGraphitiService(service, max_concurrency=2)

        async def main() -> None:
            await async_svc.run(POINT)  # no hop measured yet: offloaded
            async_svc._hop.seconds = 1.0  # stands in for the measured hop
            await async_svc.run(POINT)
            await async_svc.run_many([SCAN, POINT], concurrency=2)

        try:
            asyncio.run(main())
        finally:
            async_svc.close()
        placements = service.metrics.counter("repro_async_placement_total")
        backend = service.default_backend
        assert placements.value(backend=backend, placement="inline") >= 1
        assert placements.value(backend=backend, placement="executor") >= 1
        assert_counted_once(service.metrics)

    def test_partition_parallel_serve(self):
        with GraphitiService(
            SOCIAL.graph_schema, parallelism=2, parallel_row_threshold=0
        ) as svc:
            svc.load_mock(60, seed=3)
            for _ in range(2):
                svc.run(SCAN)
            parallel = svc.metrics.counter("repro_parallel_queries_total")
            assert parallel.total() == 2
            assert_counted_once(svc.metrics)
            # One recorded execution per query; a checkout per partition.
            backend = svc.default_backend
            assert svc.metrics.counter("repro_queries_total").value(
                backend=backend
            ) == 2
            assert svc.metrics.counter("repro_pool_checkouts_total").value(
                backend=backend
            ) == 4

    def test_budget_downgrade(self, monkeypatch):
        original = SqliteMemoryBackend.execute

        def unrolled_trips(self, sql_text, budget=None):
            # The unrolled chains blow the budget; the recursive plan fits.
            if budget is not None and "RECURSIVE" not in sql_text.upper():
                raise QueryBudgetExceeded("too many rows", dimension="rows")
            return original(self, sql_text, budget)

        monkeypatch.setattr(SqliteMemoryBackend, "execute", unrolled_trips)
        with GraphitiService(SOCIAL.graph_schema, feedback_ratio=None) as svc:
            svc.load_mock(30, seed=5)
            table, prepared = svc.serve(HOPS, budget=QueryBudget(max_rows=10**6))
            assert [t.choice for t in prepared.plan.traversals] == ["recursive"]
            assert table.rows
            backend = svc.default_backend
            downgrades = svc.metrics.counter("repro_budget_downgrades_total")
            assert downgrades.value(backend=backend) == 1
            assert_counted_once(svc.metrics)
            assert svc.metrics.counter("repro_queries_total").value(
                backend=backend
            ) == 1
            assert svc.metrics.counter("repro_pool_checkouts_total").value(
                backend=backend
            ) == 2

    def test_a_registry_shared_by_two_services(self):
        registry = MetricsRegistry()
        with GraphitiService(SOCIAL.graph_schema, registry=registry) as first:
            with GraphitiService(SOCIAL.graph_schema, registry=registry) as second:
                first.load_mock(20, seed=3)
                second.load_mock(20, seed=4)
                first.run(SCAN)
                second.run(SCAN)
                second.run(POINT)
                assert_counted_once(registry)
                backend = first.default_backend
                assert registry.counter("repro_queries_total").value(
                    backend=backend
                ) == 3
                assert registry.counter("repro_pool_checkouts_total").value(
                    backend=backend
                ) == 3
