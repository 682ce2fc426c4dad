"""AsyncGraphitiService: async↔sync equivalence, backpressure, lifecycle.

The async layer must be *observationally identical* to the threaded one:
the same batch through ``GraphitiService.run_many`` (worker threads) and
``AsyncGraphitiService.run_many`` (coroutines over the same pool) must be
bag-equal element-wise, results must come back in batch order, and no
``QueryStat`` update may be lost under an asyncio gather-hammer — the
async analogue of ``test_concurrency.TestThreadHammer``.

The tests run the event loop with ``asyncio.run`` inside sync functions so
the suite passes with or without pytest-asyncio installed (the ``dev``
extra carries it for CI, but it is not a runtime dependency).
"""

import asyncio
import threading
import time

import pytest

from repro.backends import (
    AsyncGraphitiService,
    GraphitiService,
    PoolTimeout,
)
from repro.relational.instance import tables_equivalent

SCAN = "MATCH (n:EMP) RETURN n.name"
JOIN = "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname"
AGGREGATE = "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname, Count(*)"
DEPT_SCAN = "MATCH (m:DEPT) RETURN m.dname"
BATCH = [SCAN, JOIN, AGGREGATE, DEPT_SCAN]


@pytest.fixture
def service(emp_dept_schema):
    with GraphitiService(emp_dept_schema, pool_size=4) as svc:
        svc.load_mock(40, seed=11)
        yield svc


@pytest.fixture
def async_service(service):
    async_svc = AsyncGraphitiService(service, max_concurrency=4)
    yield async_svc
    async_svc.close()


class TestAsyncExecution:
    def test_run_matches_reference(self, service, async_service):
        expected = service.reference(JOIN)
        actual = asyncio.run(async_service.run(JOIN))
        assert tables_equivalent(expected, actual)

    def test_run_many_results_in_batch_order(self, async_service):
        batch = [SCAN, DEPT_SCAN, SCAN, DEPT_SCAN]
        results = asyncio.run(async_service.run_many(batch, concurrency=4))
        assert len(results) == 4
        assert results[0].attributes == ("n.name",)
        assert results[1].attributes == ("m.dname",)
        assert tables_equivalent(results[0], results[2])
        assert tables_equivalent(results[1], results[3])

    def test_empty_batch(self, async_service):
        assert asyncio.run(async_service.run_many([], concurrency=4)) == []

    def test_async_equals_threaded_run_many(self, service, async_service):
        """The property at the heart of this layer: same batch, same pool,
        bag-equal element-wise between worker threads and coroutines."""
        batch = BATCH * 4
        threaded = service.run_many(batch, workers=4)
        concurrent = asyncio.run(async_service.run_many(batch, concurrency=4))
        assert len(threaded) == len(concurrent)
        for left, right in zip(threaded, concurrent):
            assert tables_equivalent(left, right)

    def test_async_results_match_reference(self, service, async_service):
        batch = BATCH * 3
        expected = {text: service.reference(text) for text in set(batch)}
        results = asyncio.run(async_service.run_many(batch, concurrency=4))
        for text, result in zip(batch, results):
            assert tables_equivalent(expected[text], result)

    def test_run_many_on_explicit_backend(self, service, async_service):
        results = asyncio.run(
            async_service.run_many([SCAN, JOIN], concurrency=2, backend="sqlite-file")
        )
        assert tables_equivalent(results[0], service.reference(SCAN))
        assert tables_equivalent(results[1], service.reference(JOIN))

    def test_opt_level_override(self, service, async_service):
        raw = asyncio.run(async_service.run(JOIN, opt_level=0))
        assert tables_equivalent(service.reference(JOIN), raw)

    def test_prepare_failure_propagates(self, service, async_service):
        """An unparseable query fails the batch up front, before any
        connection is touched."""
        batch = [SCAN, "MATCH (x:NOPE) RETURN x.nope", SCAN]
        with pytest.raises(Exception):
            asyncio.run(async_service.run_many(batch, concurrency=3))
        assert service.pool().in_use == 0

    def test_execution_failure_propagates_and_pool_drains(
        self, service, async_service, monkeypatch
    ):
        """A query failing *inside* the engine mid-batch: the error
        surfaces, sibling queries still finish, and every connection is
        checked back in."""
        from repro.backends.sqlite import SqliteMemoryBackend

        poison = service.prepare(DEPT_SCAN).sql_text
        original = SqliteMemoryBackend.execute
        good_runs: list[int] = []

        def sometimes_failing(self, sql_text):
            if sql_text == poison:
                raise RuntimeError("engine crashed mid-query")
            table = original(self, sql_text)
            good_runs.append(len(table))
            return table

        pool = service.pool()  # created (and loaded) before the poison
        monkeypatch.setattr(SqliteMemoryBackend, "execute", sometimes_failing)
        with pytest.raises(RuntimeError, match="engine crashed"):
            asyncio.run(
                async_service.run_many([SCAN, DEPT_SCAN, SCAN], concurrency=3)
            )
        assert good_runs  # the healthy queries did run
        assert pool.in_use == 0  # and nothing leaked

    def test_prepare_is_shared_with_sync_service(self, service, async_service):
        asyncio.run(async_service.run(AGGREGATE))
        before = service.cache_info().hits
        service.run(AGGREGATE)  # sync run must hit the same LRU entry
        assert service.cache_info().hits > before


class TestGatherHammer:
    def test_no_lost_stat_updates_under_gather(self, service, async_service):
        """Many concurrent run_many gathers: QueryStat counters must add up
        exactly and every table must answer its own query."""
        gathers, rounds = 6, 3
        expected = {text: service.reference(text) for text in BATCH}
        service.reset_query_stats()

        async def hammer() -> None:
            for _ in range(rounds):
                results = await async_service.run_many(BATCH, concurrency=4)
                for text, result in zip(BATCH, results):
                    assert tables_equivalent(expected[text], result), text

        async def main() -> None:
            await asyncio.gather(*(hammer() for _ in range(gathers)))

        asyncio.run(main())
        stats = {s.cypher_text: s for s in service.query_stats()}
        for text in BATCH:
            assert stats[text].executions == gathers * rounds
            assert len(stats[text].samples) == gathers * rounds
            assert abs(sum(stats[text].samples) - stats[text].total_seconds) < 1e-9

    def test_mixed_sync_and_async_load_on_one_pool(self, service, async_service):
        """Worker threads and coroutines hammer the same pool at once; both
        sides must see correct results and the stats must balance."""
        expected = service.reference(JOIN)
        rounds = 8
        errors: list[Exception] = []
        service.reset_query_stats()

        def sync_hammer() -> None:
            try:
                for _ in range(rounds):
                    assert tables_equivalent(service.run(JOIN), expected)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        async def async_hammer() -> None:
            for _ in range(rounds):
                assert tables_equivalent(await async_service.run(JOIN), expected)

        async def async_main() -> None:
            await asyncio.wait_for(
                asyncio.gather(*(async_hammer() for _ in range(3))), timeout=60
            )

        threads = [threading.Thread(target=sync_hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        asyncio.run(async_main())
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        stat = {s.cypher_text: s for s in service.query_stats()}[JOIN]
        assert stat.executions == rounds * 6


class TestBackpressure:
    def test_fan_out_capped_by_max_concurrency(self, emp_dept_schema):
        """concurrency=8 with max_concurrency=2 must not grow the pool past
        two members: dispatch is semaphore-bounded, not queue-unbounded."""
        with GraphitiService(emp_dept_schema, pool_size=1) as service:
            service.load_mock(30, seed=5)
            async_svc = AsyncGraphitiService(service, max_concurrency=2)
            try:
                results = asyncio.run(async_svc.run_many([SCAN] * 10, concurrency=8))
                assert len(results) == 10
                assert service.pool().size <= 2
            finally:
                async_svc.close()

    def test_checkout_timeout_raises_instead_of_hanging(self, emp_dept_schema):
        """Pool exhausted at capacity: an awaited checkout must raise
        PoolTimeout after checkout_timeout seconds, not wait forever."""
        with GraphitiService(emp_dept_schema, pool_size=1) as service:
            service.load_mock(10, seed=5)
            async_svc = AsyncGraphitiService(
                service, max_concurrency=2, checkout_timeout=0.1
            )
            pool = service.pool()
            hog = pool.checkout()  # the only member the capacity allows
            try:
                with pytest.raises(PoolTimeout):
                    asyncio.run(asyncio.wait_for(async_svc.run(SCAN), timeout=30))
            finally:
                pool.checkin(hog)
                async_svc.close()

    def test_cancel_mid_execution_defers_checkin_until_thread_finishes(
        self, emp_dept_schema, monkeypatch
    ):
        """Cancelling a run() mid-query must NOT check the member in while
        the executor thread is still driving it (one connection, one
        thread); the checkin lands once the engine call actually returns."""
        from repro.backends.sqlite import SqliteMemoryBackend

        entered, release = threading.Event(), threading.Event()
        original = SqliteMemoryBackend.execute

        def slow_execute(self, sql_text):
            entered.set()
            assert release.wait(timeout=30)
            return original(self, sql_text)

        with GraphitiService(emp_dept_schema, pool_size=2) as service:
            service.load_mock(10, seed=5)
            async_svc = AsyncGraphitiService(service, max_concurrency=2)
            pool = service.pool()
            monkeypatch.setattr(SqliteMemoryBackend, "execute", slow_execute)

            async def drive() -> None:
                task = asyncio.ensure_future(async_svc.run(SCAN))
                loop = asyncio.get_running_loop()
                assert await loop.run_in_executor(None, entered.wait, 30)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                # The engine thread is still inside execute(): the member
                # must remain checked out, not be handed to anyone else.
                assert pool.in_use == 1
                release.set()

            try:
                asyncio.run(drive())
                # The deferred checkin lands once the thread finishes.
                deadline = time.monotonic() + 10
                while pool.in_use and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert pool.in_use == 0
                monkeypatch.undo()
                table = asyncio.run(async_svc.run(SCAN))
                assert len(table) == 10
            finally:
                async_svc.close()

    def test_waiter_resumes_when_member_freed(self, emp_dept_schema):
        """A coroutine waiting on an exhausted pool proceeds as soon as a
        sync caller checks the member back in — no polling, no timeout."""
        with GraphitiService(emp_dept_schema, pool_size=1) as service:
            service.load_mock(10, seed=5)
            async_svc = AsyncGraphitiService(service, max_concurrency=2)
            pool = service.pool()
            expected = service.reference(SCAN)
            hog = pool.checkout()
            released = threading.Event()

            def release_soon() -> None:
                released.wait(timeout=30)
                pool.checkin(hog)

            releaser = threading.Thread(target=release_soon)
            releaser.start()

            async def drive():
                task = asyncio.ensure_future(async_svc.run(SCAN))
                # Let the run coroutine reach the waiter registration, then
                # free the member from the sync side.
                await asyncio.sleep(0)
                released.set()
                return await asyncio.wait_for(task, timeout=30)

            try:
                assert tables_equivalent(expected, asyncio.run(drive()))
            finally:
                releaser.join(timeout=30)
                async_svc.close()


@pytest.fixture
def gated_executes(monkeypatch):
    """Hold every EMP query inside the engine until ``release`` is set,
    tracking how many run at once (``peak``)."""
    from repro.backends.sqlite import SqliteMemoryBackend

    original = SqliteMemoryBackend.execute
    state = {"active": 0, "peak": 0}
    lock = threading.Lock()
    entered = threading.Semaphore(0)
    release = threading.Event()

    def gated(self, sql_text, *args, **kwargs):
        if '"EMP"' not in sql_text:
            return original(self, sql_text, *args, **kwargs)
        with lock:
            state["active"] += 1
            state["peak"] = max(state["peak"], state["active"])
        entered.release()
        try:
            assert release.wait(timeout=30)
            return original(self, sql_text, *args, **kwargs)
        finally:
            with lock:
                state["active"] -= 1

    monkeypatch.setattr(SqliteMemoryBackend, "execute", gated)
    state.update(entered=entered, release=release)
    return state


async def wait_entered(gate, count: int) -> None:
    loop = asyncio.get_running_loop()
    for _ in range(count):
        assert await loop.run_in_executor(None, gate["entered"].acquire, True, 30)


class TestExecutorBound:
    def test_independent_runs_bounded_by_executor_threads(
        self, emp_dept_schema, gated_executes
    ):
        """Separately awaited runs — no batch semaphore involved — are
        still capped at max_concurrency in flight by the executor."""
        with GraphitiService(emp_dept_schema, pool_size=4) as service:
            service.load_mock(10, seed=5)
            async_svc = AsyncGraphitiService(service, max_concurrency=2)

            async def drive():
                tasks = [asyncio.ensure_future(async_svc.run(SCAN)) for _ in range(6)]
                await wait_entered(gated_executes, 2)
                gated_executes["release"].set()
                return await asyncio.gather(*tasks)

            try:
                results = asyncio.run(drive())
                assert [len(table) for table in results] == [10] * 6
                assert gated_executes["peak"] == 2
                assert service.pool().size <= 2
            finally:
                gated_executes["release"].set()
                async_svc.close()

    def test_run_many_concurrency_below_max_is_honoured(
        self, emp_dept_schema, gated_executes
    ):
        with GraphitiService(emp_dept_schema, pool_size=4) as service:
            service.load_mock(10, seed=5)
            async_svc = AsyncGraphitiService(service, max_concurrency=4)

            async def drive():
                batch = asyncio.ensure_future(
                    async_svc.run_many([SCAN] * 4, concurrency=1)
                )
                await wait_entered(gated_executes, 1)
                gated_executes["release"].set()
                return await batch

            try:
                assert len(asyncio.run(drive())) == 4
                assert gated_executes["peak"] == 1
            finally:
                gated_executes["release"].set()
                async_svc.close()

    def test_caller_context_reaches_the_engine_thread(
        self, service, async_service, monkeypatch
    ):
        """The pipeline runs in a copy of the awaiting task's context, so
        context variables set by the caller are visible to the engine call
        — each task seeing its own value."""
        import contextvars

        from repro.backends.sqlite import SqliteMemoryBackend

        request = contextvars.ContextVar("request", default=None)
        seen = []
        original = SqliteMemoryBackend.execute

        def recording(self, sql_text, *args, **kwargs):
            if '"EMP"' in sql_text:
                seen.append(request.get())
            return original(self, sql_text, *args, **kwargs)

        monkeypatch.setattr(SqliteMemoryBackend, "execute", recording)

        async def tagged(tag: str):
            request.set(tag)
            return await async_service.run(SCAN)

        async def main():
            await asyncio.gather(tagged("a"), tagged("b"))

        asyncio.run(main())
        assert sorted(seen) == ["a", "b"]
        assert request.get() is None


class TestCheckoutDeadline:
    """The budget's remaining clock caps the pool wait on both paths —
    they share one pipeline."""

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_budget_clock_caps_the_checkout_wait(self, emp_dept_schema, mode):
        from repro.common.budget import QueryBudget

        budget = QueryBudget(timeout_seconds=0.2)
        with GraphitiService(emp_dept_schema, pool_size=1) as service:
            service.load_mock(10, seed=5)
            # checkout_timeout (30 s) is far looser than the budget.
            async_svc = AsyncGraphitiService(
                service, max_concurrency=2, checkout_timeout=30.0
            )
            pool = service.pool()
            hog = pool.checkout()
            started = time.monotonic()
            try:
                with pytest.raises(PoolTimeout):
                    if mode == "sync":
                        service.run(SCAN, budget=budget)
                    else:
                        asyncio.run(
                            asyncio.wait_for(
                                async_svc.run(SCAN, budget=budget), timeout=20
                            )
                        )
                assert time.monotonic() - started < 10
            finally:
                pool.checkin(hog)
                async_svc.close()


class TestBudgetClock:
    @pytest.mark.parametrize("num_shards", [None, 2])
    def test_time_queued_for_an_executor_thread_counts(
        self, emp_dept_schema, gated_executes, num_shards
    ):
        """The budget's clock starts when ``run`` is awaited: a query that
        spends its whole timeout queued behind ``max_concurrency`` fails
        as soon as it reaches the pipeline instead of running in full."""
        from repro.backends import ShardedGraphitiService
        from repro.common.budget import QueryBudget, QueryBudgetExceeded

        if num_shards is None:
            service = GraphitiService(emp_dept_schema, pool_size=2)
        else:
            service = ShardedGraphitiService(emp_dept_schema, num_shards=num_shards)
        with service:
            service.load_mock(10, seed=5)
            async_svc = AsyncGraphitiService(service, max_concurrency=1)

            async def drive():
                holder = asyncio.ensure_future(async_svc.run(SCAN))
                await wait_entered(gated_executes, num_shards or 1)
                queued = asyncio.ensure_future(
                    async_svc.run(SCAN, budget=QueryBudget(timeout_seconds=0.2))
                )
                await asyncio.sleep(0.5)
                gated_executes["release"].set()
                assert len(await holder) == 10
                with pytest.raises(QueryBudgetExceeded) as info:
                    await queued
                return info.value

            try:
                error = asyncio.run(drive())
                assert error.dimension == "timeout"
                assert error.stage == "service"
                assert gated_executes["peak"] == (num_shards or 1)
            finally:
                gated_executes["release"].set()
                async_svc.close()


class TestPoolMetrics:
    def test_awaited_runs_feed_the_checkout_wait_histogram(
        self, service, async_service
    ):
        """Every awaited run checks its member out through the pool's own
        checkout, so the wait histogram counts each one and the state
        gauges return to the idle baseline afterwards."""
        backend = service.default_backend
        metrics = service.metrics
        waits = metrics.histogram("repro_pool_checkout_wait_seconds")
        service.pool()  # created before the count is read
        before = waits.count(backend=backend)
        runs = 6

        async def main() -> None:
            for _ in range(runs // 2):
                await asyncio.gather(async_service.run(SCAN), async_service.run(JOIN))

        asyncio.run(main())
        assert waits.count(backend=backend) == before + runs
        pool = service.pool()
        assert metrics.gauge("repro_pool_in_use").value(backend=backend) == 0
        assert metrics.gauge("repro_pool_waiters").value(backend=backend) == 0
        assert metrics.gauge("repro_pool_size").value(backend=backend) == pool.size
        assert pool.idle_count == pool.size


class TestLifecycle:
    def test_owned_service_mode(self, emp_dept_schema):
        async def main():
            async with AsyncGraphitiService(
                emp_dept_schema, max_concurrency=2, pool_size=2
            ) as svc:
                await svc.load_mock(20, seed=3)
                table = await svc.run(SCAN)
                assert len(table) == 20
                assert svc.service.pool_size == 2  # kwargs forwarded
                return svc

        svc = asyncio.run(main())
        # Owned service is closed with the async facade.
        with pytest.raises(RuntimeError):
            asyncio.run(svc.run(SCAN))

    def test_wrapping_does_not_close_shared_service(self, service):
        async def main():
            async with AsyncGraphitiService(service) as svc:
                await svc.run(SCAN)

        asyncio.run(main())
        service.run(SCAN)  # still serving

    def test_service_kwargs_rejected_when_wrapping(self, service):
        with pytest.raises(TypeError, match="service keyword"):
            AsyncGraphitiService(service, pool_size=2)

    def test_invalid_max_concurrency(self, emp_dept_schema):
        with pytest.raises(ValueError, match="max_concurrency"):
            AsyncGraphitiService(emp_dept_schema, max_concurrency=0)

    def test_close_is_idempotent(self, service):
        svc = AsyncGraphitiService(service)
        svc.close()
        svc.close()

    def test_run_after_close_raises_and_shared_service_survives(self, service):
        svc = AsyncGraphitiService(service)
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            asyncio.run(svc.run(SCAN))
        assert len(service.run(SCAN)) == 40

    def test_sync_delegates(self, service, async_service):
        assert async_service.backends() == service.backends()
        sql = async_service.transpile_to_sql(SCAN)
        assert "SELECT" in sql
        assert async_service.prepare(SCAN).sql_text == sql
        assert async_service.cache_info().hits >= 0

    def test_usable_across_event_loops(self, service, async_service):
        """asyncio primitives are loop-bound; the service must survive
        sequential asyncio.run lifetimes (one per request wave)."""
        first = asyncio.run(async_service.run_many(BATCH, concurrency=4))
        second = asyncio.run(async_service.run_many(BATCH, concurrency=4))
        for left, right in zip(first, second):
            assert tables_equivalent(left, right)
