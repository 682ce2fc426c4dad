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
import itertools
import sys
import threading
import time

import pytest

from repro.backends import (
    AsyncGraphitiService,
    GraphitiService,
    PoolTimeout,
)
from repro.backends import service as service_module
from repro.backends.executor import HOP_SAMPLES, HopClock
from repro.backends.service import FEEDBACK_MIN_OBSERVATIONS
from repro.relational.instance import Table, tables_equivalent

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

    def test_checkout_timeout_raises_instead_of_hanging(
        self, emp_dept_schema, monkeypatch
    ):
        """Pool exhausted at capacity: an awaited checkout must raise
        PoolTimeout after CHECKOUT_TIMEOUT seconds, not wait forever."""
        monkeypatch.setattr(service_module, "CHECKOUT_TIMEOUT", 0.1)
        with GraphitiService(emp_dept_schema, pool_size=1) as service:
            service.load_mock(10, seed=5)
            async_svc = AsyncGraphitiService(service, max_concurrency=2)
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
            # CHECKOUT_TIMEOUT (30 s) is far looser than the budget.
            async_svc = AsyncGraphitiService(service, max_concurrency=2)
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
    def test_time_queued_for_an_executor_thread_counts(
        self, emp_dept_schema, gated_executes
    ):
        """The budget's clock starts when ``run`` is awaited: a query that
        spends its whole timeout queued behind ``max_concurrency`` fails
        as soon as it reaches the pipeline instead of running in full."""
        from repro.common.budget import QueryBudget, QueryBudgetExceeded

        with GraphitiService(emp_dept_schema, pool_size=2) as service:
            service.load_mock(10, seed=5)
            async_svc = AsyncGraphitiService(service, max_concurrency=1)

            async def drive():
                holder = asyncio.ensure_future(async_svc.run(SCAN))
                await wait_entered(gated_executes, 1)
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
                assert gated_executes["peak"] == 1
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

    def test_usable_across_event_loops(self, service, async_service):
        """asyncio primitives are loop-bound; the service must survive
        sequential asyncio.run lifetimes (one per request wave)."""
        first = asyncio.run(async_service.run_many(BATCH, concurrency=4))
        second = asyncio.run(async_service.run_many(BATCH, concurrency=4))
        for left, right in zip(first, second):
            assert tables_equivalent(left, right)


# -- placement: inline on the loop, or on the executor ------------------------

POINT = "MATCH (n:EMP) WHERE n.id = 3 RETURN n.name"


def placements(service, backend: str | None = None) -> dict[str, float]:
    counter = service.metrics.counter("repro_async_placement_total")
    backend = backend or service.default_backend
    return {
        where: counter.value(backend=backend, placement=where)
        for where in ("inline", "executor")
    }


def warm(service, text: str, runs: int = FEEDBACK_MIN_OBSERVATIONS) -> None:
    """Serve *text* until its entry has the observations inlining needs."""
    for _ in range(runs):
        service.run(text)


def force_hop(async_svc, seconds: float) -> None:
    """Stand in for the measured executor hop."""
    async_svc._hop.seconds = seconds


@pytest.fixture
def engine_threads(monkeypatch):
    """The thread of every engine call (SQLite backends)."""
    from repro.backends.sqlite import SqliteFileBackend, SqliteMemoryBackend

    original = SqliteMemoryBackend.execute
    seen: list[threading.Thread] = []

    def recording(self, sql_text, *args, **kwargs):
        seen.append(threading.current_thread())
        return original(self, sql_text, *args, **kwargs)

    for backend in (SqliteMemoryBackend, SqliteFileBackend):
        monkeypatch.setattr(backend, "execute", recording)
    return seen


async def run_beside_probe(async_svc, text: str, **kwargs):
    """Await one run while a probe coroutine counts its turns on the loop;
    return the table and the probe's turn count."""
    turns = 0
    done = False

    async def probe() -> None:
        nonlocal turns
        while not done:
            await asyncio.sleep(0)
            turns += 1

    watcher = asyncio.ensure_future(probe())
    try:
        table = await asyncio.wait_for(async_svc.run(text, **kwargs), timeout=30)
    finally:
        done = True
        await watcher
    return table, turns


class TestHopClock:
    def test_the_smallest_trip_that_found_an_idle_worker(self):
        clock = HopClock(workers=2)
        first = clock.start()  # no worker spawned yet: it queued
        assert first is False
        clock.finish(first, 0.000_001)
        trips = itertools.cycle((0.000_190, 0.000_090, 0.005_000))
        for round_trip in itertools.islice(trips, HOP_SAMPLES):
            assert clock.seconds is None
            idle = clock.start()
            assert idle is True
            clock.finish(idle, round_trip, work=0.000_040)
        assert clock.seconds == pytest.approx(0.000_050)
        # Measured once: later trips leave it alone.
        clock.finish(clock.start(), 0.000_041, work=0.000_040)
        assert clock.seconds == pytest.approx(0.000_050)

    def test_trips_beyond_the_spawned_workers_queue(self):
        clock = HopClock(workers=1)
        clock.finish(clock.start(), None)  # the worker now exists
        for _ in range(HOP_SAMPLES - 1):
            clock.finish(clock.start(), 0.000_080, work=0.000_010)
        holder = clock.start()
        assert holder is True
        queued = clock.start()  # the only worker is busy
        assert queued is False
        clock.finish(queued, 0.000_001)
        assert clock.seconds is None  # a queued trip measures the queue
        clock.finish(holder, 0.000_060, work=0.000_010)
        assert clock.seconds == pytest.approx(0.000_050)

    def test_unknown_until_enough_trips(self, service, async_service):
        assert async_service._hop.seconds is None
        asyncio.run(async_service.run(POINT))
        assert async_service._hop.seconds is None


class TestPlacement:
    def test_warm_point_text_goes_inline_after_calibration(
        self, service, async_service
    ):
        """The hop is measured from offloaded runs; once it is known, a
        warm point text is served inline, and every run counts once."""
        runs = HOP_SAMPLES * 2

        async def main() -> None:
            for _ in range(runs):
                await async_service.run(POINT)

        asyncio.run(main())
        assert async_service._hop.seconds is not None
        counts = placements(service)
        assert counts["inline"] > 0
        assert counts["inline"] + counts["executor"] == runs

    def test_inline_run_is_marked_on_the_query_span(self, service, async_service):
        from repro.observability.tracing import Tracer

        warm(service, POINT)
        force_hop(async_service, 1.0)
        tracer = Tracer()
        service.set_tracer(tracer)
        try:
            table = asyncio.run(async_service.run(POINT))
        finally:
            service.set_tracer(None)
        root = tracer.last_trace()
        assert root.attributes["placement"] == "inline"
        assert root.find("pool.checkout") is not None
        assert root.find("execute") is not None
        assert tables_equivalent(table, service.reference(POINT))

    def test_counter_sums_to_the_runs(self, service, async_service):
        warm(service, POINT)
        service.warm_pool(members=4)  # an idle member for every inline run
        force_hop(async_service, 1.0)
        batch = [POINT, SCAN, POINT, JOIN, POINT, POINT]
        asyncio.run(async_service.run_many(batch, concurrency=2))
        counts = placements(service)
        assert counts["inline"] >= 4
        assert counts["inline"] + counts["executor"] == len(batch)

    def test_awaited_runs_count_one_memory_lookup_each(
        self, service, async_service
    ):
        """Inline or offloaded, N awaited runs of a warm text add exactly N
        memory hits: the placement lookup is the run's one lookup."""
        warm(service, POINT)
        runs = 10
        for hop in (None, 1.0):
            force_hop(async_service, hop)
            before = service.cache_info()

            async def main() -> None:
                for _ in range(runs):
                    await async_service.run(POINT)

            asyncio.run(main())
            after = service.cache_info()
            assert after.hits - before.hits == runs
            assert after.misses == before.misses
        assert placements(service)["inline"] == runs

    def test_a_run_on_another_backend_keeps_this_ones_timing(
        self, service, async_service
    ):
        """An entry is timed per backend: one run on ``sqlite-file``, which
        shares the dialect and so the entry, leaves its ``sqlite-memory``
        timing in place, and the next run there goes inline."""
        warm(service, POINT)
        service.run(POINT, backend="sqlite-file")
        force_hop(async_service, 1.0)
        asyncio.run(async_service.run(POINT))
        assert placements(service) == {"inline": 1, "executor": 0}

    def test_threads_serving_one_entry_lose_no_timing(self, service):
        """Every engine call of an entry counts in its timing, however
        many threads serve it at once: the update is a read-modify-write,
        made under the service lock."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            service.run_many([POINT] * 3000, workers=8)
        finally:
            sys.setswitchinterval(interval)
        entry = service.prepare(POINT)
        number, runs, _ = entry.feedback.timings[service.default_backend]
        assert runs == entry.feedback.executions == 3000
        assert number == service.pool().number

    def test_a_first_run_misses_once(self, service, async_service):
        force_hop(async_service, 1.0)
        before = service.cache_info()
        asyncio.run(async_service.run(POINT))
        after = service.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (0, 1)
        assert placements(service) == {"inline": 0, "executor": 1}

    def test_clients_take_turns_with_other_tasks(self, service, async_service):
        """Two clients of warm inline texts progress together, and a probe
        coroutine gets a turn between one client's inline queries."""
        warm(service, POINT)
        warm(service, DEPT_SCAN)
        force_hop(async_service, 1.0)
        runs = 40
        events: list[str] = []
        done = False

        async def client(tag: str, text: str) -> None:
            for _ in range(runs):
                await async_service.run(text)
                events.append(tag)

        async def probe() -> None:
            while not done:
                await asyncio.sleep(0)
                events.append("p")

        async def main() -> None:
            nonlocal done
            watcher = asyncio.ensure_future(probe())
            try:
                await asyncio.gather(client("a", POINT), client("b", DEPT_SCAN))
            finally:
                done = True
                await watcher

        asyncio.run(main())
        assert placements(service)["inline"] == 2 * runs
        served = [event for event in events if event != "p"]
        # Neither client runs ahead: their completions alternate.
        assert max(len(list(streak)) for _, streak in itertools.groupby(served)) <= 2
        # Between two of one client's inline queries the probe ran.
        for tag in ("a", "b"):
            positions = [i for i, event in enumerate(events) if event == tag]
            for left, right in zip(positions, positions[1:]):
                assert "p" in events[left:right], (tag, left, right)


class TestOffloadMatrix:
    """Each of these runs on the executor, with the loop free meanwhile."""

    def check_offloaded(self, service, async_svc, engine_threads, text, **kwargs):
        backend = kwargs.get("backend")
        before = placements(service, backend)
        engine_threads.clear()

        async def main():
            loop_thread = threading.current_thread()
            table, turns = await run_beside_probe(async_svc, text, **kwargs)
            return table, turns, loop_thread

        table, turns, loop_thread = asyncio.run(main())
        after = placements(service, backend)
        assert after["executor"] - before["executor"] == 1
        assert after["inline"] == before["inline"]
        assert engine_threads and loop_thread not in engine_threads
        assert turns >= 1
        return table

    def test_first_run(self, service, async_service, engine_threads):
        force_hop(async_service, 1.0)
        table = self.check_offloaded(service, async_service, engine_threads, POINT)
        assert tables_equivalent(table, service.reference(POINT))

    def test_entry_short_of_observations(self, service, async_service, engine_threads):
        warm(service, POINT, runs=FEEDBACK_MIN_OBSERVATIONS - 1)
        force_hop(async_service, 1.0)
        self.check_offloaded(service, async_service, engine_threads, POINT)

    def test_memory_miss(self, service, async_service, engine_threads):
        warm(service, POINT)
        service.clear_cache()
        force_hop(async_service, 1.0)
        self.check_offloaded(service, async_service, engine_threads, POINT)

    def test_entry_gated_parallel(self, emp_dept_schema, engine_threads):
        with GraphitiService(
            emp_dept_schema, parallelism=2, parallel_row_threshold=0
        ) as service:
            service.load_mock(40, seed=11)
            warm(service, SCAN)
            async_svc = AsyncGraphitiService(service, max_concurrency=4)
            force_hop(async_svc, 1.0)
            parallel = service.metrics.counter("repro_parallel_queries_total")
            before = parallel.total()
            try:
                table = self.check_offloaded(
                    service, async_svc, engine_threads, SCAN
                )
            finally:
                async_svc.close()
            assert parallel.total() == before + 1
            assert tables_equivalent(table, service.reference(SCAN))

    def test_slow_text(self, service, async_service, engine_threads):
        warm(service, POINT)
        observed = service._engine_seconds(
            service.prepare(POINT), service.default_backend
        )
        force_hop(async_service, observed / 2)
        self.check_offloaded(service, async_service, engine_threads, POINT)

    def test_another_backend_is_timed_first(
        self, service, async_service, engine_threads
    ):
        """An entry timed on one backend has no timing on another, which
        shares its dialect: the first run there is offloaded, the next
        one (now timed) goes inline."""
        warm(service, POINT)
        force_hop(async_service, 1.0)
        self.check_offloaded(
            service, async_service, engine_threads, POINT, backend="sqlite-file"
        )
        asyncio.run(async_service.run(POINT, backend="sqlite-file"))
        assert placements(service, "sqlite-file") == {"inline": 1, "executor": 1}

    def test_another_plan_of_the_text_has_its_own_timing(
        self, service, async_service, engine_threads, monkeypatch
    ):
        """Timings name their entry: a slow level-0 plan of a join timed
        cheap at level 2 is timed on its own runs, not on the cheap
        history."""
        from repro.backends.sqlite import SqliteMemoryBackend

        warm(service, JOIN, runs=200)
        name = service.default_backend
        hop = 4 * service._engine_seconds(service.prepare(JOIN), name)
        slow_sql = service.prepare(JOIN, opt_level=0).sql_text
        assert slow_sql != service.prepare(JOIN).sql_text
        execute = SqliteMemoryBackend.execute

        def stalling(self, sql_text, *args, **kwargs):
            if sql_text == slow_sql:
                time.sleep(10 * hop)
            return execute(self, sql_text, *args, **kwargs)

        monkeypatch.setattr(SqliteMemoryBackend, "execute", stalling)
        for _ in range(FEEDBACK_MIN_OBSERVATIONS):
            service.run(JOIN, opt_level=0)
        force_hop(async_service, hop)
        self.check_offloaded(service, async_service, engine_threads, JOIN, opt_level=0)

    def test_a_run_that_straddles_a_reload_leaves_no_timing(
        self, emp_dept_schema, engine_threads, monkeypatch
    ):
        """A reload that lands between a run's engine call and its record
        drops that call's timing: it ran on the old data.  Below level 2
        the reloaded text keeps its entry, so the old timing would
        otherwise gate the next run inline."""
        from repro.backends.pool import ConnectionPool
        from repro.execution.datagen import MockDataGenerator

        with GraphitiService(emp_dept_schema, opt_level=1) as service:
            generator = MockDataGenerator(emp_dept_schema, service.sdt, seed=3)
            service.load_database(generator.induced_instance(5))
            async_svc = AsyncGraphitiService(service, max_concurrency=2)
            force_hop(async_svc, 1.0)
            checkin = ConnectionPool.checkin
            checkins = itertools.count(1)

            def reloading_checkin(pool, member, damaged=False):
                retained = checkin(pool, member, damaged)
                if next(checkins) == 3:
                    service.load_database(generator.induced_instance(300))
                return retained

            monkeypatch.setattr(ConnectionPool, "checkin", reloading_checkin)

            async def main() -> None:
                for _ in range(3):
                    await async_svc.run(JOIN)

            try:
                asyncio.run(main())
                name = service.default_backend
                assert service._engine_seconds(service.prepare(JOIN), name) is None
                table = self.check_offloaded(
                    service, async_svc, engine_threads, JOIN
                )
            finally:
                async_svc.close()
            assert len(table.rows) == 300

    def test_pool_member_held_by_another_thread(
        self, emp_dept_schema, engine_threads
    ):
        with GraphitiService(emp_dept_schema, pool_size=1) as service:
            service.load_mock(40, seed=11)
            warm(service, POINT)
            async_svc = AsyncGraphitiService(service, max_concurrency=2)
            force_hop(async_svc, 1.0)
            pool = service.pool()
            hog = pool.checkout()
            releaser = threading.Timer(0.2, pool.checkin, (hog,))
            releaser.start()
            try:
                table = self.check_offloaded(
                    service, async_svc, engine_threads, POINT
                )
            finally:
                releaser.join(timeout=30)
                async_svc.close()
            assert not releaser.is_alive()
            assert tables_equivalent(table, service.reference(POINT))
            assert pool.in_use == 0

    def test_large_join_is_offloaded_on_every_run(self, emp_dept_schema):
        """A 2,000-row join never fits under a realistic hop."""
        with GraphitiService(emp_dept_schema) as service:
            service.load_mock(2000, seed=3)
            async_svc = AsyncGraphitiService(service, max_concurrency=2)
            force_hop(async_svc, 100e-6)

            async def main() -> list[Table]:
                return [await async_svc.run(JOIN) for _ in range(6)]

            try:
                tables = asyncio.run(main())
            finally:
                async_svc.close()
            assert all(len(table.rows) == 2000 for table in tables)
            assert placements(service) == {"inline": 0, "executor": 6}

    @pytest.mark.parametrize("opt_level", [1, 2])
    def test_cheap_history_does_not_survive_a_reload(
        self, emp_dept_schema, engine_threads, opt_level
    ):
        """A join timed on five rows goes inline; after a reload to 2,000
        rows it is offloaded on every run, however long its cheap history.
        At level 2 the reload re-keys the entry; below it the entry
        survives, and only its timing is dropped."""
        from repro.execution.datagen import MockDataGenerator

        with GraphitiService(emp_dept_schema, opt_level=opt_level) as service:
            generator = MockDataGenerator(emp_dept_schema, service.sdt, seed=3)
            service.load_database(generator.induced_instance(5))
            warm(service, JOIN, runs=200)
            name = service.default_backend
            cheap = service._engine_seconds(service.prepare(JOIN), name)
            hop = 4 * cheap
            async_svc = AsyncGraphitiService(service, max_concurrency=2)
            force_hop(async_svc, hop)

            async def main(runs: int) -> list[Table]:
                return [await async_svc.run(JOIN) for _ in range(runs)]

            try:
                asyncio.run(main(2))
                assert placements(service) == {"inline": 2, "executor": 0}
                service.load_database(generator.induced_instance(2000))
                engine_threads.clear()
                tables = asyncio.run(main(6))
            finally:
                async_svc.close()
            assert all(len(table.rows) == 2000 for table in tables)
            assert placements(service) == {"inline": 2, "executor": 6}
            assert len(engine_threads) == 6
            assert service._engine_seconds(service.prepare(JOIN), name) > hop


class TestNothingBlocksTheLoop:
    def test_batch_prepare_runs_off_the_loop(self, service, async_service, monkeypatch):
        from repro.backends import service as service_module

        original = service_module.parse_cypher
        threads: list[threading.Thread] = []

        def spying(*args, **kwargs):
            threads.append(threading.current_thread())
            return original(*args, **kwargs)

        monkeypatch.setattr(service_module, "parse_cypher", spying)

        async def main():
            loop_thread = threading.current_thread()
            await async_service.run_many(BATCH, concurrency=2)
            return loop_thread

        loop_thread = asyncio.run(main())
        assert len(threads) == len(BATCH)
        assert loop_thread not in threads

    def test_replan_never_runs_on_the_loop(self, emp_dept_schema, monkeypatch):
        """A diverging text re-plans, and its stats refresh runs on an
        executor thread, however often the text is served."""
        from repro.execution.datagen import MockDataGenerator
        from repro.sql.stats import collect_stats

        with GraphitiService(emp_dept_schema, opt_level=2) as service:
            generator = MockDataGenerator(emp_dept_schema, service.sdt, seed=4)
            stale = collect_stats(generator.induced_instance(2))
            service.load_database(generator.induced_instance(60), stats=stale)
            original = service.refresh_stats
            threads: list[threading.Thread] = []

            def spying():
                threads.append(threading.current_thread())
                return original()

            monkeypatch.setattr(service, "refresh_stats", spying)
            async_svc = AsyncGraphitiService(service, max_concurrency=2)
            force_hop(async_svc, 1.0)

            async def main():
                loop_thread = threading.current_thread()
                tables = [await async_svc.run(SCAN) for _ in range(12)]
                return loop_thread, tables

            try:
                loop_thread, tables = asyncio.run(main())
            finally:
                async_svc.close()
            assert service.feedback_state(SCAN)["replans"] >= 1
            assert threads and loop_thread not in threads
            assert all(len(table.rows) == 60 for table in tables)
            assert placements(service)["inline"] > 0
