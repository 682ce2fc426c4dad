"""Self-healing serving under injected faults.

Drives the ``faulty`` backend (an in-memory SQLite engine executing a
deterministic :class:`FaultPlan`) through the full serving stack and
asserts exactly how it recovered: members that die mid-query are evicted
and the query retried on a healthy member, genuine query errors are not
retried, spawn failures are absorbed, repeated engine failure opens the
per-backend circuit breaker, and every event lands in the metrics
registry with pool gauges returning to their idle baseline.
"""

import asyncio
import threading
import time

import pytest

from repro.backends import (
    NO_RETRY,
    AsyncGraphitiService,
    CircuitBreaker,
    CircuitOpen,
    ConnectionPool,
    FaultInjected,
    FaultInjectingBackend,
    FaultPlan,
    GraphitiService,
    RetryPolicy,
    available_backends,
    injected_faults,
)
from repro.backends import service as service_module
from repro.backends.faults import active_plan
from repro.common.budget import QueryBudget
from repro.core.sdt import infer_sdt
from repro.execution.datagen import MockDataGenerator
from repro.graph.schema import EdgeType, GraphSchema, NodeType
from repro.observability.metrics import MetricsRegistry
from repro.relational.instance import tables_equivalent


@pytest.fixture
def social_schema() -> GraphSchema:
    return GraphSchema.of(
        [NodeType("USER", ("uid",))],
        [EdgeType("FOLLOWS", "USER", "USER", ("fid",))],
    )


SCAN = "MATCH (a:USER) RETURN a.uid"


def faulty_service(schema, rows: int = 20, **kwargs) -> GraphitiService:
    svc = GraphitiService(schema, default_backend="faulty", **kwargs)
    svc.load_mock(rows, seed=2)
    return svc


class TestFaultPlan:
    def test_backend_invisible_without_a_plan(self):
        assert not FaultInjectingBackend.is_available()
        assert "faulty" not in available_backends()
        with injected_faults():
            assert FaultInjectingBackend.is_available()
            assert "faulty" in available_backends()
        assert not FaultInjectingBackend.is_available()

    def test_indices_are_one_based_and_recorded(self):
        plan = FaultPlan(error_on_executes=(2,))
        assert plan.on_execute() is None
        assert plan.on_execute() == "error"
        assert plan.events == [("error", 2)]

    def test_heal_clears_remaining_schedule(self):
        plan = FaultPlan(error_on_executes=(1, 2, 3))
        assert plan.on_execute() == "error"
        plan.heal()
        assert plan.on_execute() is None

    def test_scheduled_spawn_failure_raises(self):
        plan = FaultPlan(fail_spawns=(1,))
        with pytest.raises(FaultInjected):
            plan.on_spawn()
        assert plan.events == [("fail_spawn", 1)]


class TestDieMidQuery:
    def test_retried_transparently_on_a_healthy_member(self, social_schema):
        with injected_faults(die_on_executes=(1,)) as plan:
            with faulty_service(social_schema) as svc:
                table = svc.run(SCAN)
                assert len(table.rows) == 20
                assert plan.events == [("die", 1)]
                metrics = svc.metrics
                assert metrics.counter("repro_query_retries_total").value(
                    backend="faulty"
                ) == 1
                assert metrics.counter("repro_pool_evictions_total").total() == 1
                assert (
                    metrics.counter("repro_pool_validation_failures_total").total()
                    == 1
                )
                # The breaker saw one failure but never opened.
                assert svc.breaker("faulty").state == CircuitBreaker.CLOSED

    def test_pool_gauges_return_to_idle_baseline(self, social_schema):
        with injected_faults(die_on_executes=(1,)):
            with faulty_service(social_schema) as svc:
                svc.run(SCAN)
                snapshot = svc.pool_snapshots()["faulty"]
                assert snapshot["in_use"] == 0
                assert snapshot["waiters"] == 0
                assert snapshot["idle"] == snapshot["size"] >= 1

    def test_retries_exhausted_surfaces_the_engine_error(
        self, social_schema, monkeypatch
    ):
        # Three tries, three dead members: the last engine error propagates.
        monkeypatch.setattr(
            service_module, "RETRY_POLICY", RetryPolicy(max_attempts=3, base_delay=0.0)
        )
        with injected_faults(die_on_executes=(1, 2, 3)) as plan:
            with faulty_service(social_schema) as svc:
                with pytest.raises(Exception) as exc:
                    svc.run(SCAN)
                assert not isinstance(exc.value, FaultInjected)
                assert [kind for kind, _ in plan.events] == ["die"] * 3

    def test_async_path_retries_too(self, social_schema):
        with injected_faults(die_on_executes=(1,)) as plan:
            with faulty_service(social_schema) as sync_svc:

                async def main():
                    async with AsyncGraphitiService(sync_svc) as svc:
                        return await svc.run(SCAN)

                table = asyncio.run(main())
                assert len(table.rows) == 20
                assert plan.events == [("die", 1)]
                assert sync_svc.metrics.counter(
                    "repro_query_retries_total"
                ).value(backend="faulty") == 1


class TestInlineDeath:
    def test_retry_backs_off_on_an_executor_thread(self, social_schema, monkeypatch):
        """A member killed while a query runs inline on the event loop: the
        query moves to the executor, whose thread sleeps the backoff and
        retries on a healthy member, and the answer is the reference's."""
        original = FaultInjectingBackend.execute
        executes: list[threading.Thread] = []

        def recording(self, sql_text, budget=None):
            executes.append(threading.current_thread())
            return original(self, sql_text, budget)

        monkeypatch.setattr(FaultInjectingBackend, "execute", recording)
        with injected_faults(die_on_executes=(3,)) as plan:
            with faulty_service(social_schema) as sync_svc:
                # Two observations, so the third run qualifies for the loop.
                sync_svc.run(SCAN)
                sync_svc.run(SCAN)
                sleeps: list[threading.Thread] = []
                sync_svc._retry_sleep = lambda seconds: sleeps.append(
                    threading.current_thread()
                )

                async def main():
                    async with AsyncGraphitiService(sync_svc) as svc:
                        svc._hop.seconds = 1.0  # stands in for the measured hop
                        return threading.current_thread(), await svc.run(SCAN)

                loop_thread, table = asyncio.run(main())
                assert plan.events == [("die", 3)]
                # The killed execute ran on the loop; the retry did not.
                assert executes[2] is loop_thread
                assert executes[3] is not loop_thread
                assert len(sleeps) == 1 and sleeps[0] is not loop_thread
                assert tables_equivalent(table, sync_svc.reference(SCAN))
                metrics = sync_svc.metrics
                assert metrics.counter("repro_query_retries_total").value(
                    backend="faulty"
                ) == 1
                assert metrics.counter("repro_async_placement_total").value(
                    backend="faulty", placement="executor"
                ) == 1
                assert sync_svc.pool_snapshots()["faulty"]["in_use"] == 0


    def test_budget_downgrade_re_prepares_on_an_executor_thread(
        self, social_schema, monkeypatch
    ):
        """A budget tripped inline: the downgrade's re-prepare and its
        second plan run on the executor, under the same budget."""
        from repro.backends.sqlite import SqliteMemoryBackend
        from repro.common.budget import QueryBudgetExceeded

        hops = "MATCH (a:USER)-[:FOLLOWS*1..2]->(b:USER) RETURN a.uid, b.uid"
        original = SqliteMemoryBackend.execute
        executes: list[threading.Thread] = []

        def recording(self, sql_text, *args, **kwargs):
            executes.append(threading.current_thread())
            return original(self, sql_text, *args, **kwargs)

        # No feedback: the warm-up's divergence would re-plan it recursive.
        with GraphitiService(social_schema, feedback_ratio=None) as svc:
            svc.load_mock(40, seed=5)
            svc.run(hops)
            svc.run(hops)
            plan = svc.prepare(hops, svc.dialect_of("sqlite-memory")).plan
            assert [t.choice for t in plan.traversals] == ["unrolled"]
            prepares: list[threading.Thread] = []
            prepare = svc.prepare

            def spying(*args, **kwargs):
                prepares.append(threading.current_thread())
                return prepare(*args, **kwargs)

            monkeypatch.setattr(svc, "prepare", spying)
            monkeypatch.setattr(SqliteMemoryBackend, "execute", recording)

            async def main():
                async with AsyncGraphitiService(svc) as async_svc:
                    async_svc._hop.seconds = 1.0  # stands in for the measured hop
                    loop_thread = threading.current_thread()
                    with pytest.raises(QueryBudgetExceeded) as info:
                        await async_svc.run(hops, budget=QueryBudget(max_rows=1))
                    return loop_thread, info.value

            loop_thread, error = asyncio.run(main())
            assert error.attempted_downgrade
            assert executes[0] is loop_thread  # the unrolled plan, inline
            assert len(executes) == 2 and executes[1] is not loop_thread
            assert len(prepares) == 1 and prepares[0] is not loop_thread
            assert svc.metrics.counter("repro_budget_downgrades_total").value(
                backend="sqlite-memory"
            ) == 1
            assert svc.pool().in_use == 0


class TestQueryErrorsAreNotRetried:
    def test_healthy_member_error_propagates(self, social_schema):
        with injected_faults(error_on_executes=(1,)) as plan:
            with faulty_service(social_schema) as svc:
                with pytest.raises(FaultInjected):
                    svc.run(SCAN)
                assert plan.events == [("error", 1)]
                assert svc.metrics.counter("repro_query_retries_total").total() == 0
                # The member survived its error and was retained.
                assert svc.metrics.counter("repro_pool_evictions_total").total() == 0
                snapshot = svc.pool_snapshots()["faulty"]
                assert snapshot["idle"] >= 1

    def test_async_query_error_not_retried(self, social_schema):
        with injected_faults(error_on_executes=(1,)):
            with faulty_service(social_schema) as sync_svc:

                async def main():
                    async with AsyncGraphitiService(sync_svc) as svc:
                        with pytest.raises(FaultInjected):
                            await svc.run(SCAN)

                asyncio.run(main())
                assert sync_svc.metrics.counter(
                    "repro_query_retries_total"
                ).total() == 0


class TestSpawnFailure:
    def test_failed_spawn_is_absorbed_by_retry(self, social_schema):
        # The first worker holds the primary (hanging briefly), forcing the
        # second to grow the pool; that spawn fails, the retry spawns again.
        with injected_faults(
            fail_spawns=(2,), hang_on_executes=(1,), hang_seconds=0.2
        ) as plan:
            with faulty_service(social_schema) as svc:
                tables = svc.run_many([SCAN, SCAN], workers=2)
                assert [len(t.rows) for t in tables] == [20, 20]
                assert ("fail_spawn", 2) in plan.events
                assert svc.metrics.counter("repro_query_retries_total").value(
                    backend="faulty"
                ) >= 1


class _SpawnClockBudget(QueryBudget):
    """A timeout budget whose clock reads the fault plan's spawn count:
    one "second" passes per member creation, so a 0.5 s budget expires
    exactly when the doomed spawn fails — deterministically."""

    def start(self, clock=None):
        plan = active_plan()
        return super().start(clock=lambda: float(plan.spawns))


class TestSpawnFailureUnderExpiredBudget:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_engine_error_raised_without_a_retry(self, social_schema, mode):
        """A spawn that fails after the budget's clock ran out is not
        retried (no backoff sleep that could only end in a timeout): the
        engine's own error surfaces at once, on both serving paths."""
        with injected_faults(fail_spawns=(2,)) as plan:
            with faulty_service(social_schema) as svc:
                pool = svc.pool()
                hog = pool.checkout()  # the next checkout must spawn
                budget = _SpawnClockBudget(timeout_seconds=0.5)
                try:
                    with pytest.raises(FaultInjected):
                        if mode == "sync":
                            svc.run(SCAN, budget=budget)
                        else:

                            async def main():
                                async with AsyncGraphitiService(svc) as async_svc:
                                    await async_svc.run(SCAN, budget=budget)

                            asyncio.run(main())
                finally:
                    pool.checkin(hog)
                assert plan.events == [("fail_spawn", 2)]
                assert svc.metrics.counter("repro_query_retries_total").total() == 0
                snapshot = svc.pool_snapshots()["faulty"]
                assert snapshot["in_use"] == 0
                assert snapshot["idle"] == snapshot["size"] == 1


class TestCircuitBreakerUnit:
    def make(self, **kwargs):
        clock = [0.0]
        transitions: list[str] = []
        breaker = CircuitBreaker(
            backend_name="faulty",
            clock=lambda: clock[0],
            on_transition=transitions.append,
            **kwargs,
        )
        return breaker, clock, transitions

    def test_opens_at_threshold_and_sheds(self):
        breaker, clock, transitions = self.make(
            failure_threshold=3, cooldown_seconds=5.0
        )
        for _ in range(2):
            breaker.record_failure()
        breaker.allow()  # still closed
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert transitions == [CircuitBreaker.OPEN]
        with pytest.raises(CircuitOpen) as exc:
            breaker.allow()
        assert exc.value.backend == "faulty"
        assert exc.value.failures == 3
        assert 0.0 < exc.value.retry_after_seconds <= 5.0

    def test_half_open_probe_success_recloses(self):
        breaker, clock, transitions = self.make(
            failure_threshold=1, cooldown_seconds=5.0
        )
        breaker.record_failure()
        clock[0] = 6.0
        breaker.allow()  # the single probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert transitions == [
            CircuitBreaker.OPEN,
            CircuitBreaker.HALF_OPEN,
            CircuitBreaker.CLOSED,
        ]

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock, _ = self.make(failure_threshold=1, cooldown_seconds=1.0)
        breaker.record_failure()
        clock[0] = 2.0
        breaker.allow()
        with pytest.raises(CircuitOpen):
            breaker.allow()  # second caller sheds while the probe is out

    def test_probe_failure_reopens_for_a_full_cooldown(self):
        breaker, clock, _ = self.make(failure_threshold=1, cooldown_seconds=5.0)
        breaker.record_failure()
        clock[0] = 6.0
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock[0] = 8.0  # cooldown restarted at t=6: still shedding
        with pytest.raises(CircuitOpen):
            breaker.allow()
        clock[0] = 11.5
        breaker.allow()
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_success_resets_the_failure_streak(self):
        breaker, _, _ = self.make(failure_threshold=2, cooldown_seconds=1.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_success_on_another_thread_resets_the_streak(self):
        """A closed circuit settles a success without its lock, but a
        streak one short of the threshold must still be reset by it."""
        threshold = service_module.BREAKER_THRESHOLD
        breaker, _, transitions = self.make(failure_threshold=threshold)
        for _ in range(threshold - 1):
            breaker.record_failure()
        other = threading.Thread(target=breaker.record_success)
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
        for _ in range(threshold - 1):
            breaker.record_failure()
            assert breaker.allow() is None  # still closed
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert transitions == [CircuitBreaker.OPEN]

    def test_closed_allow_returns_no_probe_token(self):
        breaker, _, _ = self.make()
        assert breaker.allow() is None
        breaker.release_probe(None)  # no-op by contract

    def test_abandoned_probe_release_frees_the_slot(self):
        # A probe that exits without a verdict (pool timeout, cancel) must
        # free the slot from its finally, or the breaker sheds forever.
        breaker, clock, _ = self.make(failure_threshold=1, cooldown_seconds=1.0)
        breaker.record_failure()
        clock[0] = 2.0
        token = breaker.allow()
        assert token is not None
        breaker.release_probe(token)
        assert breaker.allow() is not None  # a new probe is admitted
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_release_after_settle_is_a_no_op(self):
        breaker, clock, _ = self.make(failure_threshold=1, cooldown_seconds=1.0)
        breaker.record_failure()
        clock[0] = 2.0
        token = breaker.allow()
        breaker.record_success()
        breaker.release_probe(token)  # the finally fires after the verdict
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow() is None  # closed traffic, not a probe

    def test_stale_release_cannot_free_a_newer_probe(self):
        breaker, clock, _ = self.make(failure_threshold=1, cooldown_seconds=1.0)
        breaker.record_failure()
        clock[0] = 2.0
        stale = breaker.allow()
        breaker.record_failure()  # probe verdict: still down
        clock[0] = 4.0
        fresh = breaker.allow()  # a newer probe now holds the slot
        assert fresh != stale
        breaker.release_probe(stale)  # the first probe's late finally
        with pytest.raises(CircuitOpen):
            breaker.allow()  # the newer probe's slot is still held


def breaker_policy(monkeypatch, cooldown_seconds: float) -> None:
    """No retries, and a circuit that opens after two engine failures."""
    monkeypatch.setattr(service_module, "RETRY_POLICY", NO_RETRY)
    monkeypatch.setattr(service_module, "BREAKER_THRESHOLD", 2)
    monkeypatch.setattr(
        service_module, "BREAKER_COOLDOWN_SECONDS", cooldown_seconds
    )


class TestServiceBreaker:
    def test_repeated_engine_failure_opens_the_circuit(
        self, social_schema, monkeypatch
    ):
        breaker_policy(monkeypatch, cooldown_seconds=60.0)
        with injected_faults(die_on_executes=(1, 2)) as plan:
            with faulty_service(social_schema) as svc:
                for _ in range(2):
                    with pytest.raises(Exception):
                        svc.run(SCAN)
                assert svc.breaker("faulty").state == CircuitBreaker.OPEN
                executes_before = plan.executes
                with pytest.raises(CircuitOpen):
                    svc.run(SCAN)
                # Shed before any pool or engine work happened.
                assert plan.executes == executes_before
                metrics = svc.metrics
                assert metrics.counter("repro_breaker_rejections_total").value(
                    backend="faulty"
                ) == 1
                assert metrics.counter("repro_breaker_transitions_total").value(
                    backend="faulty", state="open"
                ) == 1

    def test_breaker_recovers_after_cooldown(self, social_schema, monkeypatch):
        breaker_policy(monkeypatch, cooldown_seconds=0.05)
        with injected_faults(die_on_executes=(1, 2)):
            with faulty_service(social_schema) as svc:
                for _ in range(2):
                    with pytest.raises(Exception):
                        svc.run(SCAN)
                assert svc.breaker("faulty").state == CircuitBreaker.OPEN
                time.sleep(0.06)
                # The cooldown admits one probe; the faults are exhausted,
                # so it succeeds and the circuit re-closes.
                table = svc.run(SCAN)
                assert len(table.rows) == 20
                assert svc.breaker("faulty").state == CircuitBreaker.CLOSED
                assert svc.metrics.counter(
                    "repro_breaker_transitions_total"
                ).value(backend="faulty", state="closed") == 1

    def test_half_open_probe_query_error_does_not_wedge(
        self, social_schema, monkeypatch
    ):
        """A genuine query error on a retained member during HALF_OPEN used
        to leave the probe slot held forever, permanently shedding the
        backend; the connection proved alive, so the circuit re-closes."""
        breaker_policy(monkeypatch, cooldown_seconds=0.05)
        with injected_faults(die_on_executes=(1, 2), error_on_executes=(3,)):
            with faulty_service(social_schema) as svc:
                for _ in range(2):
                    with pytest.raises(Exception):
                        svc.run(SCAN)
                assert svc.breaker("faulty").state == CircuitBreaker.OPEN
                time.sleep(0.06)
                with pytest.raises(FaultInjected):
                    svc.run(SCAN)  # the probe: query error, member retained
                assert svc.breaker("faulty").state == CircuitBreaker.CLOSED
                table = svc.run(SCAN)  # served, not shed
                assert len(table.rows) == 20

    def test_async_half_open_probe_query_error_does_not_wedge(
        self, social_schema, monkeypatch
    ):
        breaker_policy(monkeypatch, cooldown_seconds=0.05)
        with injected_faults(die_on_executes=(1, 2), error_on_executes=(3,)):
            with faulty_service(social_schema) as sync_svc:

                async def main():
                    async with AsyncGraphitiService(sync_svc) as svc:
                        for _ in range(2):
                            with pytest.raises(Exception):
                                await svc.run(SCAN)
                        assert (
                            sync_svc.breaker("faulty").state
                            == CircuitBreaker.OPEN
                        )
                        await asyncio.sleep(0.06)
                        with pytest.raises(FaultInjected):
                            await svc.run(SCAN)
                        assert (
                            sync_svc.breaker("faulty").state
                            == CircuitBreaker.CLOSED
                        )
                        return await svc.run(SCAN)

                table = asyncio.run(main())
                assert len(table.rows) == 20


class TestPoolSelfHealing:
    @pytest.fixture
    def emp_dept_db(self, emp_dept_schema):
        sdt = infer_sdt(emp_dept_schema)
        return MockDataGenerator(emp_dept_schema, sdt, seed=3).induced_instance(30)

    def test_dead_idle_member_evicted_on_checkout(self, emp_dept_db):
        registry = MetricsRegistry()
        with ConnectionPool(
            "sqlite-memory", emp_dept_db, capacity=2, registry=registry
        ) as pool:
            member = pool.checkout()
            pool.checkin(member)
            member.connection.close()  # dies while idle
            healthy = pool.checkout(timeout=5)
            assert healthy is not member
            assert healthy.execute('SELECT COUNT(*) FROM "EMP"').rows[0][0] == 30
            pool.checkin(healthy)
            assert registry.counter("repro_pool_validation_failures_total").total() == 1
            assert registry.counter("repro_pool_evictions_total").total() == 1

    def test_damaged_checkin_retains_healthy_member(self, emp_dept_db):
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=2) as pool:
            member = pool.checkout()
            assert pool.checkin(member, damaged=True) is True
            assert pool.idle_count == 1

    def test_damaged_checkin_evicts_dead_member(self, emp_dept_db):
        registry = MetricsRegistry()
        with ConnectionPool(
            "sqlite-memory", emp_dept_db, capacity=2, registry=registry
        ) as pool:
            member = pool.checkout()
            member.connection.close()
            assert pool.checkin(member, damaged=True) is False
            snapshot = pool.snapshot()
            assert snapshot["in_use"] == 0
            assert snapshot["size"] == 0  # slot freed for a respawn
            assert registry.counter("repro_pool_evictions_total").total() == 1
            # The next checkout spawns a fresh, working member.
            fresh = pool.checkout(timeout=5)
            assert fresh.execute('SELECT COUNT(*) FROM "EMP"').rows[0][0] == 30
            pool.checkin(fresh)

    def test_eviction_wakes_a_blocked_waiter(self, emp_dept_db):
        # Eviction frees a capacity slot; a checkout blocked at capacity
        # must be woken to claim it instead of waiting out its timeout.
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=1) as pool:
            member = pool.checkout()
            acquired = []
            entered = threading.Event()

            def blocked():
                entered.set()
                other = pool.checkout(timeout=10)
                acquired.append(other)
                pool.checkin(other)

            thread = threading.Thread(target=blocked)
            thread.start()
            entered.wait(5)
            time.sleep(0.05)  # let it reach the condition wait
            member.connection.close()
            assert pool.checkin(member, damaged=True) is False
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert len(acquired) == 1

    def test_validation_can_be_disabled(self, emp_dept_db):
        with ConnectionPool(
            "sqlite-memory", emp_dept_db, capacity=2, validate_on_checkout=False
        ) as pool:
            member = pool.checkout()
            pool.checkin(member)
            member.connection.close()
            assert pool.checkout() is member  # handed out unprobed


class TestAsyncCancellation:
    def test_cancel_mid_batch_rebalances_the_pool(self, social_schema):
        """Cancelling ``run_many`` mid-flight must check every member back
        in (via the executor done-callbacks) and leave the gauges at the
        idle baseline — nothing leaks, nothing stays "in use"."""
        with injected_faults(
            hang_on_executes=(1, 2), hang_seconds=0.3
        ):
            with faulty_service(social_schema) as sync_svc:

                async def main():
                    async with AsyncGraphitiService(
                        sync_svc, max_concurrency=2
                    ) as svc:
                        task = asyncio.ensure_future(
                            svc.run_many([SCAN] * 3, concurrency=2)
                        )
                        await asyncio.sleep(0.1)  # both members mid-hang
                        task.cancel()
                        with pytest.raises(asyncio.CancelledError):
                            await task
                    # __aexit__ drained the executor: the done-callbacks
                    # have checked every member back in.

                asyncio.run(main())
                snapshot = sync_svc.pool_snapshots()["faulty"]
                assert snapshot["in_use"] == 0
                assert snapshot["waiters"] == 0
                assert snapshot["idle"] == snapshot["size"]


class TestMemberDiesMidPartitionScan:
    def test_partition_retries_on_a_healthy_member(self, social_schema):
        """A pool member dying mid-partition-scan is a *per-partition*
        event: that partition's execution evicts the member and retries
        on a healthy one through the same guarded pipeline every serial
        query uses, the sibling partition is untouched, and the merged
        result is intact — the parallel query never fails."""
        with injected_faults(die_on_executes=(1,)) as plan:
            with faulty_service(
                social_schema, parallelism=2, parallel_row_threshold=0
            ) as svc:
                table, prepared = svc.serve(SCAN)
                assert len(table.rows) == 20
                assert prepared.plan.parallelism["parallel"]
                assert prepared.plan.parallelism["degree"] == 2
                assert plan.events == [("die", 1)]
                metrics = svc.metrics
                assert metrics.counter("repro_query_retries_total").value(
                    backend="faulty"
                ) == 1
                assert metrics.counter("repro_pool_evictions_total").total() == 1
                assert svc.breaker("faulty").state == CircuitBreaker.CLOSED
                # The pool healed: gauges back at the idle baseline, and
                # the service keeps serving parallel queries.
                snapshot = svc.pool_snapshots()["faulty"]
                assert snapshot["in_use"] == 0
                assert len(svc.run(SCAN).rows) == 20
