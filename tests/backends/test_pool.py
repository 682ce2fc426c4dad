"""ConnectionPool behaviour: checkout/checkin, lazy growth, clones, close,
and pool discipline under the asyncio serving layer."""

import asyncio
import sys
import threading
import time

import pytest

from repro.backends import ConnectionPool, PoolClosed, PoolTimeout, available_backends
from repro.core.sdt import infer_sdt
from repro.execution.datagen import MockDataGenerator
from repro.observability.metrics import MetricsRegistry


@pytest.fixture
def emp_dept_db(emp_dept_schema):
    sdt = infer_sdt(emp_dept_schema)
    return MockDataGenerator(emp_dept_schema, sdt, seed=3).induced_instance(30)


QUERY = 'SELECT COUNT(*) FROM "EMP"'


class TestCheckoutCheckin:
    def test_primary_is_warm_and_loaded(self, emp_dept_db):
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=2) as pool:
            assert pool.size == 1  # primary created eagerly
            with pool.connection() as engine:
                assert engine.execute(QUERY).rows[0][0] == 30

    def test_checkin_returns_member_to_idle(self, emp_dept_db):
        pool = ConnectionPool("sqlite-memory", emp_dept_db, capacity=4)
        member = pool.checkout()
        assert (pool.idle_count, pool.in_use) == (0, 1)
        pool.checkin(member)
        assert (pool.idle_count, pool.in_use) == (1, 0)
        # The same warmed member is reused, not a new one.
        assert pool.checkout() is member
        pool.close()

    def test_grows_lazily_up_to_capacity(self, emp_dept_db):
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=3) as pool:
            members = [pool.checkout() for _ in range(3)]
            assert pool.size == 3
            assert len({id(m) for m in members}) == 3
            for member in members:
                assert member.execute(QUERY).rows[0][0] == 30
                pool.checkin(member)

    def test_blocks_at_capacity_until_checkin(self, emp_dept_db):
        pool = ConnectionPool("sqlite-memory", emp_dept_db, capacity=1)
        member = pool.checkout()
        acquired = []
        entered = threading.Event()

        def blocked_checkout():
            entered.set()
            other = pool.checkout(timeout=10)
            acquired.append(other)
            pool.checkin(other)

        thread = threading.Thread(target=blocked_checkout)
        thread.start()
        # No sleep-based timing: the pool is at capacity with its only
        # member checked out here, so the thread *cannot* have acquired
        # anything until our checkin below, however it is scheduled.
        assert entered.wait(timeout=10)
        assert not acquired
        pool.checkin(member)
        thread.join(timeout=10)
        assert acquired == [member]
        pool.close()

    def test_checkout_timeout(self, emp_dept_db):
        pool = ConnectionPool("sqlite-memory", emp_dept_db, capacity=1)
        member = pool.checkout()
        with pytest.raises(PoolTimeout):
            pool.checkout(timeout=0.05)
        pool.checkin(member)
        pool.close()

    def test_invalid_capacity_rejected(self, emp_dept_db):
        with pytest.raises(ValueError, match="capacity"):
            ConnectionPool("sqlite-memory", emp_dept_db, capacity=0)


class TestGrowthAndWarm:
    def test_warm_spawns_members_eagerly(self, emp_dept_db):
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=4) as pool:
            pool.warm(3)
            assert pool.size == 3
            assert pool.idle_count == 3

    def test_warm_respects_capacity(self, emp_dept_db):
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=2) as pool:
            pool.warm(10)
            assert pool.size == 2

    def test_grow_to_raises_ceiling_only(self, emp_dept_db):
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=2) as pool:
            pool.grow_to(5)
            assert pool.capacity == 5
            pool.grow_to(1)  # never shrinks
            assert pool.capacity == 5


class TestSharedStorageClones:
    def test_file_backend_clones_share_one_database_file(self, emp_dept_db):
        with ConnectionPool("sqlite-file", emp_dept_db, capacity=3) as pool:
            members = [pool.checkout() for _ in range(3)]
            paths = {member.path for member in members}
            assert len(paths) == 1  # one file, three connections
            for member in members:
                assert member.execute(QUERY).rows[0][0] == 30
                pool.checkin(member)

    def test_clone_does_not_delete_shared_file_on_checkin_close(self, emp_dept_db):
        import os

        pool = ConnectionPool("sqlite-file", emp_dept_db, capacity=2)
        first = pool.checkout()
        second = pool.checkout()
        primary_path = first.path
        pool.checkin(first)
        pool.checkin(second)
        assert os.path.exists(primary_path)
        pool.close()
        assert not os.path.exists(primary_path)  # primary cleaned up

    @pytest.mark.parametrize("name", available_backends())
    def test_every_available_backend_pools(self, name, emp_dept_db):
        with ConnectionPool(name, emp_dept_db, capacity=2) as pool:
            pool.warm(2)
            first = pool.checkout()
            second = pool.checkout()
            try:
                for member in (first, second):
                    assert member.execute(QUERY).rows[0][0] == 30
            finally:
                pool.checkin(first)
                pool.checkin(second)


class TestClose:
    def test_checkout_after_close_raises(self, emp_dept_db):
        pool = ConnectionPool("sqlite-memory", emp_dept_db, capacity=2)
        pool.close()
        with pytest.raises(PoolClosed):
            pool.checkout()

    def test_close_is_idempotent(self, emp_dept_db):
        pool = ConnectionPool("sqlite-memory", emp_dept_db, capacity=2)
        pool.close()
        pool.close()

    def test_outstanding_member_closed_on_checkin(self, emp_dept_db):
        pool = ConnectionPool("sqlite-memory", emp_dept_db, capacity=2)
        member = pool.checkout()
        pool.close()
        assert member.connection is not None  # not torn down mid-use
        pool.checkin(member)
        assert member.connection is None  # closed on the way in
        assert pool.size == 0

    def test_concurrent_checkouts_from_threads(self, emp_dept_db):
        errors = []
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=4) as pool:

            def worker():
                try:
                    for _ in range(20):
                        with pool.connection(timeout=10) as engine:
                            assert engine.execute(QUERY).rows[0][0] == 30
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors


def wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.002)
    return True


class TestBlockedCheckout:
    """Wake-ups of checkouts blocked at capacity — the only wait the pool
    has, shared by threaded callers and the async service's executor."""

    def test_close_wakes_blocked_checkout(self, emp_dept_db):
        """A blocked checkout fails fast with PoolClosed when the pool
        closes instead of sleeping out its timeout."""
        pool = ConnectionPool("sqlite-memory", emp_dept_db, capacity=1)
        member = pool.checkout()
        errors = []

        def blocked_checkout():
            try:
                pool.checkout(timeout=30)
            except Exception as error:
                errors.append(error)

        thread = threading.Thread(target=blocked_checkout)
        thread.start()
        assert wait_until(lambda: pool.snapshot()["waiters"] == 1)
        pool.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(errors) == 1 and isinstance(errors[0], PoolClosed)
        pool.checkin(member)

    def test_one_checkin_wakes_one_blocked_checkout(self, emp_dept_db):
        """One freed member goes to one waiter; the other stays blocked
        until the next checkin."""
        pool = ConnectionPool("sqlite-memory", emp_dept_db, capacity=1)
        member = pool.checkout()
        acquired = []
        release = threading.Event()

        def blocked_checkout():
            other = pool.checkout(timeout=10)
            acquired.append(other)
            release.wait(timeout=10)
            pool.checkin(other)

        threads = [threading.Thread(target=blocked_checkout) for _ in range(2)]
        for thread in threads:
            thread.start()
        assert wait_until(lambda: pool.snapshot()["waiters"] == 2)
        pool.checkin(member)
        assert wait_until(lambda: len(acquired) == 1)
        assert pool.snapshot()["waiters"] == 1
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert acquired == [member, member]
        assert pool.size == 1
        pool.close()

    def test_timed_out_checkout_does_not_swallow_the_wakeup(self, emp_dept_db):
        """A waiter that gave up must not consume the notification meant
        for one still waiting."""
        pool = ConnectionPool("sqlite-memory", emp_dept_db, capacity=1)
        member = pool.checkout()
        acquired = []

        def patient_checkout():
            other = pool.checkout(timeout=10)
            acquired.append(other)
            pool.checkin(other)

        thread = threading.Thread(target=patient_checkout)
        thread.start()
        assert wait_until(lambda: pool.snapshot()["waiters"] == 1)
        with pytest.raises(PoolTimeout):
            pool.checkout(timeout=0.05)
        pool.checkin(member)
        thread.join(timeout=10)
        assert acquired == [member]
        pool.close()

    def test_failed_spawn_wakes_blocked_checkout(self, emp_dept_db, monkeypatch):
        """A spawn that fails frees its slot and wakes a checkout blocked
        behind it, which then spawns into the slot itself."""
        from repro.backends import pool as pool_module

        original = pool_module.load_backend
        gate = threading.Event()
        calls = []

        def first_spawn_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                gate.wait(timeout=10)
                raise RuntimeError("engine exploded")
            return original(*args, **kwargs)

        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=2) as pool:
            first = pool.checkout()
            monkeypatch.setattr(
                "repro.backends.pool.load_backend", first_spawn_fails
            )
            errors, acquired = [], []

            def failing_spawn():
                try:
                    pool.checkout(timeout=10)
                except RuntimeError as error:
                    errors.append(error)

            def blocked_checkout():
                acquired.append(pool.checkout(timeout=10))

            spawner = threading.Thread(target=failing_spawn)
            spawner.start()
            assert wait_until(lambda: len(calls) == 1)
            waiter = threading.Thread(target=blocked_checkout)
            waiter.start()
            assert wait_until(lambda: pool.snapshot()["waiters"] == 1)
            gate.set()
            spawner.join(timeout=10)
            waiter.join(timeout=10)
            assert [str(error) for error in errors] == ["engine exploded"]
            assert len(acquired) == 1 and acquired[0] is not first
            assert pool.size == 2
            pool.checkin(first)
            pool.checkin(acquired[0])


class TestContendedCheckin:
    """``checkin`` notifies only when ``_blocked`` counts a waiting
    checkout; under contention no waiter may miss its wake-up."""

    def test_eight_threads_on_two_members(self, emp_dept_db):
        threads, pairs = 8, 2000
        registry = MetricsRegistry()
        pool = ConnectionPool(
            "sqlite-memory", emp_dept_db, capacity=2, registry=registry
        )
        errors = []

        def churn():
            try:
                for _ in range(pairs):
                    pool.checkin(pool.checkout(timeout=5.0))
            except Exception as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            workers = [threading.Thread(target=churn) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(worker.is_alive() for worker in workers)
            assert errors == []
            assert pool.in_use == 0
            checkouts = registry.counter("repro_pool_checkouts_total")
            assert checkouts.value(backend="sqlite-memory") == threads * pairs
        finally:
            pool.close()


class TestStateGauges:
    """Size, in-use and waiter gauges are read from the pool when scraped."""

    def test_gauges_read_live_pool_state(self, emp_dept_db):
        registry = MetricsRegistry()
        pool = ConnectionPool(
            "sqlite-memory", emp_dept_db, capacity=1, registry=registry
        )

        def gauge(name: str) -> float:
            return registry.gauge(name).value(backend="sqlite-memory")

        assert (gauge("repro_pool_size"), gauge("repro_pool_in_use")) == (1, 0)
        member = pool.checkout()
        assert gauge("repro_pool_in_use") == 1
        assert 'repro_pool_in_use{backend="sqlite-memory"} 1' in (
            registry.to_prometheus()
        )
        acquired = []

        def blocked_checkout():
            other = pool.checkout(timeout=10)
            acquired.append(other)
            pool.checkin(other)

        thread = threading.Thread(target=blocked_checkout)
        thread.start()
        assert wait_until(lambda: gauge("repro_pool_waiters") == 1)
        pool.checkin(member)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert acquired == [member]
        assert gauge("repro_pool_in_use") == 0
        assert gauge("repro_pool_waiters") == 0
        pool.close()


class TestAsyncEdgeCases:
    """Pool discipline under the asyncio serving layer."""

    def test_checkin_on_exception_during_awaited_execution(
        self, emp_dept_schema, monkeypatch
    ):
        """A query failing *inside* an awaited execution must check its
        connection back in — the classic leak in async serving layers."""
        from repro.backends import AsyncGraphitiService, GraphitiService
        from repro.backends.sqlite import SqliteMemoryBackend

        query = "MATCH (n:EMP) RETURN n.name"
        with GraphitiService(emp_dept_schema, pool_size=2) as service:
            service.load_mock(20, seed=9)
            async_svc = AsyncGraphitiService(service, max_concurrency=2)
            try:
                pool = service.pool()  # created (and loaded) before the poison

                def always_failing(self, sql_text):
                    raise RuntimeError("engine crashed mid-query")

                monkeypatch.setattr(SqliteMemoryBackend, "execute", always_failing)
                for _ in range(3):
                    with pytest.raises(RuntimeError, match="engine crashed"):
                        asyncio.run(async_svc.run(query))
                assert pool.in_use == 0
                assert pool.idle_count == pool.size  # fully drained back
                # The pool still serves good queries once the engine heals.
                monkeypatch.undo()
                table = asyncio.run(async_svc.run(query))
                assert len(table) == 20
            finally:
                async_svc.close()

    def test_template_member_never_handed_out_under_mixed_load(
        self, emp_dept_schema, monkeypatch
    ):
        """sqlite-file keeps a template member owning the shared database
        file; under simultaneous sync-thread and asyncio load it must never
        execute a query — only clones are handed out."""
        from repro.backends import AsyncGraphitiService, GraphitiService
        from repro.backends.sqlite import SqliteFileBackend

        executed_on: set[int] = set()
        original = SqliteFileBackend.execute

        def spying_execute(self, sql_text):
            executed_on.add(id(self))
            return original(self, sql_text)

        monkeypatch.setattr(SqliteFileBackend, "execute", spying_execute)
        query = "MATCH (n:EMP) RETURN n.name"
        with GraphitiService(
            emp_dept_schema, default_backend="sqlite-file", pool_size=3
        ) as service:
            service.load_mock(20, seed=9)
            async_svc = AsyncGraphitiService(service, max_concurrency=3)
            errors: list[Exception] = []

            def sync_load():
                try:
                    for _ in range(6):
                        service.run(query)
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            async def async_load():
                await asyncio.gather(
                    *(async_svc.run(query) for _ in range(6))
                )

            try:
                threads = [threading.Thread(target=sync_load) for _ in range(2)]
                for thread in threads:
                    thread.start()
                asyncio.run(async_load())
                for thread in threads:
                    thread.join(timeout=30)
                assert not errors
                pool = service.pool()
                template = pool._template
                assert template is not None  # sqlite-file pools via clones
                assert id(template) not in executed_on
                assert executed_on  # the spy actually saw the clones work
            finally:
                async_svc.close()

    def test_spawn_reserved_slot_released_on_failure(self, emp_dept_db, monkeypatch):
        """A failed spawn must release its reserved slot so capacity is not
        leaked (async queries spawn through checkout on executor threads)."""
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=2) as pool:
            first = pool.checkout()

            def broken_load(*args, **kwargs):
                raise RuntimeError("engine exploded")

            monkeypatch.setattr(
                "repro.backends.pool.load_backend", broken_load
            )
            with pytest.raises(RuntimeError, match="engine exploded"):
                pool.checkout(timeout=5)
            # The slot is free again: the next checkout spawns into it
            # instead of timing out at a capacity the failure still holds.
            monkeypatch.undo()
            second = pool.checkout(timeout=5)
            assert second is not first
            assert pool.size == 2
            pool.checkin(first)
            pool.checkin(second)
