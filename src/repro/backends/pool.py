"""Per-backend connection pooling for concurrent query serving.

A :class:`ConnectionPool` owns up to *capacity* warmed, schema-loaded
:class:`~repro.backends.base.ExecutionBackend` members for one engine and
one loaded database.  The first member (the *primary*) is created eagerly
at construction — connect, DDL, single-transaction bulk load, indexes — so
the pool is immediately serviceable; further members are spawned lazily,
only when a checkout finds no idle member and the pool is below capacity.

Growth prefers :meth:`~repro.backends.base.ExecutionBackend.clone_for_pool`
on the primary — extra read connections to a shared database file
(``sqlite-file``) or extra cursors into a shared in-memory engine
(``duckdb``) — and falls back to per-worker clone loading (a fresh
bulk-loaded member, as ``sqlite-memory`` needs) when the engine cannot
share storage.  Members carry no table statistics: the service that owns
the pool plans with its own.

Checkout/checkin follow the classic discipline: a member is used by at
most one thread at a time, ``checkout`` blocks (with optional timeout)
when all members are busy and the pool is at capacity, and the
:meth:`connection` context manager guarantees checkin on all paths.  A
member checked in clean less than :data:`PING_AFTER_IDLE_SECONDS` ago is
handed out again without a liveness ping; one that died inside that
window fails its query, and the damaged checkin that follows pings and
evicts it.
Async callers use the same blocking ``checkout`` on an executor thread;
a query the async service serves inline on its event loop takes an idle
member with :meth:`ConnectionPool.take_idle`, which never waits or spawns.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from contextlib import contextmanager
from functools import partial
from typing import Iterator

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import NOOP_SPAN, NOOP_TRACER
from repro.relational.instance import Database

from repro.backends.base import ExecutionBackend
from repro.backends.registry import load_backend

#: Numbers each pool this process builds (:attr:`ConnectionPool.number`).
_POOL_NUMBERS = itertools.count(1)

#: Seconds a member checked in clean may sit idle and still be handed out
#: without a liveness ping (HikariCP's alive-bypass window).  A member idle
#: longer, one not checked in clean since it was spawned, and every damaged
#: checkin are pinged.
PING_AFTER_IDLE_SECONDS = 0.5


class PoolClosed(RuntimeError):
    """Checkout attempted on a closed pool."""


class PoolTimeout(RuntimeError):
    """Checkout timed out waiting for a free member.

    Carries the pool's state at the moment of the timeout, so the message
    (and the structured attributes, for programmatic handlers) answer the
    operational question directly: was the pool undersized (``capacity``
    all ``in_use``), or starved by a stampede (many ``waiters``)?
    """

    def __init__(
        self,
        message: str,
        *,
        backend: str | None = None,
        capacity: int | None = None,
        in_use: int | None = None,
        idle: int | None = None,
        waiters: int | None = None,
        waited_seconds: float | None = None,
    ) -> None:
        super().__init__(message)
        self.backend = backend
        self.capacity = capacity
        self.in_use = in_use
        self.idle = idle
        self.waiters = waiters
        self.waited_seconds = waited_seconds


class _PoolMetrics:
    """The pool's registry instruments, labelled by backend name.

    The wait histogram is bound once, because every query updates it; the
    checkout counter reads its counts, so a checkout is one update.  The
    state gauges (size, in use, waiters) are not updated at all: they read
    the pool when the registry is scraped, through a weak reference, so a
    registry that outlives the pool (a shared registry, a data reload)
    never keeps it or its loaded members alive, and reads 0 once the pool
    is gone.  When two pools share a registry and a backend name, the
    gauges report the last one created.
    """

    def __init__(self, registry: MetricsRegistry, pool: "ConnectionPool") -> None:
        self.backend = pool.backend_name
        wait_seconds = registry.histogram(
            "repro_pool_checkout_wait_seconds",
            "Seconds a checkout waited for an exclusive member.",
        )
        registry.counter_of(
            "repro_pool_checkouts_total", "Pool checkouts completed.", wait_seconds
        )
        self.wait_seconds = wait_seconds.labels(backend=self.backend)
        self.timeouts = registry.counter(
            "repro_pool_timeouts_total", "Pool checkouts that timed out."
        )
        self.spawns = registry.counter(
            "repro_pool_spawns_total", "Pool members created."
        )
        self.validation_failures = registry.counter(
            "repro_pool_validation_failures_total",
            "Members that failed a liveness probe (checkout or damaged checkin).",
        )
        self.evictions = registry.counter(
            "repro_pool_evictions_total",
            "Broken members evicted (closed and removed) from the pool.",
        )
        ref = weakref.ref(pool)
        for name, help_text, attribute in (
            ("repro_pool_size", "Pool members created (idle + in use).", "_size"),
            ("repro_pool_in_use", "Pool members currently checked out.", "_checked_out"),
            ("repro_pool_waiters", "Callers currently waiting for a member.", "_blocked"),
        ):
            registry.gauge(name, help_text).set_function(
                partial(_pool_state, ref, attribute), backend=self.backend
            )

    def timeout(self) -> None:
        self.timeouts.inc(backend=self.backend)

    def spawned(self) -> None:
        self.spawns.inc(backend=self.backend)

    def validation_failed(self) -> None:
        self.validation_failures.inc(backend=self.backend)

    def evicted(self) -> None:
        self.evictions.inc(backend=self.backend)


def _pool_state(ref: "weakref.ref[ConnectionPool]", attribute: str) -> int:
    """One state counter of the pool behind *ref* (0 once it is gone).

    Read without the pool lock: a single int read is atomic under the
    GIL, the gauge describes a moving target anyway, and a scrape must
    never wait on (or deadlock with) a checkout."""
    pool = ref()
    return 0 if pool is None else getattr(pool, attribute)


class ConnectionPool:
    """A pool of warmed, schema-loaded backends for one engine + dataset."""

    def __init__(
        self,
        backend_name: str,
        database: Database,
        capacity: int = 4,
        registry: MetricsRegistry | None = None,
        tracer=None,
        validate_on_checkout: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"pool capacity must be >= 1, got {capacity}")
        self.backend_name = backend_name
        #: Unique among this process's pools: a timing tagged with it
        #: names the load it ran on, as a reload builds a new pool.
        self.number = next(_POOL_NUMBERS)
        #: Liveness-probe idle members before handing them out, except one
        #: checked in clean within :data:`PING_AFTER_IDLE_SECONDS`; a member
        #: that fails is evicted and the checkout moves on to the next one
        #: (or spawns a replacement).  The probe is a single ``SELECT 1``;
        #: benchmarks may turn it off to measure its cost.
        self.validate_on_checkout = validate_on_checkout
        #: Span producer for ``pool.checkout`` spans; mutable so a service
        #: can attach a real tracer to an already-built pool (``repro
        #: explain`` swaps tracers per query).
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self._metrics: _PoolMetrics | None = None
        self._database = database
        self._capacity = capacity
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        #: Idle members, each with the ``perf_counter`` time of its clean
        #: checkin, or ``None`` when it has had none since it was spawned
        #: or its last checkin was damaged: such a member is pinged.
        self._idle: list[tuple[ExecutionBackend, float | None]] = []
        self._spawning = 0
        self._size = 0
        self._checked_out = 0
        #: Callers currently blocked inside :meth:`checkout`'s wait;
        #: :meth:`checkin` notifies only while it is nonzero.
        self._blocked = 0
        self._closed = False
        # Serialises clone_for_pool calls on the template: a backend is a
        # single connection and must never be driven from two threads.
        self._clone_lock = threading.Lock()
        # Warm the primary eagerly: its load pays the one-time DDL +
        # single-transaction bulk load.  Engines whose storage is shareable
        # keep it as a *template* that is never handed out — clones are
        # always stamped from a connection no worker thread is using.
        # Non-shareable engines put the primary straight into rotation.
        primary = self._load_member()
        first_clone = primary.clone_for_pool()
        if first_clone is None:
            self._template: ExecutionBackend | None = None
            self._size = 1
            self._idle.append((primary, None))
        else:
            self._template = primary
            self._size = 1
            self._idle.append((first_clone, None))
        # Bound once the primary has loaded, so the state gauges only ever
        # report a pool that is serviceable.
        if registry is not None:
            self._metrics = _PoolMetrics(registry, self)

    # -- introspection -----------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum number of members the pool may grow to."""
        return self._capacity

    @property
    def size(self) -> int:
        """Members created so far (idle + checked out)."""
        with self._lock:
            return self._size

    @property
    def idle_count(self) -> int:
        with self._lock:
            return len(self._idle)

    @property
    def in_use(self) -> int:
        with self._lock:
            return self._checked_out

    # -- sizing ------------------------------------------------------------

    def grow_to(self, capacity: int) -> None:
        """Raise the capacity ceiling (never shrinks, never spawns)."""
        with self._lock:
            self._capacity = max(self._capacity, capacity)

    def warm(self, members: int) -> None:
        """Eagerly spawn until at least ``min(members, capacity)`` exist.

        Benchmarks call this before timing so member creation (which for
        clone-loading engines repeats the bulk load) does not count against
        the first concurrent batch.
        """
        while True:
            with self._lock:
                if self._closed:
                    raise PoolClosed(f"pool for {self.backend_name!r} is closed")
                target = min(members, self._capacity)
                if self._size + self._spawning >= target:
                    return
                self._spawning += 1
            self._spawn_reserved()

    # -- checkout / checkin ------------------------------------------------

    def checkout(self, timeout: float | None = None) -> ExecutionBackend:
        """A member for exclusive use; blocks while at capacity and busy.

        Idle members are liveness-probed before being handed out (see
        ``validate_on_checkout``), unless checked in clean within
        :data:`PING_AFTER_IDLE_SECONDS`: a dead member — its engine
        connection died while it sat idle — is evicted, freeing its
        capacity slot, and the checkout retries with the next idle member
        or a fresh spawn.  The probe runs outside the pool lock so a slow
        one never serialises other checkouts.  The ``pool.checkout`` span
        opens only when the tracer records.
        """
        started = time.perf_counter()
        tracer = self.tracer
        if not tracer.enabled:
            return self._checkout(started, timeout, NOOP_SPAN)
        with tracer.span("pool.checkout", backend=self.backend_name) as span:
            return self._checkout(started, timeout, span)

    def _checkout(
        self, started: float, timeout: float | None, span
    ) -> ExecutionBackend:
        """:meth:`checkout` from *started* on, under *span*."""
        deadline = None if timeout is None else started + timeout
        spawned = False
        while True:
            member = None
            with self._lock:
                while True:
                    if self._closed:
                        raise PoolClosed(f"pool for {self.backend_name!r} is closed")
                    if self._idle:
                        member, checked_in = self._idle.pop()
                        self._checked_out += 1
                        break
                    if self._size + self._spawning < self._capacity:
                        self._spawning += 1
                        spawned = True
                        break
                    # A real deadline, not a per-wakeup timeout: a waiter
                    # that keeps being notified but loses the race to a
                    # faster thread must still time out after *timeout*
                    # seconds total.
                    remaining = (
                        None if deadline is None else deadline - time.perf_counter()
                    )
                    if remaining is not None and remaining <= 0:
                        raise self._timeout_locked(
                            timeout, time.perf_counter() - started
                        )
                    self._blocked += 1
                    try:
                        self._available.wait(remaining)
                    finally:
                        self._blocked -= 1
            if member is None:
                member = self._spawn_reserved(checkout=True)
            elif not self._admit(member, checked_in):
                continue  # dead member evicted; retry under the deadline
            self._note_checkout(time.perf_counter() - started, span, spawned)
            return member

    def take_idle(self) -> ExecutionBackend | None:
        """An idle member for exclusive use, or ``None`` when getting one
        would mean waiting for a checkin or spawning a member (or the pool
        is closed).  Never blocks: the async service takes its inline
        queries' members here.  A member it returns was admitted (pinged
        unless inside the window) and counted exactly as :meth:`checkout`
        does, under the same span; check it in the same way."""
        started = time.perf_counter()
        tracer = self.tracer
        if not tracer.enabled:
            return self._take_idle(started, NOOP_SPAN)
        with tracer.span("pool.checkout", backend=self.backend_name) as span:
            return self._take_idle(started, span)

    def _take_idle(self, started: float, span) -> ExecutionBackend | None:
        """:meth:`take_idle` from *started* on, under *span*."""
        while True:
            with self._lock:
                if self._closed or not self._idle:
                    return None
                member, checked_in = self._idle.pop()
                self._checked_out += 1
            if self._admit(member, checked_in):
                self._note_checkout(time.perf_counter() - started, span, False)
                return member

    def _note_checkout(self, waited: float, span, spawned: bool) -> None:
        """Account one successful checkout: the wait histogram, and the
        attributes of *span* when it records (the no-op span when the
        tracer does not)."""
        if span.recording:
            span.set("waited_ms", round(waited * 1000.0, 3))
            span.set("spawned", spawned)
        if self._metrics is not None:
            self._metrics.wait_seconds.observe(waited)

    def _timeout_locked(self, timeout: float | None, waited: float) -> PoolTimeout:
        """The diagnostic timeout error; caller holds the pool lock."""
        if self._metrics is not None:
            self._metrics.timeout()
        return PoolTimeout(
            f"no free {self.backend_name!r} member within {timeout}s: "
            f"capacity {self._capacity}, {self._checked_out} in use, "
            f"{len(self._idle)} idle, {self._blocked} waiter(s), "
            f"waited {waited:.3f}s",
            backend=self.backend_name,
            capacity=self._capacity,
            in_use=self._checked_out,
            idle=len(self._idle),
            waiters=self._blocked,
            waited_seconds=waited,
        )

    def snapshot(self) -> dict:
        """Point-in-time pool state (introspection / ``--stats`` views)."""
        with self._lock:
            return {
                "backend": self.backend_name,
                "capacity": self._capacity,
                "size": self._size,
                "idle": len(self._idle),
                "in_use": self._checked_out,
                "waiters": self._blocked,
                "closed": self._closed,
            }

    def checkin(self, member: ExecutionBackend, damaged: bool = False) -> bool:
        """Return *member* to the idle set (closes it if the pool closed).

        *damaged* marks a member whose last use raised an engine exception:
        it is liveness-probed before reuse, and one whose connection died
        is evicted — closed, its capacity slot freed for a respawn —
        instead of poisoning the next caller.  Returns ``True`` when the
        member was retained, ``False`` when it was evicted.  Only a clean
        checkin lets the next checkout skip its ping, inside
        :data:`PING_AFTER_IDLE_SECONDS`.
        """
        if damaged and not self._member_alive(member):
            self._discard_checked_out(member)
            return False
        checked_in = None if damaged else time.perf_counter()
        with self._lock:
            self._checked_out -= 1
            if self._closed:
                self._size -= 1
                closing = member
            else:
                self._idle.append((member, checked_in))
                closing = None
            # A waiter counts itself in _blocked under this lock before it
            # waits, so none can miss the wake-up skipped here.
            if self._blocked:
                self._available.notify()
        if closing is not None:
            closing.close()
            self._teardown_template_if_due()
        return True

    @contextmanager
    def connection(self, timeout: float | None = None) -> Iterator[ExecutionBackend]:
        """``with pool.connection() as engine: engine.execute(...)``.

        A body that raises checks the member in as *damaged*, so a
        connection the exception killed is evicted instead of reused.
        """
        member = self.checkout(timeout=timeout)
        try:
            yield member
        except BaseException:
            self.checkin(member, damaged=True)
            raise
        else:
            self.checkin(member)

    # -- member health -----------------------------------------------------

    def _member_alive(self, member: ExecutionBackend) -> bool:
        """Liveness-probe *member*, counting failures in the metrics."""
        try:
            alive = member.ping()
        except Exception:
            alive = False
        if not alive and self._metrics is not None:
            self._metrics.validation_failed()
        return alive

    def _admit(self, member: ExecutionBackend, checked_in: float | None) -> bool:
        """Validate a just-checked-out idle member, last checked in clean
        at *checked_in* (``None``: not since it was spawned, or its last
        checkin was damaged); evict it if dead.  One checked in clean
        within :data:`PING_AFTER_IDLE_SECONDS` is not pinged."""
        if not self.validate_on_checkout or (
            checked_in is not None
            and time.perf_counter() - checked_in < PING_AFTER_IDLE_SECONDS
        ):
            return True
        if self._member_alive(member):
            return True
        self._discard_checked_out(member)
        return False

    def _discard_checked_out(self, member: ExecutionBackend) -> None:
        """Evict a currently-checked-out member: close it and free its
        capacity slot (waking a waiter, which may now spawn)."""
        with self._available:
            self._checked_out -= 1
            self._size -= 1
            if self._metrics is not None:
                self._metrics.evicted()
            self._available.notify()
        try:
            member.close()
        except Exception:
            pass
        self._teardown_template_if_due()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close idle members and refuse new checkouts.

        Members currently checked out are closed as they are checked back
        in, so no connection is ever torn down under a running query; the
        template (owner of any shared storage) is closed only once the
        last outstanding member has returned.
        """
        with self._available:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            self._size -= len(idle)
            self._available.notify_all()
        for member, _ in idle:
            member.close()
        self._teardown_template_if_due()

    def _teardown_template_if_due(self) -> None:
        """Close the template once it can no longer be needed.

        The template owns any shared storage (the database file, the parent
        in-memory connection), so it must outlive every member *and* every
        in-flight spawn; the last of close()/checkin()/_spawn_reserved() to
        observe the closed, fully drained pool tears it down.
        """
        template = None
        with self._available:
            if (
                self._closed
                and self._checked_out == 0
                and self._spawning == 0
                and self._template is not None
            ):
                template, self._template = self._template, None
        if template is not None:
            with self._clone_lock:  # never under an in-flight clone
                template.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _load_member(self) -> ExecutionBackend:
        return load_backend(self.backend_name, self._database)

    def _spawn_reserved(self, checkout: bool = False) -> ExecutionBackend:
        """Create the member a caller reserved a slot for (``_spawning``)."""
        member: ExecutionBackend | None = None
        discard = False
        try:
            if self._template is not None:
                with self._clone_lock:
                    template = self._template  # may have been taken meanwhile
                    member = template.clone_for_pool() if template else None
            if member is None:
                member = self._load_member()
        finally:
            # The member's fate is decided under the lock — a close() racing
            # with this spawn either sees the member in the pool's books and
            # handles it, or we discard it ourselves, never both.
            with self._available:
                self._spawning -= 1
                if member is None:
                    # Spawn failed: wake a waiter so it can claim the slot
                    # (or observe the pool's closure) instead of hanging.
                    self._available.notify()
                elif self._closed:
                    discard = True
                else:
                    self._size += 1
                    if self._metrics is not None:
                        self._metrics.spawned()
                    if checkout:
                        self._checked_out += 1
                    else:
                        self._idle.append((member, None))
                        self._available.notify()
        if discard:
            member.close()
            self._teardown_template_if_due()
            raise PoolClosed(f"pool for {self.backend_name!r} is closed")
        assert member is not None
        return member
