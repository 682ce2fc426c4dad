"""Serving-layer fault guards: bounded retry and per-backend circuit breaking.

Two small, deterministic-under-test primitives the service composes around
pool checkout + engine execution:

* :class:`RetryPolicy` — bounded retry with exponential backoff and
  decorrelating jitter for *transient* failures (a member whose connection
  died mid-query, a spawn that failed).  The clockwork is injectable
  (``rng``, ``sleep``) so tests run instantly and assert exact schedules.

* :class:`CircuitBreaker` — the classic three-state machine.  CLOSED
  passes traffic and counts consecutive failures; at ``failure_threshold``
  it OPENs and sheds load instantly (:class:`CircuitOpen`) instead of
  making every caller wait out a dead engine's timeouts; after
  ``cooldown_seconds`` it admits one probe (HALF_OPEN) whose outcome
  either re-CLOSEs or re-OPENs the circuit.  The clock is injectable for
  the same reason.

Neither primitive knows about metrics; the service wires breaker
transitions into its registry via the ``on_transition`` callback so these
stay dependency-free and reusable.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable


class CircuitOpen(RuntimeError):
    """Load shed: the backend's circuit breaker is open.

    Raised *before* any pool or engine work happens, so callers fail in
    microseconds while the engine is known-dead.  Carries when the next
    probe will be admitted.
    """

    def __init__(
        self,
        message: str,
        *,
        backend: str | None = None,
        failures: int | None = None,
        retry_after_seconds: float | None = None,
    ) -> None:
        super().__init__(message)
        self.backend = backend
        self.failures = failures
        self.retry_after_seconds = retry_after_seconds


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff + jitter.

    ``max_attempts`` counts total tries (1 = no retry).  Delay before
    retry *n* (1-based) is ``base_delay * multiplier**(n-1)``, capped at
    ``max_delay``, with up to ``jitter`` of itself subtracted at random —
    decorrelating a thundering herd of workers that all lost members to
    the same engine crash.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def should_retry(self, attempt: int) -> bool:
        """Whether to try again after 1-based try *attempt* failed."""
        return attempt < self.max_attempts

    def delay_for(
        self, attempt: int, rng: Callable[[], float] = random.random
    ) -> float:
        """Backoff before the retry that follows 1-based try *attempt*."""
        delay = min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )
        return delay * (1.0 - self.jitter * rng())


#: No sleeping, one try — for tests and latency-critical callers.
NO_RETRY = RetryPolicy(max_attempts=1, base_delay=0.0)


class CircuitBreaker:
    """A per-backend three-state circuit breaker (thread-safe).

    States: ``"closed"`` (normal traffic; consecutive failures counted),
    ``"open"`` (every :meth:`allow` raises :class:`CircuitOpen` until the
    cooldown passes), ``"half_open"`` (exactly one probe call admitted;
    its success re-closes the circuit, its failure re-opens it and
    restarts the cooldown).

    Every state change happens under the lock.  A closed circuit answers
    :meth:`allow`, and a success with no failure streak to reset, from a
    lock-free read instead: under the GIL one attribute read is atomic,
    and a call that reads "closed" just before another thread opens the
    circuit is ordered as if it had arrived just before that failure.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        backend_name: str = "",
        failure_threshold: int = 5,
        cooldown_seconds: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str], None] | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.backend_name = backend_name
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.clock = clock
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self._probe_token = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> int | None:
        """Admit one call or raise :class:`CircuitOpen` (load shed).

        Returns a probe token when this call holds the single half-open
        probe slot (``None`` otherwise).  The holder must settle the probe
        — :meth:`record_success` or :meth:`record_failure` — or hand the
        token to :meth:`release_probe` from a ``finally``, so a probe that
        exits without a verdict (pool timeout, cancellation, a query-level
        error) frees the slot instead of wedging the breaker HALF_OPEN
        with every later :meth:`allow` shed forever.
        """
        if self._state == self.CLOSED:
            return None
        with self._lock:
            if self._state == self.CLOSED:
                return None
            elapsed = self.clock() - self._opened_at
            if self._state == self.OPEN and elapsed >= self.cooldown_seconds:
                self._transition(self.HALF_OPEN)
            if self._state == self.HALF_OPEN and not self._probing:
                self._probing = True  # exactly one concurrent probe
                self._probe_token += 1
                return self._probe_token
            remaining = max(self.cooldown_seconds - elapsed, 0.0)
            raise CircuitOpen(
                f"circuit for backend {self.backend_name!r} is open after "
                f"{self._failures} consecutive failure(s); "
                f"next probe in {remaining:.3f}s",
                backend=self.backend_name,
                failures=self._failures,
                retry_after_seconds=remaining,
            )

    def release_probe(self, token: int | None) -> None:
        """Free the half-open probe slot if the probe identified by *token*
        never reached a verdict.

        Safe to call unconditionally from a ``finally``: it is a no-op when
        *token* is ``None``, after the probe was settled by
        :meth:`record_success`/:meth:`record_failure`, and when a newer
        probe holds the slot (the token match keeps a stale release from
        freeing someone else's probe).
        """
        if token is None:
            return
        with self._lock:
            if self._probing and token == self._probe_token:
                self._probing = False

    def record_success(self) -> None:
        # Closed with no streak: nothing to reset, nor a probe to settle
        # (only a success re-closes the circuit, and it frees the slot).
        if self._state == self.CLOSED and not self._failures:
            return
        with self._lock:
            self._failures = 0
            self._probing = False
            if self._state != self.CLOSED:
                self._transition(self.CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == self.HALF_OPEN:
                # The probe failed: back to shedding for a full cooldown.
                self._probing = False
                self._opened_at = self.clock()
                self._transition(self.OPEN)
            elif (
                self._state == self.CLOSED
                and self._failures >= self.failure_threshold
            ):
                self._opened_at = self.clock()
                self._transition(self.OPEN)

    def _transition(self, state: str) -> None:
        # Caller holds the lock; the callback must therefore be cheap and
        # never call back into the breaker.
        self._state = state
        if self.on_transition is not None:
            try:
                self.on_transition(state)
            except Exception:
                pass
