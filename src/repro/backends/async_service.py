"""The :class:`AsyncGraphitiService`: asyncio serving over the sync pipeline.

There is one serving pipeline — :meth:`GraphitiService._serve
<repro.backends.service.GraphitiService._serve>` — and every guard and
recovery step of serving lives there; this module adds none.  Each awaited
:meth:`~AsyncGraphitiService.run` opens its ``query`` span on the event
loop, when the tracer records, and then calls that pipeline in one of two
places.

**Inline, on the loop**, when the executor hop would cost more than the
query.  A thread round trip costs tens of microseconds, and a warm point
lookup spends a few of them in the engine.  All of these must hold:

1. the text's prepared entry is a memory-cache hit, so nothing is parsed
   or optimized on the loop;
2. the entry's partition gate verdict is serial (it carries no executor);
3. the entry has :data:`~repro.backends.service.FEEDBACK_MIN_OBSERVATIONS`
   observations: its feedback re-plan check has already run, and cannot
   fire later, because its rows are fixed for the loaded data;
4. the mean engine time of this entry on this backend's current pool,
   which the entry keeps per backend, is below the measured hop (a
   reload's new pool, a re-planned entry, or a backend it never ran on
   starts with no timing, so the query is offloaded until timed);
5. an idle pool member can be taken without waiting or spawning.

An inline query first yields to the loop once, so concurrent clients
take turns and other tasks run between inline queries.  Nothing on the
loop waits or sleeps: a step that could (a pool wait or spawn, a retry
backoff, a budget downgrade's re-prepare) moves the rest of the query to
the executor, under the same budget clock.

**On the executor** otherwise, as one executor call of the pipeline.

The hop is measured, not configured.  A
:class:`~repro.backends.executor.HopClock` times executor round trips from
the loop, minus the work inside them, counting only trips that found an
idle thread, and keeps the smallest: contention only ever adds to a trip.
Until :data:`~repro.backends.executor.HOP_SAMPLES` trips were counted,
every query is offloaded.  An inline query holds the loop for the
pipeline's own fixed cost plus an engine call whose mean time so far was
below the hop.  **Known limit:** inlining bets on that observed time.  A
one-off engine stall on an inline query blocks the loop for its length; a
budget timeout still aborts the statement.

Both placements share the rest:

* **backpressure is the executor** — it has exactly ``max_concurrency``
  threads, so at most that many offloaded queries are in flight; the rest
  queue.  Inline queries take no executor slot;
* **an exhausted pool raises** :class:`~repro.backends.pool.PoolTimeout`
  after :data:`~repro.backends.service.CHECKOUT_TIMEOUT` seconds (or the
  budget's remaining clock, whichever is tighter) instead of queueing
  without bound, as on the sync path;
* **spans parent as on the sync path** — an inline call runs in the
  task's own :mod:`contextvars` context and an executor call in a copy of
  it, so ``pool.checkout``, ``execute``, and ``parallel.*`` spans land
  under the awaiting query's span;
* **cancellation never strands a member** — an inline query has no
  ``await`` between its checkout and its checkin; cancelling an offloaded
  one abandons the result, but the executor thread finishes its engine
  call and checks the member back in itself;
* **every verdict is counted** — the ``query`` span's ``placement``
  attribute and ``repro_async_placement_total{backend,placement}`` say
  where the query finished: ``inline`` or ``executor``.

The async service can own its service (pass a
:class:`~repro.graph.schema.GraphSchema`) or wrap an existing
:class:`GraphitiService`, in which case caches, pools, and statistics are
shared with sync callers.

Typical use::

    async def main():
        async with AsyncGraphitiService(graph_schema) as service:
            await service.load_mock(1000)
            table = await service.run("MATCH (n:EMP) RETURN n.name")
            tables = await service.run_many(batch, concurrency=8)
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Sequence, TypeVar

from repro.common.budget import BudgetTracker, QueryBudget
from repro.graph.schema import GraphSchema
from repro.observability.metrics import CounterChild
from repro.observability.tracing import NOOP_SPAN
from repro.relational.instance import Database, Table
from repro.sql.stats import DatabaseStats

from repro.backends.executor import HopClock
from repro.backends.service import (
    FEEDBACK_MIN_OBSERVATIONS,
    GraphitiService,
    PreparedQuery,
    _note_served,
    _OffLoop,
)

#: Default cap on concurrently executing queries (executor threads).
DEFAULT_MAX_CONCURRENCY = 8

_T = TypeVar("_T")


def _timed(context: contextvars.Context, work: Callable[[], _T]) -> tuple[_T, float]:
    """``work()`` in *context*, and the seconds it took (on the worker)."""
    start = time.perf_counter()
    outcome = context.run(work)
    return outcome, time.perf_counter() - start


class AsyncGraphitiService:
    """Async facade over a serving pipeline: ``await run(cypher)``.

    Parameters
    ----------
    service_or_schema:
        An existing :class:`GraphitiService` to share, or a
        :class:`GraphSchema` from which to build an owned one
        (``**service_kwargs`` forwarded; the owned service is closed with
        this object).
    max_concurrency:
        Number of executor threads, and so the ceiling on simultaneously
        executing offloaded queries — the backpressure valve.
    """

    def __init__(
        self,
        service_or_schema: GraphitiService | GraphSchema,
        *,
        max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
        **service_kwargs: Any,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        if isinstance(service_or_schema, GraphSchema):
            self._service = GraphitiService(service_or_schema, **service_kwargs)
            self._owns_service = True
        else:
            if service_kwargs:
                raise TypeError(
                    "service keyword arguments only apply when constructing "
                    "from a GraphSchema, not when wrapping an existing service"
                )
            self._service = service_or_schema
            self._owns_service = False
        self.max_concurrency = max_concurrency
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="graphiti-async"
        )
        #: The executor hop as the loop sees it (see the module docstring).
        self._hop = HopClock(max_concurrency)
        self._placement_total = self._service.metrics.counter(
            "repro_async_placement_total",
            "Awaited queries by where they finished: inline on the event "
            "loop, or on the executor.",
        )
        #: Per backend name, the ``(inline, executor)`` series, bound once.
        self._placements: dict[str, tuple[CounterChild, CounterChild]] = {}
        self._closed = False

    @property
    def service(self):
        """The wrapped synchronous service (shared caches, pools, stats)."""
        return self._service

    # -- execution ---------------------------------------------------------

    async def run(
        self,
        cypher_text: str,
        backend: str | None = None,
        opt_level: int | None = None,
        budget: QueryBudget | None = None,
    ) -> Table:
        """Execute *cypher_text* on *backend* through the sync pipeline:
        inline on the loop when the executor hop would cost more than the
        query, awaited on the executor otherwise (see the module
        docstring for the gate).

        Any number of coroutines may call this concurrently; offloaded
        executions beyond ``max_concurrency`` queue for an executor
        thread, while inline ones take no executor slot.  *budget*, and
        the :class:`PoolTimeout` an exhausted pool raises, behave exactly
        as on :meth:`GraphitiService.run`.
        """
        name = backend or self._service.default_backend
        return await self._run(
            cypher_text, name, opt_level, budget, cypher=cypher_text, mode="async"
        )

    async def _run(
        self,
        cypher_text: str,
        name: str,
        opt_level: int | None,
        budget: QueryBudget | None,
        **attributes: object,
    ) -> Table:
        """One awaited query under its ``query`` span, which opens only
        when the tracer records."""
        if self._closed:
            raise RuntimeError("AsyncGraphitiService is closed")
        service = self._service
        # The budget's clock starts now, so time queued for an executor
        # thread counts against its timeout.
        tracker = service._start_budget(budget)
        tracer = service._tracer
        if not tracer.enabled:
            served = await self._place(cypher_text, name, opt_level, tracker, NOOP_SPAN)
            return served[0]
        with tracer.span("query", backend=name, **attributes) as span:
            result, prepared = await self._place(
                cypher_text, name, opt_level, tracker, span
            )
            _note_served(span, result, prepared)
        return result

    async def _place(
        self,
        cypher_text: str,
        name: str,
        opt_level: int | None,
        tracker: BudgetTracker | None,
        span,
    ) -> tuple[Table, PreparedQuery]:
        """Serve inline or on the executor (see the module docstring), and
        count the placement, also on *span* when it records."""
        service = self._service
        served = None
        key = service._plan_key(
            cypher_text, service.dialect_of(name), opt_level, tracker
        )
        hop = self._hop.seconds
        entry = None if hop is None else service._prepare(key, memory_only=True)
        serve = partial(service._serve, key, name, tracker, entry)
        inline = entry is not None and self._fits_inline(entry, name, hop)
        if inline:
            # One turn for every other ready task first: back-to-back
            # inline queries would otherwise starve them.
            await asyncio.sleep(0)
            if self._closed:
                raise RuntimeError("AsyncGraphitiService is closed")
        try:
            if inline:
                try:
                    served = serve(on_loop=True)
                except _OffLoop as leave:
                    serve, inline = leave.resume, False
            if served is None:
                served = await self._offload(serve)
        finally:
            self._placement_series(name)[0 if inline else 1].inc()
            if span.recording:
                span.set("placement", "inline" if inline else "executor")
        return served

    def _fits_inline(self, entry: PreparedQuery, name: str, hop: float) -> bool:
        """Gate conditions 3 and 4 (see the module docstring); the cache
        lookup was 1, and the pipeline itself enforces 2 and 5."""
        if entry.feedback.executions < FEEDBACK_MIN_OBSERVATIONS:
            return False
        observed = self._service._engine_seconds(entry, name)
        return observed is not None and observed < hop

    async def _offload(self, work: Callable[[], _T]) -> _T:
        """Await *work* on the executor, in a copy of this task's context
        so the spans it opens parent under this task's, timing the hop."""
        hop = self._hop
        idle = hop.start()
        started = time.perf_counter()
        try:
            outcome, seconds = await asyncio.get_running_loop().run_in_executor(
                self._executor, _timed, contextvars.copy_context(), work
            )
        except BaseException:
            hop.finish(idle, None)
            raise
        hop.finish(idle, time.perf_counter() - started, seconds)
        return outcome

    def _placement_series(self, name: str) -> tuple[CounterChild, CounterChild]:
        series = self._placements.get(name)
        if series is None:
            series = self._placements[name] = (
                self._placement_total.labels(backend=name, placement="inline"),
                self._placement_total.labels(backend=name, placement="executor"),
            )
        return series

    async def run_many(
        self,
        cypher_texts: Sequence[str],
        concurrency: int = 4,
        backend: str | None = None,
        opt_level: int | None = None,
        budget: QueryBudget | None = None,
    ) -> list[Table]:
        """Execute a batch concurrently; ``results[i]`` answers ``texts[i]``.

        At most ``min(concurrency, max_concurrency)`` queries are in
        flight at once (the pool's capacity is raised to match).  All
        transpilation happens up front, on the executor, so the awaited
        work is pure execution.  If any query fails, the remaining ones
        finish (their connections are checked back in) and the first
        failure is re-raised.
        """
        texts = list(cypher_texts)
        if not texts:
            return []
        service = self._service
        name = backend or service.default_backend
        fan_out = max(1, min(concurrency, self.max_concurrency, len(texts)))
        with service.tracer.span(
            "query.batch",
            backend=name,
            queries=len(texts),
            concurrency=fan_out,
            mode="async",
        ):
            await self._offload(
                partial(service._prepare_batch, texts, name, opt_level, budget, fan_out)
            )
            slots = asyncio.Semaphore(fan_out)

            async def one(index: int, text: str) -> Table:
                # Each gather branch is a task with its own copy of the
                # context, so its query span parents under the batch span
                # and never interleaves with a sibling's.
                async with slots:
                    return await self._run(text, name, opt_level, budget, index=index)

            outcomes = await asyncio.gather(
                *(one(index, text) for index, text in enumerate(texts)),
                return_exceptions=True,
            )
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return list(outcomes)

    # -- data / pool management (blocking I/O, off the query executor) -----

    async def warm_pool(
        self, backend: str | None = None, members: int | None = None
    ) -> None:
        """Eagerly spawn pool members without stalling the event loop."""
        await asyncio.to_thread(self._service.warm_pool, backend, members)

    async def load_database(
        self, database: Database, stats: DatabaseStats | None = None
    ) -> None:
        await asyncio.to_thread(self._service.load_database, database, stats)

    async def load_graph(self, graph: object) -> None:
        await asyncio.to_thread(self._service.load_graph, graph)

    async def load_mock(self, rows_per_table: int, seed: int = 42) -> None:
        await asyncio.to_thread(self._service.load_mock, rows_per_table, seed)

    async def reference(
        self,
        cypher_text: str,
        opt_level: int | None = None,
        budget: QueryBudget | None = None,
    ) -> Table:
        """The reference bag-semantics evaluation (offloaded: it's slow)."""
        return await asyncio.to_thread(
            self._service.reference, cypher_text, opt_level, budget
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the executor (and the inner service when owned).

        Waits for in-flight executions — including ones whose awaiting
        task was cancelled — so every member is checked back in first.
        """
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        if self._owns_service:
            self._service.close()

    async def aclose(self) -> None:
        await asyncio.to_thread(self.close)

    async def __aenter__(self) -> "AsyncGraphitiService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()
