"""The :class:`AsyncGraphitiService`: asyncio serving over the sync pipeline.

There is one serving pipeline — :meth:`GraphitiService._serve
<repro.backends.service.GraphitiService._serve>` — and every guard and
recovery step of serving lives there; this module adds none.  Each awaited
:meth:`~AsyncGraphitiService.run` opens its ``query`` span on the event
loop and then awaits *one* executor call of that pipeline, so:

* **the loop never blocks** — prepare, checkout, and the engine call all
  run on an executor thread;
* **backpressure is the executor** — it has exactly ``max_concurrency``
  threads, so at most that many queries are in flight; the rest queue;
* **an exhausted pool raises** :class:`~repro.backends.pool.PoolTimeout`
  after ``checkout_timeout`` seconds (or the budget's remaining clock,
  whichever is tighter) instead of queueing without bound;
* **spans parent as on the sync path** — the executor call runs in a copy
  of the caller's :mod:`contextvars` context, so ``pool.checkout``,
  ``execute``, and ``parallel.*`` spans land under the awaiting query's
  span;
* **cancellation never strands a member** — cancelling the awaiting task
  abandons the result, but the executor thread finishes its engine call
  and checks the member back in itself.

The cost model is one executor thread per in-flight query.

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
import functools
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Sequence

from repro.common.budget import QueryBudget
from repro.graph.schema import GraphSchema
from repro.relational.instance import Database, Table

from repro.backends.service import GraphitiService, PreparedQuery

#: Default cap on concurrently executing queries (executor threads).
DEFAULT_MAX_CONCURRENCY = 8

#: Default seconds a pool checkout may wait before raising PoolTimeout.
DEFAULT_CHECKOUT_TIMEOUT = 30.0


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
        executing queries — the backpressure valve.
    checkout_timeout:
        Seconds a pool checkout may wait when the pool is exhausted at
        capacity before raising :class:`~repro.backends.pool.PoolTimeout`
        (``None``: wait forever).
    """

    def __init__(
        self,
        service_or_schema: GraphitiService | GraphSchema,
        *,
        max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
        checkout_timeout: float | None = DEFAULT_CHECKOUT_TIMEOUT,
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
        self.checkout_timeout = checkout_timeout
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="graphiti-async"
        )
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
        """Execute *cypher_text* on *backend* through the sync pipeline,
        awaited on the executor.

        Any number of coroutines may call this concurrently; executions
        beyond ``max_concurrency`` queue for an executor thread, and an
        exhausted pool raises :class:`PoolTimeout` after
        ``checkout_timeout`` seconds rather than queueing without bound.
        *budget* behaves exactly as on :meth:`GraphitiService.run`.
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
        if self._closed:
            raise RuntimeError("AsyncGraphitiService is closed")
        service = self._service
        # The budget's clock starts now, so time queued for an executor
        # thread counts against its timeout.
        serve = functools.partial(
            service._serve,
            cypher_text,
            name,
            opt_level,
            budget,
            checkout_timeout=self.checkout_timeout,
            tracker=service._start_budget(budget),
        )
        with service.tracer.span("query", backend=name, **attributes) as span:
            # The pipeline runs in a copy of this task's context, so the
            # spans it opens on the executor thread parent under this one.
            context = contextvars.copy_context()
            result, prepared = await asyncio.get_running_loop().run_in_executor(
                self._executor, context.run, serve
            )
            span.set("opt_level", prepared.opt_level)
            span.set("rows", len(result.rows))
        return result

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
        transpilation happens up front, so the awaited work is pure
        execution.  If any query fails, the remaining ones finish (their
        connections are checked back in) and the first failure is
        re-raised.
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
            service._prepare_batch(texts, name, opt_level, budget, fan_out)
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

    async def load_database(self, database: Database) -> None:
        await asyncio.to_thread(self._service.load_database, database)

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

    # -- sync delegates (cheap, loop-safe) ----------------------------------

    def prepare(
        self,
        cypher_text: str,
        dialect: object | None = None,
        opt_level: int | None = None,
    ) -> PreparedQuery:
        """Cached transpilation — sync on purpose: micro-fast after first hit."""
        return self._service.prepare(cypher_text, dialect, opt_level=opt_level)

    def transpile_to_sql(
        self, cypher_text: str, dialect: object | None = None,
        opt_level: int | None = None,
    ) -> str:
        return self._service.transpile_to_sql(cypher_text, dialect, opt_level)

    def backends(self) -> tuple[str, ...]:
        return self._service.backends()

    def cache_info(self):
        return self._service.cache_info()

    def query_stats(self):
        return self._service.query_stats()

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
