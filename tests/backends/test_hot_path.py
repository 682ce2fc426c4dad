"""A call budget for the warm serve.

A warm point lookup spends a few microseconds in SQLite; the rest of its
serve is the service's own Python.  The counter of
``tests/backends/call_counter.py`` counts the Python-level calls into
frames under ``src/repro`` for one warm ``GraphitiService.run`` of a
``point-hot`` text, and for one ``AsyncGraphitiService.run`` served inline
on the event loop, both under the default no-op tracer, whose spans they
must not open.  Unlike a timing, the count repeats exactly from one serve
to the next, so work that creeps back onto the hot path shows here as a
count over the ceiling, with the per-function table naming where it went.

The ceilings are the counts measured on CPython 3.11.7: 34 sync and 42
inline async calls.  CPython 3.10.13 counts the same, and 3.12.1, which
inlines comprehensions, one call fewer (33 and 41).
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.backends import AsyncGraphitiService, GraphitiService
from repro.backends import service as service_module
from repro.benchmarks.universes import SOCIAL
from tests.backends.call_counter import CallCounter, assert_repeats_within

#: The ``point-hot`` template of ``servebench/workloads.py``.
POINT = "MATCH (n:USER) WHERE n.uid = 7 RETURN n.uname, n.age"

#: Calls into ``repro`` per warm serve: the counts measured on CPython
#: 3.11 (78 sync and 87 inline async before the hot path was trimmed, 59
#: and 66 while every checkout pinged and every serve checked feedback, 54
#: and 61 while a serve took the service lock three times and counted each
#: execution and checkout twice, 48 and 55 while it entered and left five
#: no-op spans).
SYNC_CEILING = 34
ASYNC_CEILING = 42

#: The module an untraced serve must not call into: its span sites read
#: ``tracer.enabled`` and open no span.
TRACING = os.path.join("observability", "tracing.py") + ":"


def assert_within(counts: list[CallCounter], ceiling: int) -> None:
    assert not [where for where in counts[0].calls if where.startswith(TRACING)], (
        "an untraced serve called into the tracer:\n" + counts[0].table()
    )
    assert_repeats_within(counts, ceiling)


@pytest.fixture
def service():
    with GraphitiService(SOCIAL.graph_schema) as svc:
        svc.load_mock(50, seed=101)
        for _ in range(service_module.FEEDBACK_MIN_OBSERVATIONS):
            svc.run(POINT)
        yield svc


def test_warm_sync_serve(service):
    counts = []
    for _ in range(2):
        with CallCounter() as counter:
            table = service.run(POINT)
        counts.append(counter)
        assert len(table.rows) == 1
    assert_within(counts, SYNC_CEILING)


def test_warm_inline_async_serve(service):
    async_svc = AsyncGraphitiService(service, max_concurrency=2)
    async_svc._hop.seconds = 1.0  # stands in for the measured hop

    async def counted() -> list[CallCounter]:
        await async_svc.run(POINT)  # the loop's own first-run set-up
        counts = []
        for _ in range(2):
            with CallCounter() as counter:
                table = await async_svc.run(POINT)
            counts.append(counter)
            assert len(table.rows) == 1
        return counts

    try:
        counts = asyncio.run(counted())
    finally:
        async_svc.close()
    placements = service.metrics.counter("repro_async_placement_total")
    assert placements.value(backend=service.default_backend, placement="inline") == 3
    assert_within(counts, ASYNC_CEILING)
