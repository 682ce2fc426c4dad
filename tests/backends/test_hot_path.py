"""A call budget for the warm serve.

A warm point lookup spends a few microseconds in SQLite; the rest of its
serve is the service's own Python.  ``sys.setprofile`` counts the
Python-level calls into frames under ``src/repro`` for one warm
``GraphitiService.run`` of a ``point-hot`` text, and for one
``AsyncGraphitiService.run`` served inline on the event loop, both under
the default no-op tracer, whose spans they must not open.  Unlike a
timing, the count repeats exactly from one serve to the next, so work that
creeps back onto the hot path shows here as a count over the ceiling, with
the per-function table naming where it went.

The ceilings are the counts measured on CPython 3.11.  Earlier ceilings
counted the same on 3.10 and one call fewer on 3.12, which inlines
comprehensions; the present ones have not been measured on either.
"""

from __future__ import annotations

import asyncio
import gc
import os
import sys
from collections import Counter

import pytest

import repro
from repro.backends import AsyncGraphitiService, GraphitiService
from repro.backends import service as service_module
from repro.benchmarks.universes import SOCIAL

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

PACKAGE = os.path.dirname(repro.__file__) + os.sep


class CallCounter:
    """Counts ``call`` profile events whose frame runs code under
    ``repro`` — function entries, plus each resumption of a generator or
    coroutine — by ``file:function``."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()

    def __call__(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE):
                where = os.path.relpath(code.co_filename, PACKAGE)
                self.calls[f"{where}:{code.co_name}"] += 1

    def __enter__(self) -> "CallCounter":
        gc.disable()  # no collection may run a finalizer mid-count
        sys.setprofile(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        sys.setprofile(None)
        gc.enable()

    @property
    def total(self) -> int:
        return sum(self.calls.values())

    def table(self) -> str:
        return "\n".join(
            f"{count:4d}  {where}" for where, count in self.calls.most_common()
        )


def assert_within(counts: list[CallCounter], ceiling: int) -> None:
    first, again = counts
    assert first.calls == again.calls, (
        "the count did not repeat:\n" + first.table() + "\n--\n" + again.table()
    )
    assert not [where for where in first.calls if where.startswith(TRACING)], (
        "an untraced serve called into the tracer:\n" + first.table()
    )
    assert first.total <= ceiling, (
        f"{first.total} calls into repro, over the ceiling of {ceiling}:\n"
        + first.table()
    )


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
