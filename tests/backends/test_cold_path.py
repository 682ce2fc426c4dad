"""A call budget for the cold prepare.

A text the service has not seen is parsed, transpiled, optimized and
rendered before it runs; on ``cold-stream`` (``servebench/workloads.py``),
where every text carries a new literal, that pipeline is most of the
serve.  The counter of ``tests/backends/call_counter.py`` counts the
Python-level calls into ``src/repro`` for one level-2
``GraphitiService.prepare`` that misses the plan cache, for each of the
three ``cold-stream`` templates with a fixed literal, over
``load_mock(200, seed=101)``.  The count repeats exactly from one miss to
the next, so work that creeps back into the pipeline shows here as a count
over the ceiling, with the per-function table naming where it went.

The ceilings are the counts measured on CPython 3.11.7.  Before the
planner estimated each subtree once, unrolled traversals inside its own
walk and the grammar stopped re-testing tokens through the stream's
helpers, the same misses made 484 / 1,146 / 1,651 calls on CPython 3.10.13
and 3.11.7, and 474 / 1,105 / 1,592 on 3.12.1 (which inlines
comprehensions).  Now they make 327 / 636 / 867 on 3.10.13 and 3.11.7, and
318 / 609 / 834 on 3.12.1.
"""

from __future__ import annotations

import pytest

from repro.backends import GraphitiService
from repro.benchmarks.universes import SOCIAL
from tests.backends.call_counter import CallCounter, assert_repeats_within

#: The ``cold-stream`` templates of ``servebench/workloads.py`` with a fixed
#: literal, each with the ceiling on the calls its prepare miss makes.
COLD_PREPARES = {
    "MATCH (n:POST) WHERE n.pid = 7 RETURN n.title, n.score": 327,
    "MATCH (a:USER)-[w:WROTE]->(p:POST) WHERE p.pid = 7 "
    "RETURN a.uname, p.score": 636,
    "MATCH (a:USER)-[f:FOLLOWS]->(b:USER)-[w:WROTE]->(p:POST) "
    "WHERE a.uid = 7 RETURN b.uname, Count(*)": 867,
}


@pytest.fixture(scope="module")
def service():
    with GraphitiService(SOCIAL.graph_schema) as svc:
        svc.load_mock(200, seed=101)
        yield svc


@pytest.mark.parametrize("text", sorted(COLD_PREPARES))
def test_cold_prepare(service, text):
    # A first miss fills what every later one reuses: imports, and the
    # bounded cache of the names a renaming gives a scan's attributes.
    service.prepare(text)
    counts = []
    for _ in range(2):
        service.clear_cache()
        misses = service.cache_info().misses
        with CallCounter() as counter:
            prepared = service.prepare(text)
        counts.append(counter)
        assert service.cache_info().misses == misses + 1
        assert prepared.opt_level == 2
    assert_repeats_within(counts, COLD_PREPARES[text])
