"""What the serving benchmarks share.

``bench_throughput.py``, ``bench_adaptive.py`` and ``bench_parallel.py``
each hold their own harness, as ``bench_optimizer.py`` and
``bench_traversal.py`` do; this module holds the parts they have in
common:

* :func:`available_cpus` and :func:`speedup_note`, the CPU qualifier
  every concurrency bench records in its ``meta``;
* the social :data:`WORKLOAD` and :func:`build_batch`;
* :func:`measure_overhead`, the one estimator behind every overhead lane
  (tracing, guards, feedback observation, the partition gate), and
  :func:`load_and_warm` / :func:`time_serial_batch`, the set-up and the
  timed sample of the three lanes that serve a batch;
* :func:`check_against_reference`, the one check of served results
  against the reference evaluator, sync and async.

The scripts import it as ``common``: running ``python benchmarks/X.py``
puts this directory first on ``sys.path``, and pytest prepends it when it
collects a script from here.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.backends import AsyncGraphitiService, GraphitiService
from repro.common.budget import QueryBudget
from repro.relational.instance import tables_equivalent

#: Join-heavy, small-output queries over the social universe: the engine
#: does the work (C code that releases the GIL), the marshalling stays
#: cheap — the shape where pooled worker threads actually scale.
WORKLOAD: dict[str, str] = {
    "one-hop-agg": (
        "MATCH (a:USER)-[w:WROTE]->(p:POST) RETURN a.uname, Count(*)"
    ),
    "two-hop-agg": (
        "MATCH (a:USER)-[f:FOLLOWS]->(b:USER)-[w:WROTE]->(p:POST) "
        "RETURN b.uname, Count(*)"
    ),
    "two-hop-filter": (
        "MATCH (a:USER)-[f:FOLLOWS]->(b:USER)-[w:WROTE]->(p:POST) "
        "WHERE p.score = 10 RETURN a.uname, p.title"
    ),
    "diamond-count": (
        "MATCH (a:USER)-[f:FOLLOWS]->(b:USER)-[w:WROTE]->(p:POST) "
        "MATCH (c:USER)-[l:LIKES]->(p:POST) RETURN Count(*)"
    ),
    "three-hop-count": (
        "MATCH (a:USER)-[f:FOLLOWS]->(b:USER)-[g:FOLLOWS]->(c:USER)"
        "-[w:WROTE]->(p:POST) RETURN Count(*)"
    ),
}

#: Serving lanes: threaded ``run_many`` and the asyncio service.
MODES = ("threads", "async")


def build_batch(size: int) -> list[str]:
    """A mixed batch of *size* texts, round-robin over :data:`WORKLOAD`."""
    texts = list(WORKLOAD.values())
    return [texts[i % len(texts)] for i in range(size)]


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def speedup_note() -> str:
    """The single-CPU qualifier every concurrency bench records in its meta.

    Parallel speedups (worker threads, async gather, partition scans) need
    hardware: on a single-CPU host the lanes time-slice one core and
    speedups hover near 1.0, so the reports qualify their numbers with
    this shared note instead of each bench wording its own.
    """
    if available_cpus() < 2:
        return (
            "parallel QPS speedup requires >1 CPU; on a single-CPU host "
            "concurrent lanes time-slice one core and speedups hover near 1.0"
        )
    return ""


def load_and_warm(
    service: GraphitiService,
    rows_per_table: int,
    seed: int,
    batch: list[str],
    backend: str,
) -> None:
    """Load mock data, spawn a pool member and serve *batch* once, so the
    timed lanes measure serving, not first-call compilation."""
    service.load_mock(rows_per_table, seed=seed)
    service.warm_pool(backend, 1)
    service.run_many(batch, workers=1, backend=backend)


def time_serial_batch(
    service: GraphitiService,
    batch: list[str],
    backend: str,
    budget: QueryBudget | None = None,
) -> float:
    """Wall seconds to serve *batch* on one worker."""
    start = time.perf_counter()
    service.run_many(batch, workers=1, backend=backend, budget=budget)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# overhead: one lane against another, interleaved
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Overhead:
    """Best wall seconds per lane, as measured by :func:`measure_overhead`."""

    baseline: float
    #: Best of the baseline samples from the even rounds, and from the odd.
    baseline_even: float
    baseline_odd: float
    candidate: float
    budget_pct: float

    @property
    def spread_pct(self) -> float:
        """How far the baseline's two half-lanes disagree: the host's noise
        floor, below which an overhead reading means nothing."""
        return (
            abs(self.baseline_even - self.baseline_odd)
            / max(self.baseline_even, self.baseline_odd)
            * 100.0
        )

    @property
    def overhead_pct(self) -> float:
        """The candidate's extra time over the baseline's.  Negative is
        noise, not a speedup."""
        return (self.candidate - self.baseline) / self.baseline * 100.0

    @property
    def within_budget(self) -> bool:
        return self.overhead_pct <= self.budget_pct


def measure_overhead(
    baseline: Callable[[], float],
    candidate: Callable[[], float],
    rounds: int,
    budget_pct: float,
) -> Overhead:
    """Interleaved, equal-sample overhead of *candidate* over *baseline*.

    Each lane is a callable that serves one sample of work and returns
    its wall seconds.  Every round samples both lanes, the order
    alternating each round, so drift on the host lands on both alike.
    Each lane's figure is its best time over an **equal sample count**:
    a minimum over more samples against one over fewer is biased by host
    noise (the bigger pool's floor is lower), which on a busy host
    fabricates several percent of phantom overhead.  The baseline's
    even- and odd-round samples form two half-lanes whose disagreement
    (:attr:`Overhead.spread_pct`) bounds the residual noise.
    """
    if rounds < 2:
        raise ValueError(f"need at least 2 rounds for two half-lanes, got {rounds}")
    baseline_times: list[float] = []
    candidate_times: list[float] = []
    lanes = ((baseline, baseline_times), (candidate, candidate_times))
    for round_index in range(rounds):
        for lane, times in lanes if round_index % 2 == 0 else lanes[::-1]:
            times.append(lane())
    return Overhead(
        baseline=min(baseline_times),
        baseline_even=min(baseline_times[0::2]),
        baseline_odd=min(baseline_times[1::2]),
        candidate=min(candidate_times),
        budget_pct=budget_pct,
    )


# ---------------------------------------------------------------------------
# correctness: served results vs the reference evaluator
# ---------------------------------------------------------------------------


def check_against_reference(
    service: GraphitiService,
    batch: Sequence[str],
    workers: int,
    backends: Sequence[str],
    modes: Sequence[str] = MODES,
) -> dict[str, dict[str, bool]]:
    """Serve *batch* on each backend through ``run_many(workers=N)``
    (``"threads"``) and ``AsyncGraphitiService.run_many(concurrency=N)``
    (``"async"``), and check every result bag-equivalent to
    ``service.reference``; ``{backend: {mode: verdict}}``.

    The async lane drives the *same* service, so ``True`` in both lanes
    means threaded and asyncio serving agree with the reference — and so
    with each other — on every query of the batch.  Keep the loaded
    instance small: the reference evaluator nested-loops its joins.
    """
    expected = {text: service.reference(text) for text in dict.fromkeys(batch)}

    def equivalent(results) -> bool:
        return all(
            tables_equivalent(expected[text], result)
            for text, result in zip(batch, results)
        )

    verdicts: dict[str, dict[str, bool]] = {name: {} for name in backends}
    if "threads" in modes:
        for name in backends:
            results = service.run_many(batch, workers=workers, backend=name)
            verdicts[name]["threads"] = equivalent(results)
    if "async" in modes:

        async def check_async() -> None:
            async with AsyncGraphitiService(
                service, max_concurrency=workers
            ) as async_service:
                for name in backends:
                    results = await async_service.run_many(
                        batch, concurrency=workers, backend=name
                    )
                    verdicts[name]["async"] = equivalent(results)

        asyncio.run(check_async())
    return verdicts
