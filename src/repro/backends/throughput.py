"""Concurrent-serving benchmark: QPS serial vs. threads vs. asyncio.

The second tracked perf baseline (``BENCH_throughput.json``, alongside
``BENCH_optimizer.json``'s latency/plan-quality one).  For every available
execution backend it measures the queries-per-second of a fixed mixed batch
of Cypher texts over a warmed :class:`~repro.backends.pool.ConnectionPool`
in two lanes sharing the same dataset and serial baseline:

* **threads** — :meth:`GraphitiService.run_many` at 1 (the serial
  baseline), 2, 4, and 8 worker threads;
* **async** — :meth:`AsyncGraphitiService.run_many` at concurrency 2, 4,
  and 8 (semaphore-bounded coroutines, executor-offloaded driver calls).

Each lane reports per-query p50/p95 tail latency from the service's
:class:`~repro.backends.service.QueryStat` samples (statistics are reset
between lanes so the percentiles describe one lane each).

Correctness gates the numbers twice per lane:

* on a small instance every *concurrently produced* result (threaded and
  async) is checked bag-equivalent against the reference evaluator, and
* at bench scale every concurrent batch is checked element-wise against the
  serial batch (any cross-query corruption or lost result fails the run).

The report also quantifies two satellite wins:

* **bulk load** — single-transaction loading vs. the old
  commit-per-batch behaviour, and
* **persistent transpilation cache** — this run's on-disk cache hits
  (a second, cold-process invocation of the bench reports hits for every
  query the first invocation prepared).

Thread-level speedup needs hardware: on a single-CPU container the workers
time-slice one core and QPS stays flat, so ``meta.cpu_count`` is recorded
and the pytest wrapper only asserts the ≥2× speedup target when at least
two CPUs are actually available (CI runners are multi-core).
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.benchmarks.universes import SOCIAL
from repro.relational.instance import tables_equivalent

from repro.backends.async_service import AsyncGraphitiService
from repro.backends.cache import PersistentQueryCache
from repro.backends.registry import available_backends, create_backend
from repro.backends.service import GraphitiService

#: Join-heavy, small-output queries: the engine does the work (C code that
#: releases the GIL), the marshalling stays cheap — the shape where pooled
#: worker threads actually scale.
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

WORKER_COUNTS = (1, 2, 4, 8)

#: Measurement lanes: threaded ``run_many`` and the asyncio service.
MODES = ("threads", "async")


def build_batch(size: int, workload: dict[str, str] | None = None) -> list[str]:
    """A mixed batch of *size* texts, round-robin over the workload."""
    texts = list((workload or WORKLOAD).values())
    return [texts[i % len(texts)] for i in range(size)]


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def speedup_note(cpu_count: int | None = None) -> str:
    """The single-CPU qualifier every concurrency bench records in its meta.

    Parallel speedups (worker threads, async gather, partition scans) need
    hardware: on a single-CPU host the lanes time-slice one core and
    speedups hover near 1.0, so the reports qualify their numbers with
    this shared note instead of each bench wording its own.
    """
    count = available_cpus() if cpu_count is None else cpu_count
    if count < 2:
        return (
            "parallel QPS speedup requires >1 CPU; on a single-CPU host "
            "concurrent lanes time-slice one core and speedups hover near 1.0"
        )
    return ""


# ---------------------------------------------------------------------------
# correctness: concurrent results vs the reference evaluator
# ---------------------------------------------------------------------------


def validate_concurrent(
    backends: tuple[str, ...],
    workers: int = 4,
    check_rows: int = 25,
    seed: int = 42,
    modes: tuple[str, ...] = MODES,
) -> dict[str, dict[str, bool]]:
    """Bag-equivalence of every concurrently produced result against the
    reference evaluator, per backend and per lane (small instance — the
    reference evaluator nested-loops joins).

    The async lane drives the *same* service through
    :class:`AsyncGraphitiService`, so a verdict of ``True`` in both lanes
    means threaded and asyncio serving agree with the reference (and hence
    with each other) on every query of the batch.
    """
    verdicts: dict[str, dict[str, bool]] = {name: {} for name in backends}
    with GraphitiService(SOCIAL.graph_schema) as service:
        service.load_mock(check_rows, seed=seed)
        expected = {text: service.reference(text) for text in WORKLOAD.values()}
        batch = build_batch(3 * len(WORKLOAD))

        def equivalent(results) -> bool:
            return all(
                tables_equivalent(expected[text], result)
                for text, result in zip(batch, results)
            )

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


# ---------------------------------------------------------------------------
# throughput: QPS per worker count / async concurrency per backend
# ---------------------------------------------------------------------------


def _latency_snapshot(service: GraphitiService) -> dict[str, dict | None]:
    """Per-workload p50/p95 from the service's current QueryStat samples."""
    return {
        label: next(
            (
                {
                    "p50_ms": round(stat.p50_seconds * 1000, 3),
                    "p95_ms": round(stat.p95_seconds * 1000, 3),
                    "executions": stat.executions,
                }
                for stat in service.query_stats()
                if stat.cypher_text == text
            ),
            None,
        )
        for label, text in WORKLOAD.items()
    }


def _lane_step(qps: float, wall: float, serial_qps: float) -> dict:
    return {
        "qps": round(qps, 1),
        "wall_ms": round(wall * 1000, 2),
        "speedup_vs_serial": round(qps / serial_qps, 3) if serial_qps else 0.0,
    }


def measure_throughput(
    rows_per_table: int = 2000,
    batch_size: int = 40,
    repeats: int = 3,
    worker_counts: tuple[int, ...] = WORKER_COUNTS,
    backends: tuple[str, ...] | None = None,
    seed: int = 42,
    persistent_cache: PersistentQueryCache | None = None,
    modes: tuple[str, ...] = MODES,
) -> list[dict]:
    """Per-backend QPS in every requested lane, sharing one dataset and one
    serial baseline, with per-lane tail latency and an element-wise
    consistency check of every concurrent batch against the serial one.

    The serial baseline (``run_many(workers=1)``) is always measured; the
    *threads* lane adds the multi-worker counts, the *async* lane drives
    the same pooled connections through :class:`AsyncGraphitiService` at
    matching concurrency levels.  Query statistics are reset between lanes
    so each latency snapshot (``serial``, ``threads``, ``async``) describes
    only its own lane's executions.  A lane that is not measured reports
    ``None`` for its consistency verdict — never a vacuous pass.
    """
    names = backends or available_backends()
    batch = build_batch(batch_size)
    max_workers = max(worker_counts)
    fan_out_counts = tuple(count for count in worker_counts if count > 1)
    results: list[dict] = []
    with GraphitiService(
        SOCIAL.graph_schema, persistent_cache=persistent_cache
    ) as service:
        service.load_mock(rows_per_table, seed=seed)
        async_service = AsyncGraphitiService(service, max_concurrency=max_workers)
        try:
            for name in names:
                # Pay member creation (bulk loads for clone-loading engines)
                # before the clock starts.
                service.warm_pool(name, max_workers)

                # Serial baseline — shared denominator for both lanes.
                service.reset_query_stats()
                serial_tables: list | None = None
                best_wall = float("inf")
                for _ in range(repeats):
                    start = time.perf_counter()
                    tables = service.run_many(batch, workers=1, backend=name)
                    best_wall = min(best_wall, time.perf_counter() - start)
                    if serial_tables is None:
                        serial_tables = tables
                serial_qps = len(batch) / best_wall
                serial_reference = dict(zip(batch, serial_tables))
                per_worker = {"1": _lane_step(serial_qps, best_wall, serial_qps)}
                latency: dict[str, dict] = {"serial": _latency_snapshot(service)}
                # None = lane not measured this run (recorded as null, never
                # as a vacuous pass).
                consistent: dict[str, bool | None] = {
                    "threads": True if "threads" in modes else None,
                    "async": True if "async" in modes else None,
                }

                def batch_consistent(tables) -> bool:
                    return all(
                        tables_equivalent(serial_reference[text], table)
                        for text, table in zip(batch, tables)
                    )

                if "threads" in modes:
                    service.reset_query_stats()
                    for workers in fan_out_counts:
                        best_wall = float("inf")
                        for repeat in range(repeats):
                            start = time.perf_counter()
                            tables = service.run_many(
                                batch, workers=workers, backend=name
                            )
                            best_wall = min(best_wall, time.perf_counter() - start)
                            if repeat == 0:
                                consistent["threads"] = consistent[
                                    "threads"
                                ] and batch_consistent(tables)
                        per_worker[str(workers)] = _lane_step(
                            len(batch) / best_wall, best_wall, serial_qps
                        )
                    latency["threads"] = _latency_snapshot(service)

                per_async: dict[str, dict] = {}
                if "async" in modes:

                    async def timed_async_batch(concurrency: int):
                        # Clock inside the running loop: event-loop setup/
                        # teardown and lazy executor spin-up must not be
                        # charged to the lane being measured.
                        start = time.perf_counter()
                        tables = await async_service.run_many(
                            batch, concurrency=concurrency, backend=name
                        )
                        return tables, time.perf_counter() - start

                    # Untimed warmup: spin up the offload executor.
                    asyncio.run(timed_async_batch(fan_out_counts[0] if fan_out_counts else 1))
                    service.reset_query_stats()
                    for concurrency in fan_out_counts:
                        best_wall = float("inf")
                        for repeat in range(repeats):
                            tables, wall = asyncio.run(
                                timed_async_batch(concurrency)
                            )
                            best_wall = min(best_wall, wall)
                            if repeat == 0:
                                consistent["async"] = consistent[
                                    "async"
                                ] and batch_consistent(tables)
                        per_async[str(concurrency)] = _lane_step(
                            len(batch) / best_wall, best_wall, serial_qps
                        )
                    latency["async"] = _latency_snapshot(service)

                results.append(
                    {
                        "backend": name,
                        "pool_size": service.pool(name).size,
                        "serial_qps": round(serial_qps, 1),
                        "workers": per_worker,
                        "async": per_async,
                        "latency": latency,
                        "consistent_with_serial": consistent["threads"],
                        "async_consistent_with_serial": consistent["async"],
                    }
                )
        finally:
            async_service.close()
    return results


# ---------------------------------------------------------------------------
# satellite: tracing overhead (always-on instrumentation must stay cheap)
# ---------------------------------------------------------------------------

#: QPS regression allowed with a real tracer attached (percent).
TRACING_BUDGET_PCT = 5.0


def measure_tracing_overhead(
    rows_per_table: int = 1000,
    batch_size: int = 40,
    repeats: int = 20,
    backend: str = "sqlite-memory",
    seed: int = 42,
) -> dict:
    """Traced-vs-untraced serving QPS (the always-on tracing budget).

    Two lanes over one warmed service — the default no-op tracer and a
    real :class:`~repro.observability.tracing.Tracer` — sampled as
    *repeats* interleaved rounds of one batch per lane, the lane order
    alternating every round, each lane's QPS taken from its best batch
    time over an **equal sample count**.  Equal counts matter: comparing
    a minimum over more samples against one over fewer is systematically
    biased by host noise (the bigger pool's floor is lower), which on a
    busy container fabricates several percent of phantom "overhead".
    The even- and odd-round no-op samples form two half-lanes whose
    best-time spread (``noop_spread_pct``) bounds the residual noise —
    what "~zero no-op cost" means on this host.  Negative overhead is
    noise, not a speedup.
    """
    from repro.observability.tracing import Tracer

    batch = build_batch(batch_size)
    with GraphitiService(SOCIAL.graph_schema) as service:
        service.load_mock(rows_per_table, seed=seed)
        service.warm_pool(backend, 1)
        # Warmup fills the transpilation caches: the lanes measure serving,
        # not first-call compilation.
        service.run_many(batch, workers=1, backend=backend)

        def one_batch() -> float:
            start = time.perf_counter()
            service.run_many(batch, workers=1, backend=backend)
            return time.perf_counter() - start

        def traced_batch() -> float:
            service.set_tracer(Tracer(max_traces=8))
            try:
                return one_batch()
            finally:
                service.set_tracer(None)

        noop_times: list[float] = []
        traced_times: list[float] = []
        for round_index in range(repeats):
            if round_index % 2 == 0:
                noop_times.append(one_batch())
                traced_times.append(traced_batch())
            else:
                traced_times.append(traced_batch())
                noop_times.append(one_batch())
    noop_first = len(batch) / min(noop_times[0::2])
    noop_second = len(batch) / min(noop_times[1::2])
    traced = len(batch) / min(traced_times)
    baseline = len(batch) / min(noop_times)
    spread = (
        abs(noop_first - noop_second) / max(noop_first, noop_second) * 100.0
        if noop_first and noop_second
        else 0.0
    )
    overhead = (baseline - traced) / baseline * 100.0 if baseline else 0.0
    return {
        "backend": backend,
        "rows_per_table": rows_per_table,
        "batch_size": batch_size,
        "repeats": repeats,
        "noop_qps_first": round(noop_first, 1),
        "noop_qps_second": round(noop_second, 1),
        "noop_spread_pct": round(spread, 2),
        "traced_qps": round(traced, 1),
        "traced_overhead_pct": round(overhead, 2),
        "budget_pct": TRACING_BUDGET_PCT,
        "within_budget": overhead <= TRACING_BUDGET_PCT,
    }


# ---------------------------------------------------------------------------
# satellite: resource-guard overhead (budgets + checkout validation)
# ---------------------------------------------------------------------------

#: QPS regression allowed with budgets and checkout validation on (percent).
GUARD_BUDGET_PCT = 5.0


def measure_guard_overhead(
    rows_per_table: int = 1000,
    batch_size: int = 40,
    repeats: int = 20,
    backend: str = "sqlite-memory",
    seed: int = 42,
) -> dict:
    """Guarded-vs-unguarded serving QPS (the resource-guard budget).

    Same equal-sample interleaved discipline as
    :func:`measure_tracing_overhead`.  The guarded lane runs every query
    under a *generous* :class:`~repro.common.budget.QueryBudget` —
    engaging the budgeted fetch loop, the engine deadline guard, and the
    budget bookkeeping without ever tripping — with checkout liveness
    validation on; the unguarded lane turns validation off and passes no
    budget (the pre-budget fast path).  The half-lane spread of the
    unguarded samples bounds host noise, as before.
    """
    from repro.common.budget import QueryBudget

    generous = QueryBudget(max_rows=1_000_000_000, timeout_seconds=3600.0)
    batch = build_batch(batch_size)
    with GraphitiService(SOCIAL.graph_schema) as service:
        service.load_mock(rows_per_table, seed=seed)
        service.warm_pool(backend, 1)
        pool = service.pool(backend)
        service.run_many(batch, workers=1, backend=backend)  # warm the caches

        def unguarded_batch() -> float:
            pool.validate_on_checkout = False
            try:
                start = time.perf_counter()
                service.run_many(batch, workers=1, backend=backend)
                return time.perf_counter() - start
            finally:
                pool.validate_on_checkout = True

        def guarded_batch() -> float:
            start = time.perf_counter()
            service.run_many(batch, workers=1, backend=backend, budget=generous)
            return time.perf_counter() - start

        plain_times: list[float] = []
        guarded_times: list[float] = []
        for round_index in range(repeats):
            if round_index % 2 == 0:
                plain_times.append(unguarded_batch())
                guarded_times.append(guarded_batch())
            else:
                guarded_times.append(guarded_batch())
                plain_times.append(unguarded_batch())
    plain_first = len(batch) / min(plain_times[0::2])
    plain_second = len(batch) / min(plain_times[1::2])
    guarded = len(batch) / min(guarded_times)
    baseline = len(batch) / min(plain_times)
    spread = (
        abs(plain_first - plain_second) / max(plain_first, plain_second) * 100.0
        if plain_first and plain_second
        else 0.0
    )
    overhead = (baseline - guarded) / baseline * 100.0 if baseline else 0.0
    return {
        "backend": backend,
        "rows_per_table": rows_per_table,
        "batch_size": batch_size,
        "repeats": repeats,
        "unguarded_qps_first": round(plain_first, 1),
        "unguarded_qps_second": round(plain_second, 1),
        "unguarded_spread_pct": round(spread, 2),
        "guarded_qps": round(guarded, 1),
        "guarded_overhead_pct": round(overhead, 2),
        "budget_pct": GUARD_BUDGET_PCT,
        "within_budget": overhead <= GUARD_BUDGET_PCT,
    }


# ---------------------------------------------------------------------------
# satellite: single-transaction bulk load vs commit-per-batch
# ---------------------------------------------------------------------------


def measure_bulk_load(
    rows_per_table: int = 5000, batch_size: int = 200, seed: int = 42
) -> dict:
    """Load-time win of the single-transaction bulk load on ``sqlite-file``
    (the engine where commits mean fsync, so the win is real I/O)."""
    from repro.core.sdt import infer_sdt
    from repro.execution.datagen import MockDataGenerator

    sdt = infer_sdt(SOCIAL.graph_schema)
    database = MockDataGenerator(
        SOCIAL.graph_schema, sdt, seed=seed
    ).induced_instance(rows_per_table)

    def load_once(commit_mode: str) -> float:
        backend = create_backend("sqlite-file", database.schema)
        backend.connect()
        try:
            start = time.perf_counter()
            for name, table in database.tables.items():
                backend.insert_rows(
                    name, table.rows, batch_size=batch_size, commit_mode=commit_mode
                )
            return time.perf_counter() - start
        finally:
            backend.close()

    per_batch = load_once("batch")
    single = load_once("end")
    return {
        "rows_per_table": rows_per_table,
        "batch_size": batch_size,
        "commit_per_batch_ms": round(per_batch * 1000, 2),
        "single_transaction_ms": round(single * 1000, 2),
        "speedup": round(per_batch / single, 2) if single else 0.0,
    }


# ---------------------------------------------------------------------------
# satellite: persistent transpilation cache across processes
# ---------------------------------------------------------------------------


def persistent_cache_demo(cache_path: Path, rows_per_table: int = 50) -> dict:
    """Prepare the workload in one service, then again in a *fresh* service
    over the same store — the second, cold-cache service must hit disk for
    every query (the in-process stand-in for a cold process; running the
    bench script twice demonstrates the real thing)."""

    def prepare_all(service: GraphitiService) -> None:
        service.load_mock(rows_per_table, seed=42)
        for text in WORKLOAD.values():
            service.prepare(text)

    with PersistentQueryCache(cache_path) as store:
        with GraphitiService(SOCIAL.graph_schema, persistent_cache=store) as first:
            prepare_all(first)
            warm = first.persistent_cache_info()
        store.hits = store.misses = 0
        with GraphitiService(SOCIAL.graph_schema, persistent_cache=store) as cold:
            prepare_all(cold)
            cold_info = cold.persistent_cache_info()
        return {
            "path": str(cache_path),
            "first_service": {"hits": warm.hits, "misses": warm.misses},
            "cold_service": {"hits": cold_info.hits, "misses": cold_info.misses},
            "cold_hit_every_query": cold_info.misses == 0 and cold_info.hits > 0,
        }


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def summarize(results: list[dict], valid: dict[str, dict[str, bool]]) -> dict:
    def speedup_at(entry: dict, lane: str, count: int) -> float:
        data = entry.get(lane, {}).get(str(count))
        return data["speedup_vs_serial"] if data else 0.0

    best = max(
        (
            (speedup_at(entry, "workers", 4), entry["backend"])
            for entry in results
            if "4" in entry["workers"]
        ),
        default=(0.0, None),
    )
    best_async = max(
        (
            (speedup_at(entry, "async", 4), entry["backend"])
            for entry in results
            if entry.get("async")
        ),
        default=(0.0, None),
    )
    return {
        "backends": [entry["backend"] for entry in results],
        "best_speedup_at_4_workers": best[0],
        "best_speedup_backend": best[1],
        "best_async_speedup_at_4": best_async[0],
        "best_async_backend": best_async[1],
        "target_2x_at_4_workers_met": best[0] >= 2.0,
        "all_concurrent_results_valid": all(
            verdict for lanes in valid.values() for verdict in lanes.values()
        ),
        # None when the async lane was not measured — a skipped lane must
        # not read as a validated one.
        "async_results_valid": (
            all(lanes["async"] for lanes in valid.values())
            if all("async" in lanes for lanes in valid.values()) and valid
            else None
        ),
        "all_batches_consistent_with_serial": all(
            verdict
            for entry in results
            for verdict in (
                entry["consistent_with_serial"],
                entry["async_consistent_with_serial"],
            )
            if verdict is not None
        ),
    }


def run_bench(
    rows_per_table: int = 2000,
    batch_size: int = 40,
    repeats: int = 3,
    worker_counts: tuple[int, ...] = WORKER_COUNTS,
    backends: tuple[str, ...] | None = None,
    out_path: Path | None = None,
    cache_path: Path | None = None,
    seed: int = 42,
    modes: tuple[str, ...] = MODES,
) -> dict:
    """The full benchmark; writes *out_path* and returns the report dict."""
    started = time.time()
    names = backends or available_backends()
    unknown = set(modes) - set(MODES)
    if unknown or not modes:
        raise ValueError(f"modes must be a non-empty subset of {MODES}, got {modes!r}")
    if cache_path is None:
        from repro.backends.cache import CACHE_FILE_NAME, default_cache_dir

        cache_path = default_cache_dir() / CACHE_FILE_NAME
    run_cache = PersistentQueryCache(cache_path)
    try:
        valid = validate_concurrent(names, seed=seed, modes=modes)
        results = measure_throughput(
            rows_per_table=rows_per_table,
            batch_size=batch_size,
            repeats=repeats,
            worker_counts=worker_counts,
            backends=names,
            seed=seed,
            persistent_cache=run_cache,
            modes=modes,
        )
        run_cache_stats = {
            "path": str(cache_path),
            "hits": run_cache.hits,
            "misses": run_cache.misses,
            "entries": len(run_cache),
            "cold_second_run_hits": run_cache.hits >= run_cache.misses
            and run_cache.hits > 0,
        }
    finally:
        run_cache.close()
    report = {
        "meta": {
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "rows_per_table": rows_per_table,
            "batch_size": batch_size,
            "repeats": repeats,
            "worker_counts": list(worker_counts),
            "modes": list(modes),
            "backends": list(names),
            "universe": SOCIAL.name,
            "cpu_count": available_cpus(),
            "note": speedup_note(),
            "elapsed_seconds": round(time.time() - started, 1),
        },
        "bulk_load": measure_bulk_load(),
        "tracing_overhead": measure_tracing_overhead(
            rows_per_table=min(rows_per_table, 1000),
            batch_size=batch_size,
            seed=seed,
        ),
        "guard_overhead": measure_guard_overhead(
            rows_per_table=min(rows_per_table, 1000),
            batch_size=batch_size,
            seed=seed,
        ),
        "persistent_cache": {
            "this_run": run_cache_stats,
            "cross_service_demo": persistent_cache_demo(cache_path),
        },
        "summary": summarize(results, valid),
        "validation": valid,
        "results": results,
    }
    if out_path is not None:
        out_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def format_report(report: dict) -> list[str]:
    meta = report["meta"]
    lines = [
        f"== throughput benchmark ({meta['rows_per_table']} rows/table, "
        f"batch {meta['batch_size']}, {meta['cpu_count']} cpu) =="
    ]
    for entry in report["results"]:
        lanes = report["validation"][entry["backend"]]
        check = "ok" if all(lanes.values()) else "MISMATCH"
        steps = "  ".join(
            f"w{workers}={data['qps']:.0f}qps(x{data['speedup_vs_serial']:.2f})"
            for workers, data in entry["workers"].items()
        )
        lines.append(
            f"{entry['backend']:15} serial={entry['serial_qps']:7.1f} qps  "
            f"{steps}  [{check}]"
        )
        if entry.get("async"):
            async_steps = "  ".join(
                f"c{count}={data['qps']:.0f}qps(x{data['speedup_vs_serial']:.2f})"
                for count, data in entry["async"].items()
            )
            lines.append(f"{'':15}  async  {async_steps}")
    load = report["bulk_load"]
    lines.append(
        f"bulk load: single txn {load['single_transaction_ms']:.0f} ms vs "
        f"per-batch commits {load['commit_per_batch_ms']:.0f} ms "
        f"(x{load['speedup']:.1f})"
    )
    tracing = report.get("tracing_overhead")
    if tracing:
        lines.append(
            f"tracing overhead ({tracing['backend']}): "
            f"{tracing['traced_overhead_pct']:+.2f}% traced "
            f"(noise ±{tracing['noop_spread_pct']:.2f}%, "
            f"budget {tracing['budget_pct']:.0f}%: "
            f"{'ok' if tracing['within_budget'] else 'OVER'})"
        )
    guards = report.get("guard_overhead")
    if guards:
        lines.append(
            f"guard overhead ({guards['backend']}): "
            f"{guards['guarded_overhead_pct']:+.2f}% guarded "
            f"(noise ±{guards['unguarded_spread_pct']:.2f}%, "
            f"budget {guards['budget_pct']:.0f}%: "
            f"{'ok' if guards['within_budget'] else 'OVER'})"
        )
    cache = report["persistent_cache"]
    lines.append(
        f"persistent cache: this run hits={cache['this_run']['hits']} "
        f"misses={cache['this_run']['misses']}; cold service "
        f"hits={cache['cross_service_demo']['cold_service']['hits']} "
        f"misses={cache['cross_service_demo']['cold_service']['misses']}"
    )
    summary = report["summary"]
    if summary.get("best_speedup_backend"):
        lines.append(
            f"best speedup at 4 workers: x{summary['best_speedup_at_4_workers']} "
            f"({summary['best_speedup_backend']}); 2x target met: "
            f"{summary['target_2x_at_4_workers_met']}"
        )
    if summary.get("best_async_backend"):
        lines.append(
            f"best async speedup at concurrency 4: "
            f"x{summary['best_async_speedup_at_4']} ({summary['best_async_backend']})"
        )
    if meta["note"]:
        lines.append(f"note: {meta['note']}")
    return lines
