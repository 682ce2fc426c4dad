"""Throughput benchmark: concurrent query serving over pooled connections.

Persists the tracked baseline ``BENCH_throughput.json`` at the repo root.
For every available execution backend it measures the queries-per-second
of a fixed mixed batch of Cypher texts over a warmed
:class:`~repro.backends.pool.ConnectionPool` in two lanes sharing the
same dataset and serial baseline:

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

The report also records:

* **bulk load** — single-transaction loading vs. commit-per-batch;
* **tracing overhead** — always-on instrumentation must cost ~nothing
  with the no-op tracer and stay within the 5% budget with a real one;
* **guard overhead** — budgets and checkout validation, same budget;
* **persistent transpilation cache** — this run's on-disk cache hits
  (run the script twice: the second, cold process reports hits for every
  query the first one prepared).

Thread-level speedup needs hardware: on a single-CPU host the workers
time-slice one core and QPS stays flat, so ``meta.cpu_count`` is recorded
and the pytest wrapper only asserts the ≥2× speedup target when at least
two CPUs are actually available.

Run directly::

    python benchmarks/bench_throughput.py [--rows N] [--batch B] [--quick]
    python benchmarks/bench_throughput.py --mode async

or under pytest (asserts the acceptance criteria)::

    pytest benchmarks/bench_throughput.py --benchmark-only -s
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable

from repro.backends import (
    AsyncGraphitiService,
    GraphitiService,
    PersistentQueryCache,
    QueryBudget,
    available_backends,
    create_backend,
)
from repro.benchmarks.universes import SOCIAL
from repro.relational.instance import tables_equivalent

from common import (
    MODES,
    WORKLOAD,
    available_cpus,
    build_batch,
    check_against_reference,
    load_and_warm,
    measure_overhead,
    speedup_note,
    time_serial_batch,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_throughput.json"

WORKER_COUNTS = (1, 2, 4, 8)

#: Extra serving time allowed with a real tracer attached (percent).
TRACING_BUDGET_PCT = 5.0

#: Extra serving time allowed with budgets and checkout validation on
#: (percent).
GUARD_BUDGET_PCT = 5.0


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
    reference evaluator, per backend and per lane, on a small instance."""
    with GraphitiService(SOCIAL.graph_schema) as service:
        service.load_mock(check_rows, seed=seed)
        return check_against_reference(
            service, build_batch(3 * len(WORKLOAD)), workers, backends, modes
        )


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


def _best_of(
    repeats: int, run: Callable[[], tuple[list, float]]
) -> tuple[float, list]:
    """Best wall seconds over *repeats* calls of *run* (which returns
    ``(tables, seconds)``), and the first call's tables."""
    samples = [run() for _ in range(repeats)]
    return min(wall for _, wall in samples), samples[0][0]


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

                def timed_threads(workers: int):
                    start = time.perf_counter()
                    tables = service.run_many(batch, workers=workers, backend=name)
                    return tables, time.perf_counter() - start

                async def timed_async(concurrency: int):
                    # Clock inside the running loop: event-loop setup/
                    # teardown and lazy executor spin-up must not be
                    # charged to the lane being measured.
                    start = time.perf_counter()
                    tables = await async_service.run_many(
                        batch, concurrency=concurrency, backend=name
                    )
                    return tables, time.perf_counter() - start

                # Serial baseline — shared denominator for both lanes.
                service.reset_query_stats()
                best_wall, serial_tables = _best_of(repeats, lambda: timed_threads(1))
                serial_qps = len(batch) / best_wall
                serial_reference = dict(zip(batch, serial_tables))
                steps: dict[str, dict] = {
                    "threads": {"1": _lane_step(serial_qps, best_wall, serial_qps)},
                    "async": {},
                }
                latency: dict[str, dict] = {"serial": _latency_snapshot(service)}
                # None = lane not measured this run (recorded as null, never
                # as a vacuous pass).
                consistent: dict[str, bool | None] = {"threads": None, "async": None}

                def fan_out_lane(mode: str, run) -> None:
                    service.reset_query_stats()
                    consistent[mode] = True
                    for count in fan_out_counts:
                        wall, tables = _best_of(repeats, lambda: run(count))
                        consistent[mode] = consistent[mode] and all(
                            tables_equivalent(serial_reference[text], table)
                            for text, table in zip(batch, tables)
                        )
                        steps[mode][str(count)] = _lane_step(
                            len(batch) / wall, wall, serial_qps
                        )
                    latency[mode] = _latency_snapshot(service)

                if "threads" in modes:
                    fan_out_lane("threads", timed_threads)
                if "async" in modes:
                    # Untimed warmup: spin up the offload executor.
                    asyncio.run(timed_async(fan_out_counts[0] if fan_out_counts else 1))
                    fan_out_lane("async", lambda count: asyncio.run(timed_async(count)))

                results.append(
                    {
                        "backend": name,
                        "pool_size": service.pool(name).size,
                        "serial_qps": round(serial_qps, 1),
                        "workers": steps["threads"],
                        "async": steps["async"],
                        "latency": latency,
                        "consistent_with_serial": consistent["threads"],
                        "async_consistent_with_serial": consistent["async"],
                    }
                )
        finally:
            async_service.close()
    return results


# ---------------------------------------------------------------------------
# overhead lanes: tracing, and resource guards (budgets + checkout validation)
# ---------------------------------------------------------------------------


def measure_tracing_overhead(
    rows_per_table: int = 1000,
    batch_size: int = 40,
    repeats: int = 20,
    backend: str = "sqlite-memory",
    seed: int = 42,
) -> dict:
    """Traced-vs-untraced serving QPS (the always-on tracing budget).

    Two lanes over one warmed service — the default no-op tracer, and a
    real :class:`~repro.observability.tracing.Tracer` attached for the
    candidate's batches — sampled as *repeats* rounds by
    :func:`common.measure_overhead`.
    """
    from repro.observability.tracing import Tracer

    batch = build_batch(batch_size)
    with GraphitiService(SOCIAL.graph_schema) as service:
        load_and_warm(service, rows_per_table, seed, batch, backend)

        def traced_batch() -> float:
            service.set_tracer(Tracer(max_traces=8))
            try:
                return time_serial_batch(service, batch, backend)
            finally:
                service.set_tracer(None)

        lane = measure_overhead(
            partial(time_serial_batch, service, batch, backend),
            traced_batch,
            repeats,
            TRACING_BUDGET_PCT,
        )
    return {
        "backend": backend,
        "rows_per_table": rows_per_table,
        "batch_size": batch_size,
        "repeats": repeats,
        "noop_qps_first": round(len(batch) / lane.baseline_even, 1),
        "noop_qps_second": round(len(batch) / lane.baseline_odd, 1),
        "noop_spread_pct": round(lane.spread_pct, 2),
        "traced_qps": round(len(batch) / lane.candidate, 1),
        "traced_overhead_pct": round(lane.overhead_pct, 2),
        "budget_pct": lane.budget_pct,
        "within_budget": lane.within_budget,
    }


def measure_guard_overhead(
    rows_per_table: int = 1000,
    batch_size: int = 40,
    repeats: int = 20,
    backend: str = "sqlite-memory",
    seed: int = 42,
) -> dict:
    """Guarded-vs-unguarded serving QPS (the resource-guard budget).

    The guarded lane runs every query under a *generous*
    :class:`~repro.common.budget.QueryBudget` — engaging the budgeted
    fetch loop, the engine deadline guard, and the budget bookkeeping
    without ever tripping — with checkout liveness validation on; the
    unguarded lane turns validation off and passes no budget (the
    pre-budget fast path).  Sampled by :func:`common.measure_overhead`.
    """
    generous = QueryBudget(max_rows=1_000_000_000, timeout_seconds=3600.0)
    batch = build_batch(batch_size)
    with GraphitiService(SOCIAL.graph_schema) as service:
        load_and_warm(service, rows_per_table, seed, batch, backend)
        pool = service.pool(backend)

        def unguarded_batch() -> float:
            pool.validate_on_checkout = False
            try:
                return time_serial_batch(service, batch, backend)
            finally:
                pool.validate_on_checkout = True

        lane = measure_overhead(
            unguarded_batch,
            partial(time_serial_batch, service, batch, backend, budget=generous),
            repeats,
            GUARD_BUDGET_PCT,
        )
    return {
        "backend": backend,
        "rows_per_table": rows_per_table,
        "batch_size": batch_size,
        "repeats": repeats,
        "unguarded_qps_first": round(len(batch) / lane.baseline_even, 1),
        "unguarded_qps_second": round(len(batch) / lane.baseline_odd, 1),
        "unguarded_spread_pct": round(lane.spread_pct, 2),
        "guarded_qps": round(len(batch) / lane.candidate, 1),
        "guarded_overhead_pct": round(lane.overhead_pct, 2),
        "budget_pct": lane.budget_pct,
        "within_budget": lane.within_budget,
    }


# ---------------------------------------------------------------------------
# single-transaction bulk load vs commit-per-batch
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
# persistent transpilation cache across processes
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
    for name, candidate, baseline in (
        ("tracing", "traced", "noop"),
        ("guard", "guarded", "unguarded"),
    ):
        lane = report[f"{name}_overhead"]
        lines.append(
            f"{name} overhead ({lane['backend']}): "
            f"{lane[f'{candidate}_overhead_pct']:+.2f}% {candidate} "
            f"(noise ±{lane[f'{baseline}_spread_pct']:.2f}%, "
            f"budget {lane['budget_pct']:.0f}%: "
            f"{'ok' if lane['within_budget'] else 'OVER'})"
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


def test_bench_throughput(benchmark, report_rows, tmp_path):
    report = benchmark.pedantic(
        run_bench,
        kwargs={
            "rows_per_table": 1000,
            "batch_size": 24,
            "repeats": 2,
            # Keep the committed baseline and the user's cache intact;
            # pytest runs are smoke.
            "out_path": tmp_path / "BENCH_throughput.json",
            "cache_path": tmp_path / "transpilations.sqlite",
        },
        iterations=1,
        rounds=1,
    )
    report_rows.extend(format_report(report))
    summary = report["summary"]
    assert summary["all_concurrent_results_valid"]
    assert summary["async_results_valid"]
    assert summary["all_batches_consistent_with_serial"]
    assert report["bulk_load"]["speedup"] > 1.0
    assert report["persistent_cache"]["cross_service_demo"]["cold_hit_every_query"]
    # The tracing-overhead lane must be measured and structurally complete.
    # The budget verdict is recorded, not asserted — one noisy CI core must
    # not flake the suite; trend-watching happens on the committed baseline.
    tracing = report["tracing_overhead"]
    assert tracing["traced_qps"] > 0 and tracing["noop_qps_first"] > 0
    assert {"traced_overhead_pct", "noop_spread_pct", "budget_pct",
            "within_budget"} <= tracing.keys()
    # The async lane must be present with QPS + tail latency per backend.
    for entry in report["results"]:
        assert entry["async"], f"async lane missing for {entry['backend']}"
        assert entry["latency"]["async"]
    if available_cpus() >= 2:
        # The acceptance bar: pooled workers at least double QPS somewhere.
        assert summary["best_speedup_at_4_workers"] >= 2.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=2000, help="mock rows per table")
    parser.add_argument("--batch", type=int, default=40, help="queries per batch")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats")
    parser.add_argument(
        "--backend",
        action="append",
        dest="backends",
        help="backend to include (repeatable; default: every available one)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller batch/repeats (CI smoke)"
    )
    parser.add_argument(
        "--mode",
        choices=("threads", "async", "both"),
        default="both",
        help="measurement lanes (default both)",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="persistent-cache directory (default: the user cache dir)",
    )
    arguments = parser.parse_args(argv)
    from repro.backends import BackendUnavailable

    try:
        report = _run(arguments)
    except BackendUnavailable as error:
        print(error, file=sys.stderr)
        return 1
    print("\n".join(format_report(report)))
    print(f"wrote {arguments.out}")
    # Exit status reflects correctness only — QPS scaling depends on the
    # host's core count and must not flake CI smoke runs.
    summary = report["summary"]
    failed = not (
        summary["all_concurrent_results_valid"]
        and summary["all_batches_consistent_with_serial"]
    )
    return 1 if failed else 0


def _run(arguments) -> dict:
    return run_bench(
        rows_per_table=min(arguments.rows, 800) if arguments.quick else arguments.rows,
        batch_size=24 if arguments.quick else arguments.batch,
        repeats=2 if arguments.quick else arguments.repeats,
        backends=tuple(arguments.backends) if arguments.backends else None,
        out_path=arguments.out,
        modes=MODES if arguments.mode == "both" else (arguments.mode,),
        cache_path=(
            arguments.cache_dir / "transpilations.sqlite"
            if arguments.cache_dir
            else None
        ),
    )


if __name__ == "__main__":
    sys.exit(main())
