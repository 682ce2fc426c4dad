"""Intra-query parallelism benchmark: partition-parallel scans vs serial.

Persists the tracked baseline ``BENCH_parallel.json`` at the repo root.
Where ``BENCH_throughput.json`` measures *inter*-query scaling of a batch
across worker threads, this one measures *intra*-query scaling: the same
single query served serially and partition-scattered at degree 2/4/8
over the same loaded data, on the same connection pool.

The workload is fragment-shaped — one scan-heavy headline query
(``large-scan``: a selective filter whose cost is the full table scan,
not result marshalling) plus COUNT/AVG/grouped aggregates and DISTINCT —
because those are exactly the plans the gate admits.  Joins and
traversals classify non-fragmentable and would measure the serial path
twice.

Correctness gates the numbers twice, as every tracked bench does:

* on a small instance every workload query is checked bag-equivalent
  against the reference evaluator at every degree (threshold forced to 0
  so the gate opens on tiny data), in both the sync and asyncio serving
  lanes, and
* at bench scale every parallel result is checked bag-equivalent against
  the serial service's result for the same query (a partition boundary
  error — lost rows, double-counted rows, a broken Avg recomposition —
  fails the run, it does not ship a fast wrong number).

The ``gate_overhead`` lane keeps the feature honest when it *cannot*
help: a ``parallelism=4`` service whose queries all fall below the row
threshold (the gate keeps everything serial) against a ``parallelism=1``
service — the cost of carrying the feature turned on but idle, budgeted
at :data:`OVERHEAD_BUDGET_PCT` percent.

Scan speedup needs hardware: ``meta.cpu_count`` is recorded and
``meta.note`` carries the single-CPU qualifier, so the pytest wrapper
only asserts the speedup bar on multi-core hosts.

Run directly::

    python benchmarks/bench_parallel.py [--rows N] [--quick]
    python benchmarks/bench_parallel.py --parallel 2 --parallel 4

or under pytest (asserts the correctness and overhead gates; the ≥1.5×
speedup-at-4 bar is only asserted when at least four CPUs are
available)::

    pytest benchmarks/bench_parallel.py --benchmark-only -s
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from repro.backends import GraphitiService
from repro.benchmarks.universes import SOCIAL
from repro.relational.instance import tables_equivalent

from common import (
    available_cpus,
    check_against_reference,
    measure_overhead,
    speedup_note,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_parallel.json"

#: Fragment-shaped queries only — the plans the partition gate admits.
#: ``large-scan`` is the headline lane: a selective filter whose result is
#: small, so its latency is dominated by the table scan the partitions
#: split (not by marshalling rows back into Python).
PARALLEL_WORKLOAD: dict[str, str] = {
    "large-scan": "MATCH (u:USER) WHERE u.age = 30 RETURN u.uname, u.age",
    "node-count": "MATCH (p:POST) RETURN Count(*)",
    "avg-score": "MATCH (p:POST) RETURN Avg(p.score)",
    "grouped-count": "MATCH (u:USER) RETURN u.age, Count(*)",
    "distinct-age": "MATCH (u:USER) RETURN DISTINCT u.age",
}

#: The headline lane the summary's ``speedup_at_4`` tracks.
HEADLINE = "large-scan"

DEGREES = (2, 4, 8)

DEFAULT_BACKEND = "sqlite-memory"

#: Budget for the parallel-enabled-but-gated-serial overhead lane, in
#: percent — same bar the tracing and guard overhead lanes use.
OVERHEAD_BUDGET_PCT = 5.0


# ---------------------------------------------------------------------------
# correctness: every query vs the reference evaluator, per degree
# ---------------------------------------------------------------------------


def validate_parallel(
    degrees: tuple[int, ...] = DEGREES,
    backend: str = DEFAULT_BACKEND,
    check_rows: int = 30,
    seed: int = 42,
) -> dict[str, dict[str, bool]]:
    """Bag-equivalence of every workload query against the reference
    evaluator at every degree, in both serving lanes, plus whether the
    service actually scattered.

    The threshold is forced to 0 so the gate opens on the small check
    instance, and the batch is served *degree* wide, so ``True`` in both
    lanes means the threaded and the asyncio scatter agree with the
    reference on every query — including the Avg Sum/Count recomposition
    and the DISTINCT re-application.
    """
    verdicts: dict[str, dict[str, bool]] = {}
    for degree in degrees:
        with GraphitiService(
            SOCIAL.graph_schema,
            default_backend=backend,
            parallelism=degree,
            parallel_row_threshold=0,
        ) as service:
            service.load_mock(check_rows, seed=seed)
            lanes = check_against_reference(
                service, list(PARALLEL_WORKLOAD.values()), degree, (backend,)
            )[backend]
            lanes["scattered"] = (
                service.metrics.counter("repro_parallel_queries_total").total()
                > 0
            )
            verdicts[str(degree)] = lanes
    return verdicts


# ---------------------------------------------------------------------------
# latency: serial vs N-way per query
# ---------------------------------------------------------------------------


def _timed_query(service, text: str, repeats: int) -> float:
    """Best wall seconds for one served query over *repeats* runs (the
    first, untimed, run warms the prepare and fragment caches)."""
    service.run(text)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        service.run(text)
        best = min(best, time.perf_counter() - start)
    return best


def measure_parallel(
    rows_per_table: int = 20000,
    repeats: int = 5,
    degrees: tuple[int, ...] = DEGREES,
    backend: str = DEFAULT_BACKEND,
    seed: int = 42,
) -> dict:
    """Serial baseline plus one entry per degree, every parallel result
    checked bag-equivalent against the serial one at bench scale."""
    with GraphitiService(
        SOCIAL.graph_schema, default_backend=backend
    ) as serial:
        serial.load_mock(rows_per_table, seed=seed)
        serial_wall = {
            label: _timed_query(serial, text, repeats)
            for label, text in PARALLEL_WORKLOAD.items()
        }
        reference_tables = {
            label: serial.run(text)
            for label, text in PARALLEL_WORKLOAD.items()
        }
    baseline = {
        "backend": backend,
        "latency_ms": {
            label: round(wall * 1000, 3) for label, wall in serial_wall.items()
        },
    }

    entries: list[dict] = []
    for degree in degrees:
        with GraphitiService(
            SOCIAL.graph_schema,
            default_backend=backend,
            parallelism=degree,
        ) as service:
            service.load_mock(rows_per_table, seed=seed)
            service.warm_pool(backend, degree)
            walls: dict[str, float] = {}
            consistent = True
            engaged: dict[str, bool] = {}
            for label, text in PARALLEL_WORKLOAD.items():
                walls[label] = _timed_query(service, text, repeats)
                table, prepared = service.serve(text)
                verdict = prepared.plan.parallelism or {}
                engaged[label] = bool(verdict.get("parallel"))
                consistent = consistent and tables_equivalent(
                    reference_tables[label], table
                )
            entries.append(
                {
                    "degree": degree,
                    "backend": backend,
                    "latency_ms": {
                        label: round(wall * 1000, 3)
                        for label, wall in walls.items()
                    },
                    "speedup_vs_serial": {
                        label: round(serial_wall[label] / walls[label], 3)
                        if walls[label]
                        else 0.0
                        for label in PARALLEL_WORKLOAD
                    },
                    "parallel_engaged": engaged,
                    "consistent_with_serial": consistent,
                    "parallel_queries": int(
                        service.metrics.counter(
                            "repro_parallel_queries_total"
                        ).total()
                    ),
                }
            )
    return {"serial": baseline, "parallel": entries}


# ---------------------------------------------------------------------------
# overhead: the gate on, but every query below the threshold
# ---------------------------------------------------------------------------


def measure_gate_overhead(
    rows_per_table: int = 1000,
    iterations: int = 40,
    repeats: int = 5,
    backend: str = DEFAULT_BACKEND,
    seed: int = 42,
) -> dict:
    """Cost of carrying ``parallelism=4`` enabled but gated serial.

    *rows_per_table* sits below the default row threshold, so every
    workload query classifies, gates, and then runs the ordinary serial
    path — the measured delta is pure gate overhead (one cached
    classification per prepared query plus a per-serve dictionary probe).
    A plain and a gated service are sampled by
    :func:`common.measure_overhead`: *repeats* rounds, each timing
    *iterations* passes over the workload per service.
    """

    def workload_loop(service: GraphitiService) -> Callable[[], float]:
        for text in PARALLEL_WORKLOAD.values():  # warm caches untimed
            service.run(text)

        def loop() -> float:
            start = time.perf_counter()
            for _ in range(iterations):
                for text in PARALLEL_WORKLOAD.values():
                    service.run(text)
            return time.perf_counter() - start

        return loop

    with GraphitiService(
        SOCIAL.graph_schema, default_backend=backend
    ) as plain, GraphitiService(
        SOCIAL.graph_schema, default_backend=backend, parallelism=4
    ) as gated:
        for service in (plain, gated):
            service.load_mock(rows_per_table, seed=seed)
        lane = measure_overhead(
            workload_loop(plain), workload_loop(gated), repeats, OVERHEAD_BUDGET_PCT
        )
        stayed_serial = (
            gated.metrics.counter("repro_parallel_queries_total").total() == 0
        )
    return {
        "rows_per_table": rows_per_table,
        "iterations": iterations,
        "queries_per_iteration": len(PARALLEL_WORKLOAD),
        "serial_wall_ms": round(lane.baseline * 1000, 2),
        "gated_wall_ms": round(lane.candidate * 1000, 2),
        "overhead_pct": round(lane.overhead_pct, 2),
        "budget_pct": lane.budget_pct,
        "stayed_serial": stayed_serial,
    }


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def summarize(
    results: dict, valid: dict[str, dict[str, bool]], overhead: dict
) -> dict:
    speedups = {
        str(entry["degree"]): entry["speedup_vs_serial"][HEADLINE]
        for entry in results["parallel"]
    }
    best = max(
        (
            (entry["speedup_vs_serial"][HEADLINE], entry["degree"])
            for entry in results["parallel"]
        ),
        default=(0.0, None),
    )
    return {
        "degrees": [entry["degree"] for entry in results["parallel"]],
        "headline_lane": HEADLINE,
        "serial_headline_ms": results["serial"]["latency_ms"][HEADLINE],
        "headline_speedup_by_degree": speedups,
        "speedup_at_4": speedups.get("4"),
        "best_speedup": best[0],
        "best_degree": best[1],
        "all_results_valid": all(
            verdict
            for lanes in valid.values()
            for verdict in lanes.values()
        ),
        "all_parallel_consistent_with_serial": all(
            entry["consistent_with_serial"] for entry in results["parallel"]
        ),
        "all_lanes_engaged": all(
            all(entry["parallel_engaged"].values())
            for entry in results["parallel"]
        ),
        "gate_overhead_pct": overhead["overhead_pct"],
        "overhead_within_budget": overhead["overhead_pct"]
        <= overhead["budget_pct"],
        # The noise-tolerant bar automated gates assert (same 3x slack the
        # guard-overhead CI lane uses): single-digit-ms walls jitter on
        # loaded runners; the strict verdict above tracks the real number.
        "overhead_within_3x_budget": overhead["overhead_pct"]
        <= 3 * overhead["budget_pct"],
    }


def run_bench(
    rows_per_table: int = 20000,
    repeats: int = 5,
    degrees: tuple[int, ...] = DEGREES,
    backend: str = DEFAULT_BACKEND,
    out_path: Path | None = None,
    seed: int = 42,
) -> dict:
    """The full parallelism benchmark; writes *out_path*, returns the report."""
    started = time.time()
    valid = validate_parallel(degrees, backend=backend, seed=seed)
    results = measure_parallel(
        rows_per_table=rows_per_table,
        repeats=repeats,
        degrees=degrees,
        backend=backend,
        seed=seed,
    )
    overhead = measure_gate_overhead(backend=backend, seed=seed)
    report = {
        "meta": {
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "rows_per_table": rows_per_table,
            "repeats": repeats,
            "degrees": list(degrees),
            "backend": backend,
            "universe": SOCIAL.name,
            "workload": list(PARALLEL_WORKLOAD),
            "cpu_count": available_cpus(),
            "note": speedup_note(),
            "elapsed_seconds": round(time.time() - started, 1),
        },
        "summary": summarize(results, valid, overhead),
        "validation": valid,
        "serial": results["serial"],
        "parallel": results["parallel"],
        "gate_overhead": overhead,
    }
    if out_path is not None:
        out_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def format_report(report: dict) -> list[str]:
    meta = report["meta"]
    lines = [
        f"== parallel scan benchmark ({meta['rows_per_table']} rows/table, "
        f"backend {meta['backend']}, {meta['cpu_count']} cpu) =="
    ]
    serial_ms = report["serial"]["latency_ms"]
    lines.append(
        "serial            "
        + "  ".join(f"{label} {ms:7.2f} ms" for label, ms in serial_ms.items())
    )
    for entry in report["parallel"]:
        lanes = report["validation"][str(entry["degree"])]
        check = (
            "ok"
            if all(lanes.values()) and entry["consistent_with_serial"]
            else "MISMATCH"
        )
        lines.append(
            f"{entry['degree']}-way             "
            + "  ".join(
                f"{label} x{speedup:.2f}"
                for label, speedup in entry["speedup_vs_serial"].items()
            )
            + f"  [{check}]"
        )
    summary = report["summary"]
    lines.append(
        f"headline ({summary['headline_lane']}): best x{summary['best_speedup']} "
        f"at degree {summary['best_degree']}; gate overhead "
        f"{summary['gate_overhead_pct']}% (budget "
        f"{report['gate_overhead']['budget_pct']}%)"
    )
    if meta["note"]:
        lines.append(f"note: {meta['note']}")
    return lines


def test_bench_parallel(benchmark, report_rows, tmp_path):
    report = benchmark.pedantic(
        run_bench,
        kwargs={
            "rows_per_table": 6000,
            "repeats": 3,
            "degrees": (2, 4),
            # Keep the committed baseline intact; pytest runs are smoke.
            "out_path": tmp_path / "BENCH_parallel.json",
        },
        iterations=1,
        rounds=1,
    )
    report_rows.extend(format_report(report))
    summary = report["summary"]
    assert summary["all_results_valid"]
    assert summary["all_parallel_consistent_with_serial"]
    # Every scan/aggregate lane must actually have scattered — a bench
    # whose gate never opens measures the serial path twice.
    assert summary["all_lanes_engaged"]
    # Same 3x slack the guard-overhead CI lane allows for timing noise;
    # the strict 5% verdict is recorded in the report either way.
    assert summary["overhead_within_3x_budget"]
    if available_cpus() >= 4:
        # The acceptance bar, meaningful only with real cores under the
        # partitions: 4-way beats serial by at least 1.5x on the
        # scan-heavy headline lane.
        assert summary["speedup_at_4"] >= 1.5


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=20000, help="mock rows per table")
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats")
    parser.add_argument(
        "--parallel",
        action="append",
        type=int,
        dest="degrees",
        help="partition degree to measure (repeatable; default: 2, 4, 8)",
    )
    parser.add_argument(
        "--backend", default="sqlite-memory", help="execution backend"
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller instance/repeats (CI smoke)"
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
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
    # Exit status reflects correctness and the overhead budget only —
    # speedup depends on the host's core count and must not flake CI
    # smoke runs on small machines.
    summary = report["summary"]
    failed = not (
        summary["all_results_valid"]
        and summary["all_parallel_consistent_with_serial"]
        and summary["overhead_within_3x_budget"]
    )
    return 1 if failed else 0


def _run(arguments) -> dict:
    degrees = tuple(arguments.degrees) if arguments.degrees else DEGREES
    if arguments.quick:
        degrees = tuple(degree for degree in degrees if degree <= 4) or (2,)
    return run_bench(
        rows_per_table=min(arguments.rows, 6000)
        if arguments.quick
        else arguments.rows,
        repeats=3 if arguments.quick else arguments.repeats,
        degrees=degrees,
        backend=arguments.backend,
        out_path=arguments.out,
    )


if __name__ == "__main__":
    sys.exit(main())
