"""Adaptive-execution benchmark: feedback re-planning vs a static plan.

Persists the tracked baseline ``BENCH_adaptive.json`` at the repo root.
The scenario the estimator cannot win statically: the service plans with
statistics the data has outgrown (collected on a small uniform
instance), while the live ``FOLLOWS`` graph is hub-skewed
(:func:`repro.execution.datagen.build_skewed_database`) — a dense core of
high-fan-out hubs that blows up the unrolled join chains' intermediates
while the traversal's *output* (distinct endpoint pairs) stays small.
The stale stats pick the unrolled plan; even freshly collected stats keep
picking it, because mean NDVs cannot see the hot hubs.  Only the
estimate-vs-actual feedback loop
(:meth:`~repro.backends.service.GraphitiService.observe_execution`)
escapes: divergence → stats refresh (epoch 1) → still diverging with an
unchanged digest → traversal forced recursive (epoch 2) → converged on
the incremental-frontier plan.

Lanes:

* **static** — feedback disabled, stale stats: the mis-chosen unrolled
  plan forever.
* **adaptive** — feedback on: the same start, then the re-plan sequence
  above; per-execution latencies show the convergence step.
* **overhead** — a well-estimated uniform workload served with feedback
  on vs off: the observation path must stay inside the <5%
  serving-overhead budget.

Every executed result — every lane, every epoch — is bag-equivalence
checked against the reference evaluator's table (computed once; the
pure-Python evaluator nested-loops joins, so it is the scale limiter).

Run directly::

    python benchmarks/bench_adaptive.py [--users N] [--executions E] [--quick]

or under pytest (asserts the correctness gates, that a re-plan actually
triggered, and that the converged plan beats the static lane)::

    pytest benchmarks/bench_adaptive.py --benchmark-only -s
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from repro.backends import GraphitiService
from repro.benchmarks.universes import SOCIAL
from repro.core.sdt import infer_sdt
from repro.execution.datagen import MockDataGenerator, build_skewed_database
from repro.relational.instance import tables_equivalent
from repro.sql.stats import collect_stats

from common import (
    available_cpus,
    build_batch,
    load_and_warm,
    measure_overhead,
    time_serial_batch,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_adaptive.json"

#: The mis-estimated workload: a bounded traversal whose unrolled chains
#: explode on the hub core while the distinct-pair output stays small.
ADAPTIVE_QUERY = "MATCH (a:USER)-[:FOLLOWS*1..3]->(b:USER) RETURN a.uid, b.uid"

#: The serving stack's established overhead budget (guards, tracing, and
#: feedback observation all answer to the same lane).
FEEDBACK_BUDGET_PCT = 5.0

#: ``--quick`` (and pytest) scale: caps on the skewed graph and its lanes,
#: and a smaller overhead lane.
QUICK_GRAPH = {"users": 60, "hubs": 8, "hub_edges": 200, "stale_rows": 40, "executions": 10}
QUICK_OVERHEAD = {"overhead_rows": 200, "overhead_batch": 20, "overhead_repeats": 8}


def _lane_executions(
    service: GraphitiService,
    expected,
    executions: int,
    backend: str,
) -> list[dict]:
    """Serve :data:`ADAPTIVE_QUERY` *executions* times, recording latency,
    plan choice, feedback epoch, and the bag-equivalence verdict."""
    steps = []
    for _ in range(executions):
        start = time.perf_counter()
        result, prepared = service.serve(ADAPTIVE_QUERY, backend=backend)
        elapsed = time.perf_counter() - start
        plan = prepared.plan
        steps.append(
            {
                "ms": round(elapsed * 1000.0, 3),
                "rows": len(result.rows),
                "choice": plan.traversal_choice if plan is not None else None,
                "estimated_rows": (
                    round(plan.estimated_rows, 1)
                    if plan is not None and plan.estimated_rows is not None
                    else None
                ),
                "epoch": prepared.feedback_epoch,
                "valid": tables_equivalent(expected, result),
            }
        )
    return steps


def measure_feedback_overhead(
    rows_per_table: int = 400,
    batch_size: int = 30,
    repeats: int = 12,
    backend: str = "sqlite-memory",
    seed: int = 42,
) -> dict:
    """Feedback-on vs feedback-off serving QPS on a *well-estimated*
    workload (fresh uniform stats, so no re-plan ever triggers — the lane
    prices the always-on observation path: per-execution bookkeeping and
    the q-error histogram).  Sampled by :func:`common.measure_overhead`.
    """
    batch = build_batch(batch_size)
    with GraphitiService(SOCIAL.graph_schema) as on_service, GraphitiService(
        SOCIAL.graph_schema, feedback_ratio=None
    ) as off_service:
        for service in (on_service, off_service):
            load_and_warm(service, rows_per_table, seed, batch, backend)
        lane = measure_overhead(
            partial(time_serial_batch, off_service, batch, backend),
            partial(time_serial_batch, on_service, batch, backend),
            repeats,
            FEEDBACK_BUDGET_PCT,
        )
        replans = on_service.feedback_state(batch[0])
    return {
        "backend": backend,
        "rows_per_table": rows_per_table,
        "batch_size": batch_size,
        "repeats": repeats,
        "feedback_off_qps_first": round(len(batch) / lane.baseline_even, 1),
        "feedback_off_qps_second": round(len(batch) / lane.baseline_odd, 1),
        "feedback_off_spread_pct": round(lane.spread_pct, 2),
        "feedback_on_qps": round(len(batch) / lane.candidate, 1),
        "feedback_overhead_pct": round(lane.overhead_pct, 2),
        "budget_pct": lane.budget_pct,
        "within_budget": lane.within_budget,
        # A well-estimated workload must never re-plan.
        "spurious_replans": replans is not None,
    }


def run_bench(
    users: int = 100,
    hubs: int = 12,
    hub_edges: int = 480,
    stale_rows: int = 60,
    executions: int = 12,
    backend: str = "sqlite-memory",
    overhead_rows: int = 400,
    overhead_batch: int = 30,
    overhead_repeats: int = 12,
    out_path: Path | str | None = None,
    seed: int = 42,
) -> dict:
    """The full adaptive-execution benchmark (see the module docstring)."""
    started = time.perf_counter()
    sdt = infer_sdt(SOCIAL.graph_schema)
    small = MockDataGenerator(
        SOCIAL.graph_schema, sdt, seed=seed
    ).induced_instance(stale_rows)
    stale_stats = collect_stats(small)
    skewed = build_skewed_database(users, hubs, hub_edges)

    # Reference truth, computed once: the pure-Python evaluator is the
    # scale limiter, every engine result below compares against this table.
    with GraphitiService(SOCIAL.graph_schema, feedback_ratio=None) as ref_service:
        ref_service.load_database(skewed, stats=stale_stats)
        expected = ref_service.reference(ADAPTIVE_QUERY)

    # Static lane: stale stats, feedback off — mis-planned forever.
    with GraphitiService(SOCIAL.graph_schema, feedback_ratio=None) as static_service:
        static_service.load_database(skewed, stats=stale_stats)
        static_steps = _lane_executions(
            static_service, expected, executions, backend
        )

    # Adaptive lane: same stale start, feedback on.
    with GraphitiService(SOCIAL.graph_schema) as adaptive_service:
        adaptive_service.load_database(skewed, stats=stale_stats)
        adaptive_steps = _lane_executions(
            adaptive_service, expected, executions, backend
        )
        feedback = adaptive_service.feedback_state(ADAPTIVE_QUERY)
        replan_counts = (
            adaptive_service.metrics.snapshot()
            .get("repro_plan_replans_total", {})
            .get("series", [])
        )

    overhead = measure_feedback_overhead(
        rows_per_table=overhead_rows,
        batch_size=overhead_batch,
        repeats=overhead_repeats,
        backend=backend,
        seed=seed,
    )

    final_epoch = adaptive_steps[-1]["epoch"]
    converged = [s for s in adaptive_steps if s["epoch"] == final_epoch]
    pre_replan = [s for s in adaptive_steps if s["epoch"] == 0]
    static_median = statistics.median(s["ms"] for s in static_steps)
    converged_median = statistics.median(s["ms"] for s in converged)
    pre_median = (
        statistics.median(s["ms"] for s in pre_replan) if pre_replan else None
    )
    all_valid = all(
        s["valid"] for s in static_steps + adaptive_steps
    )
    report = {
        "meta": {
            "generated_at": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "universe": SOCIAL.name,
            "backend": backend,
            "cpu_count": available_cpus(),
            "users": users,
            "hubs": hubs,
            "hub_edges": hub_edges,
            "stale_rows": stale_rows,
            "executions": executions,
            "elapsed_seconds": round(time.perf_counter() - started, 1),
        },
        "static": {
            "steps": static_steps,
            "median_ms": round(static_median, 3),
            "choice": static_steps[-1]["choice"],
        },
        "adaptive": {
            "steps": adaptive_steps,
            "pre_replan_median_ms": (
                round(pre_median, 3) if pre_median is not None else None
            ),
            "converged_median_ms": round(converged_median, 3),
            "converged_choice": converged[-1]["choice"],
            "final_epoch": final_epoch,
            "feedback": feedback,
            "replan_counts": replan_counts,
        },
        "overhead": overhead,
        "summary": {
            "all_results_valid": all_valid,
            "replans_triggered": feedback["replans"] if feedback else 0,
            "replanned": bool(feedback and feedback["replans"]),
            "converged_choice": converged[-1]["choice"],
            "speedup_converged_vs_static": (
                round(static_median / converged_median, 2)
                if converged_median
                else None
            ),
            "feedback_overhead_within_budget": overhead["within_budget"],
        },
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


def format_report(report: dict) -> list[str]:
    meta = report["meta"]
    summary = report["summary"]
    adaptive = report["adaptive"]
    overhead = report["overhead"]
    lines = [
        f"adaptive-execution bench — universe={meta['universe']} "
        f"backend={meta['backend']} users={meta['users']} hubs={meta['hubs']} "
        f"hub_edges={meta['hub_edges']} stale_rows={meta['stale_rows']}",
        f"static lane (stale stats, feedback off): "
        f"median {report['static']['median_ms']} ms, "
        f"plan stays {report['static']['choice']}",
        f"adaptive lane: pre-replan median "
        f"{adaptive['pre_replan_median_ms']} ms → converged median "
        f"{adaptive['converged_median_ms']} ms "
        f"({adaptive['converged_choice']}, epoch {adaptive['final_epoch']}, "
        f"{summary['replans_triggered']} re-plan(s))",
        f"speedup converged vs static: "
        f"{summary['speedup_converged_vs_static']}x",
        f"feedback overhead: {overhead['feedback_overhead_pct']}% "
        f"(budget {overhead['budget_pct']}%, "
        f"{'within' if overhead['within_budget'] else 'OVER'})",
        f"bag-equivalence: "
        f"{'all results match reference' if summary['all_results_valid'] else 'FAILURES'}",
    ]
    return lines


def test_bench_adaptive(benchmark, report_rows, tmp_path):
    report = benchmark.pedantic(
        run_bench,
        kwargs={
            **QUICK_GRAPH,
            **QUICK_OVERHEAD,
            # Keep the committed baseline intact; pytest runs are smoke.
            "out_path": tmp_path / "BENCH_adaptive.json",
        },
        iterations=1,
        rounds=1,
    )
    report_rows.extend(format_report(report))
    summary = report["summary"]
    assert summary["all_results_valid"]
    # The mis-estimated workload must actually trigger the feedback loop…
    assert summary["replanned"]
    # …and converge on the incremental-frontier plan the skew demands.
    assert summary["converged_choice"] == "recursive"
    assert report["adaptive"]["final_epoch"] >= 1
    # The well-estimated overhead workload must never re-plan.
    assert not report["overhead"]["spurious_replans"]
    # Converged plan beats the static mis-plan (the gap is ~3-4x on this
    # skew; 1.2 leaves headroom for noisy CI hosts).
    assert summary["speedup_converged_vs_static"] > 1.2
    # Observation-path overhead: 3x budget tolerated under CI noise, as in
    # the guard-overhead smoke.
    assert report["overhead"]["feedback_overhead_pct"] <= 3 * report["overhead"]["budget_pct"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=100, help="total users")
    parser.add_argument("--hubs", type=int, default=12, help="hub-core size")
    parser.add_argument(
        "--hub-edges", type=int, default=480, help="edges inside the hub core"
    )
    parser.add_argument(
        "--stale-rows",
        type=int,
        default=60,
        help="rows per table in the small instance the stale stats describe",
    )
    parser.add_argument(
        "--executions", type=int, default=12, help="servings per lane"
    )
    parser.add_argument(
        "--backend", default="sqlite-memory", help="execution backend"
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller graph/lanes (CI smoke)"
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
    # Exit status reflects correctness and the adaptive story — not raw
    # latency numbers, which depend on the host.
    summary = report["summary"]
    failed = not (
        summary["all_results_valid"]
        and summary["replanned"]
        and summary["converged_choice"] == "recursive"
    )
    return 1 if failed else 0


def _run(arguments) -> dict:
    sizes = {name: getattr(arguments, name) for name in QUICK_GRAPH}
    if arguments.quick:
        sizes = {
            name: min(value, QUICK_GRAPH[name]) for name, value in sizes.items()
        } | QUICK_OVERHEAD
    return run_bench(**sizes, backend=arguments.backend, out_path=arguments.out)


if __name__ == "__main__":
    sys.exit(main())
