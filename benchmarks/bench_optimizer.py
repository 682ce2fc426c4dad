"""Optimizer benchmark: opt levels 0/1/2 across registered backends.

Times a Table-4-style workload (scans, multi-hop traversals, aggregation,
optional match, correlated EXISTS — the shapes of the paper's execution
comparison) at every optimization level on every available execution
backend, and persists the numbers to ``BENCH_optimizer.json`` at the repo
root: the tracked perf baseline for the cost-based optimizer.

Correctness gates the timings twice:

* every (query, level) result is cross-checked for bag equivalence against
  the reference evaluator on a small instance, and
* every level-2 plan of the whole 410-benchmark suite is validated
  bag-equivalent to the level-0 reference evaluation (``--quick`` samples
  this down for CI smoke runs).

Run directly::

    python benchmarks/bench_optimizer.py [--rows N] [--repeats K] [--quick]

or under pytest (asserts the acceptance criteria: level 2 beats level 1 on
multi-hop queries, nothing regresses beyond noise)::

    pytest benchmarks/bench_optimizer.py --benchmark-only -s
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.backends import GraphitiService, available_backends
from repro.benchmarks.universes import SOCIAL
from repro.relational.instance import tables_equivalent
from repro.sql.analysis import join_count

from common import available_cpus

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_optimizer.json"

#: Absolute slack added to the 10% regression tolerance — sub-millisecond
#: queries bounce more than 10% from scheduler noise alone.
REGRESSION_EPSILON_MS = 0.5

#: The Table-4-style workload, over the SOCIAL universe (USER/POST with
#: FOLLOWS/WROTE/LIKES) — multi-hop traversals are where join planning acts.
WORKLOAD: dict[str, str] = {
    "scan": "MATCH (n:USER) RETURN n.uname",
    "filter": "MATCH (n:USER) WHERE n.age = 33 RETURN n.uname",
    "one-hop": "MATCH (a:USER)-[w:WROTE]->(p:POST) RETURN a.uname, p.title",
    "two-hop": (
        "MATCH (a:USER)-[f:FOLLOWS]->(b:USER)-[w:WROTE]->(p:POST) "
        "RETURN a.uname, p.title"
    ),
    "two-hop-filter": (
        "MATCH (a:USER)-[f:FOLLOWS]->(b:USER)-[w:WROTE]->(p:POST) "
        "WHERE p.score = 10 RETURN a.uname, p.title"
    ),
    "diamond": (
        "MATCH (a:USER)-[f:FOLLOWS]->(b:USER)-[w:WROTE]->(p:POST) "
        "MATCH (c:USER)-[l:LIKES]->(p:POST) RETURN a.uname, c.uname"
    ),
    "with-chain": (
        "MATCH (a:USER)-[w:WROTE]->(p:POST) WITH p "
        "MATCH (c:USER)-[l:LIKES]->(p:POST) RETURN p.title, Count(*)"
    ),
    "agg-two-hop": (
        "MATCH (a:USER)-[f:FOLLOWS]->(b:USER)-[w:WROTE]->(p:POST) "
        "RETURN b.uname, Count(*)"
    ),
    "optional": (
        "MATCH (a:USER) OPTIONAL MATCH (a:USER)-[w:WROTE]->(p:POST) "
        "RETURN a.uname, p.title"
    ),
    "exists": (
        "MATCH (a:USER) WHERE EXISTS { MATCH (a:USER)-[f:FOLLOWS]->(b:USER) } "
        "RETURN a.uname"
    ),
}

OPT_LEVELS = (0, 1, 2)


def measure(
    rows_per_table: int = 2000,
    repeats: int = 3,
    backends: tuple[str, ...] | None = None,
    check_rows: int = 20,
    seed: int = 42,
) -> list[dict]:
    """Per-(backend, query, level) timings with small-instance validation."""
    names = backends or available_backends()

    # Correctness first, at small scale (the reference evaluator
    # nested-loops, so validating at benchmark scale would dominate).
    valid: dict[tuple[str, str], bool] = {}
    with GraphitiService(SOCIAL.graph_schema) as checker:
        checker.load_mock(check_rows, seed=seed)
        for label, text in WORKLOAD.items():
            expected = checker.reference(text, opt_level=0)
            for name in names:
                ok = True
                for level in OPT_LEVELS:
                    actual = checker.run(text, backend=name, opt_level=level)
                    ok = ok and tables_equivalent(expected, actual)
                valid[(name, label)] = ok

    results: list[dict] = []
    with GraphitiService(SOCIAL.graph_schema) as service:
        service.load_mock(rows_per_table, seed=seed)
        for name in names:
            for label, text in WORKLOAD.items():
                timings = {}
                for level in OPT_LEVELS:
                    timings[level] = service.time(
                        text, backend=name, repeats=repeats, opt_level=level
                    )
                plan = service.prepare(text, opt_level=2).sql_ast
                joins = join_count(plan)
                rows = len(service.run(text, backend=name, opt_level=2))
                opt1_ms = timings[1] * 1000
                opt2_ms = timings[2] * 1000
                results.append(
                    {
                        "backend": name,
                        "query": label,
                        "cypher": text,
                        "joins": joins,
                        "multi_hop": joins >= 2,
                        "rows": rows,
                        "opt0_ms": round(timings[0] * 1000, 3),
                        "opt1_ms": round(opt1_ms, 3),
                        "opt2_ms": round(opt2_ms, 3),
                        "speedup_2_vs_1": round(opt1_ms / max(opt2_ms, 1e-6), 3),
                        "regressed": opt2_ms
                        > opt1_ms * 1.10 + REGRESSION_EPSILON_MS,
                        "valid": valid[(name, label)],
                    }
                )
    return results


def validate_suite(rows_per_table: int = 6, sample: int | None = None) -> dict:
    """Cross-validate level-2 plans against the reference evaluator over the
    whole benchmark suite (level 0 evaluated by the same evaluator is the
    ground truth; sqlite-memory execution of the level-2 SQL is checked
    too).  Returns ``{"checked": n, "failures": [...]}``."""
    from repro.benchmarks.suite import benchmark_suite

    suite = benchmark_suite()
    if sample is not None:
        step = max(len(suite) // sample, 1)
        suite = suite[::step]
    services: dict[str, GraphitiService] = {}
    failures: list[str] = []
    for benchmark in suite:
        service = services.get(benchmark.universe.name)
        if service is None:
            service = GraphitiService(benchmark.graph_schema)
            service.load_mock(rows_per_table, seed=7)
            services[benchmark.universe.name] = service
        try:
            expected = service.reference(benchmark.cypher_text, opt_level=0)
            evaluated = service.reference(benchmark.cypher_text, opt_level=2)
            executed = service.run(benchmark.cypher_text, opt_level=2)
            if not (
                tables_equivalent(expected, evaluated)
                and tables_equivalent(expected, executed)
            ):
                failures.append(benchmark.id)
        except Exception as error:  # noqa: BLE001 - report, don't crash the bench
            failures.append(f"{benchmark.id}: {type(error).__name__}: {error}")
    for service in services.values():
        service.close()
    return {"checked": len(suite), "failures": failures}


def summarize(results: list[dict]) -> dict:
    multi_hop = [r for r in results if r["multi_hop"]]
    speedups = [r["speedup_2_vs_1"] for r in multi_hop if r["speedup_2_vs_1"] > 0]
    geomean = (
        math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        if speedups
        else 1.0
    )
    return {
        "multi_hop_queries": len(multi_hop),
        "multi_hop_geomean_speedup_2_vs_1": round(geomean, 3),
        "multi_hop_wins_2_vs_1": sum(
            1 for r in multi_hop if r["opt2_ms"] < r["opt1_ms"]
        ),
        "regressions": [
            f"{r['backend']}/{r['query']}" for r in results if r["regressed"]
        ],
        "all_valid": all(r["valid"] for r in results),
    }


def run_bench(
    rows_per_table: int = 2000,
    repeats: int = 3,
    quick: bool = False,
    out_path: Path = DEFAULT_OUT,
) -> dict:
    started = time.time()
    results = measure(rows_per_table=rows_per_table, repeats=repeats)
    suite_validation = validate_suite(sample=60 if quick else None)
    report = {
        "meta": {
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "rows_per_table": rows_per_table,
            "repeats": repeats,
            "backends": list(available_backends()),
            "cpu_count": available_cpus(),
            "universe": SOCIAL.name,
            "elapsed_seconds": round(time.time() - started, 1),
            "regression_rule": f"opt2 > opt1 * 1.10 + {REGRESSION_EPSILON_MS} ms",
        },
        "suite_validation": suite_validation,
        "summary": summarize(results),
        "results": results,
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def format_report(report: dict) -> list[str]:
    lines = [
        f"== optimizer benchmark ({report['meta']['rows_per_table']} rows/table, "
        f"backends: {', '.join(report['meta']['backends'])}) =="
    ]
    for row in report["results"]:
        marker = "*" if row["multi_hop"] else " "
        check = "ok" if row["valid"] else "MISMATCH"
        lines.append(
            f"{marker} {row['backend']:14} {row['query']:15} "
            f"opt0={row['opt0_ms']:9.2f}  opt1={row['opt1_ms']:9.2f}  "
            f"opt2={row['opt2_ms']:9.2f} ms  "
            f"x{row['speedup_2_vs_1']:<8.2f} [{check}]"
        )
    summary = report["summary"]
    validation = report["suite_validation"]
    lines.append(
        f"multi-hop geomean speedup (2 vs 1): "
        f"x{summary['multi_hop_geomean_speedup_2_vs_1']}  "
        f"(wins {summary['multi_hop_wins_2_vs_1']}/{summary['multi_hop_queries']})"
    )
    lines.append(
        f"suite validation: {validation['checked']} benchmarks, "
        f"{len(validation['failures'])} failures"
    )
    if summary["regressions"]:
        lines.append(f"regressions: {', '.join(summary['regressions'])}")
    return lines


def test_bench_optimizer(benchmark, report_rows, tmp_path):
    report = benchmark.pedantic(
        run_bench,
        kwargs={
            "rows_per_table": 1000,
            "repeats": 3,
            "quick": True,
            # Keep the committed baseline intact; pytest runs are smoke.
            "out_path": tmp_path / "BENCH_optimizer.json",
        },
        iterations=1,
        rounds=1,
    )
    report_rows.extend(format_report(report))
    summary = report["summary"]
    assert summary["all_valid"]
    assert not report["suite_validation"]["failures"]
    # The acceptance bar: cost-based planning wins on multi-hop queries and
    # regresses nothing beyond timing noise.
    assert summary["multi_hop_geomean_speedup_2_vs_1"] > 1.0
    assert not summary["regressions"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=2000, help="mock rows per table")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats")
    parser.add_argument(
        "--quick", action="store_true", help="sample the suite validation (CI smoke)"
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    arguments = parser.parse_args(argv)
    report = run_bench(
        rows_per_table=arguments.rows,
        repeats=arguments.repeats,
        quick=arguments.quick,
        out_path=arguments.out,
    )
    print("\n".join(format_report(report)))
    print(f"wrote {arguments.out}")
    # Exit status reflects *correctness* only — timing regressions are
    # recorded in the JSON (and asserted by the pytest wrapper at a stable
    # scale) but must not flake CI smoke runs on noisy shared runners.
    failed = (
        not report["summary"]["all_valid"]
        or report["suite_validation"]["failures"]
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
