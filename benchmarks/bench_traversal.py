"""Traversal benchmark: variable-length path queries, recursive vs unrolled.

The third tracked perf baseline (after ``BENCH_optimizer.json`` and
``BENCH_throughput.json``): k-hop reachability latency per backend for both
renderings of a variable-length pattern —

* the **recursive CTE** (``WITH RECURSIVE`` fixpoint, the faithful level-1
  plan, the only legal plan for open upper bounds), and
* the **bounded unrolling** (UNION of k-hop join chains, the level-2
  planner's rewrite when statistics say the chains stay small)

— plus which of the two the service's level-2 planner actually picked.

Correctness gates the timings: on a small random social graph every
``(query, rendering, backend)`` execution — and every service run at opt
levels 0/1/2 — is checked bag-equivalent against the **BFS reference
evaluator** (:func:`repro.cypher.semantics.evaluate_query`, the frontier
expansion that defines variable-length semantics).  The baseline must
record 0 equivalence failures.

Run directly::

    python benchmarks/bench_traversal.py [--rows N] [--repeats K] [--quick]

or under pytest (asserts the acceptance criteria)::

    pytest benchmarks/bench_traversal.py --benchmark-only -s
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.backends import GraphitiService, available_backends
from repro.benchmarks.universes import SOCIAL
from repro.core.transpile import transpile
from repro.cypher.parser import parse_cypher
from repro.cypher.semantics import evaluate_query as evaluate_cypher
from repro.graph.builder import GraphBuilder
from repro.relational.instance import tables_equivalent
from repro.sql.analysis import uses_recursion
from repro.sql.optimize import optimize
from repro.sql.planner import CardinalityEstimator, expand_recursions
from repro.sql.pretty import to_sql_text

from common import available_cpus

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_traversal.json"

#: The traversal workload over SOCIAL's self-referential FOLLOWS edge.
#: ``hops`` is the surface bound (None = open upper bound → recursive only).
WORKLOAD: dict[str, str] = {
    "fof-2": "MATCH (a:USER)-[:FOLLOWS*1..2]->(b:USER) RETURN a.uid, b.uid",
    "fof-3": "MATCH (a:USER)-[:FOLLOWS*1..3]->(b:USER) RETURN a.uid, b.uid",
    "exact-2": "MATCH (a:USER)-[:FOLLOWS*2]->(b:USER) RETURN a.uid, b.uid",
    "exact-3": "MATCH (a:USER)-[:FOLLOWS*3]->(b:USER) RETURN a.uid, b.uid",
    "zero-two": "MATCH (a:USER)-[:FOLLOWS*0..2]->(b:USER) RETURN a.uid, b.uid",
    "undirected-2": "MATCH (a:USER)-[:FOLLOWS*1..2]-(b:USER) RETURN a.uid, b.uid",
    "reach-count": "MATCH (a:USER)-[:FOLLOWS*1..3]->(b:USER) RETURN a.uname, Count(*)",
    "star": "MATCH (a:USER)-[:FOLLOWS*]->(b:USER) RETURN a.uid, b.uid",
    "deep-star": "MATCH (a:USER)-[:FOLLOWS*2..]->(b:USER) RETURN a.uid, b.uid",
}


def social_graph(users: int, follows: int, posts: int = 0, seed: int = 7):
    """A random property graph over the SOCIAL schema (for the BFS side)."""
    rng = random.Random(seed)
    builder = GraphBuilder(SOCIAL.graph_schema)
    user_nodes = [
        builder.add_node("USER", uid=i, uname=f"u{i % 23}", age=18 + i % 50)
        for i in range(1, users + 1)
    ]
    for fid in range(1, follows + 1):
        builder.add_edge(
            "FOLLOWS", rng.choice(user_nodes), rng.choice(user_nodes), fid=fid
        )
    for pid in range(1, posts + 1):
        post = builder.add_node("POST", pid=pid, title=f"t{pid % 9}", score=pid % 13)
        builder.add_edge("WROTE", rng.choice(user_nodes), post, wrid=pid)
    return builder.build()


def plan_variants(service: GraphitiService, cypher_text: str, dialect) -> dict[str, str]:
    """Rendered SQL per plan shape: always ``recursive``, plus ``unrolled``
    when the traversal's upper bound admits it."""
    query = parse_cypher(cypher_text, service.graph_schema)
    raw = transpile(query, service.graph_schema, service.sdt)
    variants = {
        "recursive": to_sql_text(
            optimize(raw, level=1), service.sdt.schema, optimized=False, dialect=dialect
        )
    }
    # Statistics-free expansion unrolls every bounded traversal (the cost
    # guard is what the golden planner tests cover); open bounds stay
    # recursive and yield no second variant.
    expanded = expand_recursions(raw, CardinalityEstimator(service.sdt.schema, None))
    if not uses_recursion(expanded):
        variants["unrolled"] = to_sql_text(
            optimize(expanded, level=1),
            service.sdt.schema,
            optimized=False,
            dialect=dialect,
        )
    return variants


def validate(
    users: int = 40, follows: int = 70, seed: int = 7, backends: tuple[str, ...] | None = None
) -> dict:
    """Bag-equivalence of every (query, rendering, backend) and every opt
    level against the BFS reference evaluator.  Returns the failure list."""
    names = backends or available_backends()
    graph = social_graph(users, follows, posts=10, seed=seed)
    failures: list[str] = []
    checked = 0
    with GraphitiService(SOCIAL.graph_schema) as service:
        service.load_graph(graph)
        for label, text in WORKLOAD.items():
            expected = evaluate_cypher(parse_cypher(text, SOCIAL.graph_schema), graph)
            if not expected.rows:
                failures.append(f"{label}: vacuous (no rows on the validation graph)")
            for name in names:
                variants = plan_variants(service, text, service.dialect_of(name))
                for shape, sql_text in variants.items():
                    checked += 1
                    with service.pool(name).connection() as engine:
                        actual = engine.execute(sql_text)
                    if not tables_equivalent(expected, actual):
                        failures.append(f"{label}/{shape}/{name}")
                for level in (0, 1, 2):
                    checked += 1
                    if not tables_equivalent(
                        expected, service.run(text, backend=name, opt_level=level)
                    ):
                        failures.append(f"{label}/opt{level}/{name}")
    return {"checked": checked, "failures": failures}


def measure(
    rows_per_table: int = 2000,
    repeats: int = 3,
    backends: tuple[str, ...] | None = None,
    seed: int = 42,
) -> list[dict]:
    """Per-(backend, query) latency of both renderings at benchmark scale."""
    names = backends or available_backends()
    results: list[dict] = []
    with GraphitiService(SOCIAL.graph_schema) as service:
        service.load_mock(rows_per_table, seed=seed)
        for name in names:
            dialect = service.dialect_of(name)
            for label, text in WORKLOAD.items():
                variants = plan_variants(service, text, dialect)
                timings: dict[str, float] = {}
                rows = 0
                with service.pool(name).connection() as engine:
                    for shape, sql_text in variants.items():
                        timings[shape] = engine.time(sql_text, repeats=repeats)
                    rows = len(engine.execute(variants["recursive"]))
                chosen = service.prepare(text, dialect, opt_level=2).sql_ast
                recursive_ms = timings["recursive"] * 1000
                unrolled_ms = (
                    timings["unrolled"] * 1000 if "unrolled" in timings else None
                )
                results.append(
                    {
                        "backend": name,
                        "query": label,
                        "cypher": text,
                        "rows": rows,
                        "recursive_ms": round(recursive_ms, 3),
                        "unrolled_ms": (
                            round(unrolled_ms, 3) if unrolled_ms is not None else None
                        ),
                        "speedup_unrolled_vs_recursive": (
                            round(recursive_ms / max(unrolled_ms, 1e-6), 3)
                            if unrolled_ms is not None
                            else None
                        ),
                        "level2_choice": (
                            "recursive" if uses_recursion(chosen) else "unrolled"
                        ),
                    }
                )
    return results


def summarize(results: list[dict], validation: dict) -> dict:
    bounded = [r for r in results if r["unrolled_ms"] is not None]
    open_bounded = [r for r in results if r["unrolled_ms"] is None]
    return {
        "bounded_queries": len(bounded),
        "open_bound_queries": len(open_bounded),
        "unrolled_wins": sum(
            1 for r in bounded if r["unrolled_ms"] < r["recursive_ms"]
        ),
        "open_bounds_stay_recursive": all(
            r["level2_choice"] == "recursive" for r in open_bounded
        ),
        "equivalence_failures": len(validation["failures"]),
    }


def run_bench(
    rows_per_table: int = 2000,
    repeats: int = 3,
    quick: bool = False,
    out_path: Path = DEFAULT_OUT,
) -> dict:
    started = time.time()
    validation = validate(
        users=25 if quick else 40, follows=45 if quick else 70
    )
    results = measure(
        rows_per_table=rows_per_table, repeats=repeats
    )
    report = {
        "meta": {
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "rows_per_table": rows_per_table,
            "repeats": repeats,
            "backends": list(available_backends()),
            "cpu_count": available_cpus(),
            "universe": SOCIAL.name,
            "elapsed_seconds": round(time.time() - started, 1),
        },
        "validation": validation,
        "summary": summarize(results, validation),
        "results": results,
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def format_report(report: dict) -> list[str]:
    lines = [
        f"== traversal benchmark ({report['meta']['rows_per_table']} rows/table, "
        f"backends: {', '.join(report['meta']['backends'])}) =="
    ]
    for row in report["results"]:
        unrolled = (
            f"unrolled={row['unrolled_ms']:9.2f} ms  x{row['speedup_unrolled_vs_recursive']:<7.2f}"
            if row["unrolled_ms"] is not None
            else "unrolled=      (open bound)    "
        )
        lines.append(
            f"{row['backend']:14} {row['query']:13} "
            f"recursive={row['recursive_ms']:9.2f} ms  {unrolled} "
            f"[level2: {row['level2_choice']}]"
        )
    summary = report["summary"]
    validation = report["validation"]
    lines.append(
        f"bag-equivalence vs the BFS evaluator: {validation['checked']} checks, "
        f"{len(validation['failures'])} failures"
    )
    lines.append(
        f"unrolled wins {summary['unrolled_wins']}/{summary['bounded_queries']} "
        f"bounded traversals; open bounds stay recursive: "
        f"{summary['open_bounds_stay_recursive']}"
    )
    if validation["failures"]:
        lines.append("FAILURES: " + ", ".join(validation["failures"]))
    return lines


def test_bench_traversal(benchmark, report_rows, tmp_path):
    report = benchmark.pedantic(
        run_bench,
        kwargs={
            "rows_per_table": 800,
            "repeats": 3,
            "quick": True,
            # Keep the committed baseline intact; pytest runs are smoke.
            "out_path": tmp_path / "BENCH_traversal.json",
        },
        iterations=1,
        rounds=1,
    )
    report_rows.extend(format_report(report))
    # The acceptance bar: every rendering of every traversal is
    # bag-equivalent to the BFS evaluator, and the planner never unrolls
    # an open upper bound.
    assert not report["validation"]["failures"]
    assert report["summary"]["open_bounds_stay_recursive"]
    assert report["summary"]["bounded_queries"] > 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=2000, help="mock rows per table")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats")
    parser.add_argument(
        "--quick", action="store_true", help="smaller validation graph (CI smoke)"
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
    # Exit status reflects correctness only (timings are recorded, not
    # asserted — CI runners are noisy).
    return 1 if report["validation"]["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
