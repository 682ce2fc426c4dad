"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------

``transpile``
    Translate a Cypher query into SQL over the induced relational schema::

        python -m repro transpile --graph-schema schema.txt \\
            --cypher "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name"

    ``--example emp-dept`` substitutes the built-in Figure-14 schema.

``check``
    Run the full Algorithm-1 pipeline on a pair of queries (or a named
    benchmark from the suite)::

        python -m repro check --benchmark academic/motivating --backend bounded
        python -m repro check --graph-schema g.txt --relational-schema r.txt \\
            --transformer t.txt --cypher "..." --sql "..." --backend deductive

``run``
    Execute Cypher queries end-to-end on a registered execution backend
    (schema → SDT → cached transpile → bulk-load → execute).  ``--cypher``
    repeats; ``--workers N`` fans the batch across N pooled connections
    on worker threads, ``--async-workers N`` drives it through the
    asyncio service (:class:`~repro.backends.async_service.AsyncGraphitiService`)
    at concurrency N instead::

        python -m repro run --example emp-dept --rows 1000 \\
            --backend sqlite-memory \\
            --cypher "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name"
        python -m repro run --example emp-dept --async-workers 4 \\
            --cypher "MATCH (n:EMP) RETURN n.name" \\
            --cypher "MATCH (m:DEPT) RETURN m.dname"

``bench-backends``
    Compare execution time of a standard workload across every available
    backend (results cross-checked against the reference evaluator)::

        python -m repro bench-backends --rows 5000 --repeats 5

    The serving benchmarks (concurrent QPS, adaptive re-planning,
    partition-parallel scans) are scripts that drive the library from
    outside, e.g. ``python benchmarks/bench_throughput.py --mode async``.

``explain``
    Trace one query through the serving stack — parse, transpile, planner,
    cache lookups, pool checkout, engine execution — and render the span
    tree with per-stage timings plus the planner's decisions (recursive
    CTE vs unrolled join chains, join order, pushed predicates)::

        python -m repro explain --example social \\
            --cypher "MATCH (a:USER)-[:FOLLOWS*1..3]->(b:USER) RETURN b.uname"
        python -m repro explain --example emp-dept --json \\
            --cypher "MATCH (n:EMP) RETURN n.name"

``backends``
    List registered execution backends and their availability.

``tables``
    Regenerate one of the paper's evaluation tables::

        python -m repro tables --table 3

``suite``
    List the 410 benchmarks (ids, categories, ground truth).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.checkers.base import Verdict
from repro.checkers.bounded import BoundedChecker
from repro.checkers.deductive import DeductiveChecker
from repro.core.equivalence import check_equivalence
from repro.core.sdt import infer_sdt
from repro.core.transpile import transpile
from repro.cypher.parser import parse_cypher
from repro.graph.parser import parse_graph_schema
from repro.graph.schema import GraphSchema
from repro.relational.parser import parse_relational_schema
from repro.sql.parser import parse_sql
from repro.sql.pretty import to_sql_text
from repro.transformer.parser import parse_transformer

_EXAMPLE_SCHEMAS = {
    "emp-dept": """
        node EMP(id, name)
        node DEPT(dnum, dname)
        edge WORK_AT(wid): EMP -> DEPT
    """,
    # Self-referential FOLLOWS edge: the smallest schema on which
    # variable-length path queries (``-[:FOLLOWS*1..3]->``) typecheck.
    "social": """
        node USER(uid, uname)
        edge FOLLOWS(fid): USER -> USER
    """,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    arguments = parser.parse_args(argv)
    if arguments.command is None:
        parser.print_help()
        return 2
    handler = {
        "transpile": _command_transpile,
        "check": _command_check,
        "run": _command_run,
        "explain": _command_explain,
        "bench-backends": _command_bench_backends,
        "backends": _command_backends,
        "tables": _command_tables,
        "suite": _command_suite,
    }[arguments.command]
    try:
        return handler(arguments)
    except BrokenPipeError:
        # Downstream pipe reader (head, grep -q) closed early: not an error.
        # Detach stdout so interpreter shutdown doesn't retry the flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graphiti reproduction: Cypher/SQL equivalence checking",
    )
    subparsers = parser.add_subparsers(dest="command")

    transpile_parser = subparsers.add_parser(
        "transpile", help="translate Cypher to SQL over the induced schema"
    )
    transpile_parser.add_argument("--cypher", required=True, help="Cypher query text")
    transpile_parser.add_argument(
        "--graph-schema", type=Path, help="graph schema declaration file"
    )
    transpile_parser.add_argument(
        "--example", choices=sorted(_EXAMPLE_SCHEMAS), help="built-in schema"
    )
    transpile_parser.add_argument(
        "--dialect", default="sqlite", help="SQL dialect to render (default sqlite)"
    )
    transpile_parser.add_argument(
        "--opt",
        type=int,
        choices=(0, 1, 2),
        default=2,
        help="optimization level: 0 raw, 1 rule rewrites, 2 cost-based (default 2)",
    )

    check_parser = subparsers.add_parser(
        "check", help="run the full equivalence-checking pipeline"
    )
    check_parser.add_argument("--benchmark", help="benchmark id from the suite")
    check_parser.add_argument("--graph-schema", type=Path)
    check_parser.add_argument("--relational-schema", type=Path)
    check_parser.add_argument("--transformer", type=Path)
    check_parser.add_argument("--cypher")
    check_parser.add_argument("--sql")
    check_parser.add_argument(
        "--backend", choices=("bounded", "deductive"), default="bounded"
    )
    check_parser.add_argument("--max-bound", type=int, default=4)
    check_parser.add_argument("--samples", type=int, default=250)
    check_parser.add_argument("--budget", type=float, default=10.0)

    run_parser = subparsers.add_parser(
        "run", help="execute Cypher queries on an execution backend"
    )
    run_parser.add_argument(
        "--cypher",
        required=True,
        action="append",
        dest="cyphers",
        help="Cypher query text (repeatable; a batch runs via the pool)",
    )
    run_parser.add_argument(
        "--graph-schema", type=Path, help="graph schema declaration file"
    )
    run_parser.add_argument(
        "--example", choices=sorted(_EXAMPLE_SCHEMAS), help="built-in schema"
    )
    run_parser.add_argument(
        "--backend", default="sqlite-memory", help="registered backend name"
    )
    run_parser.add_argument(
        "--rows", type=int, default=100, help="mock rows per table (default 100)"
    )
    run_parser.add_argument("--seed", type=int, default=42, help="mock-data seed")
    run_parser.add_argument(
        "--show-sql", action="store_true", help="print the rendered SQL first"
    )
    run_parser.add_argument(
        "--explain", action="store_true", help="print the engine's query plan"
    )
    run_parser.add_argument(
        "--limit", type=int, default=20, help="result rows to display (default 20)"
    )
    run_parser.add_argument(
        "--opt",
        type=int,
        choices=(0, 1, 2),
        default=2,
        help="optimization level: 0 raw, 1 rule rewrites, 2 cost-based (default 2)",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker threads executing the batch over pooled connections "
        "(default 1: serial)",
    )
    run_parser.add_argument(
        "--async-workers",
        type=int,
        default=0,
        dest="async_workers",
        metavar="N",
        help="drive the batch through the asyncio service at concurrency N "
        "instead of worker threads (0, the default, stays sync)",
    )
    run_parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="partition-parallel scan degree: split single-relation scans "
        "into N rowid ranges and run them concurrently (1, the default, "
        "stays serial; small or non-fragmentable plans stay serial "
        "regardless — see 'repro explain')",
    )
    run_parser.add_argument(
        "--persistent-cache",
        action="store_true",
        help="use the on-disk transpilation cache (cross-process reuse)",
    )
    run_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-query wall-clock budget; overruns abort the statement "
        "in-engine and fail with structured diagnostics",
    )
    run_parser.add_argument(
        "--max-rows",
        type=int,
        default=None,
        dest="max_rows",
        metavar="N",
        help="per-query produced-row budget",
    )
    run_parser.add_argument(
        "--max-depth",
        type=int,
        default=None,
        dest="max_depth",
        metavar="N",
        help="per-query traversal depth budget (variable-length paths are "
        "re-planned with the cap before execution)",
    )
    run_parser.add_argument(
        "--feedback-ratio",
        type=float,
        default=None,
        dest="feedback_ratio",
        metavar="R",
        help="estimate-vs-actual divergence (q-error) that triggers an "
        "adaptive re-plan (default 8; 0 disables adaptive execution)",
    )

    explain_parser = subparsers.add_parser(
        "explain",
        help="trace one query through the serving stack and render the span "
        "tree, per-stage timings, and planner decisions",
    )
    explain_parser.add_argument("--cypher", required=True, help="Cypher query text")
    explain_parser.add_argument(
        "--graph-schema", type=Path, help="graph schema declaration file"
    )
    explain_parser.add_argument(
        "--example", choices=sorted(_EXAMPLE_SCHEMAS), help="built-in schema"
    )
    explain_parser.add_argument(
        "--backend", default="sqlite-memory", help="registered backend name"
    )
    explain_parser.add_argument(
        "--rows", type=int, default=100, help="mock rows per table (default 100)"
    )
    explain_parser.add_argument("--seed", type=int, default=42, help="mock-data seed")
    explain_parser.add_argument(
        "--opt",
        type=int,
        choices=(0, 1, 2),
        default=2,
        help="optimization level: 0 raw, 1 rule rewrites, 2 cost-based (default 2)",
    )
    explain_parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="request partition-parallel scans at degree N (the plan "
        "section then shows the chosen degree, or why the query stayed "
        "serial)",
    )
    explain_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report (the trace member round-trips "
        "through span_from_dict)",
    )
    explain_parser.add_argument(
        "--no-sql", action="store_true", help="omit the rendered SQL section"
    )

    bench_parser = subparsers.add_parser(
        "bench-backends", help="compare the standard workload across backends"
    )
    bench_parser.add_argument(
        "--rows", type=int, default=2000, help="mock rows per table (default 2000)"
    )
    bench_parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (median reported)"
    )
    bench_parser.add_argument(
        "--backend",
        action="append",
        dest="backends",
        help="backend to include (repeatable; default: every available one)",
    )

    backends_parser = subparsers.add_parser(
        "backends", help="list registered execution backends"
    )
    backends_parser.add_argument(
        "--stats",
        action="store_true",
        help="run the standard workload twice and report transpilation-cache "
        "hit/miss counters plus per-query timings",
    )
    backends_parser.add_argument(
        "--rows", type=int, default=500, help="mock rows per table for --stats"
    )
    backends_parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON (registry listing; with --stats also "
        "cache hit/miss counters and per-query timing percentiles)",
    )

    tables_parser = subparsers.add_parser(
        "tables", help="regenerate a paper evaluation table"
    )
    tables_parser.add_argument(
        "--table", required=True, choices=("1", "2", "3", "4", "5", "speed")
    )

    subparsers.add_parser("suite", help="list the benchmark suite")
    return parser


def _load_graph_schema(arguments) -> GraphSchema:
    if getattr(arguments, "example", None):
        return parse_graph_schema(_EXAMPLE_SCHEMAS[arguments.example])
    if arguments.graph_schema is None:
        raise SystemExit("provide --graph-schema FILE or --example NAME")
    return parse_graph_schema(arguments.graph_schema.read_text())


def _command_transpile(arguments) -> int:
    from repro.common.errors import GraphitiError
    from repro.sql.dialect import dialect_for
    from repro.sql.optimize import optimize

    try:
        dialect = dialect_for(arguments.dialect)
        schema = _load_graph_schema(arguments)
        query = parse_cypher(arguments.cypher, schema)
        sdt = infer_sdt(schema)
        translated = optimize(
            transpile(query, schema, sdt), level=arguments.opt, schema=sdt.schema
        )
        sql = to_sql_text(translated, sdt.schema, optimized=False, dialect=dialect)
    except GraphitiError as error:
        raise SystemExit(str(error))
    print("-- induced relational schema")
    for relation in sdt.schema.relations:
        print(f"--   {relation}")
    print(sql)
    return 0


def _command_run(arguments) -> int:
    from repro.backends import BackendUnavailable, GraphitiService
    from repro.common.budget import QueryBudget, QueryBudgetExceeded
    from repro.common.errors import GraphitiError

    schema = _load_graph_schema(arguments)
    queries = list(arguments.cyphers)
    budget = None
    if (
        arguments.timeout is not None
        or arguments.max_rows is not None
        or arguments.max_depth is not None
    ):
        budget = QueryBudget(
            max_rows=arguments.max_rows,
            max_depth=arguments.max_depth,
            timeout_seconds=arguments.timeout,
        )
    if arguments.async_workers > 0 and arguments.workers != 1:
        raise SystemExit(
            "--workers and --async-workers are mutually exclusive: pick the "
            "threaded or the asyncio lane"
        )
    workers = max(1, arguments.workers)
    async_workers = max(0, arguments.async_workers)
    parallel = max(1, getattr(arguments, "parallel", 1))
    adaptive_kwargs = {}
    feedback_ratio = getattr(arguments, "feedback_ratio", None)
    if feedback_ratio is not None:
        # 0 (or anything ≤ 1) turns adaptive re-planning off.
        adaptive_kwargs["feedback_ratio"] = (
            feedback_ratio if feedback_ratio > 1.0 else None
        )
    with GraphitiService(
        schema,
        default_backend=arguments.backend,
        opt_level=arguments.opt,
        pool_size=max(4, workers, async_workers, parallel),
        persistent_cache=arguments.persistent_cache or None,
        parallelism=parallel,
        **adaptive_kwargs,
    ) as service:
        service.load_mock(arguments.rows, seed=arguments.seed)
        try:
            if arguments.show_sql:
                for text in queries:
                    print("-- rendered SQL")
                    print(service.transpile_to_sql(text))
                    print()
            if arguments.explain:
                for text in queries:
                    print("-- query plan")
                    print(service.explain(text))
                    print()
            start = time.perf_counter()
            if async_workers:
                results = _run_batch_async(
                    service, queries, async_workers, budget=budget
                )
            else:
                results = service.run_many(queries, workers=workers, budget=budget)
            seconds = time.perf_counter() - start
        except QueryBudgetExceeded as error:
            print(f"query budget exceeded: {error}", file=sys.stderr)
            for key, value in error.diagnostics().items():
                print(f"  {key}: {value}", file=sys.stderr)
            return 2
        except (BackendUnavailable, GraphitiError) as error:
            raise SystemExit(str(error))
        for index, result in enumerate(results):
            if len(queries) > 1:
                print(f"-- [{index + 1}/{len(queries)}] {queries[index]}")
            shown = result.rows[: arguments.limit]
            print(" | ".join(result.attributes))
            for row in shown:
                print(" | ".join(repr(v) for v in row))
            if len(result.rows) > len(shown):
                print(f"... ({len(result.rows)} rows total)")
        total_rows = sum(len(result.rows) for result in results)
        if len(queries) <= 1:
            batch = ""
        elif async_workers:
            batch = f" ({len(queries)} queries, async concurrency {async_workers})"
        else:
            batch = f" ({len(queries)} queries, {workers} workers)"
        par = f", parallel {parallel}" if parallel > 1 else ""
        print(
            f"-- {total_rows} rows on {arguments.backend}{par}{batch} "
            f"({seconds * 1000:.2f} ms)"
        )
        if arguments.persistent_cache:
            info = service.persistent_cache_info()
            print(
                f"-- persistent cache: hits={info.hits} misses={info.misses} "
                f"entries={info.currsize}"
            )
    return 0


def _command_explain(arguments) -> int:
    import json

    from repro.backends import BackendUnavailable, GraphitiService
    from repro.common.errors import GraphitiError
    from repro.observability.explain import explain_query

    schema = _load_graph_schema(arguments)
    parallel = max(1, getattr(arguments, "parallel", 1))
    with GraphitiService(
        schema,
        default_backend=arguments.backend,
        opt_level=arguments.opt,
        parallelism=parallel,
    ) as service:
        service.load_mock(arguments.rows, seed=arguments.seed)
        try:
            report = explain_query(
                service, arguments.cypher, backend=arguments.backend
            )
        except (BackendUnavailable, GraphitiError) as error:
            raise SystemExit(str(error))
        if arguments.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print("\n".join(report.render(show_sql=not arguments.no_sql)))
    return 0


def _run_batch_async(
    service, queries: list[str], concurrency: int, budget=None
) -> list:
    """Drive *queries* through the asyncio serving layer (``--async-workers``)."""
    import asyncio

    from repro.backends import AsyncGraphitiService

    async def drive() -> list:
        async with AsyncGraphitiService(
            service, max_concurrency=concurrency
        ) as async_service:
            return await async_service.run_many(
                queries, concurrency=concurrency, budget=budget
            )

    return asyncio.run(drive())


def _command_bench_backends(arguments) -> int:
    from repro.backends import BackendUnavailable, available_backends, compare_backends

    backends = tuple(arguments.backends) if arguments.backends else None
    print(f"available backends: {', '.join(available_backends())}")
    try:
        rows = compare_backends(
            rows_per_table=arguments.rows,
            repeats=arguments.repeats,
            backends=backends,
        )
    except BackendUnavailable as error:
        raise SystemExit(str(error))
    print(f"== backend comparison ({arguments.rows} rows/table) ==")
    for row in rows:
        print(row.format())
    return 0 if all(row.matches_reference for row in rows) else 1


def _command_backends(arguments) -> int:
    import json

    from repro.backends import backend_info, registered_backends

    as_json = getattr(arguments, "json", False)
    registry = [
        {
            "name": name,
            "available": backend_info(name).available,
            "dialect": backend_info(name).backend_class.dialect.name,
            "description": backend_info(name).description,
        }
        for name in registered_backends()
    ]
    if not as_json:
        for entry in registry:
            status = "available" if entry["available"] else "unavailable"
            detail = f"  — {entry['description']}" if entry["description"] else ""
            print(f"{entry['name']:15} [{status}]  dialect={entry['dialect']}{detail}")
    stats_document = None
    if getattr(arguments, "stats", False):
        stats_document = _collect_backend_stats(arguments.rows, echo=not as_json)
    if as_json:
        document = {"backends": registry}
        if stats_document is not None:
            document.update(stats_document)
        print(json.dumps(document, indent=2))
    return 0


def _collect_backend_stats(rows_per_table: int, echo: bool = True) -> dict:
    """Run the standard workload twice; report cache + timing counters.

    The second round should be all cache hits — the visible proof that the
    optimizer's (costlier) level-2 planning is paid once per query text.
    Returns the machine-readable document (``repro backends --stats --json``);
    with *echo* the human-format tables are printed as before.
    """
    from repro.backends import GraphitiService
    from repro.backends.comparison import DEFAULT_SCHEMA, DEFAULT_WORKLOAD

    with GraphitiService(DEFAULT_SCHEMA) as service:
        service.load_mock(rows_per_table)
        for _ in range(2):
            for text in DEFAULT_WORKLOAD.values():
                service.run(text)
        # The legacy "cache" keys are now a *view* over the metrics
        # registry (same numbers the CacheInfo counters report — every
        # lookup passes through prepare(), which feeds both).
        snapshot = service.metrics.snapshot()
        cache_series = snapshot.get("repro_transpile_cache_total", {}).get(
            "series", []
        )

        def cache_count(result: str) -> int:
            return int(
                sum(
                    entry["value"]
                    for entry in cache_series
                    if entry["labels"].get("tier") == "memory"
                    and entry["labels"].get("result") == result
                )
            )

        info = service.cache_info()
        queries = []
        for stat in service.query_stats():
            label = next(
                (k for k, v in DEFAULT_WORKLOAD.items() if v == stat.cypher_text),
                stat.cypher_text[:30],
            )
            queries.append(
                {
                    "label": label,
                    "cypher": stat.cypher_text,
                    "executions": stat.executions,
                    "mean_ms": round(stat.mean_seconds * 1000, 3),
                    "p50_ms": round(stat.p50_seconds * 1000, 3),
                    "p95_ms": round(stat.p95_seconds * 1000, 3),
                    "last_ms": round(stat.last_seconds * 1000, 3),
                }
            )
        document = {
            "meta": {
                "rows_per_table": rows_per_table,
                "rounds": 2,
                # "cache" stays for old consumers; new ones read "metrics".
                "note": "'cache' is a compatibility view over the 'metrics' "
                "registry snapshot; 'queries' is per-text accounting "
                "(query_stats()) that no registry series holds",
            },
            "opt_level": service.opt_level,
            "cache": {
                "hits": cache_count("hit"),
                "misses": cache_count("miss"),
                "currsize": info.currsize,
                "maxsize": info.maxsize,
            },
            "queries": queries,
            "metrics": snapshot,
        }
        if echo:
            print()
            print(f"== transpilation cache (opt level {service.opt_level}) ==")
            print(
                f"hits={info.hits} misses={info.misses} "
                f"size={info.currsize}/{info.maxsize}"
            )
            print()
            print("== per-query timings ==")
            for row in queries:
                print(
                    f"{row['label']:10} runs={row['executions']}  "
                    f"mean={row['mean_ms']:7.2f} ms  "
                    f"p50={row['p50_ms']:7.2f} ms  "
                    f"p95={row['p95_ms']:7.2f} ms  "
                    f"last={row['last_ms']:7.2f} ms"
                )
        return document


def _command_check(arguments) -> int:
    from repro.common.errors import GraphitiError

    try:
        return _check(arguments)
    except GraphitiError as error:
        # Exit 1 is the verdict "not-equivalent"; an unusable input is 2.
        print(str(error), file=sys.stderr)
        return 2


def _check(arguments) -> int:
    if arguments.benchmark:
        from repro.benchmarks.suite import benchmark_suite

        matches = [b for b in benchmark_suite() if b.id == arguments.benchmark]
        if not matches:
            raise SystemExit(f"unknown benchmark id {arguments.benchmark!r}")
        benchmark = matches[0]
        graph_schema = benchmark.graph_schema
        relational_schema = benchmark.relational_schema
        transformer = benchmark.transformer
        cypher = benchmark.cypher_query
        sql = benchmark.sql_query
        print(f"benchmark {benchmark.id} "
              f"(expected {'equivalent' if benchmark.expected_equivalent else 'NOT equivalent'})")
    else:
        required = ("graph_schema", "relational_schema", "transformer", "cypher", "sql")
        missing = [name for name in required if getattr(arguments, name) is None]
        if missing:
            raise SystemExit(
                "missing arguments: " + ", ".join(f"--{m.replace('_', '-')}" for m in missing)
            )
        graph_schema = parse_graph_schema(arguments.graph_schema.read_text())
        relational_schema = parse_relational_schema(
            arguments.relational_schema.read_text()
        )
        transformer = parse_transformer(arguments.transformer.read_text())
        cypher = parse_cypher(arguments.cypher, graph_schema)
        sql = parse_sql(arguments.sql)

    if arguments.backend == "bounded":
        checker = BoundedChecker(
            max_bound=arguments.max_bound,
            samples_per_bound=arguments.samples,
            time_budget_seconds=arguments.budget,
        )
    else:
        checker = DeductiveChecker(time_budget_seconds=arguments.budget)

    result = check_equivalence(
        graph_schema, cypher, relational_schema, sql, transformer, checker
    )
    print(f"verdict: {result.verdict.value}")
    if result.outcome.detail:
        print(f"detail:  {result.outcome.detail}")
    if result.verdict is Verdict.BOUNDED_EQUIVALENT:
        print(
            f"checked bound {result.outcome.checked_bound} "
            f"({result.outcome.instances_checked} instances, "
            f"{result.outcome.elapsed_seconds:.2f}s)"
        )
    if result.counterexample is not None:
        print(result.counterexample.describe())
    return 0 if result.verdict is not Verdict.NOT_EQUIVALENT else 1


def _command_tables(arguments) -> int:
    from repro.benchmarks import evaluation

    if arguments.table == "1":
        rows = evaluation.table1_statistics()
    elif arguments.table == "2":
        rows = evaluation.table2_bounded()
    elif arguments.table == "3":
        rows = evaluation.table3_deductive()
    elif arguments.table == "4":
        rows = evaluation.table4_execution()
    elif arguments.table == "5":
        rows = evaluation.table5_baseline()
    else:
        print(evaluation.transpilation_speed().format())
        return 0
    for row in rows:
        print(row.format())
    return 0


def _command_suite(arguments) -> int:
    from repro.benchmarks.suite import benchmark_suite

    for benchmark in benchmark_suite():
        marker = "=" if benchmark.expected_equivalent else "≠"
        bug = f"  [{benchmark.bug_class}]" if benchmark.bug_class else ""
        print(f"{marker} {benchmark.id:55} {benchmark.category}{bug}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
