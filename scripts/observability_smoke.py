"""CI observability smoke: one traced query per backend, span-shape checked.

For every available execution backend this script runs a variable-length
traversal query under a real tracer (the ``repro explain`` path), asserts
the span tree has the expected shape — a ``query`` root with
``query.prepare`` (containing ``cache.lookup``), ``pool.checkout``, and
``execute`` stages, every span closed, every child inside its parent's
time bounds — round-trips the trace through JSON, checks the Prometheus
exposition renders with each counter read from a histogram's count
present per backend and equal to that ``_count``, and writes the metrics
snapshot artifact (``METRICS_observability.json``) that CI uploads next
to the perf baselines.

Run::

    python scripts/observability_smoke.py [--rows N] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.backends.registry import available_backends  # noqa: E402
from repro.backends.service import GraphitiService  # noqa: E402
from repro.benchmarks.universes import SOCIAL  # noqa: E402
from repro.observability.explain import explain_query  # noqa: E402
from repro.observability.tracing import span_from_dict  # noqa: E402

QUERY = "MATCH (a:USER)-[:FOLLOWS*1..2]->(b:USER) RETURN b.uname"

#: Each counter the registry reports from a histogram's counts.
COUNTED = (
    ("repro_queries_total", "repro_query_seconds"),
    ("repro_pool_checkouts_total", "repro_pool_checkout_wait_seconds"),
)


def fail(message: str) -> None:
    raise SystemExit(f"observability smoke FAILED: {message}")


def check_span_tree(trace, backend: str) -> None:
    """The structural contract of one traced execution."""
    if trace.name != "query":
        fail(f"[{backend}] root span is {trace.name!r}, expected 'query'")
    prepare = trace.find("query.prepare")
    if prepare is None:
        fail(f"[{backend}] no query.prepare span under the root")
    if prepare.find("cache.lookup") is None:
        fail(f"[{backend}] no cache.lookup span under query.prepare")
    for stage in ("pool.checkout", "execute"):
        span = trace.find(stage)
        if span is None:
            fail(f"[{backend}] no {stage} span in the trace")
        if span.attributes.get("backend") != backend:
            fail(f"[{backend}] {stage} span labelled {span.attributes!r}")
    for span in trace.walk():
        if span.end is None:
            fail(f"[{backend}] span {span.name!r} never closed")
        for child in span.children:
            # A tolerance of 0 would be wrong only if clocks misbehaved;
            # children must start and end inside their parent.
            if child.start < span.start or child.end > span.end:
                fail(
                    f"[{backend}] child {child.name!r} outside parent "
                    f"{span.name!r} bounds"
                )


def check_counted_once(exposition: str, backends) -> None:
    """Each counter of :data:`COUNTED` has a sample per backend, equal to
    its histogram's ``_count`` sample."""
    samples = {}
    for line in exposition.splitlines():
        if line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            samples[series] = value
    for backend in backends:
        labels = f'{{backend="{backend}"}}'
        for counter, histogram in COUNTED:
            value = samples.get(counter + labels)
            if value is None:
                fail(f"[{backend}] {counter} is missing from the exposition")
            count = samples.get(f"{histogram}_count{labels}")
            if value != count:
                fail(
                    f"[{backend}] {counter} reads {value}, "
                    f"but {histogram}_count reads {count}"
                )


def check_json_round_trip(report, backend: str) -> dict:
    document = report.to_dict()
    encoded = json.dumps(document)  # must be JSON-able as-is
    rebuilt = span_from_dict(json.loads(encoded)["trace"])
    original = [(s.name, s.attributes) for s in report.trace.walk()]
    recovered = [(s.name, s.attributes) for s in rebuilt.walk()]
    if original != recovered:
        fail(f"[{backend}] trace did not survive the JSON round trip")
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=200, help="mock rows per table")
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "METRICS_observability.json",
        help="metrics artifact path",
    )
    arguments = parser.parse_args(argv)
    backends = available_backends()
    if not backends:
        fail("no execution backends available")
    per_backend: dict[str, dict] = {}
    with GraphitiService(SOCIAL.graph_schema) as service:
        service.load_mock(arguments.rows)
        for name in backends:
            report = explain_query(service, QUERY, backend=name)
            check_span_tree(report.trace, name)
            document = check_json_round_trip(report, name)
            per_backend[name] = {
                "rows": report.rows,
                "span_names": [span.name for span in report.trace.walk()],
                "trace_ms": round(report.trace.duration_ms, 3),
                "plan": document["plan"],
            }
            print(
                f"{name:15} ok: {len(per_backend[name]['span_names'])} spans, "
                f"{report.rows} rows, {report.trace.duration_ms:.2f} ms"
            )
        exposition = service.metrics.to_prometheus()
        if "# TYPE repro_queries_total counter" not in exposition:
            fail("Prometheus exposition is missing the query counter")
        check_counted_once(exposition, backends)
        artifact = {
            "query": QUERY,
            "rows_per_table": arguments.rows,
            "backends": per_backend,
            "metrics": service.metrics.snapshot(),
            "prometheus_lines": len(exposition.splitlines()),
        }
    arguments.out.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {arguments.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
