"""MetricsRegistry semantics: instruments, snapshots, Prometheus exposition."""

from __future__ import annotations

import json
import math
import re
import sys
import threading

import pytest

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SlowQueryLog,
)


class TestCounter:
    def test_inc_and_value_per_label_set(self):
        counter = Counter("c")
        counter.inc(backend="a")
        counter.inc(2, backend="a")
        counter.inc(backend="b")
        assert counter.value(backend="a") == 3
        assert counter.value(backend="b") == 1
        assert counter.value(backend="missing") == 0
        assert counter.total() == 4

    def test_label_order_is_irrelevant(self):
        counter = Counter("c")
        counter.inc(x="1", y="2")
        assert counter.value(y="2", x="1") == 1

    def test_negative_increment_rejected(self):
        counter = Counter("c")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_concurrent_increments_exact(self):
        """Keyword updates, a bound counter child and a bound histogram
        child, hammered together with rapid thread switching, lose no
        update: child and keyword forms share one lock per family."""
        counter = Counter("c")
        histogram = Histogram("h", buckets=(0.5,))
        bound = counter.labels(backend="x")
        bound_histogram = histogram.labels(backend="x")

        def hammer():
            for _ in range(500):
                counter.inc(backend="x")
                bound.inc()
                bound_histogram.observe(0.25)
                histogram.observe(1.0, backend="x")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert counter.value(backend="x") == 16 * 500 * 2
        assert histogram.count(backend="x") == 16 * 500 * 2
        assert histogram.sum(backend="x") == 16 * 500 * 1.25
        ((_, (counts, _, _)),) = histogram.series()
        assert counts == [16 * 500]


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(5, pool="p")
        gauge.inc(pool="p")
        gauge.dec(2, pool="p")
        assert gauge.value(pool="p") == 4

    def test_set_function_is_read_at_scrape_time(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        state = {"value": 1}
        gauge.set_function(lambda: state["value"], pool="p")
        assert gauge.value(pool="p") == 1
        state["value"] = 7
        assert gauge.value(pool="p") == 7
        assert 'g{pool="p"} 7' in registry.to_prometheus()

    def test_set_replaces_an_earlier_set_function(self):
        gauge = Gauge("g")
        gauge.set_function(lambda: 99, pool="p")
        gauge.set(3, pool="p")
        assert gauge.value(pool="p") == 3
        assert gauge.series() == [((("pool", "p"),), 3.0)]


class TestHistogram:
    def test_count_sum_and_bucketing(self):
        histogram = Histogram("h", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count() == 3
        assert histogram.sum() == pytest.approx(5.55)
        ((_, (counts, count, total)),) = histogram.series()
        assert counts == [1, 1]  # 5.0 is over the top finite bucket
        assert count == 3

    def test_buckets_are_sorted(self):
        histogram = Histogram("h", buckets=(1.0, 0.1))
        assert histogram.buckets == (0.1, 1.0)


def _record_fixed_sequence(registry: MetricsRegistry, bound: bool) -> None:
    """One fixed sequence of updates, through the keyword forms or through
    bound children: a value exactly on a bucket bound, one just above it,
    one above the top bound, a negative value, and NaN."""
    counter = registry.counter("repro_events_total", "Events.")
    histogram = registry.histogram(
        "repro_latency_seconds", "Latency.", buckets=(0.1, 1.0, 10.0)
    )

    def inc(amount: float, **labels: object) -> None:
        if bound:
            counter.labels(**labels).inc(amount)
        else:
            counter.inc(amount, **labels)

    def observe(value: float, **labels: object) -> None:
        if bound:
            histogram.labels(**labels).observe(value)
        else:
            histogram.observe(value, **labels)

    inc(1, backend="a")
    inc(2.5, backend="a")
    inc(1, result="hit", tier="memory")
    inc(0, backend="b")
    inc(3)
    for value in (1.0, 1.0000001, 50.0, -2.0, 0.1):
        observe(value, backend="a")
    observe(math.nan, backend="nan")
    observe(0.5, tier="memory", result="hit")


#: The exports the fixed sequence must produce: series in label order,
#: each value counted in the first bucket whose bound is at or above it,
#: and NaN, like a value above the top bound, counted only in ``+Inf``.
_FIXED_SEQUENCE_PROMETHEUS = """\
# HELP repro_events_total Events.
# TYPE repro_events_total counter
repro_events_total 3
repro_events_total{backend="a"} 3.5
repro_events_total{backend="b"} 0
repro_events_total{result="hit",tier="memory"} 1
# HELP repro_latency_seconds Latency.
# TYPE repro_latency_seconds histogram
repro_latency_seconds_bucket{backend="a",le="0.1"} 2
repro_latency_seconds_bucket{backend="a",le="1"} 3
repro_latency_seconds_bucket{backend="a",le="10"} 4
repro_latency_seconds_bucket{backend="a",le="+Inf"} 5
repro_latency_seconds_sum{backend="a"} 50.1000001
repro_latency_seconds_count{backend="a"} 5
repro_latency_seconds_bucket{backend="nan",le="0.1"} 0
repro_latency_seconds_bucket{backend="nan",le="1"} 0
repro_latency_seconds_bucket{backend="nan",le="10"} 0
repro_latency_seconds_bucket{backend="nan",le="+Inf"} 1
repro_latency_seconds_sum{backend="nan"} nan
repro_latency_seconds_count{backend="nan"} 1
repro_latency_seconds_bucket{result="hit",tier="memory",le="0.1"} 0
repro_latency_seconds_bucket{result="hit",tier="memory",le="1"} 1
repro_latency_seconds_bucket{result="hit",tier="memory",le="10"} 1
repro_latency_seconds_bucket{result="hit",tier="memory",le="+Inf"} 1
repro_latency_seconds_sum{result="hit",tier="memory"} 0.5
repro_latency_seconds_count{result="hit",tier="memory"} 1
"""

_FIXED_SEQUENCE_SNAPSHOT = {
    "repro_events_total": {
        "help": "Events.",
        "type": "counter",
        "series": [
            {"labels": {}, "value": 3.0},
            {"labels": {"backend": "a"}, "value": 3.5},
            {"labels": {"backend": "b"}, "value": 0.0},
            {"labels": {"result": "hit", "tier": "memory"}, "value": 1.0},
        ],
    },
    "repro_latency_seconds": {
        "help": "Latency.",
        "type": "histogram",
        "series": [
            {
                "labels": {"backend": "a"},
                "count": 5,
                "sum": 50.1000001,
                "buckets": {"0.1": 2, "1": 1, "10": 1},
            },
            {
                "labels": {"backend": "nan"},
                "count": 1,
                "sum": math.nan,
                "buckets": {"0.1": 0, "1": 0, "10": 0},
            },
            {
                "labels": {"result": "hit", "tier": "memory"},
                "count": 1,
                "sum": 0.5,
                "buckets": {"0.1": 0, "1": 1, "10": 0},
            },
        ],
    },
}


class TestBoundChildren:
    @pytest.mark.parametrize("bound", [False, True], ids=["keyword", "bound"])
    def test_keyword_and_bound_updates_export_identically(self, bound):
        registry = MetricsRegistry()
        _record_fixed_sequence(registry, bound)
        assert registry.to_prometheus() == _FIXED_SEQUENCE_PROMETHEUS
        # JSON text, so the NaN sum compares equal to itself.
        assert json.dumps(registry.snapshot(), sort_keys=True) == json.dumps(
            _FIXED_SEQUENCE_SNAPSHOT, sort_keys=True
        )

    def test_binding_alone_exports_nothing(self):
        registry = MetricsRegistry()
        registry.counter("c").labels(backend="a")
        registry.histogram("h").labels(backend="a")
        assert registry.snapshot()["c"]["series"] == []
        assert registry.snapshot()["h"]["series"] == []


class TestHistogramCount:
    """A counter that reports a histogram's per-label-set counts."""

    def test_reads_the_histogram_counts_as_a_counter(self):
        registry = MetricsRegistry()
        seconds = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        registry.counter_of("h_total", "Events.", seconds)
        for value, backend in ((0.05, "a"), (0.5, "a"), (5.0, "b")):
            seconds.labels(backend=backend).observe(value)
        counter = registry.counter("h_total")  # the same family
        assert counter.value(backend="a") == 2.0
        assert counter.value(backend="c") == 0.0
        assert counter.total() == 3.0
        snapshot = registry.snapshot()
        assert snapshot["h_total"] == {
            "type": "counter",
            "help": "Events.",
            "series": [
                {"labels": {"backend": "a"}, "value": 2.0},
                {"labels": {"backend": "b"}, "value": 1.0},
            ],
        }
        text = registry.to_prometheus()
        assert "# TYPE h_total counter" in text
        assert 'h_total{backend="a"} 2\n' in text
        assert 'h_seconds_count{backend="a"} 2\n' in text

    def test_a_series_appears_with_the_histograms(self):
        registry = MetricsRegistry()
        seconds = registry.histogram("h_seconds")
        registry.counter_of("h_total", "", seconds)
        seconds.labels(backend="a")  # bound, never observed
        assert registry.snapshot()["h_total"]["series"] == []

    def test_creation_is_idempotent_and_guarded(self):
        registry = MetricsRegistry()
        seconds = registry.histogram("h_seconds")
        counter = registry.counter_of("h_total", "", seconds)
        assert registry.counter_of("h_total", "", seconds) is counter
        with pytest.raises(ValueError, match="already registered"):
            registry.counter_of("h_total", "", registry.histogram("other"))
        registry.counter("plain")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.counter_of("plain", "", seconds)

    def test_cannot_be_incremented(self):
        registry = MetricsRegistry()
        counter = registry.counter_of("h_total", "", registry.histogram("h"))
        with pytest.raises(TypeError, match="observe that histogram"):
            counter.inc(backend="a")


class TestRegistry:
    def test_idempotent_creation_returns_same_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("requests", "help")
        again = registry.counter("requests")
        assert first is again

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("m")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.histogram("m")

    def test_snapshot_is_json_able(self):
        registry = MetricsRegistry()
        registry.counter("c", "a counter").inc(backend="b")
        registry.gauge("g").set(2.5)
        registry.histogram("h", buckets=(0.1, 1.0)).observe(0.05)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must serialize as-is
        assert snapshot["c"]["type"] == "counter"
        assert snapshot["c"]["series"] == [
            {"labels": {"backend": "b"}, "value": 1.0}
        ]
        assert snapshot["h"]["series"][0]["count"] == 1
        assert snapshot["h"]["series"][0]["buckets"]["0.1"] == 1


#: One Prometheus sample line: name, optional {labels}, numeric value.
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (\+Inf|-?[0-9.e+-]+)$"
)


class TestPrometheusExposition:
    def make_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("repro_queries_total", "Executions.").inc(
            3, backend="sqlite-memory"
        )
        registry.gauge("repro_pool_size", "Members.").set(2, backend="duckdb")
        histogram = registry.histogram(
            "repro_query_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value, backend="duckdb")
        return registry

    def test_every_line_parses(self):
        text = self.make_registry().to_prometheus()
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert _SAMPLE.match(line), f"unparseable sample line: {line!r}"

    def test_type_lines_precede_samples(self):
        lines = self.make_registry().to_prometheus().splitlines()
        seen_types = {}
        for line in lines:
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                seen_types[name] = kind
        assert seen_types == {
            "repro_pool_size": "gauge",
            "repro_queries_total": "counter",
            "repro_query_seconds": "histogram",
        }

    def test_histogram_buckets_cumulative_with_inf(self):
        text = self.make_registry().to_prometheus()
        buckets = {
            match.group(1): float(match.group(2))
            for match in re.finditer(
                r'repro_query_seconds_bucket\{backend="duckdb",le="([^"]+)"\} (\d+)',
                text,
            )
        }
        assert buckets == {"0.1": 1, "1": 2, "+Inf": 3}
        assert 'repro_query_seconds_count{backend="duckdb"} 3' in text
        sum_line = next(
            line
            for line in text.splitlines()
            if line.startswith("repro_query_seconds_sum")
        )
        assert float(sum_line.rsplit(" ", 1)[1]) == pytest.approx(5.55)

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(q='say "hi"\nplease\\now')
        text = registry.to_prometheus()
        assert '\\"hi\\"' in text
        assert "\\n" in text
        assert "\\\\now" in text

    def test_infinite_value_renders_plus_inf(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(math.inf)
        assert "g +Inf" in registry.to_prometheus()

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestSlowQueryLog:
    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_seconds=0.1)
        assert not log.record("fast", "b", 0.05)
        assert log.record("slow", "b", 0.2, rows=4)
        (entry,) = log.entries()
        assert entry.cypher_text == "slow"
        assert entry.attributes == {"rows": 4}
        assert entry.to_dict()["ms"] == 200.0

    def test_capacity_bounds_ring(self):
        log = SlowQueryLog(capacity=2, threshold_seconds=0.0)
        for index in range(4):
            log.record(f"q{index}", "b", 1.0)
        assert [entry.cypher_text for entry in log.entries()] == ["q2", "q3"]

    def test_clear(self):
        log = SlowQueryLog(threshold_seconds=0.0)
        log.record("q", "b", 1.0)
        log.clear()
        assert log.entries() == ()

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            SlowQueryLog(capacity=0)
