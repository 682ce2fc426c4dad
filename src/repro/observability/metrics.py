"""A metrics registry: counters, gauges, histograms, slow-query log.

The :class:`MetricsRegistry` is the one place to scrape the serving
stack's numeric telemetry.  The ``cache`` block of ``repro backends --stats
--json`` is a compatibility *view* over its cache counters, kept so old
consumers keep working.  Two surfaces keep their own accounting instead:
:class:`~repro.backends.service.CacheInfo` holds the LRU's own hit and
miss counts (the registry counts the same events separately), and the
per-query :class:`~repro.backends.service.QueryStat` percentiles are
per-text accounting (``query_stats()``) that no registry series holds.

Design points (all stdlib):

* every metric supports labels (``counter.inc(backend="duckdb")``);
  a label-less series is just the empty label set.  Hot paths bind a
  series once with :meth:`Counter.labels` / :meth:`Histogram.labels`
  (as ``prometheus_client`` does) and update the returned child, which
  skips the per-call label sort; the keyword forms go through the same
  children, so there is one update path.  A bound series appears in the
  exports on its first update, exactly as a keyword update would add it;
* a gauge series can be computed when it is read
  (:meth:`Gauge.set_function`) instead of being set on every change;
* a counter of events that a histogram observes one each of is read from
  that histogram's per-label-set counts when it is scraped
  (:meth:`MetricsRegistry.counter_of`, a :class:`HistogramCount`), so each
  event costs one update: ``repro_queries_total`` reads
  ``repro_query_seconds``, and ``repro_pool_checkouts_total`` reads
  ``repro_pool_checkout_wait_seconds``.  Its series appear with the
  histogram's, and read as any counter's;
* metrics are created idempotently through the registry
  (:meth:`MetricsRegistry.counter` returns the existing metric on a
  repeat call, and raises if the name is already taken by another type);
* :meth:`MetricsRegistry.snapshot` returns a JSON-able dict,
  :meth:`MetricsRegistry.to_prometheus` the text exposition format
  (``# HELP`` / ``# TYPE`` / sample lines, histogram ``_bucket`` series
  with cumulative counts and an ``+Inf`` bound) that a Prometheus server
  scrapes as-is;
* the :class:`SlowQueryLog` is a bounded ring buffer of the slowest
  recent executions — the first place to look when p95 jumps.

Thread-safety: one lock per metric family, taken for the few dict
operations an update needs; the registry lock only guards creation.  A
bound child shares its family's lock and storage, so child and keyword
updates of one series serialise on that lock and never lose an update.
Gauge functions run at read time outside the lock, on the reading
thread: they must be safe to call from any thread.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

#: Default histogram bucket upper bounds, in seconds (latency-shaped).
DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Bucket upper bounds for ratio-shaped observations (q-error of estimate
#: vs actual rows: ``max(a/e, e/a)``, so every sample is ≥ 1).  Powers of
#: two up to 1024× — anything past that is "the estimator was not even
#: wrong" and lands in +Inf.
RATIO_BUCKETS = (
    1.0,
    2.0,
    4.0,
    8.0,
    16.0,
    32.0,
    64.0,
    128.0,
    256.0,
    512.0,
    1024.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: _LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"' for name, value in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared naming/locking plumbing for all three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()


class CounterChild:
    """One label set of a :class:`Counter`, bound by :meth:`Counter.labels`."""

    __slots__ = ("_name", "_lock", "_values", "_key")

    def __init__(self, counter: "Counter", key: _LabelKey) -> None:
        self._name = counter.name
        self._lock = counter._lock
        self._values = counter._values
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self._name!r} cannot decrease ({amount})")
        key = self._key
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Counter(_Metric):
    """A monotonically increasing count (per label set)."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._values: dict[_LabelKey, float] = {}

    def labels(self, **labels: object) -> CounterChild:
        """The series for *labels*, bound once for repeated updates."""
        return CounterChild(self, _label_key(labels))

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set (convenience for views)."""
        with self._lock:
            return sum(self._values.values())

    def series(self) -> list[tuple[_LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())


class HistogramCount(Counter):
    """A counter whose series are *histogram*'s per-label-set observation
    counts, read when it is read: for an event that is always observed
    once in *histogram*, so the event is not counted twice.  It cannot be
    incremented; observe the histogram instead."""

    def __init__(self, name: str, help_text: str, histogram: "Histogram") -> None:
        super().__init__(name, help_text)
        self.histogram = histogram

    def labels(self, **labels: object) -> CounterChild:
        raise TypeError(
            f"counter {self.name!r} reads the counts of histogram "
            f"{self.histogram.name!r}: observe that histogram instead"
        )

    def value(self, **labels: object) -> float:
        return float(self.histogram.count(**labels))

    def total(self) -> float:
        return float(sum(value for _, value in self.series()))

    def series(self) -> list[tuple[_LabelKey, float]]:
        return [(key, float(count)) for key, (_, count, _) in self.histogram.series()]


class Gauge(_Metric):
    """A value that goes up and down (pool size, in-use connections)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._values: dict[_LabelKey, float] = {}
        self._functions: dict[_LabelKey, Callable[[], float]] = {}

    def set(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._functions.pop(key, None)
            self._values[key] = float(value)

    def set_function(self, function: Callable[[], float], **labels: object) -> None:
        """Report ``function()`` for *labels* whenever the gauge is read,
        until a later :meth:`set`, :meth:`inc` or :meth:`dec` of the same
        series stores a value in its place."""
        key = _label_key(labels)
        with self._lock:
            self._values.pop(key, None)
            self._functions[key] = function

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._functions.pop(key, None)
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        key = _label_key(labels)
        with self._lock:
            function = self._functions.get(key)
            if function is None:
                return self._values.get(key, 0.0)
        return float(function())

    def series(self) -> list[tuple[_LabelKey, float]]:
        with self._lock:
            values = dict(self._values)
            functions = list(self._functions.items())
        values.update((key, float(function())) for key, function in functions)
        return sorted(values.items())


class HistogramChild:
    """One label set of a :class:`Histogram`, bound by :meth:`Histogram.labels`."""

    __slots__ = ("_buckets", "_lock", "_series", "_key")

    def __init__(self, histogram: "Histogram", key: _LabelKey) -> None:
        self._buckets = histogram.buckets
        self._lock = histogram._lock
        self._series = histogram._series
        self._key = key

    def observe(self, value: float) -> None:
        buckets = self._buckets
        index = bisect_left(buckets, value)
        key = self._key
        with self._lock:
            entry = self._series.get(key)
            if entry is None:
                entry = self._series[key] = [[0] * len(buckets), 0, 0.0]
            # ``NaN`` fails every comparison, so bisection alone would put
            # it in the first bucket; the bound check leaves it in ``+Inf``
            # only, like a value above the top bound.
            if index < len(buckets) and value <= buckets[index]:
                entry[0][index] += 1
            entry[1] += 1
            entry[2] += value


class Histogram(_Metric):
    """Cumulative-bucket latency histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text)
        self.buckets = tuple(sorted(buckets))
        # per label set: [[count per finite bucket], count, sum]
        self._series: dict[_LabelKey, list] = {}

    def labels(self, **labels: object) -> HistogramChild:
        """The series for *labels*, bound once for repeated observations."""
        return HistogramChild(self, _label_key(labels))

    def observe(self, value: float, **labels: object) -> None:
        self.labels(**labels).observe(value)

    def count(self, **labels: object) -> int:
        with self._lock:
            entry = self._series.get(_label_key(labels))
            return entry[1] if entry else 0

    def sum(self, **labels: object) -> float:
        with self._lock:
            entry = self._series.get(_label_key(labels))
            return entry[2] if entry else 0.0

    def series(self) -> list[tuple[_LabelKey, tuple[list[int], int, float]]]:
        with self._lock:
            return sorted(
                (key, (list(counts), count, total))
                for key, (counts, count, total) in self._series.items()
            )


@dataclass(frozen=True)
class SlowQuery:
    """One slow-query log entry."""

    cypher_text: str
    backend: str
    seconds: float
    recorded_at: float
    attributes: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "cypher": self.cypher_text,
            "backend": self.backend,
            "ms": round(self.seconds * 1000.0, 3),
            "recorded_at": self.recorded_at,
            "attributes": dict(self.attributes),
        }


class SlowQueryLog:
    """Bounded ring buffer of executions slower than *threshold_seconds*."""

    def __init__(self, capacity: int = 64, threshold_seconds: float = 0.25) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.threshold_seconds = threshold_seconds
        self._lock = threading.Lock()
        self._entries: deque[SlowQuery] = deque(maxlen=capacity)

    def record(
        self, cypher_text: str, backend: str, seconds: float, **attributes: object
    ) -> bool:
        """Log the execution if it breached the threshold; ``True`` if kept."""
        if seconds < self.threshold_seconds:
            return False
        entry = SlowQuery(cypher_text, backend, seconds, time.time(), dict(attributes))
        with self._lock:
            self._entries.append(entry)
        return True

    def entries(self) -> tuple[SlowQuery, ...]:
        """Retained entries, oldest first."""
        with self._lock:
            return tuple(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class MetricsRegistry:
    """Creates and holds metrics; snapshots them as JSON or Prometheus text."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # -- creation (idempotent) ----------------------------------------------

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = Histogram(name, help_text, buckets)
            self._metrics[name] = metric
            return metric

    def counter_of(
        self, name: str, help_text: str, histogram: Histogram
    ) -> HistogramCount:
        """The counter *name* whose series are *histogram*'s per-label-set
        counts (see :class:`HistogramCount`); a repeat call returns it."""
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (
                    not isinstance(existing, HistogramCount)
                    or existing.histogram is not histogram
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = HistogramCount(name, help_text, histogram)
            self._metrics[name] = metric
            return metric

    def _get_or_create(self, cls, name: str, help_text: str):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help_text)
            self._metrics[name] = metric
            return metric

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> tuple[_Metric, ...]:
        with self._lock:
            return tuple(self._metrics[name] for name in sorted(self._metrics))

    # -- export -------------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-able snapshot of every metric's current series."""
        document: dict[str, dict] = {}
        for metric in self.metrics():
            if isinstance(metric, Histogram):
                series = [
                    {
                        "labels": dict(key),
                        "count": count,
                        "sum": round(total, 9),
                        "buckets": {
                            _format_value(bound): bucket_count
                            for bound, bucket_count in zip(metric.buckets, counts)
                        },
                    }
                    for key, (counts, count, total) in metric.series()
                ]
            else:
                series = [
                    {"labels": dict(key), "value": value}
                    for key, value in metric.series()
                ]
            document[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "series": series,
            }
        return document

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for metric in self.metrics():
            if metric.help:
                lines.append(f"# HELP {metric.name} {_escape(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for key, (counts, count, total) in metric.series():
                    cumulative = 0
                    for bound, bucket_count in zip(metric.buckets, counts):
                        cumulative += bucket_count
                        label_text = _render_labels(
                            key, (("le", _format_value(bound)),)
                        )
                        lines.append(
                            f"{metric.name}_bucket{label_text} {cumulative}"
                        )
                    label_text = _render_labels(key, (("le", "+Inf"),))
                    lines.append(f"{metric.name}_bucket{label_text} {count}")
                    lines.append(
                        f"{metric.name}_sum{_render_labels(key)} "
                        f"{_format_value(total)}"
                    )
                    lines.append(f"{metric.name}_count{_render_labels(key)} {count}")
            else:
                for key, value in metric.series():
                    lines.append(
                        f"{metric.name}{_render_labels(key)} {_format_value(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")
