"""Hierarchical query-lifecycle tracing (stdlib only).

A :class:`Tracer` produces :class:`Span` trees: every service entry point
opens a root span (``query``, ``query.batch``), and the stages underneath
— transpilation, cache lookups, pool checkouts, engine execution — open
children.  Completed root spans are retained in a bounded ring buffer
(:meth:`Tracer.traces`), so a long-lived tracer never grows without bound.

Parenting works two ways, and both are concurrency-correct:

* **implicitly** through a :class:`~contextvars.ContextVar`: entering a
  span makes it the *current* span for the calling thread (or asyncio
  task — tasks copy their creation context, so sibling tasks can never
  see each other's spans), and nested spans attach to it;
* **explicitly** via ``tracer.span(name, parent=span)``: fan-out code
  (``run_many`` worker threads, ``asyncio.gather`` branches) passes the
  batch span across the thread/task boundary, so each branch's spans
  parent under the batch root without interleaving into one another.

The cost discipline: the default tracer is :data:`NOOP_TRACER`, whose
``span`` returns one shared, attribute-dropping context manager — no
allocation, no clock reads, no lock.  Even so, a ``with`` statement makes
three Python-level calls (``span``, ``__enter__``, ``__exit__``) and
builds its keyword dict whatever the span does, so the rule has two
parts:

* a span site on the warm serving path — ``query``, ``query.prepare``,
  ``cache.lookup`` (memory tier), ``pool.checkout`` and ``execute`` —
  opens its span only when ``tracer.enabled``, and otherwise makes the
  call the span wraps directly;
* every other site (a batch, a partition scatter, a downgrade, a
  re-plan, the stages of a cache miss) may call ``tracer.span``
  unconditionally.

A helper that serves both kinds of caller takes the span, the no-op one
included, and guards attributes it would work out by the span's
``recording`` flag (``if span.recording: span.set(...)``).  The
throughput benchmark's traced-vs-untraced lane keeps this honest (see
``BENCH_throughput.json`` → ``tracing_overhead``), and
``tests/backends/test_hot_path.py`` checks that an untraced warm serve
makes no call into this module.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Iterator

#: The active span of the calling thread/task (implicit parenting).
_CURRENT: ContextVar["Span | None"] = ContextVar("repro_current_span", default=None)

_SPAN_IDS = itertools.count(1)

#: Sentinel distinguishing "no parent passed" from "parent=None" (forced root).
_UNSET = object()


def current_span() -> "Span | None":
    """The span the calling thread/task is currently inside (or ``None``)."""
    return _CURRENT.get()


class Span:
    """One timed stage of a query's life, with attributes and children.

    Spans are created through :meth:`Tracer.span`; they record wall-clock
    bounds from :func:`time.perf_counter`, a free-form attribute dict, and
    the child spans opened while they were current.  Appending children is
    thread-safe under the GIL (``list.append``), which is all the fan-out
    paths need: each worker appends *its own* subtree to the shared parent.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attributes",
        "children",
        "start",
        "end",
    )

    #: Whether :meth:`set` keeps what it is given (see :class:`_NoopSpan`).
    recording = True

    def __init__(
        self,
        name: str,
        parent_id: int | None = None,
        attributes: dict[str, object] | None = None,
    ) -> None:
        self.name = name
        self.span_id = next(_SPAN_IDS)
        self.parent_id = parent_id
        self.attributes: dict[str, object] = dict(attributes) if attributes else {}
        self.children: list[Span] = []
        # perf_counter only: one clock read per span on the hot path (the
        # slow-query log carries wall-clock timestamps where logs need them).
        self.start = time.perf_counter()
        self.end: float | None = None

    # -- recording ----------------------------------------------------------

    def set(self, key: str, value: object) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def event(self, name: str, **attributes: object) -> None:
        """Record a point-in-time child span (zero duration)."""
        child = Span(name, parent_id=self.span_id, attributes=attributes)
        child.end = child.start
        self.children.append(child)

    # -- introspection ------------------------------------------------------

    @property
    def duration_seconds(self) -> float:
        end = self.end if self.end is not None else time.perf_counter()
        return max(end - self.start, 0.0)

    @property
    def duration_ms(self) -> float:
        return self.duration_seconds * 1000.0

    def find(self, name: str) -> "Span | None":
        """First descendant (depth-first, this span included) named *name*."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def find_all(self, name: str) -> list["Span"]:
        """Every descendant (this span included) named *name*, depth-first."""
        return [span for span in self.walk() if span.name == name]

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_ms:.2f} ms, {self.attributes!r})"

    # -- serialization ------------------------------------------------------

    def to_dict(self, _root_start: float | None = None) -> dict:
        """A JSON-able dict; :func:`span_from_dict` round-trips it."""
        root_start = self.start if _root_start is None else _root_start
        return {
            "name": self.name,
            "offset_ms": round((self.start - root_start) * 1000.0, 3),
            "duration_ms": round(self.duration_ms, 3),
            "attributes": dict(self.attributes),
            "children": [child.to_dict(root_start) for child in self.children],
        }


def span_from_dict(document: dict, _base: float = 0.0) -> Span:
    """Rebuild a :class:`Span` tree from :meth:`Span.to_dict` output.

    The rebuilt spans carry synthetic perf-counter bounds that reproduce
    the serialized offsets/durations, so tree shape, names, attributes,
    and timings all survive a JSON round trip.
    """
    span = Span(str(document["name"]), attributes=dict(document.get("attributes", {})))
    span.start = _base + float(document.get("offset_ms", 0.0)) / 1000.0
    span.end = span.start + float(document.get("duration_ms", 0.0)) / 1000.0
    # Offsets are relative to the *root* start, so the base passes through.
    span.children = [
        span_from_dict(child, _base) for child in document.get("children", [])
    ]
    for child in span.children:
        child.parent_id = span.span_id
    return span


class _SpanContext:
    """Context manager entering/exiting one real span."""

    __slots__ = ("_tracer", "_name", "_parent", "_attributes", "_span", "_token")

    def __init__(self, tracer: "Tracer", name: str, parent, attributes) -> None:
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attributes = attributes
        self._span: Span | None = None
        self._token = None

    def __enter__(self) -> Span:
        parent = self._parent
        if parent is _UNSET:
            parent = _CURRENT.get()
        if parent is NOOP_SPAN:
            parent = None
        span = Span(
            self._name,
            parent_id=parent.span_id if isinstance(parent, Span) else None,
            attributes=self._attributes,
        )
        if isinstance(parent, Span):
            parent.children.append(span)
        self._span = span
        self._token = _CURRENT.set(span)
        return span

    def __exit__(self, exc_type, exc, traceback) -> bool:
        span = self._span
        assert span is not None
        span.end = time.perf_counter()
        if exc is not None:
            span.set("error", f"{type(exc).__name__}: {exc}")
        if self._token is not None:
            _CURRENT.reset(self._token)
        if span.parent_id is None:
            self._tracer._record_root(span)
        return False


class Tracer:
    """Collects span trees; completed roots land in a bounded ring buffer.

    ``max_traces`` bounds retention: an always-attached tracer under
    production traffic keeps only the most recent roots.  A tracer is
    cheap to create — ``repro explain`` makes a fresh one per query.
    """

    #: Read by the warm serving path's span sites: ``True`` opens the span.
    enabled = True

    def __init__(self, max_traces: int = 256) -> None:
        self._lock = threading.Lock()
        self._roots: deque[Span] = deque(maxlen=max_traces)

    def span(self, name: str, parent=_UNSET, **attributes: object) -> _SpanContext:
        """Open a span: ``with tracer.span("execute", backend=b) as span:``.

        Without *parent* the span attaches to the calling thread/task's
        current span (or becomes a root).  Passing ``parent=`` explicitly
        re-parents across a thread or task boundary; ``parent=None``
        forces a new root.
        """
        return _SpanContext(self, name, parent, attributes)

    def _record_root(self, span: Span) -> None:
        with self._lock:
            self._roots.append(span)

    def traces(self) -> tuple[Span, ...]:
        """Completed root spans, oldest first."""
        with self._lock:
            return tuple(self._roots)

    def last_trace(self) -> Span | None:
        with self._lock:
            return self._roots[-1] if self._roots else None

    def reset(self) -> None:
        with self._lock:
            self._roots.clear()


class _NoopSpan:
    """The shared do-nothing span: absorbs every recording call."""

    __slots__ = ()

    #: Callers skip computing attributes this span would drop.
    recording = False

    def set(self, key: str, value: object) -> None:
        pass

    def event(self, name: str, **attributes: object) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """The always-off tracer: ``span()`` returns the one shared no-op span.

    This is the default everywhere, which is what makes instrumentation
    safe to leave always-on: the warm serving path reads ``enabled`` and
    opens no span at all, and every other site pays one call returning a
    singleton — no clock, no allocation, no lock.
    """

    #: Read by the warm serving path's span sites: ``False`` skips the span.
    enabled = False

    def span(self, name: str, parent=_UNSET, **attributes: object) -> _NoopSpan:
        return NOOP_SPAN

    def traces(self) -> tuple[Span, ...]:
        return ()

    def last_trace(self) -> None:
        return None

    def reset(self) -> None:
        pass


NOOP_TRACER = NoopTracer()
