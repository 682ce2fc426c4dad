"""Set-up, correctness checks and the timed closed loops of the benchmark.

Everything here drives the public serving API: ``GraphitiService.run`` and
``AsyncGraphitiService.run`` take Cypher text and return a ``Table``.  The
benchmark checks every answer twice over:

* before timing, on a :data:`~workloads.GATE_ROWS`-row instance, one
  instance of every template must be bag-equivalent to the service's
  reference evaluator;
* during timing, every result must equal the raw DB-API fetch of the same
  SQL on an independently loaded engine.

A failed, refused or wrong answer counts as a failed operation; it never
stops the run.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import math
import os
import statistics
import sys
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass

from repro.backends.async_service import AsyncGraphitiService
from repro.backends.registry import load_backend
from repro.backends.service import DEFAULT_BACKEND, GraphitiService, PreparedQuery
from repro.benchmarks.universes import SOCIAL
from repro.common.values import NULL
from repro.core.transpile import transpile
from repro.cypher.parser import parse_cypher
from repro.relational.instance import Table, tables_equivalent
from repro.sql.dialect import SqlDialect
from repro.sql.optimize import optimize
from repro.sql.planner import PlanReport
from repro.sql.pretty import to_sql_text
from repro.sql.stats import DatabaseStats, collect_stats

from workloads import GATE_ROWS, ROWS_PER_TABLE, Workload

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Equal windows a timed run is cut into; see :class:`LoopResult`.
WINDOWS = 25


class WorkloadDrift(RuntimeError):
    """A workload no longer does what its ``why`` sentence claims."""


@dataclass
class Tally:
    """Operations attempted and failed, with the first failure kept."""

    attempted: int = 0
    failed: int = 0
    first_failure: str | None = None

    def record(self, ok: bool, detail: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = detail or "wrong result"

    def record_error(self) -> None:
        self.record(False, traceback.format_exc(limit=4))

    @property
    def success_rate(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


# -- host speed -------------------------------------------------------------

#: The calibration loop's rate, in million iterations per second, that every
#: timing is scaled to: what an uncontended vCPU of the 2-vCPU host this
#: benchmark was defined on reaches.
REFERENCE_SPEED = 60.0

#: Length of one calibration burst, and the time between bursts in a loop.
CALIBRATION_SECONDS = 0.001
CALIBRATION_INTERVAL = 0.1


def host_speed(seconds: float = CALIBRATION_SECONDS) -> float:
    """Million iterations per second of a fixed pure-Python loop.

    The loop is the benchmark's own code and allocates no tracked objects,
    so nothing the program does (its caches, its garbage) changes it; only
    how fast the host runs this process right now does.  Other tenants of a
    shared host slow it by up to ~40% for seconds at a time, and every
    timing the benchmark reports is scaled by it (see :class:`LoopResult`).
    """
    blocks = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        value = 0
        for step in range(250):
            value ^= step
        blocks += 1
        now = time.perf_counter()
        if now >= deadline:
            return blocks * 250 / (now - start) / 1e6


class Placement:
    """The CPU this process runs on, re-chosen at every window.

    The vCPUs of a shared host slow down independently of each other, for
    seconds at a time.  :meth:`repin` probes :func:`host_speed` on every
    CPU the process may use and moves all of its threads to the fastest.
    Running on one CPU also places the async workload's event loop and
    executor threads alike in every run: left to the scheduler they share
    a vCPU in some runs and not in others, and the runs read ~9.8k or
    ~6.5k qps accordingly.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu: int | None = None

    @staticmethod
    def supported() -> bool:
        return hasattr(os, "sched_setaffinity") and os.path.isdir("/proc/self/task")

    def repin(self, probe_seconds: float = CALIBRATION_SECONDS) -> float:
        """Move every thread to the fastest allowed CPU; return its speed."""
        speeds = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speeds[cpu] = host_speed(probe_seconds)
        self.cpu = max(speeds, key=speeds.__getitem__)
        for thread in os.listdir("/proc/self/task"):
            try:
                os.sched_setaffinity(int(thread), {self.cpu})
            except OSError:
                pass  # the thread ended since the listing
        return speeds[self.cpu]


@dataclass(frozen=True)
class Window:
    """One slice of a timed run: its length, queries, percentiles and the
    host speed measured during it."""

    seconds: float
    samples: int
    completed: int
    p50: float
    p95: float
    speed: float

    @property
    def qps(self) -> float:
        return self.completed / self.seconds if self.seconds else 0.0

    @property
    def scale(self) -> float:
        """Factor that turns this window's seconds into seconds at
        :data:`REFERENCE_SPEED`."""
        return self.speed / REFERENCE_SPEED


class LoopResult:
    """What one closed loop observed, in :data:`WINDOWS` equal windows.

    Every :data:`CALIBRATION_INTERVAL` seconds, between two queries, the
    loop measures :func:`host_speed`; the bursts are timed in no window.
    Each window keeps its completion rate, its latency percentiles and its
    mean host speed.  For each figure the run reports the median, over the
    half of the windows in which the host ran fastest, of the figure
    scaled to :data:`REFERENCE_SPEED`.  Windows are chosen by the host
    speed alone, never by the program's own figures, so a slow spell of
    the host moves the reported figures little while a change that slows
    every query moves every window.  Raw latencies live only for the
    current window, so the benchmark's own memory does not grow with the
    number of queries a run completes.
    """

    def __init__(
        self, seconds: float | None, placement: Placement | None = None
    ) -> None:
        self.window_seconds = math.inf if seconds is None else seconds / WINDOWS
        self.placement = placement
        self.windows: list[Window] = []
        self.samples = 0
        self.completed = 0
        self.rows = 0
        self.latency_sum = 0.0
        #: Seconds spent measuring the host speed, timed in no window.
        self.paused = 0.0
        self._latencies = array("d")
        self._completed = 0
        self._open()
        self.deadline = self._window_start + (math.inf if seconds is None else seconds)

    def tick(self) -> float | None:
        """The time the next query starts, or ``None`` once the run is
        over; closes the window when it is over and measures the host
        speed when a burst is due."""
        now = time.perf_counter()
        if now >= self.deadline:
            return None
        if now >= self._window_end:
            self._close(now)
            self._open()
            now = time.perf_counter()
        elif now >= self._next_calibration:
            self._calibrate()
            now = time.perf_counter()
        return now

    def add(self, latency: float, ok: bool, rows: int = 0) -> None:
        """One finished query; a failed one has ``latency=inf``."""
        self._latencies.append(latency)
        self.samples += 1
        if ok:
            self._completed += 1
            self.completed += 1
            self.rows += rows
            self.latency_sum += latency

    def finish(self) -> "LoopResult":
        self._close(time.perf_counter())
        return self

    def _open(self) -> None:
        self._speeds: list[float] = []
        self._paused = 0.0
        if self.placement is not None:
            began = time.perf_counter()
            self.placement.repin()
            self._paused += time.perf_counter() - began
            self.paused += self._paused
        self._calibrate()
        self._window_start = time.perf_counter() - self._paused
        self._window_end = self._window_start + self.window_seconds

    def _calibrate(self) -> None:
        began = time.perf_counter()
        self._speeds.append(host_speed())
        now = time.perf_counter()
        self._paused += now - began
        self.paused += now - began
        self._next_calibration = now + CALIBRATION_INTERVAL

    def _close(self, now: float) -> None:
        if not self._latencies:
            return
        ordered = sorted(self._latencies)
        seconds = now - self._window_start - self._paused

        def rank(fraction: float) -> float:
            # Nearest rank; a failed query ranks as the whole window, so it
            # misses any latency limit.
            value = ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]
            return value if math.isfinite(value) else seconds

        self.windows.append(
            Window(
                seconds, len(ordered), self._completed, rank(0.50), rank(0.95),
                statistics.fmean(self._speeds),
            )
        )
        self._latencies = array("d")
        self._completed = 0

    @property
    def reported(self) -> list[Window]:
        """The half of the windows (at least one) with the fastest host."""
        by_speed = sorted(self.windows, key=lambda window: window.speed)
        return by_speed[len(by_speed) // 2 :]

    def qps(self, scaled: bool = True) -> float:
        """Median over the reported windows of queries completed per second."""
        return statistics.median(
            w.qps / (w.scale if scaled else 1.0) for w in self.reported
        )

    def percentile_ms(self, fraction: float, scaled: bool = True) -> float:
        """Median over the reported windows of the p50 (``0.5``) or p95
        (``0.95``) latency."""
        attribute = {0.50: "p50", 0.95: "p95"}[fraction]
        return 1e3 * statistics.median(
            getattr(w, attribute) * (w.scale if scaled else 1.0) for w in self.reported
        )

    @property
    def speed(self) -> float:
        """Median host speed over the reported windows."""
        return statistics.median(w.speed for w in self.reported)

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.completed if self.completed else 0.0


# -- set-up -----------------------------------------------------------------


def new_service(backend: str, rows: int, seed: int) -> GraphitiService:
    """A default-configured service over the seeded social universe."""
    service = GraphitiService(SOCIAL.graph_schema, default_backend=backend)
    service.load_mock(rows, seed=seed)
    service.warm_pool(members=1)
    return service


@dataclass
class Session:
    """A set-up service ready for timing (and its async wrapper)."""

    service: GraphitiService
    async_service: AsyncGraphitiService | None
    #: Set-up seconds, and the host speed measured around the set-up.
    seconds: float
    speed: float

    def close(self) -> None:
        if self.async_service is not None:
            self.async_service.close()
        self.service.close()


def set_up(
    workload: Workload, seed: int, backend: str, texts: list[str], tally: Tally
) -> Session:
    """Data generation, statistics, bulk load, pool warm-up and — for
    primed workloads — one pass over every text, timed as a whole."""
    speed_before = host_speed()
    start = time.perf_counter()
    service = new_service(backend, ROWS_PER_TABLE, seed)
    async_service = None
    priming = None
    if workload.mode == "async":
        async_service = AsyncGraphitiService(service)
        if workload.primed:
            # Concurrent priming also grows the pool to one member per
            # client, exactly as the timed loop would.
            priming = asyncio.run(
                async_loop(async_service, texts, None, None, workload.clients, tally)
            )
    elif workload.primed:
        priming = sync_loop(service, texts, None, None, tally)
    seconds = time.perf_counter() - start
    if priming is not None:
        seconds -= priming.paused
    speed = (speed_before + host_speed()) / 2
    return Session(service, async_service, seconds, speed)


def set_up_repeatedly(
    workload: Workload,
    seed: int,
    backend: str,
    texts: list[str],
    tally: Tally,
    repeats: int,
) -> tuple[Session, float, float]:
    """Set up *repeats* times; keep the last session, and return the
    median set-up seconds, scaled to :data:`REFERENCE_SPEED` and raw."""
    scaled, raw = [], []
    session = None
    for _ in range(repeats):
        if session is not None:
            session.close()
        session = set_up(workload, seed, backend, texts, tally)
        scaled.append(session.seconds * session.speed / REFERENCE_SPEED)
        raw.append(session.seconds)
    assert session is not None
    return session, statistics.median(scaled), statistics.median(raw)


# -- correctness ------------------------------------------------------------


def prepare_directly(
    service: GraphitiService,
    stats: DatabaseStats,
    dialect: SqlDialect,
    text: str,
    timer=None,
) -> PreparedQuery:
    """Parse, transpile, optimize and render *text* through each layer's
    public function, as the service does on a cache miss — without
    touching the service's caches.  *timer*, when given, wraps each call
    as ``timer(name, fn, *args, **kwargs)``."""
    call = timer or (lambda _name, fn, *args, **kwargs: fn(*args, **kwargs))
    schema = service.sdt.schema
    query = call("cypher.parse", parse_cypher, text, service.graph_schema)
    raw = call("core.transpile", transpile, query, service.graph_schema, service.sdt)
    report = PlanReport()
    translated = call(
        "sql.optimize",
        optimize,
        raw,
        level=service.opt_level,
        schema=schema,
        stats=stats,
        report=report,
    )
    sql_text = call(
        "sql.render", to_sql_text, translated, schema, optimized=False, dialect=dialect
    )
    return PreparedQuery(
        text, translated, sql_text, dialect.name, service.fingerprint,
        service.opt_level, report,
    )


@dataclass(frozen=True)
class Expected:
    """The raw DB-API answer to one text: column names and rows, with SQL
    ``NULL`` mapped to the repro's ``NULL`` value."""

    attributes: tuple[str, ...]
    rows: list[tuple]

    def matches(self, table: Table) -> bool:
        if table.attributes != self.attributes:
            return False
        if table.rows == self.rows:
            return True
        return Counter(table.rows) == Counter(self.rows)  # same bag, new order


def expected_answers(service: GraphitiService, texts: list[str]) -> list[Expected]:
    """Each text's answer from a raw ``execute().fetchall()`` of its SQL on
    a separately loaded SQLite engine holding the same data."""
    stats = collect_stats(service.database)  # what the service plans with
    dialect = service.dialect_of(DEFAULT_BACKEND)
    engine = load_backend(DEFAULT_BACKEND, service.database)
    try:
        answers = []
        for text in texts:
            sql = prepare_directly(service, stats, dialect, text).sql_text
            cursor = engine.connection.execute(sql)
            attributes = tuple(column[0] for column in cursor.description)
            rows = [
                tuple(NULL if value is None else value for value in row)
                for row in cursor.fetchall()
            ]
            answers.append(Expected(attributes, rows))
        return answers
    finally:
        engine.close()


def correctness_gate(workload: Workload, seed: int, backend: str, tally: Tally) -> None:
    """Every template, served at :data:`GATE_ROWS` rows per table, must be
    bag-equivalent to the reference evaluator's answer."""
    service = new_service(backend, GATE_ROWS, seed)
    async_service = AsyncGraphitiService(service) if workload.mode == "async" else None
    try:
        for text in workload.gate_texts(seed):
            try:
                if async_service is not None:
                    got = asyncio.run(async_service.run(text))
                else:
                    got = service.run(text)
                want = service.reference(text)
            except Exception:
                tally.record_error()
                continue
            tally.record(
                tables_equivalent(got, want), f"gate: {text!r} differs from reference"
            )
    finally:
        if async_service is not None:
            async_service.close()
        service.close()


# -- timed closed loops -----------------------------------------------------


def sync_loop(
    service: GraphitiService,
    texts: list[str],
    expected: list[Expected] | None,
    seconds: float | None,
    tally: Tally,
    placement: Placement | None = None,
) -> LoopResult:
    """One client sending ``service.run`` calls back to back, round-robin
    over *texts*, for *seconds* (``None``: one pass over the texts)."""
    run = service.run
    count = len(texts)
    result = LoopResult(seconds, placement)
    for index in range(count) if seconds is None else itertools.count():
        began = result.tick()
        if began is None:
            break
        slot = index % count
        try:
            table = run(texts[slot])
        except Exception:
            result.add(math.inf, False)
            tally.record_error()
            continue
        settle(result, tally, time.perf_counter() - began, table, texts, expected, slot)
    return result.finish()


async def async_loop(
    async_service: AsyncGraphitiService,
    texts: list[str],
    expected: list[Expected] | None,
    seconds: float | None,
    clients: int,
    tally: Tally,
    placement: Placement | None = None,
) -> LoopResult:
    """*clients* concurrent closed-loop clients awaiting
    ``AsyncGraphitiService.run``; client *c* sends texts *c*, *c+clients*,
    ... (``seconds=None``: one pass over the texts between them)."""
    count = len(texts)
    result = LoopResult(seconds, placement)

    async def client(offset: int) -> None:
        for index in itertools.count(offset, clients):
            if seconds is None and index >= count:
                return
            began = result.tick()
            if began is None:
                return
            slot = index % count
            try:
                table = await async_service.run(texts[slot])
            except Exception:
                result.add(math.inf, False)
                tally.record_error()
                continue
            settle(
                result, tally, time.perf_counter() - began, table, texts, expected, slot
            )

    await asyncio.gather(*(client(offset) for offset in range(clients)))
    return result.finish()


def settle(
    result: LoopResult,
    tally: Tally,
    latency: float,
    table: Table,
    texts: list[str],
    expected: list[Expected] | None,
    slot: int,
) -> None:
    """Check one answer against the raw fetch and account it; a wrong
    answer counts as failed, like an error."""
    ok = expected is None or expected[slot].matches(table)
    tally.record(ok, f"{texts[slot]!r} differs from the raw fetch")
    result.add(latency if ok else math.inf, ok, len(table.rows))


def timed_loop(
    workload: Workload,
    session: Session,
    texts: list[str],
    expected: list[Expected],
    seconds: float,
    tally: Tally,
    placement: Placement | None = None,
) -> LoopResult:
    """The workload's closed loop, after collecting set-up garbage."""
    gc.collect()
    if session.async_service is not None:
        return asyncio.run(
            async_loop(
                session.async_service, texts, expected, seconds,
                workload.clients, tally, placement,
            )
        )
    return sync_loop(session.service, texts, expected, seconds, tally, placement)


# -- self-checks --------------------------------------------------------------


@dataclass(frozen=True)
class CacheWindow:
    """Transpilation-cache lookups counted over one timed window."""

    hits: int
    misses: int

    @classmethod
    def between(cls, before, after) -> "CacheWindow":
        return cls(after.hits - before.hits, after.misses - before.misses)

    @property
    def hit_ratio(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


def check_purpose(
    workload: Workload,
    service: GraphitiService,
    cache: CacheWindow,
    loop: LoopResult,
) -> None:
    """Fail the run when the workload drifted from its ``why`` sentence."""
    if workload.primed and cache.hit_ratio != 1.0:
        raise WorkloadDrift(
            f"{workload.name}: memory-cache hit ratio {cache.hit_ratio:.4f} "
            f"after priming ({cache.hits} hits, {cache.misses} misses), not 1.0"
        )
    if not workload.primed and cache.hits:
        raise WorkloadDrift(
            f"{workload.name}: {cache.hits} memory-cache hits; every prepare "
            f"should miss"
        )
    if workload.min_mean_rows and loop.completed:
        mean_rows = loop.rows / loop.completed
        if mean_rows < workload.min_mean_rows:
            raise WorkloadDrift(
                f"{workload.name}: {mean_rows:.0f} rows per query, under "
                f"{workload.min_mean_rows}"
            )
    if workload.clients > 1:
        # The pool only grows while every member is checked out, so a pool
        # warmed to one member that now holds `clients` members has had
        # that many checked out at once.
        size = service.pool().size
        if size < workload.clients:
            raise WorkloadDrift(
                f"{workload.name}: the pool grew to {size} member(s); "
                f"{workload.clients} clients never held members at once"
            )


# -- the end-to-end run -------------------------------------------------------


def end_to_end_run(
    workload: Workload,
    seed: int,
    seconds: float,
    backend: str = DEFAULT_BACKEND,
    setup_repeats: int = SETUP_REPEATS,
    placement: Placement | None = None,
) -> tuple[Tally, dict[str, tuple[float, str]], dict]:
    """Gate, set up, time and self-check *workload*; return the tally,
    every end-to-end metric as ``name -> (value, unit)``, and the sample
    counts and unscaled figures behind them."""
    tally = Tally()
    correctness_gate(workload, seed, backend, tally)
    texts = workload.texts(seed)
    session, setup_seconds, raw_setup_seconds = set_up_repeatedly(
        workload, seed, backend, texts, tally, setup_repeats
    )
    try:
        expected = expected_answers(session.service, texts)
        cache_before = session.service.cache_info()
        loop = timed_loop(
            workload, session, texts, expected, seconds, tally, placement
        )
        rss = rss_mb()
        cache = CacheWindow.between(cache_before, session.service.cache_info())
        check_purpose(workload, session.service, cache, loop)
    finally:
        session.close()
    metrics = {
        "qps": (loop.qps(), "1/s"),
        "latency_p50_ms": (loop.percentile_ms(0.50), "ms"),
        "latency_p95_ms": (loop.percentile_ms(0.95), "ms"),
        "success_rate": (tally.success_rate, "ratio"),
        "setup_s": (setup_seconds, "s"),
        "rss_end_mb": (rss, "MB"),
    }
    details = {
        "latency_samples": loop.samples,
        "windows": len(loop.windows),
        "fewest_window_samples": min(window.samples for window in loop.windows),
        "host_speed": loop.speed,
        "reference_speed": REFERENCE_SPEED,
        "unscaled": {
            "qps": loop.qps(scaled=False),
            "latency_p50_ms": loop.percentile_ms(0.50, scaled=False),
            "latency_p95_ms": loop.percentile_ms(0.95, scaled=False),
            "setup_s": raw_setup_seconds,
        },
    }
    return tally, metrics, details


# -- environment --------------------------------------------------------------


def rss_mb() -> float:
    """Resident set size of this process in MiB."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_info() -> dict:
    """The host facts every result is qualified by."""
    import platform
    import sqlite3

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return {
        "cpu_count": cpus,
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "platform": sys.platform,
    }
