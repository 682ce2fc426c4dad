"""The traced run: a ladder of the benchmark's own spans around each layer.

The service's in-program tracer stays off.  Instead, each *round* re-enacts
one ``GraphitiService.serve`` through the public function of every layer
it crosses, timing each call with a span of the benchmark's own, and then
times the real ``serve`` of the same text (the *serve rung*):

* ``cypher.parse`` - ``parse_cypher`` (prepare misses only)
* ``core.transpile`` - ``transpile`` (prepare misses only)
* ``sql.optimize`` - ``optimize``, planner included (prepare misses only)
* ``sql.render`` - ``to_sql_text`` (prepare misses only)
* ``service.prepare_hit`` - ``service.prepare`` (prepare hits only)
* ``guards.allow`` - ``CircuitBreaker.allow``
* ``pool.checkout`` - ``ConnectionPool.checkout`` (which pings the member)
* ``pool.ping`` - ``member.ping``
* ``engine.execute_fetch`` - ``member.connection.execute(sql).fetchall()``
* ``engine.execute`` - ``member.execute(sql)``: fetch plus value conversion
* ``engine.execute_fetch_again`` - the raw fetch again
* ``pool.checkin`` - ``ConnectionPool.checkin``
* ``guards.settle`` - ``record_success`` + ``release_probe``
* ``metrics.record`` - ``service.record_execution``
* ``service.observe`` - ``service.observe_execution``
* ``service.serve`` - ``service.serve``: the serve rung

Per-layer self times are means per round, scaled to the reference host
speed like every time the benchmark reports (see ``harness.host_speed``).  Where one call contains
another layer's work the ladder subtracts it: the checkout's own liveness
ping is the ``pool.ping`` rung, and ``engine.convert`` is ``member.execute``
minus the second raw fetch (both find the statement compiled; the first
fetch paid the compile, as the serve does).  ``service.self`` is the serve
rung minus every layer below it, so a layer that moves shows up in exactly
one rung.  The async
workload adds an ``async.run`` rung (``AsyncGraphitiService.run`` under its
concurrent clients); ``async.self`` is that rung minus the serve rung.

Spans of the first :data:`KEPT_ROUNDS` rounds are written out when the run
ends; all rounds feed the means.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

from repro.backends.service import DEFAULT_BACKEND
from repro.sql.stats import collect_stats

from harness import (
    CALIBRATION_INTERVAL,
    REFERENCE_SPEED,
    CacheWindow,
    Placement,
    Tally,
    WorkloadDrift,
    async_loop,
    check_purpose,
    correctness_gate,
    expected_answers,
    host_speed,
    prepare_directly,
    set_up,
    timed_loop,
)
from workloads import Workload

#: Rounds whose individual spans are written to the trace file.
KEPT_ROUNDS = 256

#: Share of ``--seconds`` spent untraced (the reference for the tracing
#: overhead), on the ladder, and — async workloads only — on the async rung.
UNTRACED_SHARE = 0.3
ASYNC_SHARE = 0.3


class SpanLog:
    """Spans recorded in memory by the benchmark around its own calls."""

    def __init__(self, keep_rounds: int = KEPT_ROUNDS) -> None:
        self.keep_rounds = keep_rounds
        self.rounds = 0
        self.totals: dict[str, float] = defaultdict(float)
        #: Seconds per span name within the current round.
        self.round: dict[str, float] = defaultdict(float)
        #: Per round, the serve rung minus the layers that re-enact it.
        self.residuals: list[float] = []
        self.kept: list[dict] = []
        self.last = 0.0
        self._round_start = 0.0

    def begin_round(self) -> None:
        self.rounds += 1
        self.round.clear()
        self._round_start = time.perf_counter()

    def end_round(self) -> None:
        if self.rounds <= self.keep_rounds:
            self._keep("round", self._round_start, time.perf_counter(), None)

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named *name*."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        self.last = end - start
        self.totals[name] += self.last
        self.round[name] += self.last
        if self.rounds <= self.keep_rounds:
            self._keep(name, start, end, "round")
        return result

    def mean_us(self, name: str) -> float:
        """Mean microseconds per round spent in spans named *name*."""
        return self.totals.get(name, 0.0) / self.rounds * 1e6 if self.rounds else 0.0

    def _keep(self, name: str, start: float, end: float, parent: str | None) -> None:
        self.kept.append(
            {
                "trace": self.rounds,
                "name": name,
                "start_us": round(start * 1e6, 3),
                "end_us": round(end * 1e6, 3),
                "parent": parent,
            }
        )


def raw_fetch(member, sql_text: str) -> list:
    """The engine alone: DB-API execute and fetch, no value conversion."""
    return member.connection.execute(sql_text).fetchall()


def settle(breaker, probe) -> None:
    breaker.record_success()
    breaker.release_probe(probe)


def span_cost_us(samples: int = 20000) -> float:
    """What one span adds around a call, in microseconds."""
    log = SpanLog(keep_rounds=0)
    log.begin_round()
    nothing = lambda: None  # noqa: E731 - the cheapest callable to wrap
    start = time.perf_counter()
    for _ in range(samples):
        nothing()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        log.call("calibrate", nothing)
    return max(time.perf_counter() - start - bare, 0.0) / samples * 1e6


def ladder_round(service, stats, dialect, text, log: SpanLog, cold: bool):
    """Re-enact one serve of *text* layer by layer, then serve it for real."""
    backend = DEFAULT_BACKEND
    log.begin_round()
    if cold:
        prepared = prepare_directly(service, stats, dialect, text, timer=log.call)
    else:
        prepared = log.call("service.prepare_hit", service.prepare, text, dialect)
    pool = service.pool(backend)
    breaker = service.breaker(backend)
    probe = log.call("guards.allow", breaker.allow)
    member = log.call("pool.checkout", pool.checkout)
    log.call("pool.ping", member.ping)
    # A cold text's first execution compiles its statement, and so will
    # the serve's.  The ladder runs a copy differing only by a trailing
    # space, so the serve rung still finds its own statement uncompiled.
    sql_text = prepared.sql_text + " " if cold else prepared.sql_text
    log.call("engine.execute_fetch", raw_fetch, member, sql_text)
    table = log.call("engine.execute", member.execute, sql_text)
    elapsed = log.last
    log.call("engine.execute_fetch_again", raw_fetch, member, sql_text)
    log.call("pool.checkin", pool.checkin, member)
    log.call("guards.settle", settle, breaker, probe)
    log.call("metrics.record", service.record_execution, text, elapsed, backend)
    log.call("service.observe", service.observe_execution, prepared, len(table.rows), backend)
    served, _ = log.call("service.serve", service.serve, text)
    serve_seconds = log.last
    # The layers as layer_metrics() adds them up: the checkout's ping and
    # the second raw fetch are measurements, not steps the serve takes.
    spans = log.round
    layers = (
        sum(spans.values()) - serve_seconds - spans["pool.ping"]
        - 2 * spans["engine.execute_fetch_again"]
    )
    log.residuals.append(serve_seconds - layers)
    log.end_round()
    return served, serve_seconds


def layer_metrics(log: SpanLog, validate_on_checkout: bool) -> dict[str, float]:
    """Per-layer self times (us per query) from the ladder's spans."""
    ping = log.mean_us("pool.ping")
    layers = {
        "cypher.parse_us": log.mean_us("cypher.parse"),
        "core.transpile_us": log.mean_us("core.transpile"),
        "sql.optimize_us": log.mean_us("sql.optimize"),
        "sql.render_us": log.mean_us("sql.render"),
        "service.prepare_hit_us": log.mean_us("service.prepare_hit"),
        "guards.breaker_us": log.mean_us("guards.allow") + log.mean_us("guards.settle"),
        "pool.checkout_checkin_us": (
            log.mean_us("pool.checkout")
            + log.mean_us("pool.checkin")
            - (ping if validate_on_checkout else 0.0)
        ),
        "pool.ping_us": ping if validate_on_checkout else 0.0,
        "engine.execute_fetch_us": log.mean_us("engine.execute_fetch"),
        "engine.convert_us": (
            log.mean_us("engine.execute") - log.mean_us("engine.execute_fetch_again")
        ),
        "metrics.record_us": log.mean_us("metrics.record"),
        "service.observe_us": log.mean_us("service.observe"),
    }
    serve = log.mean_us("service.serve")
    layers["service.self_us"] = serve - sum(layers.values())
    layers["service.serve_us"] = serve
    return layers


def registry_totals(service) -> dict[str, float]:
    """The public counters the traced run reads, summed over labels."""
    snapshot = service.metrics.snapshot()

    def total(name: str, key: str = "value") -> float:
        metric = snapshot.get(name)
        return sum(series[key] for series in metric["series"]) if metric else 0.0

    return {
        "retries": total("repro_query_retries_total"),
        "replans": total("repro_plan_replans_total"),
        "rejections": total("repro_breaker_rejections_total"),
        "wait_count": total("repro_pool_checkout_wait_seconds", "count"),
        "wait_sum": total("repro_pool_checkout_wait_seconds", "sum"),
    }


def traced_run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace_dir: Path,
    placement: Placement | None = None,
) -> tuple[Tally, dict[str, tuple[float, str]]]:
    """Run *workload* once untraced and once on the ladder; return the
    tally and every per-layer metric as ``name -> (value, unit)``, and
    write the kept spans under *trace_dir*."""
    backend = DEFAULT_BACKEND
    tally = Tally()
    correctness_gate(workload, seed, backend, tally)
    texts = workload.texts(seed)
    session = set_up(workload, seed, backend, texts, tally)
    service = session.service
    try:
        expected = expected_answers(service, texts)
        before = registry_totals(service)
        cache_before = service.cache_info()
        untraced = timed_loop(
            workload, session, texts, expected, seconds * UNTRACED_SHARE, tally,
            placement,
        )
        cache = CacheWindow.between(cache_before, service.cache_info())
        during = registry_totals(service)
        check_purpose(workload, service, cache, untraced)

        log = SpanLog()
        stats = collect_stats(service.database)
        dialect = service.dialect_of(backend)
        cold = not workload.primed
        # Continue the text cycle where the untraced loop stopped, so a
        # cold workload's next texts are still out of the LRU.
        index = untraced.samples
        ladder_seconds = seconds * (
            1.0 - UNTRACED_SHARE - (ASYNC_SHARE if workload.mode == "async" else 0.0)
        )
        serve_rung = []
        speeds = []
        next_calibration = time.perf_counter()
        deadline = next_calibration + ladder_seconds
        while (now := time.perf_counter()) < deadline:
            if now >= next_calibration:
                speeds.append(host_speed())
                next_calibration = time.perf_counter() + CALIBRATION_INTERVAL
            slot = index % len(texts)
            index += 1
            try:
                served, serve_seconds = ladder_round(
                    service, stats, dialect, texts[slot], log, cold
                )
            except Exception:
                tally.record_error()
                continue
            serve_rung.append(serve_seconds)
            tally.record(
                expected[slot].matches(served),
                f"ladder: {texts[slot]!r} differs from the raw fetch",
            )

        # Like the end-to-end figures, every time is scaled to the
        # reference host speed measured while it was taken.
        scale = statistics.fmean(speeds) / REFERENCE_SPEED
        metrics = {
            name: value * scale
            for name, value in layer_metrics(
                log, service.pool(backend).validate_on_checkout
            ).items()
        }
        traced_p50_us = statistics.median(serve_rung) * 1e6 * scale if serve_rung else 0.0
        async_run_us = 0.0
        if session.async_service is not None:
            # The async rung: the clients' own timing of each awaited run.
            traced_async = asyncio.run(
                async_loop(
                    session.async_service, texts, expected,
                    seconds * ASYNC_SHARE, workload.clients, tally, placement,
                )
            )
            async_run_us = (
                traced_async.mean_latency * 1e6 * traced_async.speed / REFERENCE_SPEED
            )
            traced_p50_us = traced_async.percentile_ms(0.50) * 1000.0
        after = registry_totals(service)
    finally:
        session.close()

    untraced_p50_us = untraced.percentile_ms(0.50) * 1000.0
    overhead_us = traced_p50_us - untraced_p50_us
    cost = span_cost_us() * scale
    spans_per_round = sum(
        1 for span in log.kept if span["trace"] == 1 and span["parent"] == "round"
    )
    # The ladder's layers re-enact the serve rung, so they may exceed it
    # only by what the spans themselves cost, or by the tracing overhead,
    # give or take three standard errors of the mean over the rounds.
    standard_error_us = (
        statistics.stdev(log.residuals) / len(log.residuals) ** 0.5 * 1e6 * scale
        if len(log.residuals) > 1
        else 0.0
    )
    tolerance_us = max(abs(overhead_us), cost * spans_per_round) + 3 * standard_error_us
    if metrics["service.self_us"] < -tolerance_us:
        raise WorkloadDrift(
            f"{workload.name}: the layers sum to "
            f"{metrics['service.serve_us'] - metrics['service.self_us']:.1f} us, "
            f"over the {metrics['service.serve_us']:.1f} us serve rung by more "
            f"than the {tolerance_us:.1f} us tracing overhead"
        )

    waits = during["wait_count"] - before["wait_count"]
    wait_us = (
        (during["wait_sum"] - before["wait_sum"]) / waits * 1e6 if waits else 0.0
    ) * untraced.speed / REFERENCE_SPEED
    results: dict[str, tuple[float, str]] = {
        name: (value, "us") for name, value in metrics.items()
    }
    results.update(
        {
            "service.cache_hit_ratio": (cache.hit_ratio, "ratio"),
            "engine.rows_per_query": (
                untraced.rows / untraced.completed if untraced.completed else 0.0,
                "rows",
            ),
            "async.run_us": (async_run_us, "us"),
            "async.self_us": (
                async_run_us - metrics["service.serve_us"] if async_run_us else 0.0,
                "us",
            ),
            "pool.wait_us": (wait_us, "us"),
            "service.retries": (after["retries"] - before["retries"], "count"),
            "service.replans": (after["replans"] - before["replans"], "count"),
            "guards.rejections": (after["rejections"] - before["rejections"], "count"),
            "trace.overhead_pct": (
                overhead_us / untraced_p50_us * 100.0 if untraced_p50_us else 0.0,
                "%",
            ),
        }
    )
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "rounds": log.rounds,
                "span_cost_us": round(cost, 4),
                "residual_standard_error_us": round(standard_error_us, 3),
                "untraced_p50_us": round(untraced_p50_us, 3),
                "traced_p50_us": round(traced_p50_us, 3),
                "metrics": {name: value for name, (value, _) in results.items()},
                "spans": log.kept,
            },
            indent=1,
        )
    )
    return tally, results
