"""``repro explain``: one traced execution, rendered for humans and machines.

:func:`explain_query` attaches a fresh :class:`~repro.observability.tracing.Tracer`
to a :class:`~repro.backends.service.GraphitiService`, runs the query once,
and packages what the trace shows: the hierarchical span tree with
per-stage timings, the cache and pool events along the way, and the
planner's decisions (recursive CTE vs unrolled join chains, join order,
pushed predicates) from the prepared query's
:class:`~repro.sql.planner.PlanReport`.

:func:`render_span_tree` is the text renderer (box-drawing tree, stage
durations, inline attributes); :meth:`ExplainReport.to_dict` is the
``--json`` payload, whose ``trace`` member round-trips through
:func:`~repro.observability.tracing.span_from_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.observability.tracing import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.service import GraphitiService, PreparedQuery

#: Attributes hidden from the inline tree rendering (too long to inline).
_VERBOSE_ATTRIBUTES = {"cypher", "sql"}


def _format_attribute(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".") or "0"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_span_tree(span: Span, indent: str = "") -> list[str]:
    """Render *span* and its descendants as an indented tree of lines."""
    attributes = " ".join(
        f"{key}={_format_attribute(value)}"
        for key, value in sorted(span.attributes.items())
        if key not in _VERBOSE_ATTRIBUTES
    )
    suffix = f"  {attributes}" if attributes else ""
    lines = [f"{indent}{span.name} ({span.duration_ms:.2f} ms){suffix}"]
    child_indent = indent.replace("├─ ", "│  ").replace("└─ ", "   ")
    for index, child in enumerate(span.children):
        last = index == len(span.children) - 1
        branch = "└─ " if last else "├─ "
        lines.extend(render_span_tree(child, child_indent + branch))
    return lines


@dataclass
class ExplainReport:
    """Everything ``repro explain`` shows about one traced execution."""

    cypher_text: str
    backend: str
    opt_level: int
    trace: Span
    sql_text: str
    plan: object | None  # PlanReport (kept loose: lazily imported layer)
    rows: int
    metrics: dict
    #: Observed actual-row history from the cache entry's
    #: :class:`~repro.backends.service.ExecutionFeedback` — the truthful
    #: counterpart to the plan's estimate, even on a pure cache hit.
    observed: dict | None = None
    #: The service's ``feedback_ratio``, which a settled entry is inside.
    feedback_ratio: float | None = None

    def render(self, show_sql: bool = True) -> list[str]:
        lines = [f"== trace ({self.backend}, opt level {self.opt_level}) =="]
        lines.extend(render_span_tree(self.trace))
        plan_lines = _render_plan(self.plan, self.observed, self.feedback_ratio)
        if plan_lines:
            lines.append("")
            lines.append("== plan ==")
            lines.extend(plan_lines)
        if show_sql:
            lines.append("")
            lines.append("== sql ==")
            lines.extend(self.sql_text.splitlines())
        lines.append("")
        lines.append(f"== result: {self.rows} row(s) ==")
        return lines

    def to_dict(self) -> dict:
        plan = getattr(self.plan, "to_dict", lambda: None)()
        return {
            "cypher": self.cypher_text,
            "backend": self.backend,
            "opt_level": self.opt_level,
            "rows": self.rows,
            "trace": self.trace.to_dict(),
            "plan": plan,
            "observed": self.observed,
            "sql": self.sql_text,
            "metrics": self.metrics,
        }


def _render_plan(
    plan: object | None,
    observed: dict | None = None,
    feedback_ratio: float | None = None,
) -> list[str]:
    if plan is None:
        return []
    lines: list[str] = []
    for traversal in getattr(plan, "traversals", ()):
        estimate = (
            f", est. chain rows {traversal.estimated_rows:.0f}"
            if traversal.estimated_rows is not None
            and "chain rows" not in traversal.reason
            else ""
        )
        hops = (
            f"*{traversal.min_hops}..{traversal.max_hops}"
            if traversal.max_hops is not None
            else f"*{traversal.min_hops}.."
        )
        lines.append(
            f"traversal {traversal.name} ({hops}): {traversal.choice} "
            f"— {traversal.reason}{estimate}"
        )
    for join in getattr(plan, "joins", ()):
        order = " ⋈ ".join(join.order)
        lines.append(
            f"join order: {order} "
            f"(pushed {join.pushed_predicates} predicate(s), "
            f"{join.join_edges} equi-join edge(s))"
        )
    ctes = getattr(plan, "cte_names", ())
    if ctes:
        lines.append(f"shared subplans: {', '.join(ctes)}")
    estimated = getattr(plan, "estimated_rows", None)
    if estimated is not None:
        lines.append(f"estimated result rows: {estimated:.0f}")
    if observed and observed.get("executions"):
        lines.append(
            f"observed actual rows: last {observed['last_rows']}, "
            f"mean {observed['mean_rows']} over "
            f"{observed['executions']} execution(s)"
        )
        if (
            observed.get("settled")
            and estimated is not None
            and feedback_ratio is not None
        ):
            estimate = max(float(estimated), 1.0)
            actual = max(float(observed["mean_rows"]), 1.0)
            lines.append(
                f"feedback settled: q-error "
                f"{max(actual / estimate, estimate / actual):.1f} inside "
                f"ratio {feedback_ratio:g} on this data load; re-checked "
                f"after the next load"
            )
    feedback = getattr(plan, "feedback", None)
    if feedback:
        corrections = []
        if feedback.get("stats_refreshed"):
            corrections.append("statistics refreshed")
        if feedback.get("force_recursive"):
            corrections.append("traversal forced recursive")
        scale = feedback.get("row_scale")
        if scale is not None and scale != 1.0:
            corrections.append(f"row estimates scaled ×{scale:g}")
        applied = f" — {', '.join(corrections)}" if corrections else ""
        lines.append(
            f"re-planned (epoch {feedback.get('epoch')}): "
            f"{feedback.get('reason')} ×{feedback.get('divergence')} "
            f"(observed {feedback.get('observed_rows')} vs estimated "
            f"{feedback.get('previous_estimate')}){applied}"
        )
    parallelism = getattr(plan, "parallelism", None)
    if parallelism:
        if parallelism.get("parallel"):
            lines.append(
                f"parallelism: {parallelism.get('degree')}-way partition "
                f"scan of {parallelism.get('relation')} "
                f"({parallelism.get('kind')}) — {parallelism.get('reason')}"
            )
        else:
            lines.append(
                f"parallelism: serial (requested "
                f"{parallelism.get('requested')}) — "
                f"{parallelism.get('reason')}"
            )
    return lines


def explain_query(
    service: "GraphitiService",
    cypher_text: str,
    backend: str | None = None,
    opt_level: int | None = None,
) -> ExplainReport:
    """Run *cypher_text* once under a fresh tracer and report the trace.

    The service's tracer is swapped in for the duration of the run and
    restored afterwards, so an always-attached production tracer (or the
    default no-op) is undisturbed.  Note that a previously prepared query
    legitimately shows a ``cache.lookup`` hit and no parse/transpile
    spans — the trace reports what actually happened; the plan section
    still shows the planner's decisions, which travel with the cached
    :class:`~repro.backends.service.PreparedQuery`.
    """
    name = backend or service.default_backend
    tracer = Tracer()
    previous = service.tracer
    service.set_tracer(tracer)
    try:
        # serve() hands back the exact cache entry that executed, so the
        # plan and observed history below describe *this* run — even when
        # the adaptive layer re-planned the query right afterwards.
        result, prepared = service.serve(
            cypher_text, backend=name, opt_level=opt_level
        )
    finally:
        service.set_tracer(previous)
    trace = tracer.last_trace()
    assert trace is not None, "traced run produced no root span"
    feedback = getattr(prepared, "feedback", None)
    return ExplainReport(
        cypher_text=cypher_text,
        backend=name,
        opt_level=prepared.opt_level,
        trace=trace,
        sql_text=prepared.sql_text,
        plan=prepared.plan,
        rows=len(result.rows),
        metrics=service.metrics.snapshot(),
        observed=feedback.to_dict() if feedback is not None else None,
        feedback_ratio=service.feedback_ratio,
    )
