"""Join-aware cost-based planning over Featherweight SQL algebra.

The transpiler leaves every relationship traversal as a selection over a
cross-product tree (``σ_φ(R1 × R2 × ...)``); the rule rewrites in
:mod:`repro.sql.optimize` collapse the nesting but keep that shape.  This
module implements the optimizer's *level-2* passes on top:

* **Join-graph planning** (:func:`plan_joins`) — flatten a maximal
  CROSS/INNER join region into an n-ary join graph, decompose conjunctive
  predicates, push single-table conjuncts into their scan, turn two-table
  equality conjuncts into equi-join edges, and rebuild a left-deep join
  tree in greedy cost order (smallest estimated intermediate first).
* **Cardinality estimation** (:class:`CardinalityEstimator`) — row counts
  and per-column distinct counts from :mod:`repro.sql.stats` when
  available, textbook Selinger selectivity defaults when not.
* **Dead-column pruning** (:func:`prune_columns`) — top-down removal of
  projection columns no ancestor references, so intermediate results only
  marshal attributes the query actually consumes.
* **Recursion unrolling** (:func:`expand_recursions`) — a variable-length
  traversal fixpoint (a :class:`~repro.sql.ast.RecursiveQuery` carrying
  :class:`~repro.sql.ast.ReachInfo`) whose upper hop bound is small is
  rewritten into a UNION of k-hop join chains over the same one-hop CTE,
  which engines can reorder and index freely; the choice is cost-based —
  estimated chain growth (edge rows × per-hop fan-out from NDV statistics)
  must stay under :data:`UNROLL_ROW_LIMIT`, else the recursive CTE stays.
  :func:`plan_joins` makes this choice in its own walk, so a level-2
  prepare walks the tree once for both.

A planning fact derived from the schema or the statistics is computed
once per prepare: the estimator keeps each subtree's estimate and a join
region prices each edge once.  What outlives a prepare is only the
bounded cache of :func:`repro.sql.ast.qualify_all`, keyed by a variable
name and a scan's attributes; nothing is kept by query text, literal or
plan.

Every pass is semantics-preserving under the reference bag semantics; the
benchmark harness cross-validates level-2 plans against the reference
evaluator over the whole 410-benchmark suite.  Passes that cannot prove a
rewrite safe (duplicate attribute names, unresolvable references,
correlated subqueries in the wrong place) leave the tree untouched.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass, field

from repro.common.errors import SemanticsError
from repro.relational.schema import RelationalSchema
from repro.sql import ast
from repro.sql.analysis import output_attributes, resolve_attribute
from repro.sql.stats import DatabaseStats

#: Selinger-style fallbacks used when statistics are absent.
DEFAULT_ROW_COUNT = 1000.0
EQUALITY_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 1.0 / 3.0
NOT_EQUAL_SELECTIVITY = 0.9
NULL_SELECTIVITY = 0.1
SUBQUERY_SELECTIVITY = 0.5
DEFAULT_SELECTIVITY = 0.25

#: Bounds for unrolling a bounded traversal into k-hop join chains.
UNROLL_MAX_HOPS = 4
UNROLL_ROW_LIMIT = 250_000.0


# ---------------------------------------------------------------------------
# Plan reporting (the optimizer's introspection seam)
# ---------------------------------------------------------------------------


@dataclass
class TraversalPlan:
    """One recursive-vs-unrolled decision for a variable-length traversal."""

    name: str
    choice: str  # "recursive" | "unrolled"
    min_hops: int
    max_hops: int | None
    estimated_rows: float | None
    reason: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "choice": self.choice,
            "min_hops": self.min_hops,
            "max_hops": self.max_hops,
            "estimated_rows": self.estimated_rows,
            "reason": self.reason,
        }


@dataclass
class JoinPlan:
    """One join region's chosen order and predicate placement."""

    order: tuple[str, ...]
    pushed_predicates: int
    join_edges: int

    def to_dict(self) -> dict:
        return {
            "order": list(self.order),
            "pushed_predicates": self.pushed_predicates,
            "join_edges": self.join_edges,
        }


@dataclass
class PlanReport:
    """What the optimizer decided, and why — travels with the prepared query.

    Filled in by :func:`~repro.sql.optimize.optimize` when a report object
    is passed; cached alongside the plan it describes
    (:class:`~repro.backends.service.PreparedQuery`), so ``repro explain``
    shows the planner's reasoning even when the trace itself was all cache
    hits.  ``estimated_rows`` is the optimizer's final cardinality
    estimate: a recording ``query`` span carries it next to the *actual*
    ``rows``, and :meth:`~repro.backends.service.GraphitiService
    .observe_execution` compares the two to decide on a re-plan.
    """

    level: int = 0
    traversals: list[TraversalPlan] = field(default_factory=list)
    joins: list[JoinPlan] = field(default_factory=list)
    estimated_rows: float | None = None
    #: Adaptive-execution decision that produced this plan, filled in by
    #: the serving layer when estimate-vs-actual feedback triggered a
    #: re-plan (:meth:`repro.backends.service.GraphitiService
    #: .observe_execution`): epoch, reason, divergence, and the applied
    #: corrections — so ``repro explain`` shows *why* the plan changed.
    #: ``None`` for first-epoch plans.
    feedback: dict | None = None
    #: Intra-query parallelism decision, filled in by the serving layer's
    #: partition gate (:mod:`repro.backends.executor`): whether the scan
    #: was split, the chosen degree, the partitioned relation, and the
    #: reason when it stays serial — so ``repro explain`` shows the cost
    #: decision either way.  ``None`` until a parallel-enabled service
    #: prepares the query.
    parallelism: dict | None = None

    @property
    def traversal_choice(self) -> str | None:
        """The single headline choice: ``recursive``/``unrolled``/mixed."""
        choices = {traversal.choice for traversal in self.traversals}
        if not choices:
            return None
        return choices.pop() if len(choices) == 1 else "mixed"

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "traversals": [traversal.to_dict() for traversal in self.traversals],
            "joins": [join.to_dict() for join in self.joins],
            "estimated_rows": self.estimated_rows,
            "traversal_choice": self.traversal_choice,
            "feedback": self.feedback,
            "parallelism": self.parallelism,
        }


# ---------------------------------------------------------------------------
# Cardinality estimation
# ---------------------------------------------------------------------------


@dataclass
class CardinalityEstimator:
    """Estimates result sizes from table statistics (or defaults).

    *provenance* maps — attribute name → ``(relation, column)`` — let the
    estimator look up distinct-value counts for renamed attributes like
    ``n.uid`` (scan of ``USER`` under ``ρ_n``).

    One estimator estimates each subtree once: it remembers every node it
    was asked about, by identity, with its rows and provenance, so the
    planner's leaf estimates, its join ordering and the final estimate of
    the plan share one walk.  A returned provenance map is shared with the
    estimator's memo and with every later answer about that node: callers
    read it and never change it.  An estimator lives for one
    :func:`~repro.sql.optimize.optimize` call.
    """

    schema: RelationalSchema
    stats: DatabaseStats | None = None
    #: Multiplicative correction applied to every base-table row count —
    #: the adaptive-execution layer sets this from observed actual rows
    #: when the stats digest did not change but estimates keep diverging.
    row_scale: float = 1.0
    #: ``id(node)`` → ``(node, rows, provenance)``; holding the node keeps
    #: its id from being reused by another node while the memo lives.
    _memo: dict[int, tuple[ast.Query, float, dict[str, tuple[str, str]]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- relation-level statistics ------------------------------------------

    def base_rows(self, relation: str) -> float:
        if self.stats is not None and relation in self.stats:
            rows = float(max(self.stats[relation].row_count, 1))
        else:
            rows = DEFAULT_ROW_COUNT
        return max(rows * self.row_scale, 1.0)

    def distinct_values(
        self, name: str, provenance: dict[str, tuple[str, str]]
    ) -> float | None:
        """NDV of the attribute *name* resolves to, or ``None`` if unknown."""
        if self.stats is None:
            return None
        source = provenance.get(name)
        if source is None:
            source = _source(name, provenance)  # by local name
            if source is None:
                return None
        relation, column = source
        table = self.stats.get(relation)
        if table is None:
            return None
        count = table.distinct.get(column)
        return float(max(count, 1)) if count is not None else None

    # -- cardinalities ------------------------------------------------------

    def cardinality(self, query: ast.Query) -> float:
        """Estimated output rows of *query*, clamped to sane floors.

        Degenerate inputs (empty tables, NDV-0 columns, ``LIMIT 0``) must
        never produce 0- or NaN-shaped estimates: a zero-cost subtree makes
        every join order containing it tie at zero and the greedy
        reorderer's choice becomes arbitrary.
        """
        return self._estimate(query)[0]

    def provenance(self, query: ast.Query) -> dict[str, tuple[str, str]]:
        """Best-effort attribute → (relation, column) map for *query*."""
        return self._estimate(query)[1]

    def _estimate(self, query: ast.Query) -> tuple[float, dict[str, tuple[str, str]]]:
        """:meth:`cardinality` and :meth:`provenance` of *query*: every
        subtree's rows and provenance are computed once per estimator, and
        the rows are clamped at every level."""
        known = self._memo.get(id(query))
        if known is not None:
            return known[1], known[2]
        estimate, provenance = self._estimate_node(query)
        rows = DEFAULT_ROW_COUNT if math.isnan(estimate) else max(estimate, 1.0)
        self._memo[id(query)] = (query, rows, provenance)
        return rows, provenance

    def _estimate_node(
        self, query: ast.Query
    ) -> tuple[float, dict[str, tuple[str, str]]]:
        if isinstance(query, ast.Relation):
            try:
                attributes = self.schema.relation(query.name).attributes
            except Exception:
                attributes = ()  # a CTE reference
            return (
                self.base_rows(query.name),
                {a: (query.name, a) for a in attributes},
            )
        if isinstance(query, ast.Selection):
            inner, provenance = self._estimate(query.query)
            return (
                max(inner * self.selectivity(query.predicate, provenance), 1.0),
                provenance,
            )
        if isinstance(query, ast.Projection):
            inner, provenance = self._estimate(query.query)
            projected = _projected_provenance(provenance, query.columns)
            return (max(inner * 0.5, 1.0) if query.distinct else inner), projected
        if isinstance(query, ast.Renaming):
            inner, provenance = self._estimate(query.query)
            if isinstance(query.query, ast.Relation):
                # A scan's provenance names every attribute it outputs, in order.
                names = ast.qualify_all(query.name, tuple(provenance))
                return inner, dict(zip(names, provenance.values()))
            attributes = output_attributes(query.query, self.schema) or ()
            renamed = {
                ast.qualify(query.name, a): provenance[a]
                for a in attributes
                if a in provenance
            }
            return inner, renamed
        if isinstance(query, ast.Join):
            left, left_provenance = self._estimate(query.left)
            right, right_provenance = self._estimate(query.right)
            provenance = {**left_provenance, **right_provenance}
            if query.kind is ast.JoinKind.CROSS:
                return left * right, provenance
            joined = left * right * self.selectivity(query.predicate, provenance)
            if query.kind is ast.JoinKind.INNER:
                return max(joined, 1.0), provenance
            if query.kind is ast.JoinKind.LEFT:
                return max(joined, left), provenance
            if query.kind is ast.JoinKind.RIGHT:
                return max(joined, right), provenance
            return max(joined, left + right), provenance
        if isinstance(query, ast.UnionOp):
            total = self._estimate(query.left)[0] + self._estimate(query.right)[0]
            return (total if query.all else max(total * 0.5, 1.0)), {}
        if isinstance(query, ast.GroupBy):
            inner, provenance = self._estimate(query.query)
            projected = _projected_provenance(provenance, query.columns)
            if not query.keys:
                return 1.0, projected
            groups = 1.0
            for key in query.keys:
                if isinstance(key, ast.AttributeRef):
                    distinct = self.distinct_values(key.name, provenance)
                    groups *= distinct if distinct is not None else inner ** 0.5
                else:
                    groups *= inner ** 0.5
            return max(min(groups, inner), 1.0), projected
        if isinstance(query, ast.WithQuery):
            return self._estimate(query.body)
        if isinstance(query, ast.RecursiveQuery):
            # A traversal fixpoint yields at most distinct endpoint pairs;
            # estimate one extra hop's growth per bounded hop (capped).
            base = self._estimate(query.base)[0]
            info = query.reach
            hops = info.max_hops if info is not None and info.max_hops else 4
            return max(base * float(min(hops, 4)), 1.0), {}
        if isinstance(query, ast.OrderBy):
            inner, provenance = self._estimate(query.query)
            if query.limit is not None:
                # LIMIT 0 still floors at one row — a zero estimate would
                # poison every join order containing this subtree.
                return min(inner, float(max(query.limit, 1))), provenance
            return inner, provenance
        return DEFAULT_ROW_COUNT, {}

    # -- selectivities ------------------------------------------------------

    def selectivity(
        self, predicate: ast.Predicate, provenance: dict[str, tuple[str, str]]
    ) -> float:
        if isinstance(predicate, ast.BoolLit):
            return 1.0 if predicate.value else 0.0
        if isinstance(predicate, ast.Comparison):
            return self._comparison_selectivity(predicate, provenance)
        if isinstance(predicate, ast.IsNull):
            return 1.0 - NULL_SELECTIVITY if predicate.negated else NULL_SELECTIVITY
        if isinstance(predicate, ast.InValues):
            if isinstance(predicate.operand, ast.AttributeRef):
                distinct = self.distinct_values(predicate.operand.name, provenance)
                if distinct is not None:
                    return min(len(predicate.values) / distinct, 1.0)
            return min(len(predicate.values) * EQUALITY_SELECTIVITY, 1.0)
        if isinstance(predicate, (ast.InQuery, ast.ExistsQuery)):
            return SUBQUERY_SELECTIVITY
        if isinstance(predicate, ast.And):
            return self.selectivity(predicate.left, provenance) * self.selectivity(
                predicate.right, provenance
            )
        if isinstance(predicate, ast.Or):
            left = self.selectivity(predicate.left, provenance)
            right = self.selectivity(predicate.right, provenance)
            return min(left + right - left * right, 1.0)
        if isinstance(predicate, ast.Not):
            return 1.0 - self.selectivity(predicate.operand, provenance)
        return DEFAULT_SELECTIVITY

    def _comparison_selectivity(
        self, predicate: ast.Comparison, provenance: dict[str, tuple[str, str]]
    ) -> float:
        left, right = predicate.left, predicate.right
        if predicate.op == "=":
            if isinstance(left, ast.AttributeRef) and isinstance(
                right, ast.AttributeRef
            ):
                ndv_left = self.distinct_values(left.name, provenance)
                ndv_right = self.distinct_values(right.name, provenance)
                # A known NDV is at least 1, so 0 stands for both unknown.
                known = max(ndv_left or 0.0, ndv_right or 0.0)
                return 1.0 / known if known else EQUALITY_SELECTIVITY
            if isinstance(left, ast.AttributeRef) or isinstance(
                right, ast.AttributeRef
            ):
                ref = left if isinstance(left, ast.AttributeRef) else right
                distinct = self.distinct_values(ref.name, provenance)
                if distinct is not None:
                    return 1.0 / distinct
            return EQUALITY_SELECTIVITY
        if predicate.op == "<>":
            return NOT_EQUAL_SELECTIVITY
        return RANGE_SELECTIVITY


def _projected_provenance(
    inner: dict[str, tuple[str, str]], columns: tuple[ast.OutputColumn, ...]
) -> dict[str, tuple[str, str]]:
    """Provenance of a projection's (or aggregation's) output columns:
    each plain attribute reference keeps its input attribute's source."""
    out: dict[str, tuple[str, str]] = {}
    for column in columns:
        expression = column.expression
        if isinstance(expression, ast.AttributeRef):
            source = _source(expression.name, inner)
            if source is not None:
                out[column.alias] = source
    return out


def _resolved(name: str, attributes: Collection[str]) -> str | None:
    """The attribute *name* resolves to among *attributes*, or ``None`` when
    none does or the name is ambiguous (the rewrite then declines)."""
    try:
        return resolve_attribute(name, attributes)
    except SemanticsError:
        return None


def _source(
    name: str, provenance: dict[str, tuple[str, str]]
) -> tuple[str, str] | None:
    """The source of the attribute *name* resolves to in *provenance*."""
    source = provenance.get(name)
    if source is None:
        attribute = _resolved(name, provenance)
        if attribute is not None:
            source = provenance[attribute]
    return source


# ---------------------------------------------------------------------------
# Reference collection
# ---------------------------------------------------------------------------


def _refs(node: ast.Expression | ast.Predicate) -> set[str] | None:
    """Attribute names referenced by an expression or predicate; ``None``
    when a subquery makes the set statically unknowable (correlation)."""
    names: set[str] = set()

    def note(ref: ast.AttributeRef) -> ast.AttributeRef:
        names.add(ref.name)
        return ref

    return None if ast.map_refs(node, note) is None else names


# ---------------------------------------------------------------------------
# Recursion unrolling (variable-length traversals)
# ---------------------------------------------------------------------------


def expand_recursions(
    query: ast.Query,
    estimator: CardinalityEstimator,
    report: PlanReport | None = None,
    force_recursive: bool = False,
) -> ast.Query:
    """Rewrite cheap bounded traversal fixpoints into unrolled join chains.

    Every :class:`~repro.sql.ast.RecursiveQuery` carrying traversal
    metadata (:class:`~repro.sql.ast.ReachInfo`) with a bounded upper hop
    count is a candidate.  The unrolled plan — ``UNION`` over ``k ∈
    [max(lo,1), hi]`` of a *k*-way self-join of the one-hop CTE, projected
    to distinct endpoint pairs — is bag-equivalent to the distinct-union
    fixpoint and lets engines use ordinary join machinery, but its
    intermediate results grow with the per-hop fan-out; the rewrite only
    fires while :func:`_unrolled_rows` stays under
    :data:`UNROLL_ROW_LIMIT` (statistics-driven; generous defaults apply
    when no statistics were collected).  Open upper bounds always keep the
    recursive CTE.

    *force_recursive* keeps every fixpoint as a recursive CTE regardless of
    cost — the serving layer's budget downgrade: an unrolled plan whose
    join chains blew a query budget is re-planned this way, trading the
    engine-friendly shape for the fixpoint's incremental frontier.

    :func:`plan_joins` makes the same choice inside its own walk; this
    walk serves callers that unroll without planning joins.
    """

    def visit(rebuilt: ast.RecursiveQuery) -> ast.Query:
        unrolled, reason, estimate = _unroll_choice(rebuilt, estimator, force_recursive)
        _note_traversal(report, rebuilt, unrolled, reason, estimate)
        return unrolled if unrolled is not None else rebuilt

    return _rewrite_recursions(query, visit)


def _unroll_choice(
    node: ast.RecursiveQuery, estimator: CardinalityEstimator, force_recursive: bool
) -> tuple[ast.Query | None, str, float | None]:
    """:func:`_unroll_reach` of *node*, or no unrolling when *force_recursive*."""
    if force_recursive:
        return None, "forced recursive (budget downgrade)", None
    return _unroll_reach(node, estimator)


def _note_traversal(
    report: PlanReport | None,
    node: ast.RecursiveQuery,
    unrolled: ast.Query | None,
    reason: str,
    estimate: float | None,
) -> None:
    """Record the recursive-vs-unrolled choice for *node* on *report*."""
    if report is not None and node.reach is not None:
        report.traversals.append(
            TraversalPlan(
                name=node.name,
                choice="unrolled" if unrolled is not None else "recursive",
                min_hops=node.reach.min_hops,
                max_hops=node.reach.max_hops,
                estimated_rows=estimate,
                reason=reason,
            )
        )


def cap_recursions(
    query: ast.Query,
    depth_cap: int,
    report: PlanReport | None = None,
) -> ast.Query:
    """Bound every traversal fixpoint to walks of at most *depth_cap* hops.

    The budget enforcement of ``QueryBudget.max_depth`` for engine
    execution: a traversal whose upper hop bound is open (or above the
    cap) is rebuilt with a bounded step — honest depth increments and a
    ``depth < cap`` extension predicate — so the engine's recursive CTE
    stops at the cap instead of saturating the full reachable set.  For an
    open-bound traversal this *restricts* the result to endpoints
    reachable within the cap (the documented lossy downgrade: bounded
    answers instead of unbounded work); for a bounded one above the cap it
    is the same restriction.  Only the canonical transpiler step shape is
    rewritten — anything else is left untouched (always safe).
    """

    def visit(rebuilt: ast.RecursiveQuery) -> ast.Query:
        capped, reason = _cap_reach(rebuilt, depth_cap)
        if capped is not None and report is not None and rebuilt.reach is not None:
            report.traversals.append(
                TraversalPlan(
                    name=rebuilt.name,
                    choice="depth-capped",
                    min_hops=rebuilt.reach.min_hops,
                    max_hops=depth_cap,
                    estimated_rows=None,
                    reason=reason,
                )
            )
        return capped if capped is not None else rebuilt

    return _rewrite_recursions(query, visit)


def _rewrite_recursions(
    query: ast.Query,
    visit,
) -> ast.Query:
    """Apply *visit* to every :class:`~repro.sql.ast.RecursiveQuery` in
    *query* (children already rewritten), rebuilding the tree around the
    replacements — the traversal skeleton shared by
    :func:`expand_recursions` and :func:`cap_recursions`."""

    def walk_query(node: ast.Query) -> ast.Query:
        rebuilt = ast.map_children(node, walk_query, walk_predicate)
        if isinstance(rebuilt, ast.RecursiveQuery):
            return visit(rebuilt)
        return rebuilt

    def walk_predicate(predicate: ast.Predicate) -> ast.Predicate:
        return ast.map_predicate(predicate, walk_query)

    return walk_query(query)


def _cap_reach(
    node: ast.RecursiveQuery, depth_cap: int
) -> tuple[ast.Query | None, str]:
    """A depth-capped rebuild of *node* (or ``None`` to leave it alone),
    with the reason either way."""
    from dataclasses import replace as dc_replace

    info = node.reach
    if info is None:
        return None, "no traversal metadata"
    if info.max_hops is not None and info.max_hops <= depth_cap:
        return None, f"already bounded at {info.max_hops} <= cap {depth_cap}"
    if len(node.columns) != 3:
        return None, "no depth column"
    step = node.step
    if not (isinstance(step, ast.Projection) and isinstance(step.query, ast.Join)):
        return None, "unrecognised step shape"
    join = step.query
    if not (
        isinstance(join.left, ast.Renaming)
        and isinstance(join.left.query, ast.Relation)
        and join.left.query.name == node.name
        and isinstance(join.right, ast.Renaming)
        and isinstance(join.right.query, ast.Relation)
    ):
        return None, "unrecognised step shape"
    walker, stepper = join.left.name, join.right.name
    hop_relation = join.right.query.name
    source, target, depth = node.columns
    depth_ref = ast.AttributeRef(f"{walker}.{depth}")
    # The canonical step, rebuilt bounded: honest +1 depth increments and
    # a `depth < cap` extension guard (mirrors the transpiler's bounded
    # branch, with the cap as the upper bound).
    capped_step = ast.Projection(
        ast.Join(
            ast.JoinKind.INNER,
            ast.Renaming(walker, ast.Relation(node.name)),
            ast.Renaming(stepper, ast.Relation(hop_relation)),
            ast.And(
                ast.Comparison(
                    "=",
                    ast.AttributeRef(f"{stepper}.{source}"),
                    ast.AttributeRef(f"{walker}.{target}"),
                ),
                ast.Comparison("<", depth_ref, ast.Literal(depth_cap)),
            ),
        ),
        (
            ast.OutputColumn(source, ast.AttributeRef(f"{walker}.{source}")),
            ast.OutputColumn(target, ast.AttributeRef(f"{stepper}.{target}")),
            ast.OutputColumn(depth, ast.BinaryOp("+", depth_ref, ast.Literal(1))),
        ),
    )
    previous = "open" if info.max_hops is None else str(info.max_hops)
    capped = ast.RecursiveQuery(
        node.name,
        node.columns,
        node.base,
        capped_step,
        node.body,
        node.union_all,
        dc_replace(info, max_hops=depth_cap),
    )
    return capped, f"budget max_depth={depth_cap} (was {previous})"


def _unroll_reach(
    node: ast.RecursiveQuery, estimator: CardinalityEstimator
) -> tuple[ast.Query | None, str, float | None]:
    """The unrolled replacement for *node* (or ``None`` to keep recursion),
    the human-readable reason for the choice, and the estimated size of the
    longest unrolled chain when it was computed."""
    info = node.reach
    if info is None:
        return None, "no traversal metadata", None
    if info.max_hops is None:
        return None, "open upper hop bound", None
    lo = max(info.min_hops, 1)
    hi = info.max_hops
    if hi < lo:
        return None, f"empty hop range ({lo}..{hi})", None
    if hi > UNROLL_MAX_HOPS:
        return None, f"upper bound {hi} > unroll limit {UNROLL_MAX_HOPS}", None
    estimate = _unrolled_rows(info, estimator)
    if estimate > UNROLL_ROW_LIMIT:
        return (
            None,
            f"estimated chain rows {estimate:.0f} > limit {UNROLL_ROW_LIMIT:.0f}",
            estimate,
        )
    source, target = node.columns[0], node.columns[1]
    chains = [
        _hop_chain(node.name, info.hop_relation, k, source, target)
        for k in range(lo, hi + 1)
    ]
    unrolled = chains[0]
    for chain in chains[1:]:
        unrolled = ast.UnionOp(unrolled, chain, all=False)
    reason = (
        f"estimated chain rows {estimate:.0f} ≤ limit {UNROLL_ROW_LIMIT:.0f}"
    )
    return unrolled, reason, estimate


def _hop_chain(
    stem: str, hop_relation: str, hops: int, source: str, target: str
) -> ast.Query:
    """Distinct endpoint pairs of exactly *hops* hops: a k-way join chain."""
    aliases = [f"{stem}_h{index}" for index in range(1, hops + 1)]
    joined: ast.Query = ast.Renaming(aliases[0], ast.Relation(hop_relation))
    for previous, alias in zip(aliases, aliases[1:]):
        joined = ast.Join(
            ast.JoinKind.INNER,
            joined,
            ast.Renaming(alias, ast.Relation(hop_relation)),
            ast.Comparison(
                "=",
                ast.AttributeRef(f"{alias}.{source}"),
                ast.AttributeRef(f"{previous}.{target}"),
            ),
        )
    return ast.Projection(
        joined,
        (
            ast.OutputColumn(source, ast.AttributeRef(f"{aliases[0]}.{source}")),
            ast.OutputColumn(target, ast.AttributeRef(f"{aliases[-1]}.{target}")),
        ),
        distinct=True,
    )


def _unrolled_rows(info: ast.ReachInfo, estimator: CardinalityEstimator) -> float:
    """Estimated intermediate size of the longest unrolled chain.

    One hop contributes the edge table's row count; every further hop
    multiplies by the per-hop fan-out — rows over the NDV of the column(s)
    a hop leaves from (both endpoint columns for undirected traversal).
    Without statistics the Selinger default row count applies with a
    conservative fan-out of 1, so small bounded traversals unroll.
    """
    assert info.max_hops is not None
    rows = estimator.base_rows(info.edge_table)
    fanout = 0.0
    table = estimator.stats.get(info.edge_table) if estimator.stats else None
    for column in info.fanout_columns:
        distinct = table.distinct_of(column) if table is not None else None
        if distinct:
            fanout += rows / float(max(distinct, 1))
        else:
            fanout += 1.0
    return rows * fanout ** max(info.max_hops - 1, 0)


# ---------------------------------------------------------------------------
# Join-graph planning
# ---------------------------------------------------------------------------


@dataclass
class _Conjunct:
    """One decomposed conjunct with its placement analysis."""

    predicate: ast.Predicate
    leaves: frozenset[int]


def plan_joins(
    query: ast.Query,
    schema: RelationalSchema,
    estimator: CardinalityEstimator,
    report: PlanReport | None = None,
    force_recursive: bool = False,
) -> ast.Query:
    """Rewrite every CROSS/INNER join region of *query* into a pushed-down,
    greedily ordered equi-join tree (see the module docstring), unrolling
    each bounded traversal on the way as :func:`expand_recursions` would
    (*force_recursive* as there), so one walk does both."""
    return _Planner(schema, estimator, report, force_recursive).plan(query, {})


def _leaf_label(leaf: ast.Query) -> str:
    """A short human-readable name for a join-region leaf (plan reports)."""
    if isinstance(leaf, ast.Renaming):
        return f"{_leaf_label(leaf.query)} as {leaf.name}"
    if isinstance(leaf, ast.Relation):
        return leaf.name
    return type(leaf).__name__.lower()


#: The join kinds a join region flattens.
_REGION_KINDS = (ast.JoinKind.CROSS, ast.JoinKind.INNER)


class _Planner:
    def __init__(
        self,
        schema: RelationalSchema,
        estimator: CardinalityEstimator,
        report: PlanReport | None = None,
        force_recursive: bool = False,
    ):
        self.schema = schema
        self.estimator = estimator
        self.report = report
        self.force_recursive = force_recursive

    # -- traversal ----------------------------------------------------------

    def plan(self, query: ast.Query, ctes: dict[str, tuple[str, ...]]) -> ast.Query:
        if isinstance(query, ast.Relation) or (
            isinstance(query, ast.Renaming) and isinstance(query.query, ast.Relation)
        ):
            return query  # a scan, renamed or not, holds nothing to plan
        top = query.query if isinstance(query, ast.Selection) else query
        if isinstance(top, ast.Join) and top.kind in _REGION_KINDS:
            return self._plan_region(query, ctes)
        if isinstance(query, ast.RecursiveQuery):
            return self._plan_recursion(query, ctes)
        return self._plan_children(query, ctes)

    def _plan_children(
        self, query: ast.Query, ctes: dict[str, tuple[str, ...]]
    ) -> ast.Query:
        if isinstance(query, ast.WithQuery):
            # The body sees the CTE's attributes; extend the environment.
            definition = self.plan(query.definition, ctes)
            attributes = output_attributes(definition, self.schema, ctes)
            extended = dict(ctes)
            if attributes is not None:
                extended[query.name] = attributes
            return ast.WithQuery(query.name, definition, self.plan(query.body, extended))
        return ast.map_children(
            query,
            lambda q: self.plan(q, ctes),
            lambda p: self._plan_predicate(p, ctes),
        )

    def _plan_predicate(
        self, predicate: ast.Predicate, ctes: dict[str, tuple[str, ...]]
    ) -> ast.Predicate:
        return ast.map_predicate(predicate, lambda q: self.plan(q, ctes))

    def _plan_recursion(
        self, query: ast.RecursiveQuery, ctes: dict[str, tuple[str, ...]]
    ) -> ast.Query:
        """The join chains that replace *query* when it unrolls, planned;
        else *query* with its operands planned.  An unrolled fixpoint's
        operands are dropped unplanned."""
        unrolled, reason, estimate = _unroll_choice(
            query, self.estimator, self.force_recursive
        )
        if unrolled is not None:
            _note_traversal(self.report, query, unrolled, reason, estimate)
            return self.plan(unrolled, ctes)
        planned = self._plan_children(query, ctes)
        _note_traversal(self.report, query, None, reason, estimate)
        return planned

    # -- one region ---------------------------------------------------------

    def _plan_region(
        self, root: ast.Query, ctes: dict[str, tuple[str, ...]]
    ) -> ast.Query:
        if isinstance(root, ast.Selection):
            top_conjuncts = ast.conjuncts(root.predicate)
            tree = root.query
        else:
            top_conjuncts = []
            tree = root

        leaves: list[ast.Query] = []
        inner_conjuncts: list[ast.Predicate] = []

        def collect(node: ast.Query) -> None:
            if isinstance(node, ast.Join) and node.kind in _REGION_KINDS:
                collect(node.left)
                collect(node.right)
                if node.kind is ast.JoinKind.INNER:
                    inner_conjuncts.extend(ast.conjuncts(node.predicate))
            else:
                leaves.append(node)

        collect(tree)

        # Hoisting an inner-join predicate that embeds a subquery to the
        # region top could change what its (correlated) references capture;
        # leave such regions untouched (shape preserved, leaves still planned).
        inner_refs = [(conjunct, _refs(conjunct)) for conjunct in inner_conjuncts]
        for _, refs in inner_refs:
            if refs is None:
                return self._rebuild_original(root, ctes)

        leaf_attrs = [output_attributes(leaf, self.schema, ctes) for leaf in leaves]
        if None in leaf_attrs:
            return self._rebuild_original(root, ctes)

        # Attribute → index of the leaf that outputs it.
        owner: dict[str, int] = {}
        for index, attrs in enumerate(leaf_attrs):
            for attribute in attrs:
                if attribute in owner:
                    return self._rebuild_original(root, ctes)
                owner[attribute] = index

        leaves = [self.plan(leaf, ctes) for leaf in leaves]
        pushed: list[list[ast.Predicate]] = [[] for _ in leaves]
        edges: dict[frozenset[int], list[ast.Predicate]] = {}
        filters: list[_Conjunct] = []
        residual: list[ast.Predicate] = []

        top_refs = [(conjunct, _refs(conjunct)) for conjunct in top_conjuncts]
        for conjunct, refs in top_refs + inner_refs:
            if refs is None:
                # A region-top conjunct with a subquery stays where it is;
                # only the traversals under it unroll.
                residual.append(self._unroll_subqueries(conjunct))
                continue
            renames: dict[str, str] = {}
            read: set[int] = set()
            unresolved = False
            for name in refs:
                index = owner.get(name)
                if index is None:
                    resolved = _resolved(name, owner)
                    if resolved is None:
                        unresolved = True
                        break
                    renames[name] = resolved
                    index = owner[resolved]
                read.add(index)
            if unresolved:
                residual.append(conjunct)
                continue
            # Only a reference that resolves to another name is rebuilt.
            rewritten = conjunct
            if renames:
                rewritten = ast.map_refs(
                    conjunct,
                    lambda ref: ast.AttributeRef(renames[ref.name])
                    if ref.name in renames
                    else ref,
                )
            leaf_set = frozenset(read)
            if len(leaf_set) == 0:
                residual.append(rewritten)
            elif len(leaf_set) == 1:
                pushed[next(iter(leaf_set))].append(rewritten)
            elif (
                len(leaf_set) == 2
                and isinstance(rewritten, ast.Comparison)
                and rewritten.op == "="
                and isinstance(rewritten.left, ast.AttributeRef)
                and isinstance(rewritten.right, ast.AttributeRef)
            ):
                edges.setdefault(leaf_set, []).append(rewritten)
            else:
                filters.append(_Conjunct(rewritten, leaf_set))

        filtered_leaves = [
            ast.Selection(leaf, ast.conjoin(preds)) if preds else leaf
            for leaf, preds in zip(leaves, pushed)
        ]
        estimate = self.estimator._estimate
        cardinalities: list[float] = []
        provenance: dict[str, tuple[str, str]] = {}
        for leaf, filtered in zip(leaves, filtered_leaves):
            cardinalities.append(estimate(filtered)[0])
            provenance.update(estimate(leaf)[1])

        # Each leaf's edges, in the order they were found, with the leaf at
        # the other end and the selectivity of each of the edge's conjuncts
        # (priced once per region).
        incident: list[list[tuple[int, list[ast.Predicate], list[float]]]] = [
            [] for _ in leaves
        ]
        selectivity = self.estimator.selectivity
        for pair, conjuncts_ in edges.items():
            factors = [selectivity(conjunct, provenance) for conjunct in conjuncts_]
            first, second = pair
            incident[first].append((second, conjuncts_, factors))
            incident[second].append((first, conjuncts_, factors))

        order = _greedy_order(cardinalities, incident)

        if self.report is not None and len(leaves) > 1:
            self.report.joins.append(
                JoinPlan(
                    order=tuple([_leaf_label(leaves[index]) for index in order]),
                    pushed_predicates=sum(map(len, pushed)),
                    join_edges=sum(map(len, edges.values())),
                )
            )

        joined = filtered_leaves[order[0]]
        placed = {order[0]}
        remaining_filters = filters
        for index in order[1:]:
            join_preds: list[ast.Predicate] = []
            for other, conjuncts_, _ in incident[index]:
                if other in placed:
                    join_preds.extend(conjuncts_)
            placed.add(index)
            still_pending: list[_Conjunct] = []
            for item in remaining_filters:
                if item.leaves <= placed:
                    join_preds.append(item.predicate)
                else:
                    still_pending.append(item)
            remaining_filters = still_pending
            if join_preds:
                joined = ast.Join(
                    ast.JoinKind.INNER,
                    joined,
                    filtered_leaves[index],
                    ast.conjoin(join_preds),
                )
            else:
                joined = ast.Join(ast.JoinKind.CROSS, joined, filtered_leaves[index])

        result: ast.Query = joined
        if residual:
            result = ast.Selection(result, ast.conjoin(residual))

        original_order = [a for attrs in leaf_attrs for a in attrs]
        new_order = [a for i in order for a in leaf_attrs[i]]
        if new_order != original_order:
            result = ast.Projection(
                result,
                tuple(
                    ast.OutputColumn(a, ast.AttributeRef(a)) for a in original_order
                ),
            )
        return result

    def _unroll_subqueries(self, predicate: ast.Predicate) -> ast.Predicate:
        """*predicate* with every traversal under its subqueries unrolled as
        :func:`expand_recursions` would, and no join planned there."""
        return ast.map_predicate(
            predicate,
            lambda query: expand_recursions(
                query, self.estimator, self.report, self.force_recursive
            ),
        )

    def _rebuild_original(
        self, node: ast.Query, ctes: dict[str, tuple[str, ...]]
    ) -> ast.Query:
        """Fallback when a region cannot be analysed: keep its exact shape
        (every predicate stays where it was) while still planning the
        non-join subtrees underneath."""
        if isinstance(node, ast.Selection) or (
            isinstance(node, ast.Join) and node.kind in _REGION_KINDS
        ):
            return ast.map_children(
                node,
                lambda q: self._rebuild_original(q, ctes),
                lambda p: self._plan_predicate(p, ctes),
            )
        return self.plan(node, ctes)


def _greedy_order(
    cardinalities: list[float],
    incident: list[list[tuple[int, list[ast.Predicate], list[float]]]],
) -> list[int]:
    """Left-deep greedy ordering: cheapest start, then the connected leaf
    minimizing the estimated intermediate result at each step.  *incident*
    lists each leaf's edges as ``(other leaf, conjuncts, selectivities)``."""
    remaining = set(range(len(cardinalities)))
    start = min(remaining, key=lambda i: (cardinalities[i], i))
    order = [start]
    placed = {start}
    remaining.remove(start)
    accumulated = cardinalities[start]
    while remaining:
        best: tuple[bool, float, int] | None = None
        for candidate in remaining:
            selectivity = 1.0
            connected = False
            for other, _, factors in incident[candidate]:
                if other in placed:
                    connected = True
                    for factor in factors:
                        selectivity *= factor
            estimate = accumulated * cardinalities[candidate] * selectivity
            key = (not connected, estimate, candidate)
            if best is None or key < best:
                best = key
        assert best is not None
        _, accumulated, chosen = best
        accumulated = max(accumulated, 1.0)
        order.append(chosen)
        placed.add(chosen)
        remaining.remove(chosen)
    return order


# ---------------------------------------------------------------------------
# Dead-column pruning
# ---------------------------------------------------------------------------


def prune_columns(query: ast.Query, schema: RelationalSchema) -> ast.Query:
    """Drop projection/aggregation output columns no ancestor references.

    Top-down: the root keeps its full output; below it, each projection is
    narrowed to the attributes its consumers actually use.  ``None`` as the
    requirement set means "keep everything" — used at the root and whenever
    a subquery predicate makes the consumed set unknowable.
    """
    return _prune(query, None)


def _columns_refs(columns: tuple[ast.OutputColumn, ...]) -> set[str] | None:
    out: set[str] = set()
    for column in columns:
        refs = _refs(column.expression)
        if refs is None:
            return None
        out |= refs
    return out


def _union(*sets: set[str] | None) -> set[str] | None:
    merged: set[str] = set()
    for one in sets:
        if one is None:
            return None
        merged |= one
    return merged


def _prune(query: ast.Query, required: set[str] | None) -> ast.Query:
    """*query* narrowed to *required*; the node itself when neither its
    children nor its columns changed."""
    if isinstance(query, ast.Projection):
        kept = _kept_columns(query.columns, None if query.distinct else required)
        child = _prune(query.query, _columns_refs(kept))
        if child is query.query and kept is query.columns:
            return query
        return ast.Projection(child, kept, query.distinct)
    if isinstance(query, ast.GroupBy):
        kept = _kept_columns(query.columns, required)
        key_refs = _union(*map(_refs, query.keys))
        child = _prune(
            query.query,
            _union(key_refs, _columns_refs(kept), _refs(query.having)),
        )
        if child is query.query and kept is query.columns:
            return query
        return ast.GroupBy(child, query.keys, kept, query.having)
    if isinstance(query, (ast.Selection, ast.Join)):
        child_required = (
            None if required is None else _union(required, _refs(query.predicate))
        )
        return ast.map_children(query, lambda q: _prune(q, child_required))
    if isinstance(query, ast.Renaming) and isinstance(query.query, ast.Relation):
        return query  # a renamed scan has no column to narrow
    if isinstance(query, (ast.Renaming, ast.UnionOp)):
        # Bag union is positional; pruning either side independently would
        # misalign columns, so both sides (like a renaming's input) keep
        # everything.
        return ast.map_children(query, lambda q: _prune(q, None))
    if isinstance(query, ast.WithQuery):
        definition = _prune(query.definition, None)
        body = _prune(query.body, required)
        if definition is query.definition and body is query.body:
            return query
        return ast.WithQuery(query.name, definition, body)
    if isinstance(query, ast.OrderBy):
        child_required = (
            None
            if required is None
            else _union(required, *map(_refs, query.keys))
        )
        return ast.map_children(query, lambda q: _prune(q, child_required))
    return query


def _kept_columns(
    columns: tuple[ast.OutputColumn, ...], required: set[str] | None
) -> tuple[ast.OutputColumn, ...]:
    """The columns the names in *required* resolve to (at least the first
    one); *columns* itself when all are kept, when *required* is ``None``
    (keep everything) or when a name is ambiguous among them."""
    if required is None:
        return columns
    aliases = [column.alias for column in columns]
    try:
        needed = {resolve_attribute(name, aliases) for name in required}
    except SemanticsError:
        return columns
    kept = tuple(c for c in columns if c.alias in needed)
    if len(kept) == len(columns):
        return columns
    return kept or (columns[0],)
