"""Rule-based simplification and cost-based optimization of Featherweight SQL.

The transpiler emits one algebra node per translation rule, which is
faithful but deeply nested.  This module exposes three optimization
levels:

* **level 0** — no rewriting at all (the raw transpiler output);
* **level 1** — the semantics-preserving local rewrites below, applied
  in one bottom-up pass until none fires anywhere;
* **level 2** — level 1 plus the cost-based passes of
  :mod:`repro.sql.planner`: recursion unrolling (bounded variable-length
  traversals become UNIONs of k-hop join chains when statistics say the
  unrolled plan is cheap), join-graph extraction with predicate pushdown
  (cross products become equi-joins), greedy join reordering driven by
  table statistics, and dead-column projection pruning.  Level 2 needs
  the relational *schema* (to reason about scopes) and optionally
  :mod:`repro.sql.stats` table statistics (to rank join orders by
  estimated cardinality).

Level-1 rewrites:

* ``σ_TRUE(Q) → Q``
* ``σ_p(σ_q(Q)) → σ_{q ∧ p}(Q)``
* ``Π_L(Π_M(Q)) → Π_{L∘M}(Q)``           (expression inlining)
* ``σ_p(Π_M(Q)) → Π_M(σ_{p∘M}(Q))``      (selection pushdown)
* ``ρ_T(Π_M(Q)) → Π_{rename(M)}(Q)``     (renaming as projection)
* ``ρ_T(ρ_S(Q)) → Π(...)``               (via the rule above)
* ``GroupBy(Π_M(Q), ...) → GroupBy(Q, ...)`` with substituted keys/columns

Substitution only fires when the inner projection's expressions are pure
(aggregate-free) and every reference resolves; otherwise the tree is left
untouched, so the pass is always safe.  The test suite cross-validates the
optimizer against the reference evaluator on the whole benchmark suite at
every level.

The rules run as one bottom-up normalizer: a node's children (and attached
predicates) are normalized first, then the rules fire at the node until
none does, and a node a rule builds — the pushdown's new inner selection —
is settled before its parent retries.  Tree walks hand back a node itself
when nothing under it changed, so a walk allocates only where a rule fires
and callers detect "no change" with ``is``.
"""

from __future__ import annotations

import typing

from repro.common.errors import SemanticsError
from repro.common.expressions import has_aggregate
from repro.sql import ast
from repro.sql.analysis import resolve_attribute

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.schema import RelationalSchema
    from repro.sql.stats import DatabaseStats

#: Optimization levels accepted by :func:`optimize` (and the CLI ``--opt``).
OPT_LEVELS = (0, 1, 2)
DEFAULT_OPT_LEVEL = 2


#: Rule applications at one node before the normalizer stops rewriting it.
_MAX_REWRITES_PER_NODE = 50


def optimize(
    query: ast.Query,
    level: int = 1,
    schema: "RelationalSchema | None" = None,
    stats: "DatabaseStats | None" = None,
    report: "object | None" = None,
    force_recursive: bool = False,
    depth_cap: "int | None" = None,
    row_scale: float = 1.0,
) -> ast.Query:
    """Optimize *query* at *level* (see the module docstring).

    ``optimize(query)`` keeps its historical meaning: level-1 local
    rewrites only.  Level 2 falls back to level 1 when *schema* is not
    provided (the planner cannot reason about scopes without it).

    *report*, when given, is a :class:`~repro.sql.planner.PlanReport` the
    level-2 passes fill with their decisions (recursive-vs-unrolled
    traversal choices, join orders, the final cardinality estimate) —
    the introspection seam ``repro explain`` renders.

    The serving layer's query budgets reach the planner through two knobs:
    *force_recursive* keeps every traversal fixpoint as a recursive CTE
    (the downgrade retried after an unrolled plan blew its budget), and
    *depth_cap* bounds every fixpoint to that many hops
    (:func:`~repro.sql.planner.cap_recursions` — applied at every level,
    since it enforces a budget rather than optimising).

    *row_scale* is the adaptive-execution correction: a multiplier on
    every base-table row count, set by the serving layer when observed
    actuals keep diverging from estimates without a stats change
    (:attr:`~repro.sql.planner.CardinalityEstimator.row_scale`).
    """
    if level not in OPT_LEVELS:
        raise ValueError(f"unknown optimization level {level!r} (use 0, 1, or 2)")
    if report is not None:
        report.level = level
    if depth_cap is not None:
        from repro.sql.planner import cap_recursions

        query = cap_recursions(query, depth_cap, report=report)
    if level == 0:
        return query
    query = _normalize(query)
    if level == 1 or schema is None:
        return query

    from repro.sql.planner import CardinalityEstimator, plan_joins, prune_columns

    # One estimator per call: it estimates each subtree once, for the
    # traversal and join choices and the final estimate alike.
    estimator = CardinalityEstimator(schema, stats, row_scale=row_scale)
    # A pass that returns its input (``is``) leaves the tree normal.
    planned = plan_joins(
        query, schema, estimator, report=report, force_recursive=force_recursive
    )
    if planned is not query:
        query = _normalize(planned)
    pruned = prune_columns(query, schema)
    if pruned is not query:
        query = _normalize(pruned)
    if report is not None:
        try:
            report.estimated_rows = estimator.cardinality(query)
        except Exception:
            report.estimated_rows = None  # estimation must never break planning
    return query


#: The node types a level-1 rule rewrites; no rule fires at any other.
_RULE_HEADS = (ast.Selection, ast.Projection, ast.Renaming, ast.GroupBy)

#: The predicate forms with a predicate or a subquery under them.
_COMPOUND_PREDICATES = (ast.And, ast.Or, ast.Not, ast.InQuery, ast.ExistsQuery)


def _normalize(query: ast.Query) -> ast.Query:
    """The level-1 normal form of *query* in one bottom-up pass: normalize
    the children (and attached predicates) first, then settle the node."""
    if isinstance(query, ast.Relation) or (
        isinstance(query, ast.Renaming) and isinstance(query.query, ast.Relation)
    ):
        return query  # no rule rewrites a scan, renamed or not
    query = ast.map_children(query, _normalize, _normalize_predicate)
    return _settle(query) if isinstance(query, _RULE_HEADS) else query


def _normalize_predicate(predicate: ast.Predicate) -> ast.Predicate:
    """Normalize every subquery under *predicate* and drop ``TRUE`` conjuncts."""
    if not isinstance(predicate, _COMPOUND_PREDICATES):
        return predicate
    predicate = ast.map_predicate(predicate, _normalize, _normalize_predicate)
    if isinstance(predicate, ast.And):
        if predicate.left == ast.TRUE:
            return predicate.right
        if predicate.right == ast.TRUE:
            return predicate.left
    return predicate


def _settle(query: ast.Query) -> ast.Query:
    """Apply the rules at *query*, whose children are already normal, until
    none fires.  Every rule keeps that invariant for the node it returns, so
    nothing below needs revisiting; the bound is a termination guard only
    (each rule shrinks the tree or moves a selection down)."""
    for _ in range(_MAX_REWRITES_PER_NODE):
        rewritten = _apply_rule(query)
        if rewritten is None:
            break
        query = rewritten
    return query


# ---------------------------------------------------------------------------
# The rules at one node
# ---------------------------------------------------------------------------


def _apply_rule(query: ast.Query) -> ast.Query | None:
    """The first level-1 rule that fires at *query*, applied; ``None`` when
    none does.  A rule at a new node type adds the type to
    :data:`_RULE_HEADS`, or :func:`_normalize` never tries it."""
    if isinstance(query, ast.Selection):
        if query.predicate == ast.TRUE:
            return query.query
        inner = query.query
        if isinstance(inner, ast.Selection):
            return ast.Selection(inner.query, ast.And(inner.predicate, query.predicate))
        if isinstance(inner, ast.Projection) and not inner.distinct:
            substituted = _substitute(query.predicate, inner.columns)
            if substituted is not None:
                # The new inner selection is settled before its parent retries.
                pushed = _settle(ast.Selection(inner.query, substituted))
                return ast.Projection(pushed, inner.columns)
        return None
    if isinstance(query, ast.Projection):
        inner = query.query
        if (
            isinstance(inner, ast.Projection)
            and not inner.distinct
            and _all_pure(inner.columns)
        ):
            columns = _substitute_columns(query.columns, inner.columns)
            if columns is not None:
                return ast.Projection(inner.query, columns, query.distinct)
        return None
    if isinstance(query, ast.Renaming):
        inner = query.query
        if isinstance(inner, ast.Projection) and not inner.distinct:
            renamed = tuple(
                ast.OutputColumn(ast.qualify(query.name, column.alias), column.expression)
                for column in inner.columns
            )
            return ast.Projection(inner.query, renamed)
        return None
    if isinstance(query, ast.GroupBy):
        inner = query.query
        if (
            isinstance(inner, ast.Projection)
            and not inner.distinct
            and _all_pure(inner.columns)
        ):
            keys = []
            for key in query.keys:
                substituted = _substitute(key, inner.columns)
                if substituted is None:
                    return None
                keys.append(substituted)
            columns = _substitute_columns(query.columns, inner.columns)
            having = _substitute(query.having, inner.columns)
            if columns is None or having is None:
                return None
            return ast.GroupBy(inner.query, tuple(keys), columns, having)
        return None
    return None


# ---------------------------------------------------------------------------
# Substitution through projection columns
# ---------------------------------------------------------------------------


def _all_pure(columns: tuple[ast.OutputColumn, ...]) -> bool:
    for column in columns:
        expression = column.expression
        # Only an aggregate or arithmetic can hold an aggregate.
        if isinstance(expression, (ast.Aggregate, ast.BinaryOp)) and has_aggregate(
            expression
        ):
            return False
    return True


def _substitute(
    node: ast.Expression | ast.Predicate, columns: tuple[ast.OutputColumn, ...]
) -> ast.Expression | ast.Predicate | None:
    """The expression or predicate *node* with every reference replaced by
    the inner projection column it names; ``None`` when a reference does
    not resolve (or is ambiguous) or a subquery is reached.  A subquery may
    be *correlated* with the scope being rewritten, and moving it below a
    projection could capture or lose references, so the enclosing rewrite
    is skipped, which is always safe."""
    aliases = [column.alias for column in columns]

    def lookup(ref: ast.AttributeRef) -> ast.Expression | None:
        try:
            alias = resolve_attribute(ref.name, aliases)
        except SemanticsError:
            return None
        return None if alias is None else columns[aliases.index(alias)].expression

    return ast.map_refs(node, lookup)


def _substitute_columns(
    outer: tuple[ast.OutputColumn, ...], inner: tuple[ast.OutputColumn, ...]
) -> tuple[ast.OutputColumn, ...] | None:
    out = []
    for column in outer:
        substituted = _substitute(column.expression, inner)
        if substituted is None:
            return None
        out.append(ast.OutputColumn(column.alias, substituted))
    return tuple(out)
