"""Syntax-directed transpilation of Featherweight Cypher into Featherweight
SQL over the induced relational schema (paper Section 5.2, Figures 16-18,
and Appendix B Figures 21-22).

The judgment forms map onto functions:

* ``Φsdt, Ψ_R ⊢ Q  --query-->   Q'``   →  :func:`transpile`
* ``Φsdt, Ψ_R ⊢ C  --clause-->  X, Q`` →  :func:`_translate_clause`
* ``Φsdt, Ψ_R ⊢ PP --pattern--> X, Q`` →  :func:`_translate_pattern`
* ``Φsdt, Ψ_R ⊢ E  --expr-->    E'``   →  :func:`_translate_node`
* ``Φsdt, Ψ_R ⊢ φ  --pred-->    φ'``   →  :func:`_translate_node`

Figures 21-22 translate each expression and predicate form the two
languages share (:mod:`repro.common.expressions`) into itself, so
:func:`_translate_node` rebuilds a node and translates only its references
and ``Exists``.

Attribute-naming invariant: every translated clause produces a SQL query
whose output attributes are exactly the *flattened* names ``{X}_{K}`` for
each in-scope variable ``X`` and each induced-table attribute ``K`` of its
label (node keys; edge keys plus ``SRC``/``TGT``).  The C-Match2/C-OptMatch
rules re-establish the invariant after their ``ρ_T1 ⋈ ρ_T2`` join with a
projection, which corresponds to the paper's flattened CTE columns
(``c1_CID``, ``s_SID``, ... in Figure 7).

Cypher path patterns become chains of inner joins whose predicates connect
edge-table ``SRC``/``TGT`` foreign keys to endpoint primary keys (PT-Path);
``MATCH`` accumulation becomes an inner join on shared-variable primary keys
(C-Match2); ``OPTIONAL MATCH`` becomes a left outer join (C-OptMatch).

Variable-length relationship patterns (PT-Reach, this library's extension)
become *recursive CTEs*: each ``-[r:REL*lo..hi]->`` occurrence contributes a
``WITH RECURSIVE`` fixpoint over the oriented one-hop ``(src, tgt)`` pairs of
the induced edge table — depth-tracked, distinct-union (cycle-safe), with the
depth saturating at ``max(lo, 1)`` when the upper bound is open — whose
distinct qualifying endpoint pairs are cross-joined into the pattern and
connected to the endpoint scans like an ordinary edge occurrence.  A
``min_hops`` of 0 unions in the identity pairs of the endpoint node table.
The fixpoint carries :class:`repro.sql.ast.ReachInfo` so the cost-based
planner can later unroll small bounded traversals into k-hop join chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable

from repro.common.errors import TranspileError
from repro.common.expressions import conjoin, has_aggregate, rebuild
from repro.core.sdt import SOURCE_ATTRIBUTE, TARGET_ATTRIBUTE, SdtResult
from repro.cypher import ast as cy
from repro.cypher.analysis import var_length_step_error
from repro.graph.schema import EdgeType, GraphSchema, NodeType
from repro.sql import ast as sq

#: Maps a (variable, induced attribute) pair to an attribute reference string.
Naming = Callable[[str, str], str]

#: Output columns of a variable-length reach relation (PT-Reach).
REACH_SOURCE = "src"
REACH_TARGET = "tgt"
REACH_DEPTH = "depth"


def flat(variable: str, key: str) -> str:
    """The flattened output-attribute name for ``X.K``."""
    return f"{variable}_{key}"


@dataclass(frozen=True)
class ClauseOutput:
    """``X, Q`` — in-scope variables (name → label) and the SQL translation."""

    variables: dict[str, str]
    query: sq.Query


class Transpiler:
    """Carries ``Φ_sdt`` / ``Ψ'_R`` and fresh-name state through translation."""

    def __init__(self, graph_schema: GraphSchema, sdt: SdtResult) -> None:
        self.graph_schema = graph_schema
        self.sdt = sdt
        self._fresh = count(1)

    # -- queries (Figure 16) ------------------------------------------------

    def translate_query(self, query: cy.Query) -> sq.Query:
        if isinstance(query, cy.Return):
            return self._translate_return(query)
        if isinstance(query, cy.OrderBy):
            inner = self.translate_query(query.query)
            keys = tuple(sq.AttributeRef(k) for k in query.keys)
            return sq.OrderBy(inner, keys, tuple(query.ascending), query.limit)
        if isinstance(query, cy.Union):
            return sq.UnionOp(
                self.translate_query(query.left),
                self.translate_query(query.right),
                all=False,
            )
        if isinstance(query, cy.UnionAll):
            return sq.UnionOp(
                self.translate_query(query.left),
                self.translate_query(query.right),
                all=True,
            )
        raise TranspileError(f"cannot transpile query node {type(query).__name__}")

    def _translate_return(self, query: cy.Return) -> sq.Query:
        clause = self.translate_clause(query.clause)
        naming = self._flat_naming(clause.variables)
        expressions = [
            self._translate_node(expr, naming, clause.variables)
            for expr in query.expressions
        ]
        columns = sq.columns_of(expressions, query.names)
        if not any(has_aggregate(e) for e in query.expressions):
            # Q-Ret: plain projection with renaming.
            return sq.Projection(clause.query, columns, distinct=query.distinct)
        # Q-Agg: group by the non-aggregate output expressions.
        grouping = tuple(
            translated
            for translated, original in zip(expressions, query.expressions)
            if not has_aggregate(original)
        )
        grouped: sq.Query = sq.GroupBy(clause.query, grouping, columns, sq.TRUE)
        if query.distinct:
            passthrough = tuple(
                sq.OutputColumn(c.alias, sq.AttributeRef(c.alias)) for c in columns
            )
            grouped = sq.Projection(grouped, passthrough, distinct=True)
        return grouped

    # -- clauses (Figure 17) -------------------------------------------------

    def translate_clause(self, clause: cy.Clause) -> ClauseOutput:
        if isinstance(clause, cy.Match):
            if clause.previous is None:
                return self._translate_first_match(clause)
            return self._translate_chained_match(
                clause.previous, clause.pattern, clause.predicate, sq.JoinKind.INNER
            )
        if isinstance(clause, cy.OptMatch):
            return self._translate_chained_match(
                clause.previous, clause.pattern, clause.predicate, sq.JoinKind.LEFT
            )
        if isinstance(clause, cy.With):
            return self._translate_with(clause)
        raise TranspileError(f"cannot transpile clause node {type(clause).__name__}")

    def _translate_first_match(self, clause: cy.Match) -> ClauseOutput:
        """C-Match1: ``σ_φ'(Q_PP)``."""
        pattern = self._translate_pattern(clause.pattern)
        naming = self._flat_naming(pattern.variables)
        predicate = self._translate_node(clause.predicate, naming, pattern.variables)
        return ClauseOutput(pattern.variables, sq.Selection(pattern.query, predicate))

    def _translate_chained_match(
        self,
        previous: cy.Clause,
        pattern: cy.PathPattern,
        predicate: cy.Predicate,
        kind: sq.JoinKind,
    ) -> ClauseOutput:
        """C-Match2 / C-OptMatch: join on shared-variable primary keys."""
        left = self.translate_clause(previous)
        right = self._translate_pattern(pattern)
        t1 = self._fresh_table("T")
        t2 = self._fresh_table("T")
        shared = sorted(set(left.variables) & set(right.variables))
        for variable in shared:
            if left.variables[variable] != right.variables[variable]:
                raise TranspileError(
                    f"variable {variable!r} used with labels "
                    f"{left.variables[variable]!r} and {right.variables[variable]!r}"
                )

        def joined_naming(variable: str, key: str) -> str:
            if variable in left.variables:
                return f"{t1}.{flat(variable, key)}"
            if variable in right.variables:
                return f"{t2}.{flat(variable, key)}"
            raise TranspileError(f"unbound variable {variable!r} in match predicate")

        merged_vars = dict(left.variables)
        merged_vars.update(right.variables)
        join_conjuncts = [self._translate_node(predicate, joined_naming, merged_vars)]
        for variable in shared:
            pk = self._primary_key_of(left.variables[variable])
            join_conjuncts.append(
                sq.Comparison(
                    "=",
                    sq.AttributeRef(f"{t1}.{flat(variable, pk)}"),
                    sq.AttributeRef(f"{t2}.{flat(variable, pk)}"),
                )
            )
        join = sq.Join(
            kind,
            sq.Renaming(t1, left.query),
            sq.Renaming(t2, right.query),
            conjoin(join_conjuncts),
        )
        # Re-establish the flat-attribute invariant: shared variables read
        # from the left (non-null) side, pattern-only variables from the right.
        columns: list[sq.OutputColumn] = []
        for variable, label in merged_vars.items():
            prefix = t1 if variable in left.variables else t2
            for key in self._attributes_of(label):
                columns.append(
                    sq.OutputColumn(
                        flat(variable, key),
                        sq.AttributeRef(f"{prefix}.{flat(variable, key)}"),
                    )
                )
        return ClauseOutput(merged_vars, sq.Projection(join, tuple(columns)))

    def _translate_with(self, clause: cy.With) -> ClauseOutput:
        """C-With: project to the kept variables, renaming old → new."""
        inner = self.translate_clause(clause.previous)
        variables: dict[str, str] = {}
        columns: list[sq.OutputColumn] = []
        for old, new in zip(clause.old_names, clause.new_names):
            if old not in inner.variables:
                raise TranspileError(f"WITH references unbound variable {old!r}")
            label = inner.variables[old]
            variables[new] = label
            for key in self._attributes_of(label):
                columns.append(
                    sq.OutputColumn(flat(new, key), sq.AttributeRef(flat(old, key)))
                )
        return ClauseOutput(variables, sq.Projection(inner.query, tuple(columns)))

    # -- patterns (Figure 18) -------------------------------------------------

    def _translate_pattern(self, pattern: cy.PathPattern) -> ClauseOutput:
        """PT-Node / PT-Path / PT-Reach with flattened output attributes.

        Repeated variables inside one pattern are scanned once per
        occurrence under a fresh alias and constrained equal on their
        primary key, then surfaced once in the output.  Variable-length
        edge occurrences contribute no scan of their own: each becomes a
        reach relation (recursive CTE over one-hop pairs) cross-joined
        into the pattern and connected to its endpoint scans.
        """
        variables: dict[str, str] = {}
        scans: list[tuple[str, str, str]] = []  # (alias, variable, label)
        alias_of_occurrence: list[str] = []

        def register(variable: str, label: str) -> str:
            if variable in variables:
                if variables[variable] != label:
                    raise TranspileError(
                        f"variable {variable!r} used with labels "
                        f"{variables[variable]!r} and {label!r}"
                    )
                alias = self._fresh_table(f"{variable}__dup")
            else:
                variables[variable] = label
                alias = variable
            scans.append((alias, variable, label))
            return alias

        for element in pattern:
            if isinstance(element, cy.VarLengthEdgePattern):
                # The traversal variable is not bindable — no scan, no
                # output columns; the reach relation joins in below.
                alias_of_occurrence.append("")
            else:
                alias_of_occurrence.append(register(element.variable, element.label))

        query: sq.Query | None = None
        duplicate_constraints: list[sq.Predicate] = []
        alias_by_variable: dict[str, str] = {}
        for alias, variable, label in scans:
            scan: sq.Query = sq.Renaming(
                alias, sq.Relation(self.sdt.table_for(label))
            )
            if query is None:
                query = scan
            else:
                query = sq.Join(sq.JoinKind.CROSS, query, scan, sq.TRUE)
            if variable in alias_by_variable and alias != alias_by_variable[variable]:
                pk = self._primary_key_of(label)
                duplicate_constraints.append(
                    sq.Comparison(
                        "=",
                        sq.AttributeRef(f"{alias_by_variable[variable]}.{pk}"),
                        sq.AttributeRef(f"{alias}.{pk}"),
                    )
                )
            else:
                alias_by_variable[variable] = alias

        connection_predicates: list[sq.Predicate] = []
        for index in range(1, len(pattern), 2):
            edge = pattern[index]
            left_alias = alias_of_occurrence[index - 1]
            edge_alias = alias_of_occurrence[index]
            right_alias = alias_of_occurrence[index + 1]
            left_node = pattern[index - 1]
            right_node = pattern[index + 1]
            assert isinstance(left_node, cy.NodePattern)
            assert isinstance(right_node, cy.NodePattern)
            if isinstance(edge, cy.VarLengthEdgePattern):
                assert query is not None
                reach_alias = self._fresh_table("VL")
                query = sq.Join(
                    sq.JoinKind.CROSS,
                    query,
                    sq.Renaming(reach_alias, self._reach_query(edge, left_node, right_node)),
                    sq.TRUE,
                )
                pk = self._primary_key_of(left_node.label)
                connection_predicates.append(
                    sq.And(
                        sq.Comparison(
                            "=",
                            sq.AttributeRef(f"{reach_alias}.{REACH_SOURCE}"),
                            sq.AttributeRef(f"{left_alias}.{pk}"),
                        ),
                        sq.Comparison(
                            "=",
                            sq.AttributeRef(f"{reach_alias}.{REACH_TARGET}"),
                            sq.AttributeRef(f"{right_alias}.{pk}"),
                        ),
                    )
                )
                continue
            assert isinstance(edge, cy.EdgePattern)
            connection_predicates.append(
                self._edge_connection(
                    edge, left_node, right_node, left_alias, edge_alias, right_alias
                )
            )

        assert query is not None
        predicate = conjoin(connection_predicates + duplicate_constraints)
        if predicate != sq.TRUE:
            query = sq.Selection(query, predicate)

        columns: list[sq.OutputColumn] = []
        for variable, label in variables.items():
            alias = alias_by_variable[variable]
            for key in self._attributes_of(label):
                columns.append(
                    sq.OutputColumn(flat(variable, key), sq.AttributeRef(f"{alias}.{key}"))
                )
        return ClauseOutput(variables, sq.Projection(query, tuple(columns)))

    def _edge_connection(
        self,
        edge: cy.EdgePattern,
        left_node: cy.NodePattern,
        right_node: cy.NodePattern,
        left_alias: str,
        edge_alias: str,
        right_alias: str,
    ) -> sq.Predicate:
        """The PT-Path join predicate ``φ ∧ φ'`` for one edge occurrence."""
        edge_type = self.graph_schema.edge_type(edge.label)
        forward_ok = (
            edge_type.source == left_node.label and edge_type.target == right_node.label
        )
        backward_ok = (
            edge_type.source == right_node.label and edge_type.target == left_node.label
        )

        def orient(source_alias: str, source_label: str, target_alias: str, target_label: str):
            source_pk = self._primary_key_of(source_label)
            target_pk = self._primary_key_of(target_label)
            return sq.And(
                sq.Comparison(
                    "=",
                    sq.AttributeRef(f"{edge_alias}.{SOURCE_ATTRIBUTE}"),
                    sq.AttributeRef(f"{source_alias}.{source_pk}"),
                ),
                sq.Comparison(
                    "=",
                    sq.AttributeRef(f"{edge_alias}.{TARGET_ATTRIBUTE}"),
                    sq.AttributeRef(f"{target_alias}.{target_pk}"),
                ),
            )

        if edge.direction is cy.Direction.OUT:
            if not forward_ok:
                raise TranspileError(
                    f"edge {edge.label!r} cannot run from {left_node.label!r} "
                    f"to {right_node.label!r}"
                )
            return orient(left_alias, left_node.label, right_alias, right_node.label)
        if edge.direction is cy.Direction.IN:
            if not backward_ok:
                raise TranspileError(
                    f"edge {edge.label!r} cannot run from {right_node.label!r} "
                    f"to {left_node.label!r}"
                )
            return orient(right_alias, right_node.label, left_alias, left_node.label)
        # Undirected: admit every orientation the edge type allows.
        options: list[sq.Predicate] = []
        if forward_ok:
            options.append(orient(left_alias, left_node.label, right_alias, right_node.label))
        if backward_ok:
            options.append(orient(right_alias, right_node.label, left_alias, left_node.label))
        if not options:
            raise TranspileError(
                f"edge {edge.label!r} cannot connect {left_node.label!r} "
                f"and {right_node.label!r} in either direction"
            )
        if len(options) == 1:
            return options[0]
        return sq.Or(options[0], options[1])

    # -- variable-length patterns (PT-Reach) ----------------------------------

    def _reach_query(
        self,
        edge: cy.VarLengthEdgePattern,
        left_node: cy.NodePattern,
        right_node: cy.NodePattern,
    ) -> sq.Query:
        """The reach relation of one variable-length edge occurrence.

        Output: distinct ``(src, tgt)`` primary-key pairs connected by a
        walk of ``min_hops..max_hops`` hops, oriented along the pattern
        (``src`` is always the *left* endpoint).  Shape::

            WITH hop AS (oriented one-hop pairs of the edge table)
            WITH RECURSIVE reach(src, tgt, depth) AS (
                SELECT src, tgt, 1 FROM hop
                UNION  -- distinct: the cycle-safety device
                SELECT r.src, e.tgt, r.depth + Δ FROM reach r JOIN hop e
                ON e.src = r.tgt [AND r.depth < max]
            )
            SELECT DISTINCT src, tgt FROM reach [WHERE depth >= min]

        With an open upper bound the increment Δ is ``Cast(depth < cap)``
        — depth saturates at ``cap = max(min_hops, 1)`` so the distinct
        union closes over a finite state space even on cyclic data.
        ``min_hops = 0`` unions the node table's identity pairs around the
        fixpoint (and skips it entirely for ``*0..0``).
        """
        problem = var_length_step_error(edge=edge, left=left_node, right=right_node, schema=self.graph_schema)
        if problem is not None:
            raise TranspileError(problem)
        edge_type = self.graph_schema.edge_type(edge.label)
        edge_table = self.sdt.table_for(edge.label)
        node_table = self.sdt.table_for(edge_type.source)
        pk = self._primary_key_of(edge_type.source)
        lo, hi = edge.min_hops, edge.max_hops

        identity = sq.Projection(
            sq.Relation(node_table),
            (
                sq.OutputColumn(REACH_SOURCE, sq.AttributeRef(pk)),
                sq.OutputColumn(REACH_TARGET, sq.AttributeRef(pk)),
            ),
        )
        if hi == 0:
            return identity  # ``*0..0`` — only the zero-length walk

        core = self._recursive_reach(edge, edge_table, max(lo, 1), hi)
        if lo == 0:
            return sq.UnionOp(identity, core, all=False)
        return core

    def _hop_pairs(self, edge: cy.VarLengthEdgePattern, edge_table: str) -> sq.Query:
        """Oriented one-hop ``(src, tgt)`` pairs: the traversal's step relation."""

        def oriented(source_attribute: str, target_attribute: str) -> sq.Query:
            return sq.Projection(
                sq.Relation(edge_table),
                (
                    sq.OutputColumn(REACH_SOURCE, sq.AttributeRef(source_attribute)),
                    sq.OutputColumn(REACH_TARGET, sq.AttributeRef(target_attribute)),
                ),
            )

        if edge.direction is cy.Direction.OUT:
            return oriented(SOURCE_ATTRIBUTE, TARGET_ATTRIBUTE)
        if edge.direction is cy.Direction.IN:
            return oriented(TARGET_ATTRIBUTE, SOURCE_ATTRIBUTE)
        return sq.UnionOp(
            oriented(SOURCE_ATTRIBUTE, TARGET_ATTRIBUTE),
            oriented(TARGET_ATTRIBUTE, SOURCE_ATTRIBUTE),
            all=True,
        )

    def _recursive_reach(
        self,
        edge: cy.VarLengthEdgePattern,
        edge_table: str,
        lo: int,
        hi: int | None,
    ) -> sq.Query:
        """The depth-tracked fixpoint over the hop relation (``lo >= 1``)."""
        hop_name = self._fresh_table("hop")
        name = self._fresh_table("reach")
        walker = self._fresh_table("R")
        stepper = self._fresh_table("E")
        depth_ref = sq.AttributeRef(f"{walker}.{REACH_DEPTH}")

        base = sq.Projection(
            sq.Relation(hop_name),
            (
                sq.OutputColumn(REACH_SOURCE, sq.AttributeRef(REACH_SOURCE)),
                sq.OutputColumn(REACH_TARGET, sq.AttributeRef(REACH_TARGET)),
                sq.OutputColumn(REACH_DEPTH, sq.Literal(1)),
            ),
        )

        join_predicate: sq.Predicate = sq.Comparison(
            "=",
            sq.AttributeRef(f"{stepper}.{REACH_SOURCE}"),
            sq.AttributeRef(f"{walker}.{REACH_TARGET}"),
        )
        if hi is not None:
            # Bounded: stop extending walks at the upper bound.
            join_predicate = sq.And(
                join_predicate, sq.Comparison("<", depth_ref, sq.Literal(hi))
            )
            increment: sq.Expression = sq.Literal(1)
        else:
            # Open: saturate the depth at ``lo`` — Cast(depth < lo) adds 1
            # below the cap and 0 at it, closing the state space.
            increment = sq.CastPredicate(
                sq.Comparison("<", depth_ref, sq.Literal(lo))
            )
        step = sq.Projection(
            sq.Join(
                sq.JoinKind.INNER,
                sq.Renaming(walker, sq.Relation(name)),
                sq.Renaming(stepper, sq.Relation(hop_name)),
                join_predicate,
            ),
            (
                sq.OutputColumn(REACH_SOURCE, sq.AttributeRef(f"{walker}.{REACH_SOURCE}")),
                sq.OutputColumn(REACH_TARGET, sq.AttributeRef(f"{stepper}.{REACH_TARGET}")),
                sq.OutputColumn(REACH_DEPTH, sq.BinaryOp("+", depth_ref, increment)),
            ),
        )

        qualifying: sq.Query = sq.Relation(name)
        if lo > 1:
            qualifying = sq.Selection(
                qualifying,
                sq.Comparison(">=", sq.AttributeRef(REACH_DEPTH), sq.Literal(lo)),
            )
        body = sq.Projection(
            qualifying,
            (
                sq.OutputColumn(REACH_SOURCE, sq.AttributeRef(REACH_SOURCE)),
                sq.OutputColumn(REACH_TARGET, sq.AttributeRef(REACH_TARGET)),
            ),
            distinct=True,
        )

        fanout = {
            cy.Direction.OUT: (SOURCE_ATTRIBUTE,),
            cy.Direction.IN: (TARGET_ATTRIBUTE,),
            cy.Direction.BOTH: (SOURCE_ATTRIBUTE, TARGET_ATTRIBUTE),
        }[edge.direction]
        fixpoint = sq.RecursiveQuery(
            name,
            (REACH_SOURCE, REACH_TARGET, REACH_DEPTH),
            base,
            step,
            body,
            union_all=False,
            reach=sq.ReachInfo(
                edge_table=edge_table,
                hop_relation=hop_name,
                fanout_columns=fanout,
                min_hops=edge.min_hops,
                max_hops=hi,
            ),
        )
        return sq.WithQuery(hop_name, self._hop_pairs(edge, edge_table), fixpoint)

    # -- expressions and predicates (Figures 21-22) ----------------------------

    def _translate_node(
        self, node: cy.Expression | cy.Predicate, naming: Naming, variables: dict[str, str]
    ) -> sq.Expression | sq.Predicate:
        """``E --expr--> E'`` and ``φ --pred--> φ'``: every form the two
        languages share translates to itself (:func:`rebuild`), a reference
        to the attribute *naming* gives its property, and ``Exists`` to a
        subquery (P-Exists)."""

        def leaf(node: cy.Expression | cy.Predicate) -> sq.Expression | sq.Predicate:
            if isinstance(node, cy.PropertyRef):
                self._check_property(node, variables)
                return sq.AttributeRef(naming(node.variable, node.key))
            if isinstance(node, cy.VariableRef):
                if node.variable not in variables:
                    raise TranspileError(f"unbound variable {node.variable!r}")
                pk = self._primary_key_of(variables[node.variable])
                return sq.AttributeRef(naming(node.variable, pk))
            if isinstance(node, cy.Exists):
                return self._translate_exists(node, naming, variables)
            raise TranspileError(
                f"cannot transpile expression or predicate node {type(node).__name__}"
            )

        return rebuild(node, leaf)

    def _translate_exists(
        self, predicate: cy.Exists, naming: Naming, variables: dict[str, str]
    ) -> sq.Predicate:
        """P-Exists, generalised to correlate on all shared variables.

        When only the pattern's head/last node variables are shared with the
        enclosing clause this is exactly the paper's
        ``ā ∈ Π_ā(Q)`` with ``ā`` the endpoint primary keys.
        """
        inner = self._translate_pattern(predicate.pattern)
        inner_naming = self._flat_naming(inner.variables)
        inner_predicate = self._translate_node(
            predicate.predicate, inner_naming, inner.variables
        )
        subquery: sq.Query = (
            sq.Selection(inner.query, inner_predicate)
            if inner_predicate != sq.TRUE
            else inner.query
        )
        shared = sorted(set(inner.variables) & set(variables))
        if not shared:
            return sq.ExistsQuery(subquery)
        operands: list[sq.Expression] = []
        columns: list[sq.OutputColumn] = []
        for variable in shared:
            pk = self._primary_key_of(inner.variables[variable])
            operands.append(sq.AttributeRef(naming(variable, pk)))
            columns.append(
                sq.OutputColumn(flat(variable, pk), sq.AttributeRef(flat(variable, pk)))
            )
        projected = sq.Projection(subquery, tuple(columns))
        return sq.InQuery(tuple(operands), projected)

    # -- helpers -----------------------------------------------------------

    def _flat_naming(self, variables: dict[str, str]) -> Naming:
        def naming(variable: str, key: str) -> str:
            if variable not in variables:
                raise TranspileError(f"unbound variable {variable!r}")
            return flat(variable, key)

        return naming

    def _attributes_of(self, label: str) -> tuple[str, ...]:
        """Induced-table attributes of a node/edge label."""
        kind = self.graph_schema.type_of(label)
        if isinstance(kind, NodeType):
            return kind.keys
        assert isinstance(kind, EdgeType)
        return kind.keys + (SOURCE_ATTRIBUTE, TARGET_ATTRIBUTE)

    def _primary_key_of(self, label: str) -> str:
        """Default property key = induced-table primary key for *label*."""
        return self.graph_schema.type_of(label).default_key

    def _check_property(self, ref: cy.PropertyRef, variables: dict[str, str]) -> None:
        if ref.variable not in variables:
            raise TranspileError(f"unbound variable {ref.variable!r} in {ref}")
        label = variables[ref.variable]
        declared = self._attributes_of(label)
        if ref.key not in declared:
            raise TranspileError(
                f"{label!r} declares no property key {ref.key!r} (has {declared})"
            )

    def _fresh_table(self, stem: str) -> str:
        return f"{stem}{next(self._fresh)}"


def transpile(query: cy.Query, graph_schema: GraphSchema, sdt: SdtResult) -> sq.Query:
    """``Transpile(Q_G, Φ_sdt, Ψ'_R)`` (Algorithm 1, line 3)."""
    return Transpiler(graph_schema, sdt).translate_query(query)
