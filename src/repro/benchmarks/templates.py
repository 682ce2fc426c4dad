"""Parameterised benchmark templates.

Each template builds one (Cypher, SQL) pair over a universe, equivalent by
construction unless a *bug* is planted.  Templates tag their output with
feature strings the experiment harnesses read:

``agg``          aggregation (GROUP BY on the SQL side)
``opt``          OPTIONAL MATCH / outer join
``orderby``      ORDER BY
``exists``       EXISTS subpattern / IN subquery
``union``        UNION or UNION ALL
``distinct``     duplicate elimination
``multimatch``   several MATCH clauses (shared-variable join)
``with``         a WITH pipeline
``arith``        arithmetic in predicates
``headarith``    arithmetic in the RETURN list only
``inlist``       multi-value IN lists
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.benchmarks.spec import EdgeTableMap, MergedEdgeMap, NodeMap, Universe


@dataclass
class BuiltQuery:
    """A rendered benchmark body, pre-Benchmark packaging."""

    cypher_text: str
    sql_text: str
    features: set[str] = field(default_factory=set)
    expected_equivalent: bool = True
    bug_class: str | None = None
    notes: str = ""


# ---------------------------------------------------------------------------
# Path rendering machinery
# ---------------------------------------------------------------------------


@dataclass
class PathBuild:
    """Aliases and join conditions for one rendered path."""

    universe: Universe
    cypher_pattern: str
    node_vars: list[tuple[str, NodeMap]]  # (variable, node map) per node
    edge_vars: list[tuple[str, object]]  # (variable, edge map) per edge
    from_items: list[str]
    join_conditions: list[str]

    def node_ref(self, index: int, key: str) -> tuple[str, str]:
        """(cypher_ref, sql_ref) for property *key* of the index-th node."""
        variable, node_map = self.node_vars[index]
        return f"{variable}.{key}", f"{variable}.{node_map.column(key)}"

    @property
    def sql_from(self) -> str:
        return ", ".join(self.from_items)

    def sql_where(self, extra: list[str]) -> str:
        conditions = self.join_conditions + extra
        if not conditions:
            return ""
        return " WHERE " + " AND ".join(conditions)


def build_path(universe: Universe, edge_labels: list[str], prefix: str = "") -> PathBuild:
    """Render a forward path through *edge_labels* (each src → tgt)."""
    schema = universe.graph_schema
    node_vars: list[tuple[str, NodeMap]] = []
    edge_vars: list[tuple[str, object]] = []
    from_items: list[str] = []
    join_conditions: list[str] = []
    chunks: list[str] = []

    first_edge = schema.edge_type(edge_labels[0])
    labels = [first_edge.source]
    for edge_label in edge_labels:
        labels.append(schema.edge_type(edge_label).target)

    for position, label in enumerate(labels):
        variable = f"{prefix}n{position}"
        node_map = universe.node(label)
        node_vars.append((variable, node_map))
        from_items.append(f"{node_map.table} AS {variable}")
        chunks.append(f"({variable}:{label})")
        if position < len(edge_labels):
            edge_label = edge_labels[position]
            edge_variable = f"{prefix}e{position}"
            edge_map = universe.edge(edge_label)
            edge_vars.append((edge_variable, edge_map))
            chunks.append(f"-[{edge_variable}:{edge_label}]->")

    # SQL side: join conditions per hop.
    for position, edge_label in enumerate(edge_labels):
        edge_type = schema.edge_type(edge_label)
        source_var, source_map = node_vars[position]
        target_var, target_map = node_vars[position + 1]
        source_pk = source_map.column(schema.node_type(edge_type.source).default_key)
        target_pk = target_map.column(schema.node_type(edge_type.target).default_key)
        edge_variable, edge_map = edge_vars[position]
        if isinstance(edge_map, EdgeTableMap):
            from_items.insert(
                from_items.index(f"{target_map.table} AS {target_var}"),
                f"{edge_map.table} AS {edge_variable}",
            )
            join_conditions.append(
                f"{edge_variable}.{edge_map.src_column} = {source_var}.{source_pk}"
            )
            join_conditions.append(
                f"{edge_variable}.{edge_map.tgt_column} = {target_var}.{target_pk}"
            )
        else:
            assert isinstance(edge_map, MergedEdgeMap)
            if edge_map.fk_side == "source":
                join_conditions.append(
                    f"{source_var}.{edge_map.fk_column} = {target_var}.{target_pk}"
                )
            else:
                join_conditions.append(
                    f"{target_var}.{edge_map.fk_column} = {source_var}.{source_pk}"
                )

    # Merged edges contribute no FROM item; drop their aliases from SQL only.
    return PathBuild(
        universe=universe,
        cypher_pattern="".join(chunks),
        node_vars=node_vars,
        edge_vars=edge_vars,
        from_items=from_items,
        join_conditions=join_conditions,
    )


def _single_edges(universe: Universe) -> list[str]:
    return [e.label for e in universe.graph_schema.edge_types]


def _chains(universe: Universe) -> list[list[str]]:
    """Two-hop edge chains available in the universe."""
    chains = []
    for first in universe.graph_schema.edge_types:
        for second in universe.graph_schema.edge_types:
            if first.target == second.source:
                chains.append([first.label, second.label])
    return chains


def complete_node_labels(universe: Universe) -> set[str]:
    """Labels whose target table holds *every* node of that label.

    A node table that carries a merged edge's foreign key only holds nodes
    that have the edge, so bare ``MATCH (n:L)`` queries over such labels are
    not translatable to a plain table scan.
    """
    partial: set[str] = set()
    for label, edge_map in universe.edges.items():
        if isinstance(edge_map, MergedEdgeMap):
            edge_type = universe.graph_schema.edge_type(label)
            carrier = (
                edge_type.source if edge_map.fk_side == "source" else edge_type.target
            )
            partial.add(carrier)
    return {n.label for n in universe.graph_schema.node_types} - partial


def _numeric_key(node_map: NodeMap, universe: Universe) -> str:
    """A non-key numeric property of the node (last declared key)."""
    node_type = universe.graph_schema.node_type(node_map.label)
    return node_type.keys[-1]


def _name_key(node_map: NodeMap, universe: Universe) -> str:
    node_type = universe.graph_schema.node_type(node_map.label)
    return node_type.keys[1]


# ---------------------------------------------------------------------------
# Equivalent templates
# ---------------------------------------------------------------------------


def t_scan_filter(universe: Universe, rng: random.Random) -> BuiltQuery:
    """One-hop path, constant filter, two-column projection (SPJ)."""
    edge = rng.choice(_single_edges(universe))
    path = build_path(universe, [edge])
    constant = rng.randint(1, 5)
    cy_filter, sql_filter = path.node_ref(0, _numeric_key(path.node_vars[0][1], universe))
    cy_a, sql_a = path.node_ref(0, _name_key(path.node_vars[0][1], universe))
    cy_b, sql_b = path.node_ref(1, _name_key(path.node_vars[1][1], universe))
    cypher = (
        f"MATCH {path.cypher_pattern} WHERE {cy_filter} = {constant} "
        f"RETURN {cy_a} AS left_out, {cy_b} AS right_out"
    )
    sql = (
        f"SELECT {sql_a} AS left_out, {sql_b} AS right_out FROM {path.sql_from}"
        f"{path.sql_where([f'{sql_filter} = {constant}'])}"
    )
    return BuiltQuery(cypher, sql, set())


def t_two_hop(universe: Universe, rng: random.Random) -> BuiltQuery:
    """Two-hop chain with endpoint projection."""
    chains = _chains(universe)
    chain = rng.choice(chains)
    path = build_path(universe, chain)
    cy_a, sql_a = path.node_ref(0, _name_key(path.node_vars[0][1], universe))
    cy_c, sql_c = path.node_ref(2, _name_key(path.node_vars[2][1], universe))
    cypher = f"MATCH {path.cypher_pattern} RETURN {cy_a} AS first_out, {cy_c} AS last_out"
    sql = (
        f"SELECT {sql_a} AS first_out, {sql_c} AS last_out FROM {path.sql_from}"
        f"{path.sql_where([])}"
    )
    return BuiltQuery(cypher, sql, set())


def t_multimatch(
    universe: Universe, rng: random.Random, implied_conjunct: bool = False
) -> BuiltQuery:
    """Two MATCH clauses sharing a variable vs a SQL self-join on the PK.

    With ``implied_conjunct`` the SQL side carries a redundant (implied)
    filter conjunct, turning the pair into an equivalent-but-structurally-
    unprovable benchmark (deductive verdict: Unknown).
    """
    edge = rng.choice(_single_edges(universe))
    schema = universe.graph_schema
    edge_type = schema.edge_type(edge)
    path1 = build_path(universe, [edge], prefix="a")
    path2 = build_path(universe, [edge], prefix="b")
    # Share the *target* node: rename b-side target variable to a-side's.
    shared_var, shared_map = path1.node_vars[1]
    other_var, _ = path2.node_vars[1]
    pattern2 = path2.cypher_pattern.replace(f"({other_var}:", f"({shared_var}:")
    cy_a, sql_a = path1.node_ref(0, _name_key(path1.node_vars[0][1], universe))
    cy_b, sql_b = path2.node_ref(0, _name_key(path2.node_vars[0][1], universe))
    # Idiomatic SQL scans the shared table ONCE — the transpiled query joins
    # two copies on their primary key, so verifying this pair exercises the
    # deductive backend's PK self-join collapse.
    conditions = path1.join_conditions + [
        c.replace(f"{other_var}.", f"{shared_var}.") for c in path2.join_conditions
    ]
    from2 = [
        item for item in path2.from_items if not item.endswith(f" AS {other_var}")
    ]
    where_clause = ""
    features = {"multimatch"}
    notes = ""
    if implied_conjunct:
        cy_x, sql_x = path1.node_ref(0, _numeric_key(path1.node_vars[0][1], universe))
        low = rng.randint(2, 5)
        high = low + rng.randint(1, 4)
        where_clause = f" WHERE {cy_x} < {low}"
        conditions.append(f"{sql_x} < {low}")
        conditions.append(f"{sql_x} < {high}")
        features.add("unknown-by-design")
        notes = "equivalent via implied conjunct over a multi-MATCH pair"
    cypher = (
        f"MATCH {path1.cypher_pattern} MATCH {pattern2}{where_clause} "
        f"RETURN {cy_a} AS one_name, {cy_b} AS two_name"
    )
    sql = (
        f"SELECT {sql_a} AS one_name, {sql_b} AS two_name "
        f"FROM {path1.sql_from}, {', '.join(from2)} WHERE "
        + " AND ".join(conditions)
    )
    return BuiltQuery(cypher, sql, features, notes=notes)


def t_with_rename(universe: Universe, rng: random.Random) -> BuiltQuery:
    """A WITH pipeline that renames/keeps variables (featherweight WITH).

    For edge-table universes the hand-written SQL elides the source node's
    table: the edge's NOT-NULL foreign key guarantees exactly one matching
    source row, so the join is redundant — the idiom that exercises the
    deductive backend's FK lookup elimination.
    """
    edge = rng.choice(_single_edges(universe))
    path = build_path(universe, [edge])
    src_var = path.node_vars[0][0]
    tgt_var, tgt_map = path.node_vars[1]
    key = _name_key(tgt_map, universe)
    _, sql_ref = path.node_ref(1, key)
    cypher = (
        f"MATCH {path.cypher_pattern} WITH {tgt_var} AS kept "
        f"RETURN kept.{key} AS kept_out"
    )
    edge_map = universe.edge(edge)
    if isinstance(edge_map, EdgeTableMap):
        from_items = [
            item for item in path.from_items if not item.endswith(f" AS {src_var}")
        ]
        conditions = [
            c for c in path.join_conditions if not c.split(" = ")[1].startswith(f"{src_var}.")
        ]
        where = f" WHERE {' AND '.join(conditions)}" if conditions else ""
        sql = f"SELECT {sql_ref} AS kept_out FROM {', '.join(from_items)}{where}"
    else:
        sql = f"SELECT {sql_ref} AS kept_out FROM {path.sql_from}{path.sql_where([])}"
    return BuiltQuery(cypher, sql, {"with"})


def t_distinct(universe: Universe, rng: random.Random) -> BuiltQuery:
    """DISTINCT projection of one endpoint."""
    edge = rng.choice(_single_edges(universe))
    path = build_path(universe, [edge])
    cy_b, sql_b = path.node_ref(1, _name_key(path.node_vars[1][1], universe))
    cypher = f"MATCH {path.cypher_pattern} RETURN DISTINCT {cy_b} AS only_out"
    sql = f"SELECT DISTINCT {sql_b} AS only_out FROM {path.sql_from}{path.sql_where([])}"
    return BuiltQuery(cypher, sql, {"distinct"})


def t_union(universe: Universe, rng: random.Random, bag: bool = False) -> BuiltQuery:
    """Union of two constant filters over the same path shape."""
    edge = rng.choice(_single_edges(universe))
    low = rng.randint(1, 3)
    high = low + rng.randint(1, 3)
    path1 = build_path(universe, [edge], prefix="u")
    path2 = build_path(universe, [edge], prefix="v")
    key = _numeric_key(path1.node_vars[0][1], universe)
    name = _name_key(path1.node_vars[1][1], universe)
    cy_f1, sql_f1 = path1.node_ref(0, key)
    cy_o1, sql_o1 = path1.node_ref(1, name)
    cy_f2, sql_f2 = path2.node_ref(0, key)
    cy_o2, sql_o2 = path2.node_ref(1, name)
    keyword = "UNION ALL" if bag else "UNION"
    cypher = (
        f"MATCH {path1.cypher_pattern} WHERE {cy_f1} = {low} RETURN {cy_o1} AS out_col "
        f"{keyword} "
        f"MATCH {path2.cypher_pattern} WHERE {cy_f2} = {high} RETURN {cy_o2} AS out_col"
    )
    sql = (
        f"SELECT {sql_o1} AS out_col FROM {path1.sql_from}"
        f"{path1.sql_where([f'{sql_f1} = {low}'])} "
        f"{keyword} "
        f"SELECT {sql_o2} AS out_col FROM {path2.sql_from}"
        f"{path2.sql_where([f'{sql_f2} = {high}'])}"
    )
    return BuiltQuery(cypher, sql, {"union"})


def t_head_arith(universe: Universe, rng: random.Random) -> BuiltQuery:
    """Arithmetic in the RETURN list only (deductive-fragment friendly)."""
    edge = rng.choice(_single_edges(universe))
    path = build_path(universe, [edge])
    key = _numeric_key(path.node_vars[1][1], universe)
    cy_v, sql_v = path.node_ref(1, key)
    offset = rng.randint(1, 9)
    cypher = f"MATCH {path.cypher_pattern} RETURN {cy_v} + {offset} AS bumped"
    sql = f"SELECT {sql_v} + {offset} AS bumped FROM {path.sql_from}{path.sql_where([])}"
    return BuiltQuery(cypher, sql, {"headarith"})


def t_agg_count(universe: Universe, rng: random.Random) -> BuiltQuery:
    """Group one endpoint, count paths."""
    edge = rng.choice(_single_edges(universe))
    path = build_path(universe, [edge])
    cy_g, sql_g = path.node_ref(1, _name_key(path.node_vars[1][1], universe))
    cypher = f"MATCH {path.cypher_pattern} RETURN {cy_g} AS grp, Count(*) AS cnt"
    sql = (
        f"SELECT {sql_g} AS grp, COUNT(*) AS cnt FROM {path.sql_from}"
        f"{path.sql_where([])} GROUP BY {sql_g}"
    )
    return BuiltQuery(cypher, sql, {"agg"})


def t_agg_numeric(universe: Universe, rng: random.Random, function: str = "Sum") -> BuiltQuery:
    """SUM/AVG/MIN/MAX of a numeric property grouped by an endpoint."""
    edge = rng.choice(_single_edges(universe))
    path = build_path(universe, [edge])
    cy_g, sql_g = path.node_ref(1, _name_key(path.node_vars[1][1], universe))
    cy_v, sql_v = path.node_ref(0, _numeric_key(path.node_vars[0][1], universe))
    cypher = (
        f"MATCH {path.cypher_pattern} RETURN {cy_g} AS grp, {function}({cy_v}) AS val"
    )
    sql = (
        f"SELECT {sql_g} AS grp, {function.upper()}({sql_v}) AS val "
        f"FROM {path.sql_from}{path.sql_where([])} GROUP BY {sql_g}"
    )
    return BuiltQuery(cypher, sql, {"agg"})


def t_optional(universe: Universe, rng: random.Random) -> BuiltQuery:
    """MATCH one hop + OPTIONAL MATCH a second hop vs chained LEFT JOINs.

    The LEFT JOIN chain (edge table, then endpoint table) is equivalent to
    the one-hop optional pattern *given the induced foreign-key constraints*
    (a matched edge always has its endpoint): exactly the reasoning the
    paper applies to its Appendix-D tutorial example.  Needs a two-hop
    chain; only chainable universes qualify.
    """
    chain = rng.choice(_chains(universe))
    first = build_path(universe, [chain[0]])
    schema = universe.graph_schema
    second_type = schema.edge_type(chain[1])
    mid_var, mid_map = first.node_vars[1]
    last_label = second_type.target
    last_map = universe.node(last_label)
    edge_map = universe.edge(chain[1])
    mid_pk = mid_map.column(schema.node_type(second_type.source).default_key)
    last_pk = last_map.column(schema.node_type(last_label).default_key)
    cy_a, sql_a = first.node_ref(0, _name_key(first.node_vars[0][1], universe))
    name_last = _name_key(last_map, universe)
    cypher = (
        f"MATCH {first.cypher_pattern} "
        f"OPTIONAL MATCH ({mid_var}:{mid_map.label})-[oe:{chain[1]}]->(n2:{last_label}) "
        f"RETURN {cy_a} AS base_out, n2.{name_last} AS opt_out"
    )
    if isinstance(edge_map, EdgeTableMap):
        left_joins = (
            f"LEFT JOIN {edge_map.table} AS oe "
            f"ON oe.{edge_map.src_column} = {mid_var}.{mid_pk} "
            f"LEFT JOIN {last_map.table} AS n2 "
            f"ON oe.{edge_map.tgt_column} = n2.{last_pk}"
        )
    elif edge_map.fk_side == "source":
        left_joins = (
            f"LEFT JOIN {last_map.table} AS n2 "
            f"ON {mid_var}.{edge_map.fk_column} = n2.{last_pk}"
        )
    else:
        left_joins = (
            f"LEFT JOIN {last_map.table} AS n2 "
            f"ON n2.{edge_map.fk_column} = {mid_var}.{mid_pk}"
        )
    base_where = (
        " WHERE " + " AND ".join(first.join_conditions)
        if first.join_conditions
        else ""
    )
    sql = (
        f"SELECT {sql_a} AS base_out, n2.{last_map.column(name_last)} AS opt_out "
        f"FROM {first.sql_from} {left_joins}{base_where}"
    )
    return BuiltQuery(cypher, sql, {"opt"})


def t_orderby(universe: Universe, rng: random.Random) -> BuiltQuery:
    """ORDER BY with a LIMIT, keyed on the node's (unique) identity key.

    Ordering by the primary key makes tied rows *identical* rows, so the
    list-semantics comparison of Definition 4.4's footnote stays
    well-defined regardless of how either engine breaks ties.
    """
    edge = rng.choice(_single_edges(universe))
    path = build_path(universe, [edge])
    schema = universe.graph_schema
    node_map = path.node_vars[0][1]
    pk_key = schema.node_type(node_map.label).default_key
    cy_k, sql_k = path.node_ref(0, pk_key)
    cy_n, sql_n = path.node_ref(0, _name_key(node_map, universe))
    limit = rng.randint(2, 8)
    cypher = (
        f"MATCH {path.cypher_pattern} RETURN {cy_n} AS who, {cy_k} AS ord_key "
        f"ORDER BY ord_key DESC LIMIT {limit}"
    )
    sql = (
        f"SELECT {sql_n} AS who, {sql_k} AS ord_key FROM {path.sql_from}"
        f"{path.sql_where([])} ORDER BY ord_key DESC LIMIT {limit}"
    )
    return BuiltQuery(cypher, sql, {"orderby"})


def t_exists(universe: Universe, rng: random.Random) -> BuiltQuery:
    """EXISTS subpattern vs IN-subquery (the Appendix-C idiom)."""
    schema = universe.graph_schema
    eligible = [
        e.label
        for e in schema.edge_types
        if e.source in complete_node_labels(universe)
    ]
    edge = rng.choice(eligible)
    edge_type = schema.edge_type(edge)
    source_map = universe.node(edge_type.source)
    path = build_path(universe, [edge], prefix="x")
    source_var = path.node_vars[0][0]
    pk_key = schema.node_type(edge_type.source).default_key
    name_key = _name_key(source_map, universe)
    pk_col = source_map.column(pk_key)
    sub_path = build_path(universe, [edge], prefix="s")
    sub_src_var = sub_path.node_vars[0][0]
    cypher = (
        f"MATCH ({source_var}:{edge_type.source}) "
        f"WHERE EXISTS {{ MATCH ({source_var}:{edge_type.source})"
        f"{sub_path.cypher_pattern.split(')', 1)[1]} }} "
        f"RETURN {source_var}.{name_key} AS who"
    )
    sub_conditions = [
        c.replace(f"{sub_src_var}.", f"{source_var}__i.") for c in sub_path.join_conditions
    ]
    sub_from = [
        item.replace(f" AS {sub_src_var}", f" AS {source_var}__i")
        for item in sub_path.from_items
    ]
    sql = (
        f"SELECT {source_var}.{name_key and source_map.column(name_key)} AS who "
        f"FROM {source_map.table} AS {source_var} "
        f"WHERE {source_var}.{pk_col} IN ("
        f"SELECT {source_var}__i.{pk_col} FROM {', '.join(sub_from)}"
        + (" WHERE " + " AND ".join(sub_conditions) if sub_conditions else "")
        + ")"
    )
    return BuiltQuery(cypher, sql, {"exists"})


def t_arith_predicate(universe: Universe, rng: random.Random) -> BuiltQuery:
    """Arithmetic inside WHERE (outside the deductive fragment)."""
    edge = rng.choice(_single_edges(universe))
    path = build_path(universe, [edge])
    cy_x, sql_x = path.node_ref(0, _numeric_key(path.node_vars[0][1], universe))
    cy_y, sql_y = path.node_ref(1, _numeric_key(path.node_vars[1][1], universe))
    cy_n, sql_n = path.node_ref(0, _name_key(path.node_vars[0][1], universe))
    bump = rng.randint(1, 4)
    cypher = (
        f"MATCH {path.cypher_pattern} WHERE {cy_x} + {bump} < {cy_y} "
        f"RETURN {cy_n} AS who"
    )
    sql = (
        f"SELECT {sql_n} AS who FROM {path.sql_from}"
        f"{path.sql_where([f'{sql_x} + {bump} < {sql_y}'])}"
    )
    return BuiltQuery(cypher, sql, {"arith"})


def t_implied_conjunct(universe: Universe, rng: random.Random) -> BuiltQuery:
    """Genuinely equivalent, structurally different: ``x < c`` vs
    ``x < c AND x < c'`` with ``c < c'`` — the deductive backend answers
    Unknown (condition multisets differ) exactly like Mediator's failed
    invariant inference."""
    edge = rng.choice(_single_edges(universe))
    path = build_path(universe, [edge])
    cy_x, sql_x = path.node_ref(0, _numeric_key(path.node_vars[0][1], universe))
    cy_n, sql_n = path.node_ref(1, _name_key(path.node_vars[1][1], universe))
    low = rng.randint(2, 5)
    high = low + rng.randint(1, 5)
    cypher = (
        f"MATCH {path.cypher_pattern} WHERE {cy_x} < {low} RETURN {cy_n} AS out_col"
    )
    sql = (
        f"SELECT {sql_n} AS out_col FROM {path.sql_from}"
        f"{path.sql_where([f'{sql_x} < {low}', f'{sql_x} < {high}'])}"
    )
    return BuiltQuery(
        cypher,
        sql,
        {"unknown-by-design"},
        notes="equivalent via implied conjunct; structural proof must fail",
    )


def t_head_identity_arith(universe: Universe, rng: random.Random) -> BuiltQuery:
    """Genuinely equivalent: ``x`` vs ``x + 0`` in the head → Unknown."""
    edge = rng.choice(_single_edges(universe))
    path = build_path(universe, [edge])
    cy_x, sql_x = path.node_ref(0, _numeric_key(path.node_vars[0][1], universe))
    cypher = f"MATCH {path.cypher_pattern} RETURN {cy_x} AS val"
    sql = f"SELECT {sql_x} + 0 AS val FROM {path.sql_from}{path.sql_where([])}"
    return BuiltQuery(
        cypher,
        sql,
        {"unknown-by-design", "headarith"},
        notes="equivalent via x + 0 = x; structural proof must fail",
    )


def t_optional_into(universe: Universe, rng: random.Random) -> BuiltQuery:
    """Bare node MATCH plus an OPTIONAL MATCH pointing *into* it.

    This is the Appendix E example-3 shape: the optional pattern's arrow
    ends at the previously bound variable.  The pair is equivalent; the
    OpenCypherTranspiler baseline mistranslates it (wrong join direction).
    """
    schema = universe.graph_schema
    eligible = [
        e.label
        for e in schema.edge_types
        if isinstance(universe.edge(e.label), EdgeTableMap)
        and e.target in complete_node_labels(universe)
    ]
    edge = rng.choice(eligible)
    edge_type = schema.edge_type(edge)
    edge_map = universe.edge(edge)
    assert isinstance(edge_map, EdgeTableMap)
    target_map = universe.node(edge_type.target)
    source_map = universe.node(edge_type.source)
    target_pk = target_map.column(schema.node_type(edge_type.target).default_key)
    source_pk = source_map.column(schema.node_type(edge_type.source).default_key)
    t_name = _name_key(target_map, universe)
    s_name = _name_key(source_map, universe)
    cypher = (
        f"MATCH (t:{edge_type.target}) "
        f"OPTIONAL MATCH (s:{edge_type.source})-[oe:{edge}]->(t) "
        f"RETURN t.{t_name} AS t_out, s.{s_name} AS s_out"
    )
    sql = (
        f"SELECT t.{target_map.column(t_name)} AS t_out, "
        f"s.{source_map.column(s_name)} AS s_out "
        f"FROM {target_map.table} AS t "
        f"LEFT JOIN {edge_map.table} AS oe ON oe.{edge_map.tgt_column} = t.{target_pk} "
        f"LEFT JOIN {source_map.table} AS s ON oe.{edge_map.src_column} = s.{source_pk}"
    )
    return BuiltQuery(cypher, sql, {"opt", "backwards-optional"})


def t_triple_pattern_in(universe: Universe, rng: random.Random) -> BuiltQuery:
    """Three comma patterns + IN list + IS NOT NULL (App. E example 2 shape).

    Equivalent pair; the baseline emits syntactically invalid SQL for it.
    """
    complete = sorted(complete_node_labels(universe))
    first = complete[0]
    second = complete[-1]
    schema = universe.graph_schema
    first_map = universe.node(first)
    second_map = universe.node(second)
    first_pk = schema.node_type(first).default_key
    second_pk = schema.node_type(second).default_key
    second_num = _numeric_key(second_map, universe)
    first_name = _name_key(first_map, universe)
    low, high = 1, rng.randint(2, 4)
    cypher = (
        f"MATCH (x:{first}), (u:{second}), (v:{second}) "
        f"WHERE x.{first_pk} = u.{second_pk} AND x.{first_pk} = v.{second_pk} "
        f"AND u.{second_num} IN [{low}, {high}] AND v.{second_num} IS NOT NULL "
        f"RETURN DISTINCT x.{first_pk} AS xid, x.{first_name} AS xname"
    )
    sql = (
        f"SELECT DISTINCT x.{first_map.column(first_pk)} AS xid, "
        f"x.{first_map.column(first_name)} AS xname "
        f"FROM {first_map.table} AS x, {second_map.table} AS u, {second_map.table} AS v "
        f"WHERE x.{first_map.column(first_pk)} = u.{second_map.column(second_pk)} "
        f"AND x.{first_map.column(first_pk)} = v.{second_map.column(second_pk)} "
        f"AND u.{second_map.column(second_num)} IN ({low}, {high}) "
        f"AND v.{second_map.column(second_num)} IS NOT NULL"
    )
    return BuiltQuery(cypher, sql, {"multimatch", "inlist", "distinct"})


def t_multimatch_unknown(universe: Universe, rng: random.Random) -> BuiltQuery:
    """Multi-MATCH pair whose SQL carries an implied extra conjunct —
    genuinely equivalent, structural proof fails (Unknown)."""
    return t_multimatch(universe, rng, implied_conjunct=True)


def t_with_unknown(universe: Universe, rng: random.Random) -> BuiltQuery:
    """WITH pipeline whose SQL head adds ``+ 0`` — equivalent, Unknown."""
    edge = rng.choice(_single_edges(universe))
    path = build_path(universe, [edge])
    tgt_var, tgt_map = path.node_vars[1]
    key = _numeric_key(tgt_map, universe)
    _, sql_ref = path.node_ref(1, key)
    cypher = (
        f"MATCH {path.cypher_pattern} WITH {tgt_var} AS kept "
        f"RETURN kept.{key} AS kept_val"
    )
    sql = f"SELECT {sql_ref} + 0 AS kept_val FROM {path.sql_from}{path.sql_where([])}"
    return BuiltQuery(
        cypher,
        sql,
        {"with", "unknown-by-design", "headarith"},
        notes="equivalent via x + 0 = x over a WITH pipeline",
    )


# ---------------------------------------------------------------------------
# Bug templates (planted non-equivalences)
# ---------------------------------------------------------------------------


def b_orderby_direction(universe: Universe, rng: random.Random) -> BuiltQuery:
    """ORDER BY direction flipped on the SQL side (with a LIMIT it bites)."""
    built = t_orderby(universe, rng)
    built.sql_text = built.sql_text.replace("ORDER BY ord_key DESC", "ORDER BY ord_key ASC")
    built.expected_equivalent = False
    built.bug_class = "orderby-direction"
    return built


def b_wrong_constant(universe: Universe, rng: random.Random) -> BuiltQuery:
    """Cypher filters on c, SQL on c+1 (GPT off-by-one bug class)."""
    built = t_scan_filter(universe, rng)
    constant = _first_int(built.sql_text)
    built.sql_text = built.sql_text.replace(f"= {constant}", f"= {constant + 1}", 1)
    built.expected_equivalent = False
    built.bug_class = "wrong-constant"
    return built


def b_reversed_follow(universe: Universe, rng: random.Random) -> BuiltQuery:
    """Self-loop edge traversed backwards on the SQL side (social only).

    The projection is deliberately *asymmetric* (source name, target age):
    with a symmetric projection the reversal would merely transpose the two
    output columns, which Definition 4.4's column bijection forgives.
    """
    path = build_path(universe, ["FOLLOWS"])
    cy_a, sql_a = path.node_ref(0, "uname")
    cy_b, sql_b = path.node_ref(1, "age")
    cypher = f"MATCH {path.cypher_pattern} RETURN {cy_a} AS src_name, {cy_b} AS dst_age"
    conditions = [
        c.replace(".f_src", ".__tmp__").replace(".f_dst", ".f_src").replace(".__tmp__", ".f_dst")
        for c in path.join_conditions
    ]
    sql = (
        f"SELECT {sql_a} AS src_name, {sql_b} AS dst_age FROM {path.sql_from}"
        f" WHERE {' AND '.join(conditions)}"
    )
    return BuiltQuery(cypher, sql, set(), expected_equivalent=False, bug_class="reversed-edge")


def b_optional_as_inner(universe: Universe, rng: random.Random) -> BuiltQuery:
    """Cypher OPTIONAL MATCH translated as an inner join (drops null rows)."""
    built = t_optional(universe, rng)
    built.sql_text = built.sql_text.replace("LEFT JOIN", "JOIN")
    built.expected_equivalent = False
    built.bug_class = "optional-as-inner"
    return built


def b_double_count(universe: Universe, rng: random.Random) -> BuiltQuery:
    """The motivating-example bug: WITH + re-MATCH double counts paths
    relative to the SQL IN-subquery formulation (Section 2).

    Only edge-table hops can fan out (a merged edge is capped at one per
    carrying row by that table's primary key), so the edge choice is
    restricted accordingly — otherwise the "bug" would not be one.
    """
    candidates = [
        edge_type.label
        for edge_type in universe.graph_schema.edge_types
        if isinstance(universe.edge(edge_type.label), EdgeTableMap)
    ]
    chain = [rng.choice(candidates)]
    schema = universe.graph_schema
    first_label = schema.edge_type(chain[0]).source
    mid_label = schema.edge_type(chain[0]).target
    source_map = universe.node(first_label)
    mid_map = universe.node(mid_label)
    pk_key = schema.node_type(first_label).default_key
    mid_pk_key = schema.node_type(mid_label).default_key
    constant = rng.randint(1, 3)
    forward = build_path(universe, [chain[0]], prefix="f")
    back = build_path(universe, [chain[0]], prefix="g")
    f_src, f_mid = forward.node_vars[0][0], forward.node_vars[1][0]
    g_src, g_mid = back.node_vars[0][0], back.node_vars[1][0]
    back_pattern = back.cypher_pattern.replace(f"({g_mid}:", f"({f_mid}:")
    cy_out = f"{g_src}.{_name_key(source_map, universe)}"
    cypher = (
        f"MATCH {forward.cypher_pattern} WHERE {f_src}.{pk_key} = {constant} "
        f"WITH {f_mid} "
        f"MATCH {back_pattern} "
        f"RETURN {cy_out} AS who, Count(*) AS cnt"
    )
    mid_pk_col = mid_map.column(mid_pk_key)
    src_pk_col = source_map.column(pk_key)
    g_name_col = source_map.column(_name_key(source_map, universe))
    inner_conditions = [
        c for c in forward.join_conditions
    ] + [f"{f_src}.{src_pk_col} = {constant}"]
    outer_conditions = list(back.join_conditions)
    mid_expr = _mid_sql_ref(universe, chain[0], back, mid_map, mid_pk_col)
    inner_mid_expr = _mid_sql_ref(universe, chain[0], forward, mid_map, mid_pk_col)
    sql = (
        f"SELECT {g_src}.{g_name_col} AS who, COUNT(*) AS cnt "
        f"FROM {', '.join(back.from_items)} "
        f"WHERE {' AND '.join(outer_conditions)} AND {mid_expr} IN ("
        f"SELECT {inner_mid_expr} FROM {', '.join(forward.from_items)} "
        f"WHERE {' AND '.join(inner_conditions)}) "
        f"GROUP BY {g_src}.{g_name_col}"
    )
    return BuiltQuery(
        cypher,
        sql,
        {"agg", "with", "exists"},
        expected_equivalent=False,
        bug_class="double-count",
        notes="WITH pipeline re-matches and multiplies counts (paper Section 2)",
    )


def _mid_sql_ref(universe, edge_label, path, mid_map, mid_pk_col) -> str:
    """SQL reference to the shared middle node's key within a one-hop path."""
    mid_var = path.node_vars[1][0]
    return f"{mid_var}.{mid_pk_col}"


def b_wrong_group_key(universe: Universe, rng: random.Random) -> BuiltQuery:
    """Aggregation grouped by a different column than the Cypher query."""
    edge = rng.choice(_single_edges(universe))
    path = build_path(universe, [edge])
    cy_g, sql_g = path.node_ref(1, _name_key(path.node_vars[1][1], universe))
    _, sql_other = path.node_ref(1, _numeric_key(path.node_vars[1][1], universe))
    cypher = f"MATCH {path.cypher_pattern} RETURN {cy_g} AS grp, Count(*) AS cnt"
    sql = (
        f"SELECT {sql_g} AS grp, COUNT(*) AS cnt FROM {path.sql_from}"
        f"{path.sql_where([])} GROUP BY {sql_other}"
    )
    return BuiltQuery(
        cypher, sql, {"agg"}, expected_equivalent=False, bug_class="wrong-group-key"
    )


def b_count_star_vs_nullable(universe: Universe, rng: random.Random) -> BuiltQuery:
    """Count(*) vs COUNT(nullable column) after an optional match."""
    built = t_optional(universe, rng)
    # Replace projection with counts: Cypher counts rows, SQL counts the
    # nullable optional column — they differ when the optional side is null.
    cypher_lines = built.cypher_text.rsplit("RETURN", 1)[0]
    sql_head, sql_tail = built.sql_text.split(" FROM ", 1)
    base_out = sql_head.split("SELECT ", 1)[1].split(" AS base_out")[0]
    opt_out = sql_head.split(", ", 1)[1].split(" AS opt_out")[0]
    cy_base = built.cypher_text.rsplit("RETURN ", 1)[1].split(" AS base_out")[0]
    cypher = f"{cypher_lines}RETURN {cy_base} AS grp, Count(*) AS cnt"
    sql = (
        f"SELECT {base_out} AS grp, COUNT({opt_out}) AS cnt FROM {sql_tail} "
        f"GROUP BY {base_out}"
    )
    return BuiltQuery(
        cypher,
        sql,
        {"agg", "opt"},
        expected_equivalent=False,
        bug_class="count-star-vs-column",
    )


def _first_int(text: str) -> int:
    import re

    match = re.search(r"= (\d+)", text)
    assert match is not None
    return int(match.group(1))
