"""Rendering Featherweight SQL algebra to executable SQL text.

The transpiler produces nested relational algebra; this module lowers it to
a SQL string a relational engine accepts, used by the execution benchmarks
(paper Section 6.3 / Table 4), the :mod:`repro.backends` subsystem, and the
examples for display.  Engine-specific spelling (identifier quoting,
boolean/NULL literals, DDL types) is factored into
:class:`repro.sql.dialect.SqlDialect`; the default dialect is SQLite.

Column naming is the reference evaluator's because the renderer calls the
same rules: a renaming names its columns with :func:`repro.sql.ast.qualify`
and a reference finds its column with
:func:`repro.sql.analysis.resolve_attribute`.  Qualified attribute names
like ``T1.c1_CID`` become *quoted identifiers* (``"T1.c1_CID"``), so any
attribute the evaluator can resolve has a well-defined rendering.  Each
operator becomes one ``SELECT`` layer over aliased subqueries.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import count

from repro.common.errors import SemanticsError
from repro.relational.schema import RelationalSchema
from repro.sql import ast
from repro.sql.analysis import iter_nodes, resolve_attribute
from repro.sql.dialect import SQLITE, SqlDialect, dialect_for


def to_sql_text(
    query: ast.Query,
    schema: RelationalSchema,
    optimized: bool = True,
    dialect: str | SqlDialect = SQLITE,
) -> str:
    """Render *query* over *schema* as a single SELECT statement.

    With ``optimized`` (the default) the algebra is first simplified by
    :mod:`repro.sql.optimize`, collapsing the transpiler's one-node-per-rule
    nesting into compact SQL.  *dialect* selects the engine spelling
    (name or :class:`SqlDialect`; defaults to SQLite).
    """
    if optimized:
        from repro.sql.optimize import optimize

        query = optimize(query)
    renderer = _Renderer(schema, dialect_for(dialect))
    rendered = renderer.render(query, {})
    return rendered.text


def to_cte_sql(
    query: ast.Query,
    schema: RelationalSchema,
    dialect: str | SqlDialect = SQLITE,
) -> str:
    """Render with the paper's Figure-7 presentation: one CTE per renamed
    intermediate result (``WITH T1 AS (...), T2 AS (...) SELECT ...``).

    The transpiler's C-Match2/C-OptMatch rules wrap each clause side in a
    renaming ``ρ_T1``/``ρ_T2``; those become the CTEs, exactly as the paper
    displays its running example.  Purely a presentation alternative to
    :func:`to_sql_text` — both render the same algebra.
    """
    from repro.relational.schema import Relation
    from repro.sql.optimize import optimize

    dialect = dialect_for(dialect)
    query = optimize(query)
    cte_definitions: list[tuple[str, str, tuple[str, ...]]] = []
    extended_relations = list(schema.relations)
    used_names: set[str] = {relation.name for relation in schema.relations}

    def hoist_operand(node: ast.Query) -> ast.Query:
        """Turn a composite join operand into a CTE reference.

        Join trees over (renamed) base relations flatten into FROM lists,
        so only genuinely composite operands — projections, aggregations,
        unions — become CTEs, mirroring the paper's Figure-7 granularity.
        """
        if isinstance(node, (ast.Relation, ast.Join, ast.Selection)):
            return node
        if isinstance(node, ast.Renaming) and isinstance(node.query, ast.Relation):
            return node
        cte_name = _fresh_cte_name(f"T{len(cte_definitions) + 1}", used_names)
        used_names.add(cte_name)
        current_schema = RelationalSchema.of(extended_relations, schema.constraints)
        rendered = _Renderer(current_schema, dialect).render(node, {})
        columns = tuple(rendered.columns)
        extended_relations.append(Relation(cte_name, columns))
        cte_definitions.append((cte_name, rendered.text, columns))
        return ast.Relation(cte_name)

    def hoist(node: ast.Query) -> ast.Query:
        node = ast.map_children(node, hoist)
        if isinstance(node, ast.Join):
            return ast.Join(
                node.kind,
                hoist_operand(node.left),
                hoist_operand(node.right),
                node.predicate,
            )
        if isinstance(node, ast.Renaming) and not isinstance(node.query, ast.Relation):
            cte_name = _fresh_cte_name(node.name, used_names)
            used_names.add(cte_name)
            current_schema = RelationalSchema.of(extended_relations, schema.constraints)
            rendered = _Renderer(current_schema, dialect).render(node.query, {})
            columns = tuple(rendered.columns)
            extended_relations.append(Relation(cte_name, columns))
            cte_definitions.append((cte_name, rendered.text, columns))
            return ast.Renaming(node.name, ast.Relation(cte_name))
        return node

    hoisted = hoist(query)
    final_schema = RelationalSchema.of(extended_relations, schema.constraints)
    body = _Renderer(final_schema, dialect).render(hoisted, {}).text
    if not cte_definitions:
        return body
    clauses = ",\n".join(
        f"{dialect.quote(name)} AS ({text})" for name, text, _ in cte_definitions
    )
    return f"WITH {clauses}\n{body}"


def _fresh_cte_name(stem: str, used: set[str]) -> str:
    candidate = stem
    suffix = 0
    while candidate in used:
        suffix += 1
        candidate = f"{stem}_{suffix}"
    return candidate


def create_table_ddl(
    schema: RelationalSchema,
    dialect: str | SqlDialect = SQLITE,
    column_types: dict[str, dict[str, str]] | None = None,
) -> list[str]:
    """``CREATE TABLE`` statements for every relation of *schema*.

    *column_types* optionally maps relation name → attribute → DDL type
    (typed dialects fall back to their default type when no hint exists;
    untyped dialects such as SQLite omit types entirely unless hinted).
    """
    dialect = dialect_for(dialect)
    statements = []
    for relation in schema.relations:
        hints = (column_types or {}).get(relation.name, {})
        columns = ", ".join(
            dialect.ddl_column(a, hints.get(a)) for a in relation.attributes
        )
        statements.append(
            f"CREATE TABLE {dialect.quote(relation.name)} ({columns})"
        )
    return statements


def _fold_with(clause: str, body_text: str, recursive: bool) -> str:
    """Prefix *body_text* with one more CTE definition, folding directly
    nested WITH clauses into a single comma-separated list.

    ``RECURSIVE`` may only appear once, immediately after ``WITH``, and then
    covers every definition in the list (recursive or not) — so the merged
    clause is marked recursive when either side is.
    """
    if body_text.startswith("WITH RECURSIVE "):
        rest = body_text[len("WITH RECURSIVE "):]
        recursive = True
    elif body_text.startswith("WITH "):
        rest = body_text[len("WITH "):]
    else:
        keyword = "WITH RECURSIVE" if recursive else "WITH"
        return f"{keyword} {clause} {body_text}"
    keyword = "WITH RECURSIVE" if recursive else "WITH"
    return f"{keyword} {clause}, {rest}"


class _Rendered:
    """A rendered subquery: its SQL text and output column names."""

    __slots__ = ("text", "columns")

    def __init__(self, text: str, columns: list[str]) -> None:
        self.text = text
        self.columns = columns


class _Binding(_Rendered):
    """A ``WITH`` name in scope, as its references render.

    A reference reads *table* and takes output column ``columns[i]`` from
    its attribute ``physical[i]``.  A real CTE reads itself, so *table* is
    its own name; an inlined renaming view reads its base relation under
    the CTE's name, and no ``WITH`` clause is emitted for it.  *text* is
    the reference as a standalone ``SELECT``.
    """

    __slots__ = ("name", "table", "physical", "_quote")

    def __init__(
        self,
        name: str,
        columns: list[str],
        dialect: SqlDialect,
        table: str | None = None,
        physical: list[str] | None = None,
    ) -> None:
        self.name = name
        self.table = name if table is None else table
        self.physical = columns if physical is None else physical
        self._quote = quote = dialect.quote
        select = ", ".join(
            f"{quote(name)}.{quote(attribute)} AS {quote(column)}"
            for attribute, column in zip(self.physical, columns)
        )
        super().__init__(f"SELECT {select} FROM {self.from_sql()}", columns)

    def from_sql(self, alias: str | None = None) -> str:
        """The FROM item of a reference, renamed to *alias* when given.

        A bare reference to a real CTE is its bare name (the only legal
        spelling of a recursive self-reference); a bare reference to a
        view keeps the CTE name as its alias, so it cannot collide with
        another bare scan of the base relation in the same FROM.
        """
        if alias is None:
            if self.table == self.name:
                return self._quote(self.name)
            alias = self.name
        return f"{self._quote(self.table)} AS {self._quote(alias)}"


class _FromScope:
    """Scope over a FROM clause: column → rendered fragment."""

    def __init__(self, fragments: dict[str, str]) -> None:
        self.fragments = fragments
        self.columns = list(fragments)

    def resolve(self, name: str) -> str | None:
        """The fragment of the column *name* resolves to, or ``None``; an
        ambiguous name raises :class:`SemanticsError`."""
        fragment = self.fragments.get(name)
        if fragment is None:
            column = resolve_attribute(name, self.fragments)
            if column is not None:
                fragment = self.fragments[column]
        return fragment


class _Source:
    """A flattened FROM clause with its column scope.

    *predicates* are rendered filter fragments collected from ``Selection``
    nodes flattened inside the join tree; the enclosing SELECT layer must
    AND them into its WHERE clause (they are always safe there — see
    :meth:`_Renderer._as_source`).
    """

    __slots__ = ("from_sql", "scope", "dialect", "predicates")

    def __init__(
        self,
        from_sql: str,
        scope: _FromScope,
        dialect: SqlDialect = SQLITE,
        predicates: list[str] | None = None,
    ) -> None:
        self.from_sql = from_sql
        self.scope = scope
        self.dialect = dialect
        self.predicates = predicates or []

    @property
    def columns(self) -> list[str]:
        return self.scope.columns

    def select_all(self) -> str:
        return ", ".join(
            f"{fragment} AS {self.dialect.quote(column)}"
            for column, fragment in self.scope.fragments.items()
        )


class _Renderer:
    def __init__(self, schema: RelationalSchema, dialect: SqlDialect = SQLITE) -> None:
        self.schema = schema
        self.dialect = dialect
        self._q = dialect.quote
        self._alias = count(1)
        #: Enclosing row scopes for correlated subqueries (innermost last).
        self._outer: list[_FromScope] = []

    def _fresh(self) -> str:
        return f"sub{next(self._alias)}"

    def _resolve(self, name: str, scope: _FromScope) -> str:
        """Resolve against *scope*, falling back to enclosing scopes."""
        for candidate in (scope, *reversed(self._outer)):
            fragment = candidate.resolve(name)
            if fragment is not None:
                return fragment
        raise SemanticsError(f"unknown attribute reference {name!r}")

    # -- flattened FROM clauses ----------------------------------------------

    def _as_source(self, query: ast.Query, ctes: dict[str, _Binding]) -> "_Source | None":
        """Flatten *query* into a FROM clause when it is a join tree over
        (renamed, possibly filtered) base relations; ``None`` when a
        subselect is required.

        ``Selection`` nodes inside the tree flatten too: their predicates
        travel upward as pending WHERE fragments.  That is sound because a
        filter on the *left* input of a CROSS/INNER/LEFT join commutes with
        the join (its columns survive unchanged), and a filter on the
        *right* input of a LEFT join folds into the ON condition
        (``A ⟕_q σ_p(B) ≡ A ⟕_{q∧p} B``).
        """
        if isinstance(query, ast.Selection):
            source = self._as_source(query.query, ctes)
            if source is None:
                return None
            predicate = self._predicate(query.predicate, source.scope, ctes)
            return _Source(
                source.from_sql,
                source.scope,
                self.dialect,
                source.predicates + [predicate],
            )
        if isinstance(query, ast.Relation):
            # A CTE in scope is referenced like a base table: FROM "name".
            # (For WITH RECURSIVE this is not merely nicer SQL — the
            # recursive self-reference is only legal as a bare table name
            # in the recursive select's FROM clause, never in a subquery.)
            cte = ctes.get(query.name)
            if cte is not None:
                fragments = {
                    column: f"{self._q(query.name)}.{self._q(attribute)}"
                    for column, attribute in zip(cte.columns, cte.physical)
                }
                return _Source(cte.from_sql(), _FromScope(fragments), self.dialect)
            fragments = {
                attribute: f"{self._q(query.name)}.{self._q(attribute)}"
                for attribute in self.schema.relation(query.name).attributes
            }
            return _Source(self._q(query.name), _FromScope(fragments), self.dialect)
        if isinstance(query, ast.Renaming) and isinstance(query.query, ast.Relation):
            cte = ctes.get(query.query.name)
            if cte is not None:
                fragments = {
                    ast.qualify(query.name, column):
                        f"{self._q(query.name)}.{self._q(attribute)}"
                    for column, attribute in zip(cte.columns, cte.physical)
                }
                from_sql = cte.from_sql(query.name)
                return _Source(from_sql, _FromScope(fragments), self.dialect)
            relation = self.schema.relation(query.query.name)
            fragments = {
                ast.qualify(query.name, attribute):
                    f"{self._q(query.name)}.{self._q(attribute)}"
                for attribute in relation.attributes
            }
            from_sql = f"{self._q(query.query.name)} AS {self._q(query.name)}"
            return _Source(from_sql, _FromScope(fragments), self.dialect)
        if isinstance(query, ast.Join) and query.kind in (
            ast.JoinKind.CROSS,
            ast.JoinKind.INNER,
            ast.JoinKind.LEFT,
        ):
            left = self._as_source(query.left, ctes)
            if left is None:
                return None
            right = self._as_source(query.right, ctes)
            if right is None:
                return None
            overlap = set(left.scope.fragments) & set(right.scope.fragments)
            if overlap:
                return None
            fragments = dict(left.scope.fragments)
            fragments.update(right.scope.fragments)
            scope = _FromScope(fragments)
            pending = list(left.predicates)
            if query.kind is ast.JoinKind.CROSS:
                pending += right.predicates
                from_sql = f"{left.from_sql} CROSS JOIN {right.from_sql}"
            else:
                keyword = "JOIN" if query.kind is ast.JoinKind.INNER else "LEFT JOIN"
                on_parts = [self._predicate(query.predicate, scope, ctes)]
                if query.kind is ast.JoinKind.LEFT:
                    # Right-input filters must not survive to WHERE (they
                    # would kill null-padded rows); fold them into ON.
                    on_parts += right.predicates
                else:
                    pending += right.predicates
                from_sql = (
                    f"{left.from_sql} {keyword} {right.from_sql} "
                    f"ON {' AND '.join(on_parts)}"
                )
            return _Source(from_sql, scope, self.dialect, pending)
        return None

    def _source_of(self, query: ast.Query, ctes: dict[str, _Binding]) -> "_Source":
        """A source for any query: flattened when possible, else a subselect."""
        source = self._as_source(query, ctes)
        if source is not None:
            return source
        rendered = self.render(query, ctes)
        alias = self._fresh()
        fragments = {
            column: f"{alias}.{self._q(column)}" for column in rendered.columns
        }
        return _Source(
            f"({rendered.text}) AS {alias}", _FromScope(fragments), self.dialect
        )

    def _split_selection(
        self, query: ast.Query, ctes: dict[str, _Binding]
    ) -> tuple["_Source", str]:
        """Source plus rendered WHERE text ("" when no selection applies)."""
        if isinstance(query, ast.Selection):
            source = self._source_of(query.query, ctes)
            predicate = self._predicate(query.predicate, source.scope, ctes)
            return source, self._where_of(source, predicate)
        source = self._source_of(query, ctes)
        return source, self._where_of(source)

    @staticmethod
    def _where_of(source: "_Source", extra: str = "") -> str:
        """AND-combine the source's pending filters with *extra* ("" = none)."""
        parts = source.predicates + ([extra] if extra else [])
        return " AND ".join(parts)

    # -- queries -----------------------------------------------------------

    def render(self, query: ast.Query, ctes: dict[str, _Binding]) -> _Rendered:
        if isinstance(query, ast.Relation):
            return self._render_relation(query, ctes)
        if isinstance(query, ast.Projection):
            return self._render_projection(query, ctes)
        if isinstance(query, ast.Selection):
            return self._render_selection(query, ctes)
        if isinstance(query, ast.Renaming):
            return self._render_renaming(query, ctes)
        if isinstance(query, ast.Join):
            return self._render_join(query, ctes)
        if isinstance(query, ast.UnionOp):
            return self._render_union(query, ctes)
        if isinstance(query, ast.GroupBy):
            return self._render_group_by(query, ctes)
        if isinstance(query, ast.WithQuery):
            return self._render_with(query, ctes)
        if isinstance(query, ast.RecursiveQuery):
            return self._render_recursive(query, ctes)
        if isinstance(query, ast.OrderBy):
            return self._render_order_by(query, ctes)
        raise SemanticsError(f"cannot render query node {type(query).__name__}")

    def _render_relation(self, query: ast.Relation, ctes: dict[str, _Binding]) -> _Rendered:
        cte = ctes.get(query.name)
        if cte is not None:
            return cte
        relation = self.schema.relation(query.name)
        columns = list(relation.attributes)
        select = ", ".join(f"{self._q(a)}" for a in columns)
        return _Rendered(f"SELECT {select} FROM {self._q(query.name)}", columns)

    def _render_projection(self, query: ast.Projection, ctes: dict[str, _Binding]) -> _Rendered:
        source, where = self._split_selection(query.query, ctes)
        parts = [
            f"{self._expression(c.expression, source.scope)} AS {self._q(c.alias)}"
            for c in query.columns
        ]
        keyword = "SELECT DISTINCT" if query.distinct else "SELECT"
        text = f"{keyword} {', '.join(parts)} FROM {source.from_sql}"
        if where:
            text += f" WHERE {where}"
        return _Rendered(text, [c.alias for c in query.columns])

    def _render_selection(self, query: ast.Selection, ctes: dict[str, _Binding]) -> _Rendered:
        source = self._source_of(query.query, ctes)
        predicate = self._predicate(query.predicate, source.scope, ctes)
        where = self._where_of(source, predicate)
        text = (
            f"SELECT {source.select_all()} FROM {source.from_sql} WHERE {where}"
        )
        return _Rendered(text, source.columns)

    def _render_renaming(self, query: ast.Renaming, ctes: dict[str, _Binding]) -> _Rendered:
        if isinstance(query.query, ast.Relation) and query.query.name in ctes:
            # ρ_T over a CTE renders in one layer too: FROM cte AS T.  The
            # bare reference is mandatory for recursive self-references.
            cte = ctes[query.query.name]
            new_columns = [ast.qualify(query.name, c) for c in cte.columns]
            parts = [
                f"{self._q(query.name)}.{self._q(old)} AS {self._q(new)}"
                for old, new in zip(cte.physical, new_columns)
            ]
            text = f"SELECT {', '.join(parts)} FROM {cte.from_sql(query.name)}"
            return _Rendered(text, new_columns)
        if isinstance(query.query, ast.Relation) and query.query.name not in ctes:
            # ρ_T over a base relation renders in one layer: FROM t AS T.
            relation = self.schema.relation(query.query.name)
            new_columns = [ast.qualify(query.name, a) for a in relation.attributes]
            parts = [
                f"{self._q(query.name)}.{self._q(old)} AS {self._q(new)}"
                for old, new in zip(relation.attributes, new_columns)
            ]
            text = (
                f"SELECT {', '.join(parts)} FROM {self._q(query.query.name)} "
                f"AS {self._q(query.name)}"
            )
            return _Rendered(text, new_columns)
        inner = self.render(query.query, ctes)
        alias = self._fresh()
        new_columns = [ast.qualify(query.name, c) for c in inner.columns]
        parts = [
            f"{alias}.{self._q(old)} AS {self._q(new)}"
            for old, new in zip(inner.columns, new_columns)
        ]
        text = f"SELECT {', '.join(parts)} FROM ({inner.text}) AS {alias}"
        return _Rendered(text, new_columns)

    def _render_join(self, query: ast.Join, ctes: dict[str, _Binding]) -> _Rendered:
        flattened = self._as_source(query, ctes)
        if flattened is not None:
            text = f"SELECT {flattened.select_all()} FROM {flattened.from_sql}"
            if flattened.predicates:
                text += f" WHERE {self._where_of(flattened)}"
            return _Rendered(text, flattened.columns)
        left = self.render(query.left, ctes)
        right = self.render(query.right, ctes)
        left_alias = self._fresh()
        right_alias = self._fresh()
        fragments = {c: f"{left_alias}.{self._q(c)}" for c in left.columns}
        fragments.update((c, f"{right_alias}.{self._q(c)}") for c in right.columns)
        if len(fragments) != len(left.columns) + len(right.columns):
            raise SemanticsError(
                "join would produce duplicate attribute names; rename the operands"
            )
        scope = _FromScope(fragments)
        select = ", ".join(
            f"{fragment} AS {self._q(c)}" for c, fragment in fragments.items()
        )
        if query.kind is ast.JoinKind.CROSS:
            join_sql = (
                f"({left.text}) AS {left_alias} CROSS JOIN ({right.text}) AS {right_alias}"
            )
        else:
            keyword = {
                ast.JoinKind.INNER: "JOIN",
                ast.JoinKind.LEFT: "LEFT JOIN",
                ast.JoinKind.RIGHT: "RIGHT JOIN",
                ast.JoinKind.FULL: "FULL JOIN",
            }[query.kind]
            predicate = self._predicate(query.predicate, scope, ctes)
            join_sql = (
                f"({left.text}) AS {left_alias} {keyword} ({right.text}) "
                f"AS {right_alias} ON {predicate}"
            )
        return _Rendered(f"SELECT {select} FROM {join_sql}", scope.columns)

    def _render_with(self, query: ast.WithQuery, ctes: dict[str, _Binding]) -> _Rendered:
        """``With(Q1, R, Q2)`` as a real ``WITH R AS (...)`` clause.

        Every later reference to *R* renders as a scan of the CTE name, so
        engines evaluate the definition once (hash-consed subplans rely on
        this).  Directly nested ``WithQuery`` bodies fold into one comma-
        separated WITH clause; a WITH-prefixed subquery is legal wherever
        the body would otherwise appear (SQLite, DuckDB, MySQL 8, ANSI).

        A renaming view (see :meth:`_renaming_view`) emits no clause: each
        reference reads the base relation itself, so an engine neither
        materializes a copy of it nor loses the base table's indexes.
        """
        extended = dict(ctes)
        view = self._renaming_view(query, ctes)
        if view is not None:
            extended[query.name] = view
            return self.render(query.body, extended)
        definition = self.render(query.definition, ctes)
        extended[query.name] = _Binding(query.name, definition.columns, self.dialect)
        body = self.render(query.body, extended)
        clause = f"{self._q(query.name)} AS ({definition.text})"
        return _Rendered(_fold_with(clause, body.text, recursive=False), body.columns)

    def _renaming_view(
        self, query: ast.WithQuery, ctes: dict[str, _Binding]
    ) -> _Binding | None:
        """The binding of a CTE that only selects and renames attributes of
        one base relation, or ``None``.

        That is a non-distinct projection of plain attribute references
        over a relation no CTE in scope shadows, and whose name no ``WITH``
        inside the body rebinds (the inlined reads would bind to it).
        """
        definition = query.definition
        if not (
            isinstance(definition, ast.Projection)
            and not definition.distinct
            and isinstance(definition.query, ast.Relation)
            and definition.query.name not in ctes
            and self.schema.has_relation(definition.query.name)
        ):
            return None
        base = definition.query.name
        attributes = self.schema.relation(base).attributes
        physical = []
        for column in definition.columns:
            expression = column.expression
            if not (
                isinstance(expression, ast.AttributeRef)
                and expression.name in attributes
            ):
                return None
            physical.append(expression.name)
        for node in iter_nodes(query.body):
            if isinstance(node, (ast.WithQuery, ast.RecursiveQuery)) and node.name == base:
                return None
        return _Binding(
            query.name,
            [column.alias for column in definition.columns],
            self.dialect,
            table=base,
            physical=physical,
        )

    def _render_recursive(self, query: ast.RecursiveQuery, ctes: dict[str, _Binding]) -> _Rendered:
        """``WithRec(R, base, step, body)`` as ``WITH RECURSIVE R(...) AS
        (base UNION step) body``.

        Inside *step* and *body* the binding is in scope like any CTE; the
        flattened-FROM machinery references it by bare name, which is what
        the engines' recursive selects require (the self-reference must not
        sit inside a subquery).
        """
        base = self.render(query.base, ctes)
        extended = dict(ctes)
        extended[query.name] = _Binding(query.name, list(query.columns), self.dialect)
        step = self.render(query.step, extended)
        body = self.render(query.body, extended)
        keyword = "UNION ALL" if query.union_all else "UNION"
        columns = ", ".join(self._q(c) for c in query.columns)
        clause = (
            f"{self._q(query.name)}({columns}) AS "
            f"({base.text} {keyword} {step.text})"
        )
        return _Rendered(_fold_with(clause, body.text, recursive=True), body.columns)

    def _render_union(self, query: ast.UnionOp, ctes: dict[str, _Binding]) -> _Rendered:
        left = self.render(self._union_operand(query.left, query.all), ctes)
        right = self.render(self._union_operand(query.right, query.all), ctes)
        keyword = "UNION ALL" if query.all else "UNION"
        left_alias = self._fresh()
        right_alias = self._fresh()
        left_sql = "SELECT " + ", ".join(
            f"{left_alias}.{self._q(c)}" for c in left.columns
        ) + f" FROM ({left.text}) AS {left_alias}"
        right_sql = "SELECT " + ", ".join(
            f"{right_alias}.{self._q(c)}" for c in right.columns
        ) + f" FROM ({right.text}) AS {right_alias}"
        return _Rendered(f"{left_sql} {keyword} {right_sql}", left.columns)

    @staticmethod
    def _union_operand(operand: ast.Query, union_all: bool) -> ast.Query:
        """*operand* as a union renders it: a distinct ``UNION`` removes
        duplicates itself, so a distinct projection directly under one
        drops its own ``DISTINCT`` (one temp B-tree instead of two).
        ``UNION ALL`` operands keep theirs."""
        if not union_all and isinstance(operand, ast.Projection) and operand.distinct:
            return replace(operand, distinct=False)
        return operand

    def _render_group_by(self, query: ast.GroupBy, ctes: dict[str, _Binding]) -> _Rendered:
        source, where = self._split_selection(query.query, ctes)
        parts = [
            f"{self._expression(c.expression, source.scope)} AS {self._q(c.alias)}"
            for c in query.columns
        ]
        text = f"SELECT {', '.join(parts)} FROM {source.from_sql}"
        if where:
            text += f" WHERE {where}"
        if query.keys:
            keys = ", ".join(self._expression(k, source.scope) for k in query.keys)
            text += f" GROUP BY {keys}"
        if query.having != ast.TRUE:
            having = self._predicate(query.having, source.scope, ctes)
            text += f" HAVING {having}"
        return _Rendered(text, [c.alias for c in query.columns])

    def _render_order_by(self, query: ast.OrderBy, ctes: dict[str, _Binding]) -> _Rendered:
        source = self._source_of(query.query, ctes)
        text = f"SELECT {source.select_all()} FROM {source.from_sql}"
        if source.predicates:
            text += f" WHERE {self._where_of(source)}"
        if query.keys:
            keys = ", ".join(
                f"{self._expression(k, source.scope)} {'ASC' if asc else 'DESC'}"
                for k, asc in zip(query.keys, query.ascending)
            )
            text += f" ORDER BY {keys}"
        if query.limit is not None:
            text += f" LIMIT {query.limit}"
        return _Rendered(text, source.columns)

    # -- expressions ---------------------------------------------------------

    def _expression(self, expression: ast.Expression, scope: _FromScope) -> str:
        if isinstance(expression, ast.AttributeRef):
            return self._resolve(expression.name, scope)
        if isinstance(expression, ast.Literal):
            return self.dialect.literal(expression.value)
        if isinstance(expression, ast.Aggregate):
            function = expression.function.upper()
            if expression.argument is None:
                return "COUNT(*)"
            inner = self._expression(expression.argument, scope)
            if expression.distinct:
                inner = f"DISTINCT {inner}"
            return f"{function}({inner})"
        if isinstance(expression, ast.BinaryOp):
            left = self._expression(expression.left, scope)
            right = self._expression(expression.right, scope)
            return f"({left} {expression.op} {right})"
        if isinstance(expression, ast.CastPredicate):
            predicate = self._predicate(expression.predicate, scope, {})
            return (
                f"(CASE WHEN {predicate} THEN 1 "
                f"WHEN NOT ({predicate}) THEN 0 ELSE NULL END)"
            )
        raise SemanticsError(
            f"cannot render expression node {type(expression).__name__}"
        )

    def _predicate(
        self, predicate: ast.Predicate, scope: _FromScope, ctes: dict[str, _Binding]
    ) -> str:
        if isinstance(predicate, ast.BoolLit):
            return self.dialect.boolean(predicate.value)
        if isinstance(predicate, ast.Comparison):
            left = self._expression(predicate.left, scope)
            right = self._expression(predicate.right, scope)
            return f"{left} {predicate.op} {right}"
        if isinstance(predicate, ast.IsNull):
            operand = self._expression(predicate.operand, scope)
            suffix = "IS NOT NULL" if predicate.negated else "IS NULL"
            return f"{operand} {suffix}"
        if isinstance(predicate, ast.InValues):
            operand = self._expression(predicate.operand, scope)
            values = ", ".join(self.dialect.literal(v) for v in predicate.values)
            return f"{operand} IN ({values})"
        if isinstance(predicate, ast.InQuery):
            operands = ", ".join(self._expression(e, scope) for e in predicate.operands)
            self._outer.append(scope)
            try:
                sub = self.render(predicate.query, ctes)
            finally:
                self._outer.pop()
            keyword = "NOT IN" if predicate.negated else "IN"
            if len(predicate.operands) == 1:
                return f"{operands} {keyword} ({sub.text})"
            return f"({operands}) {keyword} (SELECT * FROM ({sub.text}))"
        if isinstance(predicate, ast.ExistsQuery):
            self._outer.append(scope)
            try:
                sub = self.render(predicate.query, ctes)
            finally:
                self._outer.pop()
            keyword = "NOT EXISTS" if predicate.negated else "EXISTS"
            return f"{keyword} ({sub.text})"
        if isinstance(predicate, ast.And):
            return (
                f"({self._predicate(predicate.left, scope, ctes)} AND "
                f"{self._predicate(predicate.right, scope, ctes)})"
            )
        if isinstance(predicate, ast.Or):
            return (
                f"({self._predicate(predicate.left, scope, ctes)} OR "
                f"{self._predicate(predicate.right, scope, ctes)})"
            )
        if isinstance(predicate, ast.Not):
            return f"NOT ({self._predicate(predicate.operand, scope, ctes)})"
        raise SemanticsError(
            f"cannot render predicate node {type(predicate).__name__}"
        )
