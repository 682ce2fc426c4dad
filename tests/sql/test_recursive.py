"""RecursiveQuery: fixpoint evaluation, WITH RECURSIVE rendering, and
engine execution of hand-built recursive algebra."""

import pytest

from repro.backends.sqlite import SqliteMemoryBackend
from repro.common.errors import SemanticsError
from repro.relational.instance import Database, tables_equivalent
from repro.relational.schema import Relation, RelationalSchema
from repro.sql import ast
from repro.sql.analysis import ast_size, output_attributes, referenced_relations, uses_recursion
from repro.sql.pretty import to_sql_text
from repro.sql.semantics import evaluate_query

SCHEMA = RelationalSchema.of([Relation("EDGE", ("SRC", "TGT"))])


def edge_database(pairs) -> Database:
    database = Database(SCHEMA)
    for src, tgt in pairs:
        database.insert("EDGE", [src, tgt])
    return database


def closure_query(body: ast.Query | None = None) -> ast.RecursiveQuery:
    """Plain transitive closure: reach(src, tgt) over EDGE."""
    base = ast.Projection(
        ast.Relation("EDGE"),
        (
            ast.OutputColumn("src", ast.AttributeRef("SRC")),
            ast.OutputColumn("tgt", ast.AttributeRef("TGT")),
        ),
    )
    step = ast.Projection(
        ast.Join(
            ast.JoinKind.INNER,
            ast.Renaming("r", ast.Relation("reach")),
            ast.Renaming("e", ast.Relation("EDGE")),
            ast.Comparison(
                "=", ast.AttributeRef("e.SRC"), ast.AttributeRef("r.tgt")
            ),
        ),
        (
            ast.OutputColumn("src", ast.AttributeRef("r.src")),
            ast.OutputColumn("tgt", ast.AttributeRef("e.TGT")),
        ),
    )
    if body is None:
        body = ast.Projection(
            ast.Relation("reach"),
            (
                ast.OutputColumn("src", ast.AttributeRef("src")),
                ast.OutputColumn("tgt", ast.AttributeRef("tgt")),
            ),
            distinct=True,
        )
    return ast.RecursiveQuery("reach", ("src", "tgt"), base, step, body)


class TestEvaluation:
    def test_transitive_closure_on_a_cycle_terminates(self):
        database = edge_database([(1, 2), (2, 3), (3, 1)])
        table = evaluate_query(closure_query(), database)
        assert sorted(table.rows) == sorted((a, b) for a in (1, 2, 3) for b in (1, 2, 3))

    def test_chain_closure(self):
        database = edge_database([(1, 2), (2, 3), (3, 4)])
        table = evaluate_query(closure_query(), database)
        assert sorted(table.rows) == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]

    def test_empty_base_case(self):
        table = evaluate_query(closure_query(), edge_database([]))
        assert table.rows == []

    def test_runaway_bag_union_hits_budget(self):
        query = closure_query()
        diverging = ast.RecursiveQuery(
            query.name, query.columns, query.base, query.step, query.body, union_all=True
        )
        with pytest.raises(SemanticsError, match="budget"):
            evaluate_query(diverging, edge_database([(1, 1)]))

    def test_arity_mismatch_rejected(self):
        query = closure_query()
        bad = ast.RecursiveQuery(query.name, ("src",), query.base, query.step, query.body)
        with pytest.raises(SemanticsError, match="columns"):
            evaluate_query(bad, edge_database([(1, 2)]))


class TestRendering:
    def test_with_recursive_shape(self):
        text = to_sql_text(closure_query(), SCHEMA, optimized=False)
        assert text.startswith('WITH RECURSIVE "reach"("src", "tgt") AS (')
        assert " UNION " in text
        # The recursive self-reference is a bare table name in FROM — never
        # wrapped in a subquery (engines reject that).
        assert '(SELECT "reach"' not in text
        assert 'FROM "reach" AS "r"' in text

    def test_union_all_keyword(self):
        query = closure_query()
        bag = ast.RecursiveQuery(
            query.name, query.columns, query.base, query.step, query.body, union_all=True
        )
        assert " UNION ALL " in to_sql_text(bag, SCHEMA, optimized=False)

    def test_sqlite_execution_matches_reference(self):
        database = edge_database([(1, 2), (2, 3), (3, 1), (3, 4), (5, 5)])
        expected = evaluate_query(closure_query(), database)
        with SqliteMemoryBackend(SCHEMA) as backend:
            backend.connect()
            backend.bulk_load(database)
            for optimized in (False, True):
                text = to_sql_text(closure_query(), SCHEMA, optimized=optimized)
                assert tables_equivalent(expected, backend.execute(text))

    def test_nonrecursive_with_folds_into_recursive_clause(self):
        def wrapped(distinct: bool) -> ast.WithQuery:
            return ast.WithQuery(
                "hop",
                ast.Projection(
                    ast.Relation("EDGE"),
                    (
                        ast.OutputColumn("src", ast.AttributeRef("SRC")),
                        ast.OutputColumn("tgt", ast.AttributeRef("TGT")),
                    ),
                    distinct=distinct,
                ),
                closure_query(),
            )

        text = to_sql_text(wrapped(distinct=True), SCHEMA, optimized=False)
        assert text.startswith('WITH RECURSIVE "hop" AS (SELECT DISTINCT ')
        assert text.count("WITH") == 1  # one folded clause list
        # A plain renaming of EDGE is inlined: no "hop" clause at all.
        text = to_sql_text(wrapped(distinct=False), SCHEMA, optimized=False)
        assert '"hop"' not in text
        assert text.startswith('WITH RECURSIVE "reach"("src", "tgt") AS (')


class TestAnalysis:
    def test_traversals_cover_recursive_query(self):
        query = closure_query()
        assert uses_recursion(query)
        assert not uses_recursion(query.base)
        assert ast_size(query) > ast_size(query.base)
        assert output_attributes(query, SCHEMA) == ("src", "tgt")
        assert referenced_relations(query) == {"EDGE"}

    def test_map_children_rebuilds_all_three_children(self):
        query = closure_query()
        marked = []
        same = ast.map_children(query, lambda q: (marked.append(q), q)[1])
        assert same is query  # nothing changed: the node itself comes back
        assert [id(q) for q in marked] == [id(query.base), id(query.step), id(query.body)]
        for slot in ("base", "step", "body"):
            old, new = getattr(query, slot), ast.Relation("other")
            rebuilt = ast.map_children(query, lambda q: new if q is old else q)
            assert getattr(rebuilt, slot) is new
            for field in ("name", "columns", "base", "step", "body", "union_all", "reach"):
                if field != slot:
                    assert getattr(rebuilt, field) is getattr(query, field)
