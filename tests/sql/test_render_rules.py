"""Two rendering rules that change what an engine is sent, not the plan.

* The operands of a distinct ``UNION`` render without their own
  ``DISTINCT``: the union removes duplicates once.
* A ``WITH`` binding that only selects and renames attributes of one base
  relation (a *renaming view*) emits no clause; each reference reads the
  base relation under the reference's alias.

Every shape below also runs on SQLite and must return the reference
evaluator's bag, over an edge table with parallel rows and a self-loop.
"""

import pytest

from repro.backends.sqlite import SqliteMemoryBackend
from repro.relational.instance import Database, tables_equivalent
from repro.relational.schema import Relation, RelationalSchema
from repro.sql import ast
from repro.sql.pretty import to_sql_text
from repro.sql.semantics import evaluate_query

SCHEMA = RelationalSchema.of(
    [Relation("EDGE", ("SRC", "TGT")), Relation("NODE", ("id",))]
)
#: Parallel (1, 2) edges, a self-loop on 3 and a cycle 1 → 2 → 3 → 1.
PAIRS = [(1, 2), (1, 2), (2, 3), (3, 1), (3, 3)]
EDGE = ast.Relation("EDGE")


def ref(name: str) -> ast.AttributeRef:
    return ast.AttributeRef(name)


def pairs(query: ast.Query, source: str, target: str, distinct: bool) -> ast.Projection:
    return ast.Projection(
        query,
        (ast.OutputColumn("src", ref(source)), ast.OutputColumn("tgt", ref(target))),
        distinct=distinct,
    )


def renaming_view(body: ast.Query) -> ast.WithQuery:
    """``WITH hop AS (SELECT SRC AS src, TGT AS tgt FROM EDGE) body``."""
    return ast.WithQuery("hop", pairs(EDGE, "SRC", "TGT", False), body)


def two_hops() -> ast.Query:
    """Pairs of ``hop`` joined end to start, as ``h1`` and ``h2``."""
    return ast.Join(
        ast.JoinKind.INNER,
        ast.Renaming("h1", ast.Relation("hop")),
        ast.Renaming("h2", ast.Relation("hop")),
        ast.Comparison("=", ref("h2.src"), ref("h1.tgt")),
    )


def loops() -> ast.Projection:
    """``SELECT id AS SRC, id AS TGT FROM NODE``: an EDGE-shaped relation."""
    return ast.Projection(
        ast.Relation("NODE"),
        (ast.OutputColumn("SRC", ref("id")), ast.OutputColumn("TGT", ref("id"))),
    )


#: CTE definitions that are not renaming views, so they keep their clause.
KEPT_DEFINITIONS = {
    "filter": pairs(
        ast.Selection(EDGE, ast.Comparison("<", ref("SRC"), ref("TGT"))), "SRC", "TGT", False
    ),
    "distinct": pairs(EDGE, "SRC", "TGT", True),
    "computed-column": ast.Projection(
        EDGE,
        (
            ast.OutputColumn("src", ref("SRC")),
            ast.OutputColumn("tgt", ast.BinaryOp("+", ref("TGT"), ast.Literal(0))),
        ),
    ),
    "union": ast.UnionOp(
        pairs(EDGE, "SRC", "TGT", False), pairs(EDGE, "TGT", "SRC", False), all=True
    ),
}


def render(query: ast.Query) -> str:
    return to_sql_text(query, SCHEMA, optimized=False)


def assert_engine_matches_reference(query: ast.Query) -> None:
    database = Database(SCHEMA)
    for src, tgt in PAIRS:
        database.insert("EDGE", [src, tgt])
    for node in (1, 2, 3):
        database.insert("NODE", [node])
    expected = evaluate_query(query, database)
    with SqliteMemoryBackend(SCHEMA) as backend:
        backend.connect()
        backend.bulk_load(database)
        assert tables_equivalent(expected, backend.execute(render(query)))


class TestUnionOperands:
    def union(self, all: bool) -> ast.UnionOp:
        return ast.UnionOp(
            pairs(EDGE, "SRC", "TGT", True), pairs(EDGE, "TGT", "SRC", True), all=all
        )

    def test_distinct_union_operands_drop_distinct(self):
        query = self.union(all=False)
        text = render(query)
        assert " UNION SELECT " in text
        assert "DISTINCT" not in text
        assert_engine_matches_reference(query)

    def test_union_all_operands_keep_distinct(self):
        query = self.union(all=True)
        text = render(query)
        assert " UNION ALL " in text
        assert text.count("SELECT DISTINCT") == 2
        assert_engine_matches_reference(query)

    def test_lone_distinct_projection_keeps_distinct(self):
        query = pairs(EDGE, "SRC", "TGT", True)
        assert render(query).startswith("SELECT DISTINCT ")
        assert_engine_matches_reference(query)

    def test_only_direct_operands_drop_distinct(self):
        # A UNION ALL under a distinct UNION keeps its operands' DISTINCT:
        # the rule looks at the union's own operands only.
        query = ast.UnionOp(self.union(all=True), self.union(all=False), all=False)
        assert render(query).count("SELECT DISTINCT") == 2
        assert_engine_matches_reference(query)


class TestRenamingView:
    def test_view_renders_no_clause_and_reads_the_base_relation(self):
        query = renaming_view(pairs(two_hops(), "h1.src", "h2.tgt", True))
        text = render(query)
        assert "WITH" not in text and '"hop"' not in text
        assert 'FROM "EDGE" AS "h1" JOIN "EDGE" AS "h2" ON "h2"."SRC" = "h1"."TGT"' in text
        assert_engine_matches_reference(query)

    def test_bare_reference_is_aliased_with_the_cte_name(self):
        query = renaming_view(pairs(ast.Relation("hop"), "src", "tgt", False))
        text = render(query)
        assert 'FROM "EDGE" AS "hop"' in text
        assert '"hop"."SRC" AS "src"' in text
        assert_engine_matches_reference(query)

    def test_bare_reference_beside_a_bare_base_scan(self):
        # Without the alias, `FROM "EDGE" CROSS JOIN "EDGE"` would not parse.
        body = ast.Projection(
            ast.Join(ast.JoinKind.CROSS, ast.Relation("hop"), EDGE, ast.TRUE),
            (ast.OutputColumn("a", ref("src")), ast.OutputColumn("b", ref("TGT"))),
        )
        query = renaming_view(body)
        assert 'FROM "EDGE" AS "hop" CROSS JOIN "EDGE"' in render(query)
        assert_engine_matches_reference(query)

    def test_view_read_by_a_recursive_fixpoint(self):
        base = ast.Projection(
            ast.Relation("hop"),
            (ast.OutputColumn("src", ref("src")), ast.OutputColumn("tgt", ref("tgt"))),
        )
        step = pairs(
            ast.Join(
                ast.JoinKind.INNER,
                ast.Renaming("r", ast.Relation("reach")),
                ast.Renaming("e", ast.Relation("hop")),
                ast.Comparison("=", ref("e.src"), ref("r.tgt")),
            ),
            "r.src",
            "e.tgt",
            False,
        )
        body = pairs(ast.Relation("reach"), "src", "tgt", True)
        query = renaming_view(ast.RecursiveQuery("reach", ("src", "tgt"), base, step, body))
        text = render(query)
        assert text.startswith('WITH RECURSIVE "reach"("src", "tgt") AS (')
        assert 'FROM "EDGE" AS "hop" UNION ' in text
        assert 'FROM "reach" AS "r" JOIN "EDGE" AS "e"' in text
        assert_engine_matches_reference(query)

    @pytest.mark.parametrize("kind", sorted(KEPT_DEFINITIONS))
    def test_other_definitions_keep_their_clause(self, kind):
        body = pairs(two_hops(), "h1.src", "h2.tgt", True)
        query = ast.WithQuery("hop", KEPT_DEFINITIONS[kind], body)
        text = render(query)
        assert text.startswith('WITH "hop" AS (')
        assert 'FROM "hop" AS "h1" JOIN "hop" AS "h2"' in text
        assert_engine_matches_reference(query)

    def test_view_over_a_shadowed_relation_keeps_its_clause(self):
        # Inside `WITH "EDGE" AS (...)` the name EDGE is a CTE, not a base
        # relation, so `hop` is not a view of a base relation.
        inner = renaming_view(pairs(two_hops(), "h1.src", "h2.tgt", True))
        query = ast.WithQuery("EDGE", loops(), inner)
        text = render(query)
        assert '"hop" AS (SELECT ' in text
        assert_engine_matches_reference(query)

    def test_view_whose_base_is_rebound_inside_the_body_keeps_its_clause(self):
        # An inlined read of EDGE inside this body would bind to the inner
        # `WITH "EDGE"`, so the view must stay a real CTE.
        body = ast.WithQuery("EDGE", loops(), pairs(two_hops(), "h1.src", "h2.tgt", True))
        query = renaming_view(body)
        assert render(query).startswith('WITH "hop" AS (')
        assert_engine_matches_reference(query)
