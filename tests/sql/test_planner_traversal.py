"""Golden planner tests: the recursive-CTE vs bounded-unrolling choice.

Level 2 rewrites a bounded variable-length traversal into a UNION of
k-hop join chains when the statistics-estimated chain growth is cheap,
and keeps the cycle-safe recursive CTE otherwise (open bounds, too many
hops, or explosive fan-out).
"""

from repro.core.sdt import infer_sdt
from repro.core.transpile import transpile
from repro.cypher.parser import parse_cypher
from repro.graph.schema import EdgeType, GraphSchema, NodeType
from repro.sql import ast
from repro.sql.analysis import iter_nodes, uses_recursion
from repro.sql.optimize import optimize
from repro.sql.planner import (
    UNROLL_MAX_HOPS,
    CardinalityEstimator,
    expand_recursions,
)
from repro.sql.stats import TableStats

SCHEMA = GraphSchema.of(
    [NodeType("USER", ("uid", "uname"))],
    [EdgeType("FOLLOWS", "USER", "USER", ("fid",))],
)
SDT = infer_sdt(SCHEMA)


def plan(text: str, level: int = 2, stats=None) -> ast.Query:
    query = parse_cypher(text, SCHEMA)
    return optimize(
        transpile(query, SCHEMA, SDT), level=level, schema=SDT.schema, stats=stats
    )


def union_branches(query: ast.Query) -> int:
    """Distinct-union fan-in of the unrolled reach subtree."""
    return sum(
        1
        for node in iter_nodes(query)
        if isinstance(node, ast.UnionOp) and not node.all
    )


class TestPlanChoice:
    def test_bounded_traversal_unrolls_at_level_2(self):
        planned = plan("MATCH (a:USER)-[:FOLLOWS*1..2]->(b:USER) RETURN a.uid, b.uid")
        assert not uses_recursion(planned)

    def test_level_1_keeps_the_recursive_cte(self):
        planned = plan(
            "MATCH (a:USER)-[:FOLLOWS*1..2]->(b:USER) RETURN a.uid, b.uid", level=1
        )
        assert uses_recursion(planned)

    def test_open_upper_bound_stays_recursive(self):
        planned = plan("MATCH (a:USER)-[:FOLLOWS*]->(b:USER) RETURN a.uid, b.uid")
        assert uses_recursion(planned)
        planned = plan("MATCH (a:USER)-[:FOLLOWS*2..]->(b:USER) RETURN a.uid, b.uid")
        assert uses_recursion(planned)

    def test_deep_bounds_stay_recursive(self):
        hops = UNROLL_MAX_HOPS + 1
        planned = plan(
            f"MATCH (a:USER)-[:FOLLOWS*1..{hops}]->(b:USER) RETURN a.uid, b.uid"
        )
        assert uses_recursion(planned)

    def test_explosive_fanout_statistics_keep_recursion(self):
        # 50k edges all leaving one node: per-hop fan-out 50k, so the
        # unrolled 3-hop chain would be astronomically large.
        stats = {
            "FOLLOWS": TableStats(50_000, {"fid": 50_000, "SRC": 1, "TGT": 50_000}),
            "USER": TableStats(1_000, {"uid": 1_000}),
        }
        planned = plan(
            "MATCH (a:USER)-[:FOLLOWS*1..3]->(b:USER) RETURN a.uid, b.uid",
            stats=stats,
        )
        assert uses_recursion(planned)

    def test_modest_fanout_statistics_unroll(self):
        stats = {
            "FOLLOWS": TableStats(2_000, {"fid": 2_000, "SRC": 900, "TGT": 900}),
            "USER": TableStats(1_000, {"uid": 1_000}),
        }
        planned = plan(
            "MATCH (a:USER)-[:FOLLOWS*1..3]->(b:USER) RETURN a.uid, b.uid",
            stats=stats,
        )
        assert not uses_recursion(planned)

    def test_unrolled_branch_count_matches_hop_range(self):
        # *2..3 → chains for k = 2 and k = 3, merged by one distinct union.
        query = parse_cypher(
            "MATCH (a:USER)-[:FOLLOWS*2..3]->(b:USER) RETURN a.uid, b.uid", SCHEMA
        )
        raw = transpile(query, SCHEMA, SDT)
        estimator = CardinalityEstimator(SDT.schema, None)
        expanded = expand_recursions(raw, estimator)
        assert not uses_recursion(expanded)
        assert union_branches(expanded) - union_branches(raw) == 1

    def test_zero_hop_identity_union_survives_unrolling(self):
        planned = plan("MATCH (a:USER)-[:FOLLOWS*0..2]->(b:USER) RETURN a.uid, b.uid")
        assert not uses_recursion(planned)
        # The identity branch scans the node table inside the reach subtree.
        scans = [
            node.name
            for node in iter_nodes(planned)
            if isinstance(node, ast.Relation)
        ]
        assert "USER" in scans

    def test_exists_subquery_traversals_are_planned_too(self):
        planned = plan(
            "MATCH (a:USER) WHERE EXISTS { MATCH (a:USER)-[:FOLLOWS*1..2]->(b:USER) } "
            "RETURN a.uid"
        )
        assert not uses_recursion(planned)

    def test_traversals_under_a_join_regions_subquery_unroll_too(self):
        # A subquery conjunct directly over a join region stays where it is
        # (join planning does not move it), and the traversal under it
        # still unrolls.  Cypher's WHERE puts a projection in between, so
        # the tree is built by hand.
        reach = transpile(
            parse_cypher("MATCH (x:USER)-[:FOLLOWS*1..2]->(y:USER) RETURN x.uid", SCHEMA),
            SCHEMA,
            SDT,
        )
        region = ast.Selection(
            ast.Join(
                ast.JoinKind.CROSS,
                ast.Renaming("a", ast.Relation("USER")),
                ast.Renaming("b", ast.Relation("USER")),
            ),
            ast.And(
                ast.Comparison("=", ast.AttributeRef("a.uid"), ast.AttributeRef("b.uid")),
                ast.ExistsQuery(reach),
            ),
        )
        assert uses_recursion(region)
        planned = optimize(region, level=2, schema=SDT.schema)
        assert not uses_recursion(planned)
        assert any(isinstance(node, ast.ExistsQuery) for node in iter_nodes(planned))
