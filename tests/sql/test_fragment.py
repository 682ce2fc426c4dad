"""The fragment seam: classifier verdicts and the gather-side merge rules.

Two layers, each testable on its own:

* :func:`repro.sql.fragment.fragment_query` classifies optimized plans
  into shard-local / merge-aggregable / non-fragmentable with a recorded
  reason, and the partition gate records that verdict in
  ``PlanReport.parallelism``;
* :func:`repro.sql.fragment.merge_partials` reproduces the paper's
  aggregate semantics (NULL-skipping partials, all-NULL → NULL including
  Count, Avg as true division of folded Sum/Count) and re-applies
  DISTINCT / ORDER BY / LIMIT after the union.

End-to-end partition-parallel correctness lives in
``tests/backends/test_executor.py`` and the parallel lane of
``tests/backends/test_differential.py``.
"""

from __future__ import annotations

import pytest

from repro.backends import GraphitiService
from repro.benchmarks.universes import SOCIAL
from repro.common.values import NULL
from repro.relational.instance import Table
from repro.sql import ast
from repro.sql.fragment import (
    MERGE_AGGREGABLE,
    NON_FRAGMENTABLE,
    SHARD_LOCAL,
    FragmentPlan,
    MergeColumn,
    OrderSpec,
    fragment_query,
    merge_partials,
)

ROWS = 40


@pytest.fixture(scope="module")
def social_service():
    with GraphitiService(SOCIAL.graph_schema) as service:
        service.load_mock(ROWS, seed=42)
        yield service


def classify(service: GraphitiService, cypher: str) -> FragmentPlan:
    return fragment_query(service.prepare(cypher).sql_ast, service.sdt.schema)


class TestFragmentClassifier:
    """Classification of the optimized plans the service prepares."""

    @pytest.mark.parametrize(
        ("cypher", "kind"),
        [
            ("MATCH (u:USER) RETURN u.uname", SHARD_LOCAL),
            ("MATCH (u:USER) WHERE u.age > 30 RETURN u.uname", SHARD_LOCAL),
            ("MATCH (u:USER) RETURN DISTINCT u.age", SHARD_LOCAL),
            (
                "MATCH (p:POST) RETURN p.pid ORDER BY p.pid LIMIT 5",
                SHARD_LOCAL,
            ),
            ("MATCH (u:USER) RETURN Count(*)", MERGE_AGGREGABLE),
            ("MATCH (u:USER) RETURN u.age, Count(*)", MERGE_AGGREGABLE),
            ("MATCH (p:POST) RETURN Avg(p.score)", MERGE_AGGREGABLE),
            (
                "MATCH (p:POST) RETURN Min(p.score), Max(p.score), Sum(p.score)",
                MERGE_AGGREGABLE,
            ),
            (
                "MATCH (a:USER)-[w:WROTE]->(p:POST) RETURN a.uname, p.title",
                NON_FRAGMENTABLE,
            ),
            (
                "MATCH (a:USER)-[:FOLLOWS*1..2]->(b:USER) RETURN a.uid, b.uid",
                NON_FRAGMENTABLE,
            ),
            ("MATCH (u:USER) RETURN u.uid LIMIT 3", NON_FRAGMENTABLE),
        ],
    )
    def test_classification(self, social_service, cypher, kind):
        plan = classify(social_service, cypher)
        assert plan.kind == kind
        assert plan.reason  # every verdict carries a human-readable reason

    def test_ambiguous_order_key_is_not_fragmentable(self, social_service):
        # The evaluator's name rule raises on an ambiguous name, so the
        # gather must not pick one of the matching columns.
        uid = ast.AttributeRef("uid")
        query = ast.OrderBy(
            ast.Projection(
                ast.Renaming("u", ast.Relation("USER")),
                (ast.OutputColumn("a.uid", uid), ast.OutputColumn("b.uid", uid)),
            ),
            (uid,),
            (True,),
        )
        plan = fragment_query(query, social_service.sdt.schema)
        assert plan.kind == NON_FRAGMENTABLE
        assert "ambiguous" in plan.reason

    def test_avg_is_decomposed_into_sum_and_count(self, social_service):
        plan = classify(social_service, "MATCH (p:POST) RETURN Avg(p.score)")
        assert plan.kind == MERGE_AGGREGABLE
        assert [column.kind for column in plan.merge] == ["avg"]
        assert plan.merge[0].count_source is not None

    def test_classification_lands_in_plan_report(self):
        with GraphitiService(
            SOCIAL.graph_schema, parallelism=2, parallel_row_threshold=0
        ) as service:
            service.load_mock(ROWS, seed=42)
            _, prepared = service.serve("MATCH (u:USER) RETURN Count(*)")
            verdict = prepared.plan.parallelism
            assert verdict["kind"] == MERGE_AGGREGABLE
            assert verdict["reason"]
            _, prepared = service.serve(
                "MATCH (a:USER)-[w:WROTE]->(p:POST) RETURN p.title"
            )
            verdict = prepared.plan.parallelism
            assert verdict["kind"] == NON_FRAGMENTABLE
            assert verdict["reason"]


class TestMergePartials:
    """Gather folds on hand-built partial tables."""

    @staticmethod
    def aggregate_plan(merge, key_indexes=(), attributes=None, order=None):
        return FragmentPlan(
            kind=MERGE_AGGREGABLE,
            reason="test",
            shard_query=object(),
            attributes=attributes or tuple(column.alias for column in merge),
            merge=merge,
            key_indexes=tuple(key_indexes),
            order=order,
        )

    def test_sum_fold_skips_null_partials(self):
        plan = self.aggregate_plan((MergeColumn("total", "sum", 0),))
        merged = merge_partials(
            plan, [Table(("total",), [(NULL,)]), Table(("total",), [(3,)])]
        )
        assert merged.rows == [(3,)]

    def test_all_null_partials_fold_to_null(self):
        # The paper's combine() quirk: an aggregate (Count included) over
        # an all-NULL argument is NULL, and the distributed fold must not
        # turn that into 0.
        plan = self.aggregate_plan((MergeColumn("total", "sum", 0),))
        merged = merge_partials(
            plan, [Table(("total",), [(NULL,)]), Table(("total",), [(NULL,)])]
        )
        assert merged.rows == [(NULL,)]

    def test_extrema_fold_across_partitions(self):
        plan = self.aggregate_plan(
            (MergeColumn("lo", "min", 0), MergeColumn("hi", "max", 1))
        )
        merged = merge_partials(
            plan,
            [
                Table(("lo", "hi"), [(4, 10)]),
                Table(("lo", "hi"), [(2, 7)]),
                Table(("lo", "hi"), [(NULL, NULL)]),
            ],
        )
        assert merged.rows == [(2, 10)]

    def test_avg_is_true_division_of_folded_sum_and_count(self):
        plan = FragmentPlan(
            kind=MERGE_AGGREGABLE,
            reason="test",
            shard_query=object(),
            attributes=("mean",),
            merge=(MergeColumn("mean", "avg", 0, count_source=1),),
        )
        partials = [
            Table(("__s", "__c"), [(10, 4)]),
            Table(("__s", "__c"), [(5, 2)]),
        ]
        assert merge_partials(plan, partials).rows == [(2.5,)]

    def test_grouped_fold_regroups_by_key(self):
        plan = self.aggregate_plan(
            (MergeColumn("age", "key", 0), MergeColumn("n", "sum", 1)),
            key_indexes=(0,),
            attributes=("age", "n"),
        )
        partials = [
            Table(("age", "n"), [(30, 2), (40, 1)]),
            Table(("age", "n"), [(30, 3)]),
        ]
        merged = merge_partials(plan, partials)
        assert sorted(merged.rows) == [(30, 5), (40, 1)]

    def test_shard_local_distinct_dedups_after_union(self):
        plan = FragmentPlan(
            kind=SHARD_LOCAL,
            reason="test",
            shard_query=object(),
            attributes=("age",),
            distinct=True,
        )
        merged = merge_partials(
            plan, [Table(("age",), [(30,), (40,)]), Table(("age",), [(30,)])]
        )
        assert sorted(merged.rows) == [(30,), (40,)]

    @pytest.mark.parametrize(
        ("attributes", "partials", "expected"),
        [
            (("pid",), [[(1,), (5,)], [(9,), (2,)]], [(9,), (5,), (2,)]),
            # A tied DESC key: the second key must still order the tie.
            (
                ("age", "pid"),
                [[(30, 1), (30, 5)], [(30, 9), (20, 2)]],
                [(30, 9), (30, 5), (30, 1)],
            ),
        ],
        ids=["one-key", "tied-desc-key"],
    )
    def test_order_and_limit_reapplied_after_union(self, attributes, partials, expected):
        width = len(attributes)
        plan = FragmentPlan(
            kind=SHARD_LOCAL,
            reason="test",
            shard_query=object(),
            attributes=attributes,
            order=OrderSpec(
                indexes=tuple(range(width)), ascending=(False,) * width, limit=3
            ),
        )
        merged = merge_partials(plan, [Table(attributes, rows) for rows in partials])
        assert merged.rows == expected
        assert merged.ordered

    def test_non_fragmentable_plans_cannot_merge(self):
        plan = FragmentPlan(kind=NON_FRAGMENTABLE, reason="test")
        with pytest.raises(ValueError):
            merge_partials(plan, [])
