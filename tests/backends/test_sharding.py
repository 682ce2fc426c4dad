"""Horizontal sharding: partitioner, fragment classifier, merge, serving.

Four layers, each testable on its own:

* :func:`stable_shard_hash` / :class:`ShardPartitioner` — placement is
  deterministic, conserves every row, co-partitions edges with their
  ``SRC`` endpoint, and records exactly the edges whose endpoints span
  shards in the cross-shard table (the traversal-correctness ledger);
* :func:`repro.sql.fragment.fragment_query` — the planner seam classifies
  optimized plans into shard-local / merge-aggregable / non-fragmentable
  with a recorded reason;
* :func:`repro.sql.fragment.merge_partials` — the coordinator folds
  reproduce the paper's aggregate semantics (NULL-skipping partials,
  all-NULL → NULL including Count, Avg as true division of folded
  Sum/Count) and re-apply DISTINCT / ORDER BY / LIMIT after the union;
* :class:`ShardedGraphitiService` — scatter-gather serving agrees with
  the reference evaluator, falls back transparently, feeds the shard
  metrics/spans, and surfaces the classification in ``repro explain``.

The full backend × opt-level × shard-count correctness matrix lives in
``test_differential.py``'s sharded lane; this module owns the unit-level
properties and the observability/plumbing contracts.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.backends import (
    AsyncGraphitiService,
    AsyncShardedGraphitiService,
    PoolTimeout,
    ShardPartitioner,
    ShardedGraphitiService,
    stable_shard_hash,
)
from repro.benchmarks.universes import SOCIAL
from repro.common.values import NULL
from repro.core.sdt import infer_sdt
from repro.execution.datagen import MockDataGenerator
from repro.observability.explain import explain_query
from repro.observability.tracing import Tracer
from repro.relational.instance import Table, tables_equivalent
from repro.sql.fragment import (
    MERGE_AGGREGABLE,
    NON_FRAGMENTABLE,
    SHARD_LOCAL,
    FragmentPlan,
    MergeColumn,
    OrderSpec,
    merge_partials,
)

ROWS = 40


def social_database(rows: int = ROWS, seed: int = 42):
    sdt = infer_sdt(SOCIAL.graph_schema)
    generator = MockDataGenerator(SOCIAL.graph_schema, sdt, seed=seed)
    return sdt, generator.induced_instance(rows)


@pytest.fixture(scope="module")
def sharded_service():
    with ShardedGraphitiService(SOCIAL.graph_schema, num_shards=3) as service:
        service.load_mock(ROWS, seed=42)
        yield service


class TestStableShardHash:
    def test_deterministic_across_calls(self):
        values = [0, 1, -7, 10**12, "alice", "", True, False, 3.5]
        assert [stable_shard_hash(v) for v in values] == [
            stable_shard_hash(v) for v in values
        ]

    def test_bools_and_ints_do_not_collide_accidentally(self):
        # bool is an int subclass; the hash must treat True like 1, not
        # like the string "True", so partitioning is stable under the
        # usual Python int/bool aliasing.
        assert stable_shard_hash(True) == stable_shard_hash(1)
        assert stable_shard_hash(False) == stable_shard_hash(0)

    def test_balance_property(self):
        """Hashing a key range spreads rows across shards without a hot
        spot: every shard gets within 2x of the fair share for 4 shards
        over 1000 sequential integer keys, and string keys likewise."""
        for keys in (range(1000), [f"user-{i}" for i in range(1000)]):
            counts = Counter(stable_shard_hash(key) % 4 for key in keys)
            assert set(counts) == {0, 1, 2, 3}
            fair = 1000 / 4
            for shard, count in counts.items():
                assert fair / 2 <= count <= fair * 2, (
                    f"shard {shard} holds {count} of 1000 keys"
                )


class TestShardPartitioner:
    @pytest.mark.parametrize("num_shards", (1, 2, 3, 5))
    def test_every_row_placed_exactly_once(self, num_shards):
        sdt, database = social_database()
        partitioner = ShardPartitioner(SOCIAL.graph_schema, sdt, num_shards)
        shards, _ = partitioner.partition(database)
        assert len(shards) == num_shards
        for name, table in database.tables.items():
            placed = [row for shard in shards for row in shard.tables[name].rows]
            assert Counter(placed) == Counter(table.rows), (
                f"{name}: partitioning lost or duplicated rows"
            )

    def test_edges_co_partitioned_with_source(self):
        sdt, database = social_database()
        partitioner = ShardPartitioner(SOCIAL.graph_schema, sdt, 3)
        shards, _ = partitioner.partition(database)
        for edge_type in SOCIAL.graph_schema.edge_types:
            table_name = sdt.table_for(edge_type.label)
            src_index = database.tables[table_name].attributes.index("SRC")
            for index, shard in enumerate(shards):
                for row in shard.tables[table_name].rows:
                    assert partitioner.shard_of(row[src_index]) == index

    def test_cross_shard_table_is_exactly_the_boundary_edges(self):
        sdt, database = social_database()
        partitioner = ShardPartitioner(SOCIAL.graph_schema, sdt, 3)
        _, cross = partitioner.partition(database)
        for edge_type in SOCIAL.graph_schema.edge_types:
            table_name = sdt.table_for(edge_type.label)
            table = database.tables[table_name]
            src = table.attributes.index("SRC")
            tgt = table.attributes.index("TGT")
            expected = [
                row
                for row in table.rows
                if partitioner.shard_of(row[src]) != partitioner.shard_of(row[tgt])
            ]
            assert Counter(cross[table_name].rows) == Counter(expected)
        # The SOCIAL mock at this size genuinely crosses shard
        # boundaries — an empty ledger would make the test vacuous.
        assert any(len(table) > 0 for table in cross.values())

    def test_partitioning_is_deterministic(self):
        sdt, database = social_database()
        partitioner = ShardPartitioner(SOCIAL.graph_schema, sdt, 4)
        first, _ = partitioner.partition(database)
        second, _ = partitioner.partition(database)
        for one, two in zip(first, second):
            for name in database.tables:
                assert one.tables[name].rows == two.tables[name].rows

    def test_rejects_zero_shards(self):
        sdt, _ = social_database(rows=2)
        with pytest.raises(ValueError):
            ShardPartitioner(SOCIAL.graph_schema, sdt, 0)


class TestFragmentClassifier:
    """Classification via the coordinator's prepare path (optimized AST)."""

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
    def test_classification(self, sharded_service, cypher, kind):
        plan = sharded_service.fragment_plan(cypher)
        assert plan.kind == kind
        assert plan.reason  # every verdict carries a human-readable reason

    def test_avg_is_decomposed_into_sum_and_count(self, sharded_service):
        plan = sharded_service.fragment_plan("MATCH (p:POST) RETURN Avg(p.score)")
        assert plan.kind == MERGE_AGGREGABLE
        assert [column.kind for column in plan.merge] == ["avg"]
        assert plan.merge[0].count_source is not None

    def test_classification_lands_in_plan_report(self, sharded_service):
        prepared = sharded_service.prepare("MATCH (u:USER) RETURN Count(*)")
        sharding = prepared.plan.sharding
        assert sharding is not None
        assert sharding["kind"] == MERGE_AGGREGABLE
        assert sharding["shards"] == 3
        prepared = sharded_service.prepare(
            "MATCH (a:USER)-[w:WROTE]->(p:POST) RETURN p.title"
        )
        assert prepared.plan.sharding["kind"] == NON_FRAGMENTABLE
        assert prepared.plan.sharding["reason"]


class TestMergePartials:
    """Coordinator folds on hand-built partial tables."""

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

    def test_extrema_fold_across_shards(self):
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

    def test_order_and_limit_reapplied_after_union(self):
        plan = FragmentPlan(
            kind=SHARD_LOCAL,
            reason="test",
            shard_query=object(),
            attributes=("pid",),
            order=OrderSpec(indexes=(0,), ascending=(False,), limit=3),
        )
        merged = merge_partials(
            plan, [Table(("pid",), [(1,), (5,)]), Table(("pid",), [(9,), (2,)])]
        )
        assert merged.rows == [(9,), (5,), (2,)]
        assert merged.ordered

    def test_non_fragmentable_plans_cannot_merge(self):
        plan = FragmentPlan(kind=NON_FRAGMENTABLE, reason="test")
        with pytest.raises(ValueError):
            merge_partials(plan, [])


class TestShardedService:
    def test_partition_report_conserves_rows(self, sharded_service):
        report = sharded_service.partition_report()
        assert report["shards"] == 3
        assert sum(report["rows_per_shard"]) == report["total_rows"] > 0
        assert any(count > 0 for count in report["cross_shard_edges"].values())

    @pytest.mark.parametrize(
        "cypher",
        [
            "MATCH (u:USER) RETURN u.uname, u.age",
            "MATCH (u:USER) RETURN DISTINCT u.age",
            "MATCH (p:POST) RETURN p.pid, p.score ORDER BY p.pid LIMIT 7",
            "MATCH (u:USER) RETURN Count(*)",
            "MATCH (u:USER) RETURN u.age, Count(*)",
            "MATCH (p:POST) RETURN Avg(p.score), Min(p.score)",
            # Non-fragmentable: transparent fallback must agree too.
            "MATCH (a:USER)-[w:WROTE]->(p:POST) RETURN a.uname, Count(*)",
        ],
    )
    def test_scatter_gather_matches_reference(self, sharded_service, cypher):
        expected = sharded_service.reference(cypher)
        actual = sharded_service.run(cypher)
        assert tables_equivalent(expected, actual)

    def test_scatter_metrics_and_per_shard_counters(self):
        with ShardedGraphitiService(SOCIAL.graph_schema, num_shards=2) as service:
            service.load_mock(20, seed=42)
            service.run("MATCH (u:USER) RETURN Count(*)")
            service.run("MATCH (a:USER)-[w:WROTE]->(p:POST) RETURN p.title")
            scatters = service.metrics.counter("repro_shard_scatters_total")
            fallbacks = service.metrics.counter("repro_shard_fallbacks_total")
            queries = service.metrics.counter("repro_shard_queries_total")
            assert scatters.value(kind=MERGE_AGGREGABLE) == 1
            assert fallbacks.total() == 1
            assert queries.value(shard="0") == 1
            assert queries.value(shard="1") == 1
            stats = service.shard_stats()
            assert [entry["shard"] for entry in stats] == [0, 1]
            assert all(entry["queries"] == 1 for entry in stats)
            assert sum(entry["rows"] for entry in stats) > 0

    def test_scatter_spans_in_trace(self):
        tracer = Tracer(max_traces=8)
        with ShardedGraphitiService(
            SOCIAL.graph_schema, num_shards=2, tracer=tracer
        ) as service:
            service.load_mock(15, seed=42)
            service.run("MATCH (u:USER) RETURN u.age, Count(*)")
            names = set()

            def collect(span):
                names.add(span.name)
                for child in span.children:
                    collect(child)

            for trace in tracer.traces():
                collect(trace)
        assert {"shard.scatter", "shard.query", "shard.gather"} <= names

    def test_explain_renders_the_scatter_plan(self, sharded_service):
        report = explain_query(
            sharded_service, "MATCH (u:USER) RETURN u.age, Count(*)"
        )
        rendered = "\n".join(report.render(show_sql=False))
        assert "sharding: merge_aggregable" in rendered
        report = explain_query(
            sharded_service,
            "MATCH (a:USER)-[f:FOLLOWS]->(b:USER) RETURN a.uname",
        )
        rendered = "\n".join(report.render(show_sql=False))
        assert "sharding: fallback to unsharded backend" in rendered

    def test_run_many_preserves_batch_order(self, sharded_service):
        batch = [
            "MATCH (u:USER) RETURN Count(*)",
            "MATCH (p:POST) RETURN p.pid ORDER BY p.pid LIMIT 3",
            "MATCH (a:USER)-[w:WROTE]->(p:POST) RETURN Count(*)",
        ] * 2
        results = sharded_service.run_many(batch, workers=3)
        assert len(results) == len(batch)
        for text, table in zip(batch, results):
            assert tables_equivalent(sharded_service.reference(text), table)

    def test_single_shard_degenerates_gracefully(self):
        with ShardedGraphitiService(SOCIAL.graph_schema, num_shards=1) as service:
            service.load_mock(10, seed=42)
            expected = service.reference("MATCH (u:USER) RETURN u.uname")
            assert tables_equivalent(
                expected, service.run("MATCH (u:USER) RETURN u.uname")
            )

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardedGraphitiService(SOCIAL.graph_schema, num_shards=0)


class TestAsyncShardedService:
    def test_async_scatter_matches_reference(self, sharded_service):
        queries = [
            "MATCH (u:USER) RETURN u.age, Count(*)",
            "MATCH (p:POST) RETURN p.pid ORDER BY p.pid LIMIT 5",
            "MATCH (a:USER)-[w:WROTE]->(p:POST) RETURN Count(*)",
        ]

        async def drive():
            async with AsyncShardedGraphitiService(sharded_service) as service:
                return await service.run_many(queries, concurrency=3)

        results = asyncio.run(drive())
        for text, table in zip(queries, results):
            assert tables_equivalent(sharded_service.reference(text), table)

    def test_wrapping_does_not_close_the_shared_coordinator(self, sharded_service):
        async def drive():
            async with AsyncShardedGraphitiService(sharded_service) as service:
                await service.run("MATCH (u:USER) RETURN Count(*)")

        asyncio.run(drive())
        # Still serving after the async wrapper exited.
        assert len(sharded_service.run("MATCH (u:USER) RETURN u.uid")) == ROWS

    def test_plain_async_wrapper_serves_a_sharded_coordinator(self, sharded_service):
        """AsyncGraphitiService wraps either service: the coordinator's
        ``_serve`` has the same signature as the unsharded one."""
        queries = [
            "MATCH (u:USER) RETURN u.age, Count(*)",
            "MATCH (a:USER)-[f:FOLLOWS]->(b:USER) RETURN a.uname",  # fallback
        ]

        async def drive():
            async with AsyncGraphitiService(sharded_service) as service:
                return await service.run_many(queries, concurrency=2)

        for text, table in zip(queries, asyncio.run(drive())):
            assert tables_equivalent(sharded_service.reference(text), table)

    def test_owned_mode_builds_a_sharded_coordinator(self):
        async def drive():
            async with AsyncShardedGraphitiService(
                SOCIAL.graph_schema, num_shards=2, pool_size=2
            ) as service:
                await service.load_mock(10, seed=42)
                assert isinstance(service.sharded, ShardedGraphitiService)
                assert service.sharded.num_shards == 2
                return await service.run("MATCH (u:USER) RETURN u.uid")

        assert len(asyncio.run(drive())) == 10

    def test_checkout_timeout_reaches_the_shards(self):
        """The async checkout_timeout rides the coordinator's
        execute_fragment seam: one exhausted shard pool raises PoolTimeout
        instead of stalling the scatter."""
        with ShardedGraphitiService(
            SOCIAL.graph_schema, num_shards=2, pool_size=1
        ) as sharded:
            sharded.load_mock(10, seed=42)
            shard_pool = sharded._shards[1].pool()
            hog = shard_pool.checkout()
            service = AsyncShardedGraphitiService(sharded, checkout_timeout=0.1)
            try:
                with pytest.raises(PoolTimeout):
                    asyncio.run(
                        asyncio.wait_for(
                            service.run("MATCH (u:USER) RETURN u.uid"), timeout=20
                        )
                    )
            finally:
                shard_pool.checkin(hog)
                service.close()
            assert len(sharded.run("MATCH (u:USER) RETURN u.uid")) == 10
