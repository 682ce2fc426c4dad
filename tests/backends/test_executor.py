"""Intra-query parallelism: the partition executor seam.

Unit-level coverage of :mod:`repro.backends.executor` — partition bounds,
the cost gate's serial reasons, partition SQL shape, and the shared
``run_indexed`` fan-out loop — plus service-level checks that the wired
path produces reference-equivalent results, records its verdict in
``PlanReport.parallelism``, keeps the cache variants separate, charges one
shared budget, and reuses one persistent batch pool.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.backends import (
    FragmentExecutor,
    GraphitiService,
    PersistentQueryCache,
    QueryBudget,
    QueryBudgetExceeded,
    partition_bounds,
    partition_statements,
    plan_parallelism,
    run_indexed,
)
from repro.backends.executor import PARTITION_CTE
from repro.benchmarks.universes import SOCIAL
from repro.graph.schema import EdgeType, GraphSchema, NodeType
from repro.relational.instance import tables_equivalent
from repro.sql.dialect import ANSI, DUCKDB, SQLITE
from repro.sql.fragment import fragment_query
from repro.sql.parser import parse_sql  # noqa: F401  (re-exported check below)
from repro.sql.stats import TableStats


@pytest.fixture
def social_schema() -> GraphSchema:
    return GraphSchema.of(
        [NodeType("USER", ("uid", "age"))],
        [EdgeType("FOLLOWS", "USER", "USER", ("fid",))],
    )


SCAN = "MATCH (a:USER) WHERE a.uid > 2 RETURN a.uid, a.age"
AGG = "MATCH (a:USER) RETURN avg(a.age), count(*)"
JOIN = "MATCH (a:USER)-[f:FOLLOWS]->(b:USER) RETURN a.uid, b.uid"
TRAVERSAL = "MATCH (a:USER)-[:FOLLOWS*1..2]->(b:USER) RETURN a.uid, b.uid"


def parallel_service(schema, rows: int = 30, degree: int = 3, **kwargs):
    svc = GraphitiService(
        schema, parallelism=degree, parallel_row_threshold=0, **kwargs
    )
    svc.load_mock(rows, seed=3)
    return svc


class TestPartitionBounds:
    @pytest.mark.parametrize("row_count", [0, 1, 7, 100, 101, 4096])
    @pytest.mark.parametrize("degree", [2, 3, 4, 8])
    def test_disjoint_and_covering(self, row_count, degree):
        bounds = partition_bounds(row_count, degree)
        assert len(bounds) == degree
        assert bounds[0][0] is None and bounds[-1][1] is None
        # Adjacent ranges share their half-open boundary: no gap, no
        # overlap, whatever the engine's rowid base turns out to be.
        for (_, upper), (lower, _) in zip(bounds, bounds[1:]):
            assert upper == lower and upper is not None

    def test_degenerate_single_partition(self):
        assert partition_bounds(50, 1) == [(None, None)]

    def test_rejects_non_positive_degree(self):
        with pytest.raises(ValueError):
            partition_bounds(50, 0)


def classify(cypher_or_sql_service, cypher: str):
    service = cypher_or_sql_service
    prepared = service.prepare(cypher)
    return prepared, fragment_query(prepared.sql_ast, service.sdt.schema)


class TestParallelGate:
    def test_scan_clears_the_gate(self, social_schema):
        with parallel_service(social_schema) as svc:
            prepared, fragment = classify(svc, SCAN)
            decision = plan_parallelism(
                fragment,
                schema=svc.sdt.schema,
                stats={"USER": TableStats(row_count=30)},
                degree=3,
                dialect=SQLITE,
                threshold=0,
            )
            assert decision.parallel and decision.degree == 3
            assert decision.relation == "USER"
            assert decision.kind == "shard_local"

    def test_serial_when_not_requested(self, social_schema):
        with parallel_service(social_schema) as svc:
            _, fragment = classify(svc, SCAN)
            decision = plan_parallelism(
                fragment,
                schema=svc.sdt.schema,
                stats={"USER": TableStats(row_count=30)},
                degree=1,
                dialect=SQLITE,
                threshold=0,
            )
            assert not decision.parallel
            assert "not requested" in decision.reason

    def test_serial_without_rowid_dialect(self, social_schema):
        with parallel_service(social_schema) as svc:
            _, fragment = classify(svc, SCAN)
            decision = plan_parallelism(
                fragment,
                schema=svc.sdt.schema,
                stats={"USER": TableStats(row_count=30)},
                degree=4,
                dialect=ANSI,
                threshold=0,
            )
            assert not decision.parallel
            assert "rowid" in decision.reason

    def test_serial_for_non_fragmentable_join(self, social_schema):
        with parallel_service(social_schema) as svc:
            _, fragment = classify(svc, JOIN)
            decision = plan_parallelism(
                fragment,
                schema=svc.sdt.schema,
                stats={"USER": TableStats(row_count=30)},
                degree=4,
                dialect=SQLITE,
                threshold=0,
            )
            assert not decision.parallel
            assert decision.kind == "non_fragmentable"

    def test_serial_without_statistics(self, social_schema):
        with parallel_service(social_schema) as svc:
            _, fragment = classify(svc, SCAN)
            decision = plan_parallelism(
                fragment,
                schema=svc.sdt.schema,
                stats=None,
                degree=4,
                dialect=SQLITE,
                threshold=0,
            )
            assert not decision.parallel
            assert "statistics" in decision.reason

    def test_serial_below_threshold(self, social_schema):
        with parallel_service(social_schema) as svc:
            _, fragment = classify(svc, SCAN)
            decision = plan_parallelism(
                fragment,
                schema=svc.sdt.schema,
                stats={"USER": TableStats(row_count=30)},
                degree=4,
                dialect=SQLITE,
                threshold=2048,
            )
            assert not decision.parallel
            assert "below the parallel threshold" in decision.reason
            assert decision.estimated_rows == 30.0

    def test_degree_clamped_to_row_count(self, social_schema):
        with parallel_service(social_schema) as svc:
            _, fragment = classify(svc, SCAN)
            decision = plan_parallelism(
                fragment,
                schema=svc.sdt.schema,
                stats={"USER": TableStats(row_count=3)},
                degree=8,
                dialect=SQLITE,
                threshold=0,
            )
            assert decision.parallel
            assert decision.degree == 3 and decision.requested == 8

    def test_real_rowid_column_shadows_the_pseudo_column(self):
        schema = GraphSchema.of(
            [NodeType("ITEM", ("rowid", "label"))], []
        )
        with parallel_service(schema, rows=10) as svc:
            _, fragment = classify(
                svc, "MATCH (i:ITEM) RETURN i.label"
            )
            decision = plan_parallelism(
                fragment,
                schema=svc.sdt.schema,
                stats={"ITEM": TableStats(row_count=10)},
                degree=2,
                dialect=SQLITE,
                threshold=0,
            )
            assert not decision.parallel
            assert "shadowing" in decision.reason


class TestPartitionStatements:
    def test_range_restricted_cte_prefix(self, social_schema):
        with parallel_service(social_schema) as svc:
            _, fragment = classify(svc, SCAN)
            statements = partition_statements(
                fragment,
                "USER",
                partition_bounds(30, 3),
                svc.sdt.schema,
                SQLITE,
            )
            assert len(statements) == 3
            first, middle, last = statements
            assert first.startswith(f'WITH "{PARTITION_CTE}" AS ')
            # Open ends: first partition has only an upper bound, the
            # last only a lower; interior partitions have both.
            assert '"rowid" < 10' in first and ">=" not in first
            assert '"rowid" >= 10 AND "rowid" < 20' in middle
            assert '"rowid" >= 20' in last and "<" not in last.split(")", 1)[0]
            # The body scans the CTE, not the base table.
            for statement in statements:
                body = statement.split(") ", 1)[1]
                assert f'"{PARTITION_CTE}"' in body
                assert '"USER"' not in body

    def test_statements_execute_on_the_engine(self, social_schema):
        # The synthetic CTE must be legal SQLite: run one partition's
        # SQL directly on a pooled member.
        with parallel_service(social_schema, rows=30) as svc:
            prepared, fragment = classify(svc, SCAN)
            statements = partition_statements(
                fragment,
                "USER",
                partition_bounds(30, 2),
                svc.sdt.schema,
                SQLITE,
            )
            pool = svc.pool("sqlite-memory")
            member = pool.checkout()
            try:
                partials = [member.execute(text) for text in statements]
            finally:
                pool.checkin(member)
            assert sum(len(p.rows) for p in partials) == len(
                svc.reference(SCAN).rows
            )

    def test_duckdb_dialect_renders_rowid_too(self, social_schema):
        with parallel_service(social_schema) as svc:
            _, fragment = classify(svc, SCAN)
            statements = partition_statements(
                fragment,
                "USER",
                partition_bounds(30, 2),
                svc.sdt.schema,
                DUCKDB,
            )
            assert all('"rowid"' in text for text in statements)


class TestRunIndexed:
    def test_inline_when_single_worker(self):
        seen: list[int] = []
        run_indexed(4, seen.append, None)
        assert seen == [0, 1, 2, 3]

    def test_fans_out_on_threads(self):
        seen: set[int] = set()
        lock = threading.Lock()

        def record(index: int) -> None:
            with lock:
                seen.add(index)

        with ThreadPoolExecutor(max_workers=4) as executor:
            run_indexed(16, record, executor)
        assert seen == set(range(16))

    def test_first_error_in_index_order_wins(self):
        def explode(index: int) -> None:
            if index in (1, 3):
                raise RuntimeError(f"boom {index}")

        with ThreadPoolExecutor(max_workers=2) as executor:
            with pytest.raises(RuntimeError, match="boom 1"):
                run_indexed(4, explode, executor)

    def test_siblings_complete_even_when_one_fails(self):
        done: set[int] = set()
        lock = threading.Lock()

        def work(index: int) -> None:
            if index == 0:
                raise RuntimeError("early failure")
            with lock:
                done.add(index)

        with ThreadPoolExecutor(max_workers=2) as executor:
            with pytest.raises(RuntimeError):
                run_indexed(5, work, executor)
        assert done == {1, 2, 3, 4}

    def test_reuses_a_caller_supplied_executor(self):
        seen: list[int] = []
        lock = threading.Lock()

        def record(index: int) -> None:
            with lock:
                seen.append(index)

        with ThreadPoolExecutor(max_workers=2) as executor:
            run_indexed(6, record, executor)
        assert sorted(seen) == list(range(6))

    def test_zero_items_is_a_no_op(self):
        run_indexed(0, lambda i: pytest.fail("should not run"), None)


class TestServedParallelism:
    def test_scan_matches_reference_and_records_the_plan(self, social_schema):
        with parallel_service(social_schema, rows=40, degree=4) as svc:
            result, prepared = svc.serve(SCAN)
            assert tables_equivalent(result, svc.reference(SCAN))
            verdict = prepared.plan.parallelism
            assert verdict["parallel"] and verdict["degree"] == 4
            assert verdict["relation"] == "USER"
            counter = svc.metrics.counter("repro_parallel_queries_total")
            assert counter.value(
                backend="sqlite-memory", kind="shard_local"
            ) == 1
            histogram = svc.metrics.histogram("repro_parallel_partitions")
            assert histogram.count(backend="sqlite-memory") == 1

    def test_aggregate_decomposes_and_matches_reference(self, social_schema):
        with parallel_service(social_schema, rows=40, degree=4) as svc:
            result, prepared = svc.serve(AGG)
            assert tables_equivalent(result, svc.reference(AGG))
            assert prepared.plan.parallelism["kind"] == "merge_aggregable"

    def test_traversal_stays_serial_with_a_reason(self, social_schema):
        with parallel_service(social_schema, rows=10, degree=4) as svc:
            result, prepared = svc.serve(TRAVERSAL)
            assert tables_equivalent(result, svc.reference(TRAVERSAL))
            verdict = prepared.plan.parallelism
            assert not verdict["parallel"]
            assert verdict["reason"]

    def test_default_threshold_keeps_small_scans_serial(self, social_schema):
        with GraphitiService(social_schema, parallelism=4) as svc:
            svc.load_mock(30, seed=3)
            _, prepared = svc.serve(SCAN)
            verdict = prepared.plan.parallelism
            assert not verdict["parallel"]
            assert "threshold" in verdict["reason"]

    def test_cache_variants_keep_degrees_apart(self, social_schema, tmp_path):
        # One store, the same data: the degree is part of the key, so a
        # degree-3 service must not serve a serial service's entry, while
        # a second serial service does.
        with PersistentQueryCache(tmp_path / "store.sqlite") as store:
            with GraphitiService(social_schema, persistent_cache=store) as first:
                first.load_mock(30, seed=3)
                serial = first.prepare(SCAN)
            with parallel_service(
                social_schema, rows=30, degree=3, persistent_cache=store
            ) as svc:
                parallel = svc.prepare(SCAN)
            assert (store.hits, store.misses) == (0, 2)
            with GraphitiService(social_schema, persistent_cache=store) as second:
                second.load_mock(30, seed=3)
                second.prepare(SCAN)
            assert (store.hits, store.misses) == (1, 2)
        assert serial.sql_text == parallel.sql_text  # body identical

    def test_the_store_keeps_no_executor(self, social_schema, tmp_path):
        """A disk hit is gated under the reading service's own threshold:
        the store holds the plan without the executor the writer's gate
        built, so a service whose threshold keeps the scan serial serves
        the stored entry serially."""
        with PersistentQueryCache(tmp_path / "store.sqlite") as store:
            with parallel_service(
                social_schema, rows=30, degree=2, persistent_cache=store
            ) as writer:
                _, opened = writer.serve(SCAN)
            assert opened.runner is not None
            with GraphitiService(
                social_schema, parallelism=2, persistent_cache=store
            ) as reader:
                reader.load_mock(30, seed=3)
                result, served = reader.serve(SCAN)
                assert tables_equivalent(result, reader.reference(SCAN))
            assert (store.hits, store.misses) == (1, 1)
        assert served.runner is None
        assert "threshold" in served.plan.parallelism["reason"]

    def test_budget_is_shared_across_partitions(self, social_schema):
        with parallel_service(social_schema, rows=40, degree=4) as svc:
            # 40 total rows across partitions, budget 10: some single
            # partition may stay under 10, but the shared tracker must
            # see the sum and fire.
            with pytest.raises(QueryBudgetExceeded) as exc:
                svc.run(
                    "MATCH (a:USER) RETURN a.uid, a.age",
                    budget=QueryBudget(max_rows=10, allow_downgrade=False),
                )
            assert exc.value.dimension == "rows"

    def test_reload_invalidates_partitioning(self, social_schema):
        with parallel_service(social_schema, rows=40, degree=4) as svc:
            _, first = svc.serve(SCAN)
            assert first.runner is not None
            # New data, new row counts: stale partition bounds must not
            # survive the reload.
            svc.load_mock(3, seed=5)
            result, prepared = svc.serve(SCAN)
            assert prepared is not first
            assert tables_equivalent(result, svc.reference(SCAN))
            # Re-gated over the tiny table: the degree is clamped to the
            # new row count.
            assert prepared.plan.parallelism["degree"] <= 3
            assert prepared.runner.decision.degree <= 3

    def test_reload_refreshes_the_recorded_verdict_below_level_two(
        self, social_schema
    ):
        # Below opt level 2 a parallel service's key still carries the
        # stats digest, as the gate reads statistics: the reload serves a
        # new entry, whose recorded verdict is the one gated over the new
        # data, which the executor actually ran.  The old entry keeps the
        # verdict it served under.
        with parallel_service(
            social_schema, rows=40, degree=4, opt_level=1
        ) as svc:
            _, first = svc.serve(SCAN)
            assert first.plan.parallelism["degree"] == 4
            svc.load_mock(3, seed=5)
            result, prepared = svc.serve(SCAN)
            assert prepared is not first
            assert tables_equivalent(result, svc.reference(SCAN))
            verdict = prepared.plan.parallelism
            assert verdict["degree"] == 3
            assert verdict["estimated_rows"] == 3.0
            assert prepared.runner.decision.degree == 3
            assert first.plan.parallelism["degree"] == 4

    def test_replan_regates_under_the_corrected_estimate(self):
        """A feedback re-plan that rescales a text's estimate re-derives its
        gate verdict: the old one priced the uncorrected estimate."""
        with GraphitiService(
            SOCIAL.graph_schema, parallelism=2, parallel_row_threshold=100
        ) as svc:
            svc.load_mock(30, seed=3)
            _, prepared = svc.serve(SCAN)
            assert "threshold" in prepared.plan.parallelism["reason"]
            for _ in range(2):
                svc.observe_execution(prepared, 1_000_000)
            state = svc.feedback_state(SCAN)
            assert (state["epoch"], state["row_scale"]) == (1, 1024.0)
            result, corrected = svc.serve(SCAN)
            assert corrected.feedback_epoch == 1
            verdict = corrected.plan.parallelism
            assert verdict["parallel"] and verdict["degree"] == 2
            assert tables_equivalent(result, svc.reference(SCAN))

    def test_a_level_two_replan_leaves_the_level_one_verdict(self):
        """Each entry is gated under its own key's row scale: a level-2
        re-plan that scales the text's estimate 1024-fold opens the gate
        for the corrected level-2 entry only; level 1 stays serial."""
        with GraphitiService(
            SOCIAL.graph_schema, parallelism=2, parallel_row_threshold=100
        ) as svc:
            svc.load_mock(30, seed=3)
            _, level_one = svc.serve(SCAN, opt_level=1)
            assert not level_one.plan.parallelism["parallel"]
            _, prepared = svc.serve(SCAN)
            for _ in range(2):
                svc.observe_execution(prepared, 1_000_000)
            assert svc.feedback_state(SCAN)["row_scale"] == 1024.0
            assert svc.serve(SCAN)[1].plan.parallelism["parallel"]
            result, again = svc.serve(SCAN, opt_level=1)
            verdict = again.plan.parallelism
            assert not verdict["parallel"]
            assert verdict["estimated_rows"] == 30.0
            assert again.runner is None
            assert tables_equivalent(result, svc.reference(SCAN, opt_level=1))

    def test_gate_verdicts_are_bounded(self, social_schema, monkeypatch):
        """A stream of distinct texts (inlined literals) keeps only the
        CACHE_SIZE most recently used entries, and with them their gate
        verdicts: one served throughout the stream is never evicted, and
        an evicted one is gated identically on its next serve."""
        from repro.backends import service as service_module

        cap = 16
        monkeypatch.setattr(service_module, "CACHE_SIZE", cap)
        texts = [
            f"MATCH (a:USER) WHERE a.uid <> {index} RETURN a.uid, a.age"
            for index in range(200)
        ]

        with parallel_service(social_schema, rows=30, degree=2) as svc:
            _, hot = svc.serve(SCAN)
            entries = []
            for index, text in enumerate(texts):
                result, prepared = svc.serve(text)
                assert tables_equivalent(result, svc.reference(text))
                assert svc.cache_info().currsize <= cap
                entries.append(prepared)
                if index % 8 == 0:
                    svc.run(SCAN)
            assert svc.cache_info().currsize == cap
            verdicts = [dict(entry.plan.parallelism) for entry in entries]
            assert all(verdict["parallel"] for verdict in verdicts)
            assert svc.serve(SCAN)[1] is hot
            assert svc.serve(texts[-1])[1] is entries[-1]
            result, prepared = svc.serve(texts[0])
            assert prepared is not entries[0]
            assert tables_equivalent(result, svc.reference(texts[0]))
            assert prepared.plan.parallelism == verdicts[0]


def executor_of(svc, kind: str):
    """The service's persistent fan-out executor of *kind*, or ``None``."""
    entry = svc._executors.get(kind)
    return entry[0] if entry is not None else None


class TestPersistentBatchPool:
    def test_run_many_reuses_one_executor(self, social_schema):
        with parallel_service(social_schema, rows=30, degree=1) as svc:
            svc.run_many([SCAN, AGG], workers=2)
            first = executor_of(svc, "batch")
            assert first is not None
            svc.run_many([AGG, SCAN], workers=2)
            assert executor_of(svc, "batch") is first  # persistent, not per-batch

    def test_pool_grows_but_never_shrinks(self, social_schema):
        with parallel_service(social_schema, rows=30, degree=1) as svc:
            svc.run_many([SCAN, AGG], workers=2)
            svc.run_many([SCAN, AGG, JOIN] * 3, workers=8)
            grown = executor_of(svc, "batch")
            assert grown._max_workers >= 8
            svc.run_many([SCAN, AGG], workers=2)
            assert executor_of(svc, "batch") is grown

    def test_serial_batches_skip_the_pool(self, social_schema):
        with parallel_service(social_schema, rows=30, degree=1) as svc:
            svc.run_many([SCAN, AGG], workers=1)
            assert executor_of(svc, "batch") is None

    def test_close_shuts_both_pools_down(self, social_schema):
        svc = parallel_service(social_schema, rows=40, degree=2)
        svc.run_many([SCAN, AGG], workers=2)
        svc.run(SCAN)  # engages the partition pool
        batch, partition = executor_of(svc, "batch"), executor_of(svc, "partition")
        assert batch is not None and partition is not None
        svc.close()
        assert executor_of(svc, "batch") is None
        assert executor_of(svc, "partition") is None
        assert batch._shutdown and partition._shutdown


class TestLargerCorpusEquivalence:
    @pytest.mark.parametrize("degree", [2, 3, 8])
    def test_social_universe_scans(self, degree):
        with GraphitiService(
            SOCIAL.graph_schema,
            parallelism=degree,
            parallel_row_threshold=0,
        ) as svc:
            svc.load_mock(25, seed=42)
            for cypher in (
                "MATCH (u:USER) WHERE u.uid > 5 RETURN u.uname",
                "MATCH (u:USER) RETURN count(*)",
                "MATCH (u:USER) RETURN avg(u.uid), count(*)",
                "MATCH (u:USER) RETURN DISTINCT u.uname",
            ):
                assert tables_equivalent(
                    svc.run(cypher), svc.reference(cypher)
                ), cypher
