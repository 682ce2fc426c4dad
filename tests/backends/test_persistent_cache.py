"""The persistent transpilation cache: cross-process reuse and invalidation."""

import hashlib
import pickle

import pytest

from repro.backends import GraphitiService, PersistentQueryCache
from repro.backends.cache import PlanKey, cache_key, default_cache_dir
from repro.backends.service import _FeedbackDecision, _LruCache
from repro.benchmarks.universes import SOCIAL
from repro.relational.instance import tables_equivalent

SCAN = "MATCH (n:EMP) RETURN n.name"
JOIN = "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname"
HOPS = "MATCH (a:USER)-[:FOLLOWS*1..2]->(b:USER) RETURN a.uid, b.uid"

#: A plain plan's key, and per :class:`PlanKey` field a value it does not
#: hold.
PLAIN = PlanKey("fp", "q", "sqlite", 2, "digest")
OTHER = {
    "fingerprint": "fp2",
    "text": "q2",
    "dialect": "duckdb",
    "level": 1,
    "stats_digest": "digest2",
    "force_recursive": True,
    "depth_cap": 2,
    "feedback_epoch": 1,
    "row_scale": 8.0,
    "parallelism": 3,
}


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "transpilations.sqlite"


def fresh_service(schema, store_path, rows=15):
    service = GraphitiService(schema, persistent_cache=store_path)
    service.load_mock(rows, seed=5)
    return service


class TestCrossProcessReuse:
    def test_cold_service_hits_for_previously_prepared_queries(
        self, emp_dept_schema, store_path
    ):
        # "Process" 1: pays the full pipeline, persists the result.
        with fresh_service(emp_dept_schema, store_path) as first:
            sql_first = first.transpile_to_sql(JOIN)
            info = first.persistent_cache_info()
            assert (info.hits, info.misses) == (0, 1)
        # "Process" 2: brand-new service, empty LRU, same store.
        with fresh_service(emp_dept_schema, store_path) as second:
            sql_second = second.transpile_to_sql(JOIN)
            info = second.persistent_cache_info()
            assert (info.hits, info.misses) == (1, 0)
            assert sql_first == sql_second
            # The memory LRU was seeded by the disk hit.
            assert second.cache_info().currsize == 1

    def test_disk_hit_produces_runnable_plans(self, emp_dept_schema, store_path):
        with fresh_service(emp_dept_schema, store_path) as first:
            expected = first.run(JOIN)
        with fresh_service(emp_dept_schema, store_path) as second:
            assert tables_equivalent(second.run(JOIN), expected)
            assert tables_equivalent(second.reference(JOIN), expected)

    def test_subprocess_cold_run_hits(self, emp_dept_schema, store_path):
        """The real thing: a separate OS process reuses this one's entries."""
        import subprocess
        import sys

        with fresh_service(emp_dept_schema, store_path) as warm:
            warm.transpile_to_sql(SCAN)
        script = f"""
import sys
from repro.backends import GraphitiService
from repro.graph.schema import EdgeType, GraphSchema, NodeType

schema = GraphSchema.of(
    [NodeType("EMP", ("id", "name")), NodeType("DEPT", ("dnum", "dname"))],
    [EdgeType("WORK_AT", "EMP", "DEPT", ("wid",))],
)
with GraphitiService(schema, persistent_cache={str(store_path)!r}) as service:
    service.load_mock(15, seed=5)
    service.transpile_to_sql({SCAN!r})
    info = service.persistent_cache_info()
    sys.exit(0 if (info.hits, info.misses) == (1, 0) else 1)
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_shared_store_object_between_services(self, emp_dept_schema, store_path):
        with PersistentQueryCache(store_path) as store:
            with GraphitiService(emp_dept_schema, persistent_cache=store) as first:
                first.load_mock(15, seed=5)
                first.transpile_to_sql(SCAN)
            with GraphitiService(emp_dept_schema, persistent_cache=store) as second:
                second.load_mock(15, seed=5)
                second.transpile_to_sql(SCAN)
            assert store.hits == 1
            # The store outlives both services (they don't own it).
            assert len(store) == 1


class TestInvalidation:
    def test_different_opt_levels_are_distinct_entries(
        self, emp_dept_schema, store_path
    ):
        with fresh_service(emp_dept_schema, store_path) as service:
            service.transpile_to_sql(SCAN, opt_level=1)
            service.transpile_to_sql(SCAN, opt_level=2)
            assert len(service._persistent) == 2

    def test_different_data_invalidates_level_two_plans(
        self, emp_dept_schema, store_path
    ):
        with fresh_service(emp_dept_schema, store_path, rows=10) as service:
            service.transpile_to_sql(JOIN)
        with fresh_service(emp_dept_schema, store_path, rows=25) as service:
            service.transpile_to_sql(JOIN)  # fresh stats → new plan key
            info = service.persistent_cache_info()
            assert info.misses == 1

    def test_same_data_shares_level_two_plans(self, emp_dept_schema, store_path):
        with fresh_service(emp_dept_schema, store_path, rows=10) as service:
            service.transpile_to_sql(JOIN)
        with fresh_service(emp_dept_schema, store_path, rows=10) as service:
            service.transpile_to_sql(JOIN)  # identical stats digest → hit
            info = service.persistent_cache_info()
            assert (info.hits, info.misses) == (1, 0)

    def test_different_schema_never_collides(self, emp_dept_schema, store_path):
        from repro.graph.schema import GraphSchema, NodeType

        other = GraphSchema.of([NodeType("ONLY", ("oid", "oname"))])
        with fresh_service(emp_dept_schema, store_path) as service:
            service.transpile_to_sql(SCAN)
        with GraphitiService(other, persistent_cache=store_path) as service:
            service.load_mock(5)
            service.transpile_to_sql("MATCH (o:ONLY) RETURN o.oname")
            info = service.persistent_cache_info()
            assert info.hits == 0


class TestStoreRobustness:
    def test_corrupt_payload_counts_as_miss_and_is_purged(self, store_path):
        key = cache_key("fp", "q", "sqlite", 2, "digest")
        with PersistentQueryCache(store_path) as store:
            store.put(key, "q", object())  # placeholder entry
        # Corrupt the payload behind the store's back.
        import sqlite3

        connection = sqlite3.connect(store_path)
        connection.execute(
            "UPDATE entries SET payload = ?", (b"not a pickle",)
        )
        connection.commit()
        connection.close()
        with PersistentQueryCache(store_path) as store:
            assert store.get(key) is None
            assert store.misses == 1
            assert len(store) == 0  # purged

    def test_clear_empties_store(self, store_path):
        with PersistentQueryCache(store_path) as store:
            store.put(cache_key("f", "q", "d", 2, "s"), "q", ("payload",))
            assert len(store) == 1
            store.clear()
            assert len(store) == 0

    def test_version_mismatch_rebuilds_store(self, store_path):
        with PersistentQueryCache(store_path) as store:
            store.put(cache_key("f", "q", "d", 2, "s"), "q", ("payload",))
        import sqlite3

        connection = sqlite3.connect(store_path)
        connection.execute("PRAGMA user_version = 9999")
        connection.commit()
        connection.close()
        with PersistentQueryCache(store_path) as store:
            assert len(store) == 0  # dropped on format mismatch

    def test_payload_round_trips_pickle(self, store_path):
        value = {"nested": (1, 2.5, "x", None)}
        key = cache_key("f", "q", "d", 0, "")
        with PersistentQueryCache(store_path) as store:
            store.put(key, "q", value)
            assert store.get(key) == value
            assert pickle.dumps(value)  # sanity: value itself picklable

    def test_default_cache_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("GRAPHITI_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"
        monkeypatch.delenv("GRAPHITI_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "graphiti-repro"


class TestServiceWiring:
    def test_disabled_by_default(self, emp_dept_schema):
        with GraphitiService(emp_dept_schema) as service:
            assert service.persistent_cache_info() is None

    def test_true_uses_default_location(self, emp_dept_schema, monkeypatch, tmp_path):
        monkeypatch.setenv("GRAPHITI_CACHE_DIR", str(tmp_path))
        with GraphitiService(emp_dept_schema, persistent_cache=True) as service:
            service.load_mock(5)
            service.transpile_to_sql(SCAN)
        assert (tmp_path / "transpilations.sqlite").exists()


class TestPlanKey:
    """Every plan input is a key field, in both tiers: two plans that may
    differ never share an entry."""

    def test_every_field_has_a_case(self):
        assert tuple(OTHER) == PlanKey._fields

    @pytest.mark.parametrize("field", OTHER)
    def test_each_field_keys_both_tiers(self, field):
        variant = PLAIN._replace(**{field: OTHER[field]})
        assert cache_key(*variant) != cache_key(*PLAIN)
        memory = _LruCache(maxsize=4)
        memory.put(PLAIN, "plain")
        memory.put(variant, "variant")
        assert memory.get(PLAIN) == "plain"
        assert memory.get(variant) == "variant"
        assert memory.info().currsize == 2

    def test_a_plain_plan_keeps_its_disk_key(self):
        hashed = hashlib.sha256(b"q").hexdigest()[:32]
        assert cache_key(*PLAIN) == f"fp|{hashed}|sqlite|2|digest"

    def test_a_key_of_replaced_statistics_is_served_but_stored_nowhere(
        self, emp_dept_schema, store_path
    ):
        """A reload lands between building a key and its miss: the plan
        comes from statistics the key does not name, so neither tier may
        keep it under that key."""
        with fresh_service(emp_dept_schema, store_path, rows=10) as service:
            stale = service._plan_key(JOIN, "sqlite", None, None)
            service.load_mock(25, seed=5)
            served = service._prepare(stale)
            assert service.cache_info().currsize == 0
            assert len(service._persistent) == 0
            # Planned with the statistics now loaded, as the fresh key is.
            fresh = service.prepare(JOIN)
            assert served.plan.estimated_rows == fresh.plan.estimated_rows
            assert service._plan_key(JOIN, "sqlite", None, None) != stale

    @pytest.mark.parametrize(
        "corrections", [{"force_recursive": True}, {"row_scale": 8.0}]
    )
    def test_feedback_corrections_at_one_epoch_do_not_share_an_entry(
        self, store_path, corrections
    ):
        """Two services share a store and their data, and sit at feedback
        epoch 1: the second one's corrections give it its own plan."""
        plans = []
        with PersistentQueryCache(store_path) as store:
            for decision in (
                _FeedbackDecision(epoch=1),
                _FeedbackDecision(epoch=1, **corrections),
            ):
                with GraphitiService(
                    SOCIAL.graph_schema, persistent_cache=store
                ) as service:
                    service.load_mock(40, seed=5)
                    with service._lock:
                        service._query_state(HOPS).feedback = decision
                    plans.append(service.prepare(HOPS).plan)
            assert (store.hits, store.misses) == (0, 2)
            assert len(store) == 2
        uncorrected, corrected = plans
        assert (corrected.traversal_choice, corrected.estimated_rows) != (
            uncorrected.traversal_choice,
            uncorrected.estimated_rows,
        )
