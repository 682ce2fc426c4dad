"""Cross-backend differential test harness.

The reusable template every execution backend must pass: for each
``(backend, optimization level)`` combination in the registry, every query
of the example corpus must return a table bag-equivalent (Definition 4.4)
to the reference evaluator's result over the same loaded data.

Future backends get this coverage for free — registering an engine makes
``available_backends()`` include it, which parametrizes these tests over
it on the next run.  Adding a workload means adding an entry to
:data:`CORPUS`; adding an engine means making it importable.  The helper
:func:`assert_differential` is importable from engine-specific test files
that want the same check on hand-picked queries::

    from tests.backends.test_differential import assert_differential

The corpus spans three universes so the harness exercises edge-table *and*
self-referential designs: the Figure-14 EMP/DEPT schema (joins, outer
joins, aggregation, correlated EXISTS), the SOCIAL universe (multi-hop
joins, self-joins over FOLLOWS, filters), and the COMPANY universe
(property filters and aggregation over a salaried workforce).  A fourth
corpus entry reruns the SOCIAL universe with variable-length traversals
(``*``, ``*n``, ``*lo..hi``, zero-hop, reversed, undirected, mixed with
fixed-length hops, EXISTS and OPTIONAL MATCH) — the reachability workload
every backend must serve through both the recursive-CTE and the unrolled
rendering (the opt-level parametrization covers both plan shapes).
"""

from __future__ import annotations

import asyncio
from pathlib import Path

import pytest

from repro.backends import AsyncGraphitiService, GraphitiService, available_backends
from repro.backends.comparison import DEFAULT_SCHEMA, DEFAULT_WORKLOAD
from repro.benchmarks.universes import COMPANY, SOCIAL
from repro.common.budget import QueryBudget
from repro.relational.instance import tables_equivalent
from repro.sql.optimize import OPT_LEVELS

#: Rows per table for the differential instances — small, because the
#: reference evaluator nested-loops its joins; variety comes from the
#: corpus, not the data volume.
ROWS_PER_TABLE = 15

SOCIAL_WORKLOAD: dict[str, str] = {
    "one-hop-agg": (
        "MATCH (a:USER)-[w:WROTE]->(p:POST) RETURN a.uname, Count(*)"
    ),
    "two-hop-agg": (
        "MATCH (a:USER)-[f:FOLLOWS]->(b:USER)-[w:WROTE]->(p:POST) "
        "RETURN b.uname, Count(*)"
    ),
    "two-hop-filter": (
        "MATCH (a:USER)-[f:FOLLOWS]->(b:USER)-[w:WROTE]->(p:POST) "
        "WHERE p.score = 10 RETURN a.uname, p.title"
    ),
    "diamond-count": (
        "MATCH (a:USER)-[f:FOLLOWS]->(b:USER)-[w:WROTE]->(p:POST) "
        "MATCH (c:USER)-[l:LIKES]->(p:POST) RETURN Count(*)"
    ),
    "three-hop-count": (
        "MATCH (a:USER)-[f:FOLLOWS]->(b:USER)-[g:FOLLOWS]->(c:USER)"
        "-[w:WROTE]->(p:POST) RETURN Count(*)"
    ),
}

COMPANY_WORKLOAD: dict[str, str] = {
    "scan-filter": "MATCH (e:EMP) WHERE e.salary = 5 RETURN e.ename",
    "join": (
        "MATCH (e:EMP)-[w:WORK_AT]->(d:DEPT) RETURN e.ename, d.dname"
    ),
    "join-agg": (
        "MATCH (e:EMP)-[w:WORK_AT]->(d:DEPT) RETURN d.dname, Count(*)"
    ),
    "optional": (
        "MATCH (d:DEPT) OPTIONAL MATCH (e:EMP)-[w:WORK_AT]->(d:DEPT) "
        "RETURN d.dname, e.ename"
    ),
    "order-desc-tie": (
        "MATCH (e:EMP) RETURN e.salary % 2 AS parity, e.eid "
        "ORDER BY parity DESC, e.eid DESC LIMIT 3"
    ),
}

#: Variable-length traversals over SOCIAL's self-referential FOLLOWS edge.
#: Level 2 unrolls the bounded ones into k-hop join chains and keeps the
#: open-ended ones recursive, so the backend × opt-level matrix exercises
#: both plan shapes against the same reference results.
TRAVERSAL_WORKLOAD: dict[str, str] = {
    "star": "MATCH (a:USER)-[:FOLLOWS*]->(b:USER) RETURN a.uid, b.uid",
    "exact-two": "MATCH (a:USER)-[:FOLLOWS*2]->(b:USER) RETURN a.uid, b.uid",
    "one-to-three": (
        "MATCH (a:USER)-[:FOLLOWS*1..3]->(b:USER) RETURN a.uname, Count(*)"
    ),
    "zero-hop": "MATCH (a:USER)-[:FOLLOWS*0..2]->(b:USER) RETURN a.uid, b.uid",
    "reversed": "MATCH (a:USER)<-[:FOLLOWS*2..]-(b:USER) RETURN a.uid, b.uid",
    "reversed-bounded": "MATCH (a:USER)<-[:FOLLOWS*1..2]-(b:USER) RETURN a.uid, b.uid",
    "undirected": "MATCH (a:USER)-[:FOLLOWS*1..2]-(b:USER) RETURN a.uid, b.uid",
    "back-to-self": "MATCH (a:USER)-[:FOLLOWS*2..3]->(a:USER) RETURN a.uid",
    "mixed-hops": (
        "MATCH (a:USER)-[:FOLLOWS*1..2]->(b:USER)-[w:WROTE]->(p:POST) "
        "RETURN a.uid, p.pid"
    ),
    "exists-reach": (
        "MATCH (a:USER) WHERE EXISTS { MATCH (a:USER)-[:FOLLOWS*2..3]->(b:USER) } "
        "RETURN a.uid"
    ),
    "optional-reach": (
        "MATCH (a:USER) OPTIONAL MATCH (a:USER)-[:FOLLOWS*2]->(b:USER) "
        "RETURN a.uid, b.uid"
    ),
}

#: The example corpus: universe label → (graph schema, {query label → Cypher}).
CORPUS = {
    "emp-dept": (DEFAULT_SCHEMA, DEFAULT_WORKLOAD),
    "social": (SOCIAL.graph_schema, SOCIAL_WORKLOAD),
    "company": (COMPANY.graph_schema, COMPANY_WORKLOAD),
    "traversal": (SOCIAL.graph_schema, TRAVERSAL_WORKLOAD),
}

#: Mock-data seed per universe (default 42).  The traversal corpus needs a
#: FOLLOWS graph containing a short directed cycle so ``back-to-self``
#: returns rows; seed 7 produces one, seed 42 happens not to.
SEEDS = {"traversal": 7}
DEFAULT_SEED = 42

CASES = [
    pytest.param(universe, label, id=f"{universe}/{label}")
    for universe, (_, workload) in CORPUS.items()
    for label in workload
]


def assert_differential(
    service: GraphitiService, backend: str, cypher: str, opt_level: int
) -> None:
    """One differential check: backend execution vs the reference evaluator.

    The reference always evaluates the *default-level* plan — the raw
    (level-0) one-node-per-rule nesting would make the materialising
    evaluator enumerate full cross products, which is combinatorially
    infeasible even on tiny instances.  The backend runs at *opt_level*,
    so the assertion covers the whole pipeline: a failure means the
    optimizer broke bag semantics at that level, or the backend (render,
    load, engine) diverges from the reference.
    """
    expected = service.reference(cypher)
    actual = service.run(cypher, backend=backend, opt_level=opt_level)
    assert tables_equivalent(expected, actual), (
        f"{backend} (opt {opt_level}) diverges from the reference evaluator "
        f"on {cypher!r}\nreference:\n{expected}\nbackend:\n{actual}"
    )


@pytest.fixture(scope="module")
def differential_services():
    """Lazily created, module-shared services — one per universe.

    One service serves every backend × opt level over one mock instance:
    the pool map gives each backend its own loaded connections, and
    ``opt_level`` is a per-call override, so nothing is re-loaded between
    parametrizations.
    """
    services: dict[str, GraphitiService] = {}

    def service_for(universe: str) -> GraphitiService:
        service = services.get(universe)
        if service is None:
            schema, _ = CORPUS[universe]
            service = GraphitiService(schema)
            # Seed chosen so every corpus query returns rows (guarded by
            # test_corpus_is_nontrivial) — vacuous bag-equivalence of empty
            # tables would not exercise marshalling at all.
            service.load_mock(ROWS_PER_TABLE, seed=SEEDS.get(universe, DEFAULT_SEED))
            services[universe] = service
        return service

    yield service_for
    for service in services.values():
        service.close()


class TestDifferentialHarness:
    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("opt_level", sorted(OPT_LEVELS))
    @pytest.mark.parametrize(("universe", "label"), CASES)
    def test_backend_matches_reference(
        self, universe, label, opt_level, backend_name, differential_services
    ):
        _, workload = CORPUS[universe]
        assert_differential(
            differential_services(universe),
            backend_name,
            workload[label],
            opt_level,
        )

    def test_corpus_is_nontrivial(self, differential_services):
        """Guard the harness itself: every corpus query returns rows on the
        mock instances, so a backend returning empty tables cannot pass by
        vacuous bag-equivalence."""
        for universe, (_, workload) in CORPUS.items():
            service = differential_services(universe)
            for label, cypher in workload.items():
                rows = len(service.reference(cypher))
                assert rows > 0, f"{universe}/{label} returns no rows"

    def test_every_available_backend_is_covered(self):
        """The parametrization tracks the registry — a newly registered,
        importable engine is automatically subject to the harness."""
        assert set(available_backends()) >= {"sqlite-memory", "sqlite-file"}


@pytest.fixture(scope="module")
def disk_cache_services(tmp_path_factory):
    """One cold service per (universe, backend) over a warmed disk store.

    Per universe, a warm service prepares every corpus query at every opt
    level in every available backend's dialect into its own persistent
    store, then closes.  Each cold service opens that store over the same
    seeded data with an empty in-memory LRU, so every plan it serves
    round-tripped through the disk tier (pickled ``PreparedQuery``, plan
    report, statistics-digest key) — the lane differentially validates
    those plans against the reference evaluator.
    """
    stores: dict[str, Path] = {}
    services: dict[tuple[str, str], GraphitiService] = {}

    def store_for(universe: str) -> Path:
        store = stores.get(universe)
        if store is None:
            schema, workload = CORPUS[universe]
            store = tmp_path_factory.mktemp(universe) / "store.sqlite"
            with GraphitiService(schema, persistent_cache=store) as warm:
                warm.load_mock(ROWS_PER_TABLE, seed=SEEDS.get(universe, DEFAULT_SEED))
                for backend in available_backends():
                    dialect = warm.dialect_of(backend)
                    for cypher in workload.values():
                        for level in OPT_LEVELS:
                            warm.prepare(cypher, dialect, opt_level=level)
            stores[universe] = store
        return store

    def service_for(universe: str, backend: str) -> GraphitiService:
        key = (universe, backend)
        service = services.get(key)
        if service is None:
            schema, _ = CORPUS[universe]
            service = GraphitiService(schema, persistent_cache=store_for(universe))
            service.load_mock(ROWS_PER_TABLE, seed=SEEDS.get(universe, DEFAULT_SEED))
            services[key] = service
        return service

    yield service_for
    for service in services.values():
        service.close()


class TestDiskCacheDifferentialHarness:
    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("opt_level", sorted(OPT_LEVELS))
    @pytest.mark.parametrize(("universe", "label"), CASES)
    def test_disk_tier_matches_reference(
        self, universe, label, opt_level, backend_name, disk_cache_services
    ):
        _, workload = CORPUS[universe]
        cypher = workload[label]
        service = disk_cache_services(universe, backend_name)
        expected = service.reference(cypher)
        actual = service.run(cypher, backend=backend_name, opt_level=opt_level)
        assert tables_equivalent(expected, actual), (
            f"{backend_name} (opt {opt_level}, disk tier) diverges from the "
            f"reference evaluator on {cypher!r}"
            f"\nreference:\n{expected}\ndisk tier:\n{actual}"
        )
        # Every plan the cold service served came from the store.
        assert service.persistent_cache_info().misses == 0


#: A budget no corpus query comes near.  Its ``max_depth`` still plans every
#: open-bound traversal depth-capped (``allow_downgrade`` defaults on), and
#: 64 hops is more than the 15-row instances' FOLLOWS graph can need, so the
#: capped plans must return exactly the uncapped answer.
GENEROUS_BUDGET = QueryBudget(max_rows=100_000, max_depth=64, timeout_seconds=60.0)


class TestBudgetDifferentialHarness:
    """The corpus served under a generous budget: the depth-capped
    traversal rendering, the engine's incremental row guard and its
    wall-clock guard must all leave the answer unchanged."""

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("opt_level", sorted(OPT_LEVELS))
    @pytest.mark.parametrize(("universe", "label"), CASES)
    def test_budgeted_matches_reference(
        self, universe, label, opt_level, backend_name, differential_services
    ):
        _, workload = CORPUS[universe]
        cypher = workload[label]
        service = differential_services(universe)
        expected = service.reference(cypher)
        actual = service.run(
            cypher, backend=backend_name, opt_level=opt_level, budget=GENEROUS_BUDGET
        )
        assert tables_equivalent(expected, actual), (
            f"{backend_name} (opt {opt_level}, budget) diverges from the "
            f"reference evaluator on {cypher!r}"
            f"\nreference:\n{expected}\nbudgeted:\n{actual}"
        )

    def test_lane_actually_caps_depth(self, differential_services):
        """Guard the lane itself: some traversal corpus query must be
        planned depth-capped under the budget, or the parametrization
        above would never exercise the capped rendering."""
        service = differential_services("traversal")
        _, workload = CORPUS["traversal"]
        capped = False
        for cypher in workload.values():
            _, prepared = service.serve(cypher, budget=GENEROUS_BUDGET)
            traversals = prepared.plan.traversals
            if any(traversal.choice == "depth-capped" for traversal in traversals):
                capped = True
                break
        assert capped, "no traversal query was planned depth-capped"


#: Service settings of the async lanes: the plain one, and one that also
#: crosses partition parallelism (gate forced open) with a generous budget.
ASYNC_LANES = {
    "async": {},
    "crossed": {
        "parallelism": 2,
        "parallel_row_threshold": 0,
        "default_budget": GENEROUS_BUDGET,
    },
}


@pytest.fixture(scope="module")
def async_differential_services():
    """One :class:`AsyncGraphitiService` per (universe, lane), module-shared,
    each owning its service over the same seeded mock data as the sync lane."""
    services: dict[tuple[str, str], AsyncGraphitiService] = {}

    def service_for(universe: str, lane: str) -> AsyncGraphitiService:
        service = services.get((universe, lane))
        if service is None:
            schema, _ = CORPUS[universe]
            service = AsyncGraphitiService(schema, **ASYNC_LANES[lane])
            asyncio.run(
                service.load_mock(ROWS_PER_TABLE, seed=SEEDS.get(universe, DEFAULT_SEED))
            )
            services[universe, lane] = service
        return service

    yield service_for
    for service in services.values():
        service.close()


class TestAsyncDifferentialHarness:
    LANE = "async"

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("opt_level", sorted(OPT_LEVELS))
    @pytest.mark.parametrize(("universe", "label"), CASES)
    def test_async_matches_reference(
        self, universe, label, opt_level, backend_name, async_differential_services
    ):
        _, workload = CORPUS[universe]
        cypher = workload[label]
        service = async_differential_services(universe, self.LANE)
        expected = service.service.reference(cypher)
        actual = asyncio.run(
            service.run(cypher, backend=backend_name, opt_level=opt_level)
        )
        assert tables_equivalent(expected, actual), (
            f"{backend_name} (opt {opt_level}, {self.LANE}) diverges from the "
            f"reference evaluator on {cypher!r}"
            f"\nreference:\n{expected}\nasync:\n{actual}"
        )


class TestCrossedDifferentialHarness(TestAsyncDifferentialHarness):
    """The async lane again, while the sync pipeline under it scatters
    fragmentable plans over partitions and plans traversals depth-capped
    under its default budget."""

    LANE = "crossed"

    def test_lane_scatters_and_caps_depth(self, async_differential_services):
        """Guard the lane itself: serving the corpus through it must both
        scatter some query over partitions and plan some traversal
        depth-capped, or the parametrization would miss a crossing."""
        scattered = capped = False
        for universe, (_, workload) in CORPUS.items():
            service = async_differential_services(universe, self.LANE)
            for cypher in workload.values():
                asyncio.run(service.run(cypher))
                # The same cache entry the async run used: no explicit
                # budget, so the service's default budget sets the cap.
                _, prepared = service.service.serve(cypher)
                capped = capped or any(
                    traversal.choice == "depth-capped"
                    for traversal in prepared.plan.traversals
                )
            counter = service.service.metrics.counter("repro_parallel_queries_total")
            scattered = scattered or counter.total() > 0
        assert scattered, "no corpus query scattered over partitions"
        assert capped, "no traversal query was planned depth-capped"


#: Partition degrees for the intra-query parallel lane: 2 exercises the
#: binary split, 3 an uneven one.
PARALLEL_DEGREES = (2, 3)


@pytest.fixture(scope="module")
def parallel_differential_services():
    """One partition-parallel service per (universe, degree), module-shared.

    The corpus runs with the parallel gate forced open
    (``parallel_row_threshold=0``), so every fragmentable scan and
    aggregate scatters over rowid partitions and merges — while joins
    and variable-length traversals classify non-fragmentable and take
    the serial path.  The lane therefore differentially validates the
    partition split, the merge rules, *and* the serial fallback against
    the reference evaluator.
    """
    services: dict[tuple[str, int], GraphitiService] = {}

    def service_for(universe: str, degree: int) -> GraphitiService:
        key = (universe, degree)
        service = services.get(key)
        if service is None:
            schema, _ = CORPUS[universe]
            service = GraphitiService(
                schema, parallelism=degree, parallel_row_threshold=0
            )
            service.load_mock(ROWS_PER_TABLE, seed=SEEDS.get(universe, DEFAULT_SEED))
            services[key] = service
        return service

    yield service_for
    for service in services.values():
        service.close()


class TestParallelDifferentialHarness:
    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("opt_level", sorted(OPT_LEVELS))
    @pytest.mark.parametrize("degree", PARALLEL_DEGREES)
    @pytest.mark.parametrize(("universe", "label"), CASES)
    def test_parallel_matches_reference(
        self,
        universe,
        label,
        degree,
        opt_level,
        backend_name,
        parallel_differential_services,
    ):
        _, workload = CORPUS[universe]
        cypher = workload[label]
        service = parallel_differential_services(universe, degree)
        expected = service.reference(cypher)
        actual = service.run(cypher, backend=backend_name, opt_level=opt_level)
        assert tables_equivalent(expected, actual), (
            f"{backend_name} (opt {opt_level}, parallel {degree}) diverges "
            f"from the reference evaluator on {cypher!r}"
            f"\nreference:\n{expected}\nparallel:\n{actual}"
        )

    def test_lane_actually_scatters(self, parallel_differential_services):
        """Guard the lane itself: at least one corpus query in the
        universes with single-relation workloads must clear the
        (forced-open) gate, or the parametrization above would only ever
        exercise the serial path.  (The social and traversal workloads
        are all joins/traversals and legitimately stay serial.)"""
        for universe in ("emp-dept", "company"):
            _, workload = CORPUS[universe]
            service = parallel_differential_services(universe, 2)
            scattered = False
            for cypher in workload.values():
                _, prepared = service.serve(cypher)
                verdict = prepared.plan.parallelism
                if verdict and verdict.get("parallel"):
                    scattered = True
                    break
            assert scattered, f"no {universe} query engaged the parallel gate"

