"""Traversals over a multigraph: every engine returns the reference bag.

The instance is built by hand so it holds what mock data rarely does at
once: two parallel ``1 → 2`` edges, a doubled self-loop on 4 and the
cycles ``1 → 2 → 3 → 1`` and ``4 → 5 → 4``.  Those are the cases where a
per-branch ``DISTINCT`` matters: an unrolled chain without one yields a
pair once per path, and only a distinct ``UNION`` above it restores
reachability semantics (one binding per endpoint pair).
"""

import pytest

from repro.backends import GraphitiService, available_backends
from repro.benchmarks.universes import SOCIAL
from repro.relational.instance import Database, tables_equivalent

USERS = [(1, "ann", 31), (2, "bob", 42), (3, "cyd", 27), (4, "dee", 35), (5, "eve", 19)]
FOLLOWS = [(1, 2), (1, 2), (2, 3), (3, 1), (4, 4), (4, 4), (4, 5), (5, 4)]

TEXTS = {
    "one-to-two": "MATCH (a:USER)-[:FOLLOWS*1..2]->(b:USER) RETURN a.uid, b.uid",
    "exact-two": "MATCH (a:USER)-[:FOLLOWS*2]->(b:USER) RETURN a.uid, b.uid",
    "reversed": "MATCH (a:USER)<-[:FOLLOWS*1..3]-(b:USER) RETURN a.uid, b.uid",
    "undirected": "MATCH (a:USER)-[:FOLLOWS*1..2]-(b:USER) RETURN a.uid, b.uid",
    "zero-hop": "MATCH (a:USER)-[:FOLLOWS*0..2]->(b:USER) RETURN a.uid, b.uid",
    "open": "MATCH (a:USER)-[:FOLLOWS*1..]->(b:USER) RETURN a.uid, b.uid",
    "counted": "MATCH (a:USER)-[:FOLLOWS*1..2]->(b:USER) RETURN a.uid, Count(*)",
}


@pytest.fixture(scope="module")
def service():
    # Feedback off: the tiny instance's actual rows sit far below the
    # estimates, and a re-plan would move level 2 off the unrolled path.
    with GraphitiService(SOCIAL.graph_schema, feedback_ratio=None) as service:
        database = Database(service.sdt.schema)
        for row in USERS:
            database.insert("USER", list(row))
        for fid, (src, tgt) in enumerate(FOLLOWS, start=1):
            database.insert("FOLLOWS", [fid, src, tgt])
        service.load_database(database)
        yield service


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("opt_level", (0, 1, 2))
@pytest.mark.parametrize("label", sorted(TEXTS))
def test_traversal_matches_reference(service, label, opt_level, backend):
    text = TEXTS[label]
    expected = service.reference(text)
    actual = service.run(text, backend=backend, opt_level=opt_level)
    assert tables_equivalent(expected, actual), (
        f"{backend} (opt {opt_level}) diverges on {text!r}\n"
        f"reference:\n{expected}\nbackend:\n{actual}"
    )


def test_instance_exercises_duplicate_paths(service):
    """Guard the fixture: paths repeat, so dropping deduplication shows."""
    assert len(set(FOLLOWS)) < len(FOLLOWS)
    assert (4, 4) in FOLLOWS
    # 1 reaches 2 over both parallel edges, yet binds it once.
    rows = service.reference(TEXTS["one-to-two"]).rows
    assert sorted(rows).count((1, 2)) == 1


def test_level_two_unrolls_the_bounded_texts(service):
    """At level 2 the bounded texts take the unrolled UNION path, where the
    per-branch DISTINCT is no longer rendered."""
    for label in ("one-to-two", "exact-two", "reversed", "undirected", "counted"):
        prepared = service.prepare(TEXTS[label], opt_level=2)
        assert prepared.plan.traversal_choice == "unrolled", label
    assert service.prepare(TEXTS["open"], opt_level=2).plan.traversal_choice == "recursive"
    assert "SELECT DISTINCT" not in service.prepare(TEXTS["one-to-two"], opt_level=2).sql_text
