"""Plan snapshots: two digests per (query text, opt level) of what gets served.

The *sql* digest covers the SQL the serving pipeline renders for the
sqlite, duckdb and ansi dialects; the *plan* digest covers the
``PlanReport`` it attaches to each.  Both are taken for every text of the
410-benchmark suite and of the differential corpus
(``tests/backends/test_differential.py``) at opt levels 0, 1 and 2.  The
level-2 statistics come from ``load_mock(ROWS_PER_TABLE, seed=SEED)`` per
universe.  ``tests/sql/test_plan_snapshots.py`` compares the current
pipeline against the committed fixture, so an optimizer change that is
meant to be plan-neutral is checked to the byte, and a rendering change
is checked to leave every ``PlanReport`` alone.

Run from the repository root::

    python scripts/plan_snapshots.py           # compare, exit 1 on a mismatch
    python scripts/plan_snapshots.py --write   # regenerate the fixture
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.backends.service import GraphitiService  # noqa: E402
from repro.benchmarks.suite import benchmark_suite  # noqa: E402

FIXTURE = REPO_ROOT / "tests" / "sql" / "plan_snapshots.json"
DIALECTS = ("sqlite", "duckdb", "ansi")
LEVELS = (0, 1, 2)
#: The two halves of a snapshot: the rendered SQL and the ``PlanReport``.
HALVES = ("sql", "plan")
ROWS_PER_TABLE = 20
SEED = 7


def snapshot_cases() -> dict[str, list[tuple[str, object, str]]]:
    """Universe label → ``[(case id, graph schema, Cypher text)]``."""
    from tests.backends.test_differential import CORPUS

    groups: dict[str, list[tuple[str, object, str]]] = {}
    for benchmark in benchmark_suite():
        groups.setdefault(benchmark.universe.name, []).append(
            (f"suite/{benchmark.id}", benchmark.graph_schema, benchmark.cypher_text)
        )
    for universe, (schema, workload) in CORPUS.items():
        groups[f"corpus-{universe}"] = [
            (f"corpus/{universe}/{label}", schema, text)
            for label, text in workload.items()
        ]
    return groups


def render(service: GraphitiService, text: str, level: int) -> dict[str, list]:
    """Half → ``[[dialect, SQL or PlanReport dict], ...]`` over the dialects."""
    halves: dict[str, list] = {half: [] for half in HALVES}
    for dialect in DIALECTS:
        prepared = service.prepare(text, dialect=dialect, opt_level=level)
        halves["sql"].append([dialect, prepared.sql_text])
        halves["plan"].append([dialect, prepared.plan.to_dict()])
    return halves


def digest(payload: list) -> str:
    encoded = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


def group_digests(cases: list[tuple[str, object, str]]) -> dict[str, dict[str, str]]:
    """Half → ``"<case id>@<level>"`` → digest for one universe's cases."""
    digests: dict[str, dict[str, str]] = {half: {} for half in HALVES}
    with GraphitiService(cases[0][1]) as service:
        service.load_mock(ROWS_PER_TABLE, seed=SEED)
        for case_id, _, text in cases:
            for level in LEVELS:
                for half, payload in render(service, text, level).items():
                    digests[half][f"{case_id}@{level}"] = digest(payload)
    return digests


def all_digests() -> dict[str, dict[str, str]]:
    digests: dict[str, dict[str, str]] = {half: {} for half in HALVES}
    for cases in snapshot_cases().values():
        for half, group in group_digests(cases).items():
            digests[half].update(group)
    return digests


def load_fixture() -> dict[str, dict[str, str]]:
    document = json.loads(FIXTURE.read_text())
    return {half: document[half] for half in HALVES}


def changed_halves(
    actual: dict[str, dict[str, str]], expected: dict[str, dict[str, str]]
) -> list[tuple[str, str]]:
    """``(key, half)`` for every digest of *actual* that *expected* lacks or
    holds differently, sorted by key."""
    return sorted(
        (key, half)
        for half in HALVES
        for key, value in actual[half].items()
        if expected[half].get(key) != value
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate the fixture")
    args = parser.parse_args(argv)
    digests = all_digests()
    if args.write:
        document = {
            "rows_per_table": ROWS_PER_TABLE,
            "seed": SEED,
            "dialects": list(DIALECTS),
            "levels": list(LEVELS),
            **{half: dict(sorted(digests[half].items())) for half in HALVES},
        }
        FIXTURE.write_text(json.dumps(document, indent=1) + "\n")
        print(
            f"wrote {len(digests['sql'])} SQL and {len(digests['plan'])} plan "
            f"digests to {FIXTURE.relative_to(REPO_ROOT)}"
        )
        return 0
    expected = load_fixture()
    changed = changed_halves(digests, expected) + changed_halves(expected, digests)
    changed = sorted(set(changed))
    for key, half in changed:
        print(f"mismatch: {key} ({half})")
    for half in HALVES:
        differing = sum(1 for _, changed_half in changed if changed_half == half)
        print(f"{half}: {differing} of {len(digests[half])} digests differ")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
