"""Plan snapshots: one digest per (query text, opt level) of what gets served.

A digest covers the SQL the serving pipeline renders for the sqlite,
duckdb and ansi dialects plus the ``PlanReport`` it attaches, for every
text of the 410-benchmark suite and of the differential corpus
(``tests/backends/test_differential.py``) at opt levels 0, 1 and 2.  The
level-2 statistics come from ``load_mock(ROWS_PER_TABLE, seed=SEED)`` per
universe.  ``tests/sql/test_plan_snapshots.py`` compares the current
pipeline against the committed fixture, so an optimizer change that is
meant to be plan-neutral is checked to the byte.

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


def render(service: GraphitiService, text: str, level: int) -> list[list]:
    """``[dialect, SQL, PlanReport dict]`` for every snapshot dialect."""
    rendered = []
    for dialect in DIALECTS:
        prepared = service.prepare(text, dialect=dialect, opt_level=level)
        rendered.append([dialect, prepared.sql_text, prepared.plan.to_dict()])
    return rendered


def digest(rendered: list[list]) -> str:
    payload = json.dumps(rendered, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def group_digests(cases: list[tuple[str, object, str]]) -> dict[str, str]:
    """``"<case id>@<level>"`` → digest for one universe's cases."""
    digests: dict[str, str] = {}
    with GraphitiService(cases[0][1]) as service:
        service.load_mock(ROWS_PER_TABLE, seed=SEED)
        for case_id, _, text in cases:
            for level in LEVELS:
                digests[f"{case_id}@{level}"] = digest(render(service, text, level))
    return digests


def all_digests() -> dict[str, str]:
    digests: dict[str, str] = {}
    for cases in snapshot_cases().values():
        digests.update(group_digests(cases))
    return digests


def load_fixture() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())["digests"]


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
            "digests": dict(sorted(digests.items())),
        }
        FIXTURE.write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {len(digests)} digests to {FIXTURE.relative_to(REPO_ROOT)}")
        return 0
    expected = load_fixture()
    changed = sorted(
        k for k in digests.keys() | expected.keys() if digests.get(k) != expected.get(k)
    )
    for key in changed:
        print(f"mismatch: {key}")
    print(f"{len(digests) - len(changed)} of {len(digests)} digests match")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
