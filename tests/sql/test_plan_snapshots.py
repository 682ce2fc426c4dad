"""Every served plan matches the committed snapshot, byte for byte.

Each (query text, opt level) has two digests: the SQL rendered for the
sqlite, duckdb and ansi dialects, and the ``PlanReport``, for the whole
410-benchmark suite and the differential corpus (see
``scripts/plan_snapshots.py``, which regenerates the fixture with
``--write``).  Optimizer work that is meant to leave plans alone — a
faster rewrite engine, cheaper tree walks — must keep every digest; a
rendering change may move SQL digests but no ``PlanReport`` digest.  A
mismatch names the half that changed.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "plan_snapshots.py"
_spec = importlib.util.spec_from_file_location("plan_snapshots", _SCRIPT)
snapshots = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snapshots)

GROUPS = snapshots.snapshot_cases()
EXPECTED = snapshots.load_fixture()

#: Mismatches shown with their current SQL and report; the rest are listed.
SHOWN = 3


@pytest.mark.parametrize("half", snapshots.HALVES)
def test_fixture_covers_every_case(half):
    keys = {
        f"{case_id}@{level}"
        for cases in GROUPS.values()
        for case_id, _, _ in cases
        for level in snapshots.LEVELS
    }
    assert keys == set(EXPECTED[half]), (
        "snapshot cases changed; regenerate with `python scripts/plan_snapshots.py --write`"
    )


def test_changed_halves_names_the_half_that_differs():
    expected = {"sql": {"a@0": "1", "b@0": "2"}, "plan": {"a@0": "3", "b@0": "4"}}
    actual = {"sql": {"a@0": "1", "b@0": "5"}, "plan": {"a@0": "6", "b@0": "4"}}
    assert snapshots.changed_halves(actual, expected) == [("a@0", "plan"), ("b@0", "sql")]
    assert snapshots.changed_halves(expected, expected) == []


@pytest.mark.parametrize("universe", sorted(GROUPS))
def test_plans_match_snapshot(universe):
    cases = GROUPS[universe]
    changed = snapshots.changed_halves(snapshots.group_digests(cases), EXPECTED)
    if not changed:
        return
    texts = {case_id: text for case_id, _, text in cases}
    details = []
    with snapshots.GraphitiService(cases[0][1]) as service:
        service.load_mock(snapshots.ROWS_PER_TABLE, seed=snapshots.SEED)
        for key, half in changed[:SHOWN]:
            case_id, level = key.rsplit("@", 1)
            rendered = snapshots.render(service, texts[case_id], int(level))
            _, current = rendered[half][0]
            if half == "plan":
                current = json.dumps(current, sort_keys=True)
            details.append(f"{key} ({half}): {texts[case_id]}\n{current}")
    listed = ", ".join(f"{key} ({half})" for key, half in changed)
    pytest.fail(f"{len(changed)} digest(s) changed: {listed}\n\n" + "\n\n".join(details))
