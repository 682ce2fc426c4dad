"""Every served plan matches the committed snapshot, byte for byte.

One digest per (query text, opt level) covers the SQL rendered for the
sqlite, duckdb and ansi dialects plus the ``PlanReport``, for the whole
410-benchmark suite and the differential corpus (see
``scripts/plan_snapshots.py``, which regenerates the fixture with
``--write``).  Optimizer work that is meant to leave plans alone — a
faster rewrite engine, cheaper tree walks — must keep every digest.
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

#: Mismatches shown with their current SQL; the rest are listed by key.
SHOWN = 3


def test_fixture_covers_every_case():
    keys = {
        f"{case_id}@{level}"
        for cases in GROUPS.values()
        for case_id, _, _ in cases
        for level in snapshots.LEVELS
    }
    assert keys == set(EXPECTED), (
        "snapshot cases changed; regenerate with `python scripts/plan_snapshots.py --write`"
    )


@pytest.mark.parametrize("universe", sorted(GROUPS))
def test_plans_match_snapshot(universe):
    cases = GROUPS[universe]
    actual = snapshots.group_digests(cases)
    changed = sorted(k for k, v in actual.items() if EXPECTED.get(k) != v)
    if not changed:
        return
    texts = {case_id: text for case_id, _, text in cases}
    details = []
    with snapshots.GraphitiService(cases[0][1]) as service:
        service.load_mock(snapshots.ROWS_PER_TABLE, seed=snapshots.SEED)
        for key in changed[:SHOWN]:
            case_id, level = key.rsplit("@", 1)
            _, sql, report = snapshots.render(service, texts[case_id], int(level))[0]
            details.append(
                f"{key}: {texts[case_id]}\n{sql}\n{json.dumps(report, sort_keys=True)}"
            )
    pytest.fail(
        f"{len(changed)} plan(s) changed: {', '.join(changed)}\n\n" + "\n\n".join(details)
    )
