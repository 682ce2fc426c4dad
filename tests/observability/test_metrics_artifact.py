"""The tracked ``METRICS_observability.json`` matches what the observability
smoke (``scripts/observability_smoke.py``) writes now.

The smoke runs one traced ``repro explain`` of a traversal per backend: the
first run prepares the plan through every miss stage, and a later one
triggers a feedback re-plan, so the span names cover the miss path, the
cache hit and the re-plan under a real tracer.  The test reruns it over
exactly the backends the tracked file lists, in its order, because which
run re-plans depends on the order, and compares per backend the spans,
each named by its path from the root (so a span that moved to another
parent shows), the rows and the plan, then the metric families and their
types.
Timings, the series of other backends and the exposition's line count are
left out: they move with the host and with the engines installed.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.backends.registry import available_backends

_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "observability_smoke", _ROOT / "scripts" / "observability_smoke.py"
)
smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(smoke)

TRACKED = json.loads((_ROOT / "METRICS_observability.json").read_text())

REGENERATE = "regenerate with `python scripts/observability_smoke.py --rows 200`"


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> dict:
    missing = sorted(set(TRACKED["backends"]) - set(available_backends()))
    if missing:
        pytest.skip(f"tracked backends unavailable here: {missing}")
    out = tmp_path_factory.mktemp("observability") / "METRICS_observability.json"
    smoke.write_artifact(TRACKED["rows_per_table"], list(TRACKED["backends"]), out)
    return json.loads(out.read_text())


def test_same_query(written):
    assert written["query"] == TRACKED["query"], REGENERATE


@pytest.mark.parametrize("backend", list(TRACKED["backends"]))
@pytest.mark.parametrize("field", ["span_names", "rows", "plan"])
def test_backend_matches_the_tracked_artifact(written, backend, field):
    assert written["backends"][backend][field] == TRACKED["backends"][backend][field], (
        f"{backend} {field} moved; {REGENERATE}"
    )


def test_metric_families_match_the_tracked_artifact(written):
    def families(artifact: dict) -> dict[str, str]:
        return {name: family["type"] for name, family in artifact["metrics"].items()}

    assert families(written) == families(TRACKED), REGENERATE
