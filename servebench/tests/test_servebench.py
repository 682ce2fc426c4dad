"""Tests of the serving benchmark itself.

Run from the repository root with ``python3 -m pytest servebench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.backends.faults import injected_faults
from repro.backends.service import stats_digest
from repro.sql.stats import collect_stats

from harness import end_to_end_run, new_service
from workloads import COLD_TEXTS, POINT_TEXTS, ROWS_PER_TABLE, WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "servebench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def dataset_digest(seed: int) -> str:
    service = new_service("sqlite-memory", ROWS_PER_TABLE, seed)
    try:
        return stats_digest(collect_stats(service.database))
    finally:
        service.close()


class TestSeeds:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_same_seed_same_texts(self, name):
        workload = WORKLOADS[name]
        assert workload.texts(7) == workload.texts(7)
        assert workload.gate_texts(7) == workload.gate_texts(7)

    def test_seed_drives_literals(self):
        assert WORKLOADS["point-hot"].texts(1) != WORKLOADS["point-hot"].texts(2)
        assert WORKLOADS["cold-stream"].texts(1) != WORKLOADS["cold-stream"].texts(2)

    def test_same_seed_same_dataset(self):
        assert dataset_digest(3) == dataset_digest(3)
        assert dataset_digest(3) != dataset_digest(4)

    def test_texts_have_the_claimed_shape(self):
        point = WORKLOADS["point-hot"].texts(5)
        assert len(set(point)) == POINT_TEXTS
        assert WORKLOADS["point-async"].texts(5) == point
        cold = WORKLOADS["cold-stream"].texts(5)
        assert len(set(cold)) == COLD_TEXTS


class TestSpecification:
    def test_workloads_match_benchmark_json(self):
        declared = {entry["name"]: entry["why"] for entry in SPEC["workloads"]}
        assert declared == {name: w.why for name, w in WORKLOADS.items()}

    def test_end_to_end_metrics_print_by_name_and_unit(self):
        done = run_cli("--workload", "point-hot", "--seed", "3", "--seconds", "0.3")
        assert done.returncode == 0, done.stderr
        self.assert_reports(done.stdout, SPEC["end_to_end"])

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_per_layer_metrics_print_by_name_and_unit(self, name):
        done = run_cli(
            "--workload", name, "--seed", "3", "--seconds", "0.6", "--trace", "1"
        )
        assert done.returncode == 0, done.stderr
        metrics = self.assert_reports(done.stdout, SPEC["per_layer"])
        prepare_layers = [
            metrics[f"{layer}_us"]["value"]
            for layer in ("cypher.parse", "core.transpile", "sql.optimize", "sql.render")
        ]
        if name == "cold-stream":
            assert all(value > 0 for value in prepare_layers)
        else:
            assert prepare_layers == [0.0] * 4
        assert (metrics["async.self_us"]["value"] != 0.0) == (name == "point-async")

    @staticmethod
    def assert_reports(stdout: str, declared: list[dict]) -> dict:
        lines = stdout.strip().splitlines()
        document = json.loads(lines[-1])
        assert set(document) == {"correct", "attempted", "failed", "metrics"}
        assert document["correct"] is True
        assert document["failed"] == 0 and document["attempted"] >= 1
        metrics = document["metrics"]
        assert set(metrics) == {entry["name"] for entry in declared}
        for entry in declared:
            assert metrics[entry["name"]]["unit"] == entry["unit"]
            value = metrics[entry["name"]]["value"]
            assert f"{entry['name']} {value:.6g} {entry['unit']}" in lines
        return metrics


class TestErrorRate:
    def test_injected_errors_count_as_failed_operations(self):
        with injected_faults(error_on_executes=tuple(range(120, 10**6, 37))) as plan:
            tally, metrics, details = end_to_end_run(
                WORKLOADS["point-hot"], seed=2, seconds=0.5,
                backend="faulty", setup_repeats=1,
            )
        injected = sum(1 for kind, _ in plan.events if kind == "error")
        assert injected > 0
        assert tally.failed == injected
        assert metrics["success_rate"][0] == pytest.approx(
            1.0 - injected / tally.attempted
        )
        assert details["latency_samples"] <= tally.attempted


class TestMissingProgram:
    def test_exits_nonzero_without_a_result(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(
            BENCH, tmp_path / "servebench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        done = run_cli(
            "--workload", "point-hot", "--seed", "1", "--seconds", "1", cwd=tmp_path
        )
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
