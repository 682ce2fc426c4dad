"""Experiment-runner harness: the table generators produce paper-shaped rows."""

import pytest

from repro.benchmarks.evaluation import (
    classify_baseline,
    table1_statistics,
    table3_deductive,
    table5_baseline,
    transpilation_speed,
)
from repro.benchmarks.suite import benchmark_suite


class TestTable1:
    def test_rows_cover_categories_plus_total(self):
        rows = table1_statistics()
        assert [r.dataset for r in rows] == [
            "StackOverflow", "Tutorial", "Academic", "VeriEQL", "Mediator",
            "GPT-Translate", "Total",
        ]

    def test_total_counts_410(self):
        assert table1_statistics()[-1].count == 410

    def test_formatting(self):
        text = table1_statistics()[0].format()
        assert "SQL[" in text and "Cypher[" in text

    def test_formatted_rows_are_pinned(self):
        # AST sizes are the Table-1 metric; a walk that misses or double
        # counts a node moves these figures.
        assert [row.format() for row in table1_statistics()] == [
            "StackOverflow     12  SQL[15-33 avg 24.2 med 24]  "
            "Cypher[16-29 avg 19.9 med 19]  Transformer[2-5 avg 3.7 med 3]",
            "Tutorial          26  SQL[15-37 avg 25.1 med 24]  "
            "Cypher[16-36 avg 20.3 med 19]  Transformer[2-5 avg 3.9 med 4]",
            "Academic           7  SQL[15-50 avg 30.3 med 24]  "
            "Cypher[16-47 avg 25.6 med 19]  Transformer[2-5 avg 3.4 med 3]",
            "VeriEQL           60  SQL[15-50 avg 24.9 med 23]  "
            "Cypher[16-40 avg 19.9 med 19]  Transformer[2-5 avg 4.0 med 5]",
            "Mediator         100  SQL[12-49 avg 31.3 med 37]  "
            "Cypher[17-37 avg 27.0 med 29]  Transformer[2-5 avg 4.0 med 5]",
            "GPT-Translate    205  SQL[12-50 avg 26.8 med 25]  "
            "Cypher[15-40 avg 20.9 med 19]  Transformer[2-5 avg 4.1 med 5]",
            "Total            410  SQL[12-50 avg 27.5 med 24]  "
            "Cypher[15-47 avg 22.3 med 19]  Transformer[2-5 avg 4.0 med 5]",
        ]


class TestTable3:
    def test_matches_paper_totals(self):
        rows = {r.dataset: r for r in table3_deductive(time_budget_seconds=5.0)}
        assert rows["Total"].supported == 196
        assert rows["Total"].verified == 152
        assert rows["Total"].unknown == 44

    def test_verification_rate_near_paper(self):
        rows = {r.dataset: r for r in table3_deductive(time_budget_seconds=5.0)}
        rate = rows["Total"].verified / rows["Total"].supported
        assert abs(rate - 0.776) < 0.02


class TestTable5:
    def test_matches_paper_totals(self):
        rows = {r.dataset: r for r in table5_baseline(differential_samples=25)}
        assert rows["Total"].unsupported == 284
        assert rows["Total"].syntax_errors == 2
        assert rows["Total"].incorrect == 2
        assert rows["Total"].correct == 122

    def test_classify_single_benchmark(self):
        motivating = next(
            b for b in benchmark_suite() if b.id == "academic/motivating"
        )
        # The WITH pipeline is outside the baseline's fragment.
        assert classify_baseline(motivating, samples=5, seed=1) == "unsupported"


class TestTranspilationSpeed:
    def test_covers_all_queries_quickly(self):
        stats = transpilation_speed()
        assert stats.count == 410
        assert stats.avg_ms < 50
        assert stats.median_ms <= stats.max_ms
