"""Aggregate combination semantics (paper Appendix A quirks included)."""

import pytest

from repro.common.aggregates import combine, count_rows, dedup, group_by
from repro.common.values import NULL, is_null


class TestCount:
    def test_counts_non_null(self):
        assert combine("Count", [1, NULL, 2]) == 2

    def test_all_null_yields_null(self):
        # Paper Appendix A: an all-NULL argument column aggregates to NULL
        # (standard SQL would say 0 — the paper's semantics is what both
        # reference evaluators must share).
        assert is_null(combine("Count", [NULL, NULL]))

    def test_empty_group_yields_null(self):
        assert is_null(combine("Count", []))

    def test_distinct(self):
        assert combine("Count", [1, 1, 2], distinct=True) == 2

    def test_count_rows(self):
        assert count_rows(0) == 0
        assert count_rows(5) == 5


class TestSum:
    def test_sums_non_null(self):
        assert combine("Sum", [1, 2, NULL, 3]) == 6

    def test_all_null(self):
        assert is_null(combine("Sum", [NULL]))

    def test_distinct_sums_unique(self):
        assert combine("Sum", [2, 2, 3], distinct=True) == 5


class TestAvg:
    def test_avg_ignores_nulls(self):
        assert combine("Avg", [2, 4, NULL]) == 3.0

    def test_avg_true_division(self):
        assert combine("Avg", [1, 2]) == 1.5


class TestMinMax:
    def test_min(self):
        assert combine("Min", [3, NULL, 1]) == 1

    def test_max(self):
        assert combine("Max", [3, NULL, 1]) == 3

    def test_min_strings(self):
        assert combine("Min", ["b", "a"]) == "a"


def test_unknown_function_rejected():
    with pytest.raises(ValueError):
        combine("Median", [1])


def test_dedup_keeps_first_occurrences_in_order():
    assert dedup([3, 1, 3, NULL, 2, 1, NULL]) == [3, 1, NULL, 2]
    assert dedup([(1, NULL), (2, 0), (1, NULL)]) == [(1, NULL), (2, 0)]


def test_group_by_keeps_first_seen_group_order():
    rows = [("b", 1), ("a", 2), ("b", 3), (NULL, 4), ("a", 5), (NULL, 6)]
    groups = group_by(rows, lambda row: row[0])
    assert list(groups) == ["b", "a", NULL]
    assert groups["b"] == [("b", 1), ("b", 3)]
    assert groups[NULL] == [(NULL, 4), (NULL, 6)]
