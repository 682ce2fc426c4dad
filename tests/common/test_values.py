"""Three-valued logic and value-domain unit tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.values import (
    NULL,
    Null,
    is_null,
    order_rows,
    sort_key,
    sql_and,
    sql_not,
    sql_or,
    truth_value,
    value_eq,
    value_lt,
)

TRUTHS = [True, False, NULL]


class TestNullSingleton:
    def test_null_equals_null(self):
        assert NULL == Null()

    def test_null_not_equal_to_scalars(self):
        for scalar in (0, "", False, 0.0):
            assert NULL != scalar

    def test_null_is_falsy(self):
        assert not NULL

    def test_null_hash_is_stable(self):
        assert hash(NULL) == hash(Null())

    def test_is_null(self):
        assert is_null(NULL)
        assert not is_null(None)
        assert not is_null(0)


class TestKleeneLogic:
    def test_and_truth_table(self):
        assert sql_and(True, True) is True
        assert sql_and(True, False) is False
        assert sql_and(False, NULL) is False
        assert sql_and(NULL, False) is False
        assert is_null(sql_and(True, NULL))
        assert is_null(sql_and(NULL, NULL))

    def test_or_truth_table(self):
        assert sql_or(False, False) is False
        assert sql_or(True, NULL) is True
        assert sql_or(NULL, True) is True
        assert is_null(sql_or(False, NULL))
        assert is_null(sql_or(NULL, NULL))

    def test_not_truth_table(self):
        assert sql_not(True) is False
        assert sql_not(False) is True
        assert is_null(sql_not(NULL))

    @given(st.sampled_from(TRUTHS), st.sampled_from(TRUTHS))
    def test_de_morgan(self, a, b):
        assert sql_not(sql_and(a, b)) == sql_or(sql_not(a), sql_not(b))

    @given(st.sampled_from(TRUTHS), st.sampled_from(TRUTHS))
    def test_commutativity(self, a, b):
        assert sql_and(a, b) == sql_and(b, a)
        assert sql_or(a, b) == sql_or(b, a)


class TestComparisons:
    def test_eq_null_propagates(self):
        assert is_null(value_eq(NULL, 1))
        assert is_null(value_eq(1, NULL))
        assert is_null(value_eq(NULL, NULL))

    def test_eq_scalars(self):
        assert value_eq(1, 1) is True
        assert value_eq(1, 2) is False
        assert value_eq("a", "a") is True

    def test_eq_mixed_numeric(self):
        assert value_eq(1, 1.0) is True

    def test_bool_not_equal_to_int(self):
        assert value_eq(True, 1) is False

    def test_lt_null_propagates(self):
        assert is_null(value_lt(NULL, 1))

    def test_lt_scalars(self):
        assert value_lt(1, 2) is True
        assert value_lt(2, 1) is False
        assert value_lt("a", "b") is True

    def test_lt_incomparable_raises(self):
        from repro.common.errors import SemanticsError

        with pytest.raises(SemanticsError):
            value_lt(1, "a")


class TestTruthValue:
    def test_numbers(self):
        assert truth_value(0) is False
        assert truth_value(3) is True

    def test_null(self):
        assert is_null(truth_value(NULL))

    def test_rejects_strings(self):
        with pytest.raises(TypeError):
            truth_value("yes")


class TestSortKey:
    def test_null_sorts_first(self):
        values = [3, NULL, "a", True, 1.5]
        ordered = sorted(values, key=sort_key)
        assert is_null(ordered[0])

    def test_strings_after_numbers(self):
        assert sort_key(5) < sort_key("a")

    def test_total_order_is_consistent(self):
        values = [NULL, False, True, -1, 0, 2.5, "x", "y"]
        ordered = sorted(values, key=sort_key)
        assert sorted(ordered, key=sort_key) == ordered


class TestOrderRows:
    """``ORDER BY ... LIMIT`` as both evaluators and the gather apply it."""

    @staticmethod
    def order(rows, ascending, limit=None):
        return order_rows(rows, lambda row: row, ascending, limit)

    def test_tied_desc_key_then_asc_key(self):
        rows = [(1, 3), (2, 9), (1, 1), (1, 2)]
        assert self.order(rows, (False, True)) == [(2, 9), (1, 1), (1, 2), (1, 3)]

    def test_tied_desc_key_then_desc_key(self):
        rows = [(1, 1), (2, 9), (1, 3), (1, 2)]
        assert self.order(rows, (False, False)) == [(2, 9), (1, 3), (1, 2), (1, 1)]

    def test_null_first_ascending_last_descending(self):
        rows = [(2,), (NULL,), (1,)]
        assert self.order(rows, (True,)) == [(NULL,), (1,), (2,)]
        assert self.order(rows, (False,)) == [(2,), (1,), (NULL,)]

    @pytest.mark.parametrize("ascending", [True, False])
    def test_equal_int_and_float_tie(self, ascending):
        rows = [(1.0, "a"), (1, "b")]
        ordered = order_rows(rows, lambda row: row[:1], (ascending,), None)
        assert ordered == rows  # tied, so the stable sort keeps input order

    def test_limit(self):
        rows = [(3,), (1,), (2,)]
        assert self.order(rows, (True,), limit=2) == [(1,), (2,)]
        assert self.order(rows, (True,), limit=0) == []
