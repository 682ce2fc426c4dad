"""Aggregate combination shared by the Cypher and SQL evaluators.

The paper gives one definition of ``Count/Sum/Avg/Min/Max`` (Appendix A) and
relies on the SQL side (VeriEQL's semantics) matching it.  Keeping a single
implementation here guarantees the two reference evaluators in this library
agree by construction — which Theorem 5.7 (soundness of transpilation)
depends on.

Paper quirks faithfully preserved:

* an aggregate over a group whose argument is NULL on **every** row yields
  NULL (including ``Count``, which standard SQL would report as 0);
* ``Avg = Sum / Count`` with true division.

The Cypher and SQL evaluators and the partition gather share three
operations from here: :func:`combine` (the aggregate folds, which the
gather also applies to per-partition partials), :func:`dedup`
(first-occurrence ``DISTINCT``) and :func:`group_by` (first-seen
grouping).  Comparison and ``ORDER BY`` are in :mod:`repro.common.values`.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, TypeVar

from repro.common.values import NULL, Value, is_null

T = TypeVar("T")


def combine(function: str, values: Iterable[Value], distinct: bool = False) -> Value:
    """Fold *values* (one per group member) with aggregate *function*.

    Type-incompatible inputs (e.g. ``SUM`` over strings mixed with numbers)
    raise :class:`~repro.common.errors.SemanticsError`, which the bounded
    checker treats as "skip this instance" — mirroring how an SMT backend
    would never construct ill-typed instances in the first place.
    """
    from repro.common.errors import SemanticsError

    collected = list(values)
    if all(is_null(v) for v in collected):
        return NULL
    non_null = [v for v in collected if not is_null(v)]
    if distinct:
        non_null = dedup(non_null)
    try:
        if function == "Count":
            return len(non_null)
        if function == "Sum":
            return _sum(non_null)
        if function == "Avg":
            total = _sum(non_null)
            if is_null(total):
                return NULL
            return total / len(non_null)
        if function == "Min":
            return min(non_null)
        if function == "Max":
            return max(non_null)
    except TypeError as error:
        raise SemanticsError(f"{function} over incompatible values: {error}") from None
    raise ValueError(f"unknown aggregate function {function!r}")


def count_rows(row_count: int) -> Value:
    """``Count(*)`` — counts rows regardless of NULLs; 0 stays 0."""
    return row_count


def _sum(values: list[Value]) -> Value:
    total: Value = 0
    for value in values:
        total += value  # type: ignore[operator]
    return total


def dedup(items: Iterable[T]) -> list[T]:
    """First-occurrence ``DISTINCT``: *items* in input order, each kept at
    its first occurrence only (``NULL`` equals ``NULL`` here)."""
    return list(dict.fromkeys(items))


def group_by(
    items: Iterable[T], key: Callable[[T], Hashable]
) -> dict[Hashable, list[T]]:
    """First-seen grouping: *items* partitioned by ``key(item)``, with the
    groups in the order their first members appear and each group's members
    in input order.  ``NULL`` groups with ``NULL``, as in SQL's GROUP BY."""
    groups: dict[Hashable, list[T]] = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups
