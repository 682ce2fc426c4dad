"""Value domain and three-valued logic shared by Cypher and SQL semantics.

Both query languages in the paper evaluate expressions over a common scalar
domain (integers, floats, strings, booleans) extended with ``Null``.  Boolean
predicates follow SQL's three-valued logic (3VL): comparisons involving
``Null`` yield ``Null``, ``AND``/``OR`` absorb in the usual Kleene fashion
(paper Appendix A, "Semantics of predicates").

``Null`` is modelled as a dedicated singleton rather than Python's ``None``
so that accidental propagation of ``None`` from unrelated code is caught
early, and so that ``NULL`` can participate in sorting and hashing with a
well-defined order (it sorts before every other value, matching the bounded
checker's canonicalisation needs).

Two row operations of the reference semantics are defined here, once, for
the Cypher and SQL evaluators and the partition gather alike:
:func:`compare` (the six comparison operators in 3VL) and
:func:`order_rows` (``ORDER BY`` with ``LIMIT``).  DISTINCT, grouping and
the aggregate folds are in :mod:`repro.common.aggregates`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar, Union

from repro.common.errors import SemanticsError


class Null:
    """Singleton marker for SQL/Cypher ``NULL``.

    All instances compare equal to each other and unequal to every scalar.
    Use the module-level :data:`NULL` instance; constructing more is allowed
    (they behave identically) but never necessary.
    """

    _instance: "Null | None" = None

    def __new__(cls) -> "Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Null)

    def __hash__(self) -> int:
        return hash("__graphiti_null__")

    def __bool__(self) -> bool:
        return False


NULL = Null()

#: Scalars a property key or table cell may hold.
Value = Union[int, float, str, bool, Null]

#: Result of a 3VL predicate: True, False, or NULL ("unknown").
Truth = Union[bool, Null]


def is_null(value: object) -> bool:
    """Return ``True`` iff *value* is the ``NULL`` marker."""
    return isinstance(value, Null)


def truth_value(value: object) -> Truth:
    """Coerce an evaluation result into a 3VL truth value.

    Numbers follow SQL's convention: zero is false, non-zero is true.
    """
    if is_null(value):
        return NULL
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise TypeError(f"cannot interpret {value!r} as a truth value")


def sql_and(left: Truth, right: Truth) -> Truth:
    """Kleene conjunction: ``FALSE AND NULL = FALSE``."""
    if left is False or right is False:
        return False
    if is_null(left) or is_null(right):
        return NULL
    return True


def sql_or(left: Truth, right: Truth) -> Truth:
    """Kleene disjunction: ``TRUE OR NULL = TRUE``."""
    if left is True or right is True:
        return True
    if is_null(left) or is_null(right):
        return NULL
    return False


def sql_not(operand: Truth) -> Truth:
    """Kleene negation: ``NOT NULL = NULL``."""
    if is_null(operand):
        return NULL
    return not operand


def value_eq(left: Value, right: Value) -> Truth:
    """3VL equality: ``NULL = anything`` is ``NULL``."""
    if is_null(left) or is_null(right):
        return NULL
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if _comparable(left, right):
        return left == right
    return left == right if type(left) is type(right) else False


def value_lt(left: Value, right: Value) -> Truth:
    """3VL less-than.  Mixed numeric types compare numerically; ordering
    values from different domains raises a catchable
    :class:`~repro.common.errors.SemanticsError`."""
    if is_null(left) or is_null(right):
        return NULL
    if _comparable(left, right):
        return left < right  # type: ignore[operator]
    raise SemanticsError(f"cannot order {left!r} and {right!r}")


def compare(op: str, left: Value, right: Value) -> Truth:
    """3VL ``left op right`` for the comparison operators of both languages:
    ``=``, ``<>``, ``<``, ``>``, ``<=`` and ``>=``."""
    if op == "=":
        return value_eq(left, right)
    if op == "<>":
        return sql_not(value_eq(left, right))
    if op == "<":
        return value_lt(left, right)
    if op == ">":
        return value_lt(right, left)
    if op == "<=":
        return sql_or(value_lt(left, right), value_eq(left, right))
    if op == ">=":
        return sql_or(value_lt(right, left), value_eq(left, right))
    raise SemanticsError(f"unknown comparison operator {op!r}")


def _comparable(left: Value, right: Value) -> bool:
    """Whether two non-null scalars live in the same ordered domain."""
    numeric = (int, float)
    if isinstance(left, numeric) and isinstance(right, numeric):
        return True
    return isinstance(left, str) and isinstance(right, str)


def sort_key(value: Value) -> tuple:
    """Total order over the value domain, used for canonicalisation.

    ``NULL`` sorts first, then booleans, then numbers, then strings.  The
    order is arbitrary but fixed, which is all the bounded checker and
    ``ORDER BY`` tie-breaking need.
    """
    if is_null(value):
        return (0, "")
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, value)


class _Descending:
    """A :func:`sort_key` with its order inverted, so one ascending sort
    serves DESC keys.

    ``__eq__`` is needed: tuple comparison skips the elements that are equal
    before it orders one, so without it a tied DESC key would stop the
    comparison and hide every key after it.
    """

    __slots__ = ("key",)

    def __init__(self, key: tuple) -> None:
        self.key = key

    def __lt__(self, other: "_Descending") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and self.key == other.key


T = TypeVar("T")


def order_rows(
    rows: Iterable[T],
    keys: Callable[[T], Iterable[Value]],
    ascending: Sequence[bool],
    limit: int | None,
) -> list[T]:
    """``ORDER BY ... LIMIT``: *rows* sorted by the values ``keys(row)``,
    one direction per key in *ascending*, then cut to the first *limit*.

    Keys compare by :func:`sort_key`, so ``NULL`` sorts first ascending and
    last descending, and equal numbers tie whatever their type.  The sort
    is stable: rows whose keys all tie keep their input order.
    """

    def directed(row: T) -> tuple:
        return tuple(
            sort_key(value) if up else _Descending(sort_key(value))
            for value, up in zip(keys(row), ascending)
        )

    ordered = sorted(rows, key=directed)
    return ordered if limit is None else ordered[:limit]
