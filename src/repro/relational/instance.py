"""Relational database instances and table equivalence.

Tables are *bags* of rows over a fixed attribute list (Definition 3.6).
:func:`tables_equivalent` implements Definition 4.4: two tables are
equivalent iff some bijection between their columns makes their row bags
coincide.  A footnote in the paper refines this for ``ORDER BY`` results,
where row order matters — :func:`tables_equivalent_ordered`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.common.aggregates import dedup
from repro.common.errors import SchemaError, SemanticsError
from repro.common.values import Value, is_null
from repro.relational.schema import RelationalSchema

#: One tuple of a relation: values aligned with the table's attribute list.
Row = tuple[Value, ...]


@dataclass
class Table:
    """A bag of rows with a fixed, ordered attribute list.

    ``ordered`` marks results of ``ORDER BY``, switching Definition 4.4's
    bag comparison to the footnote's list comparison.
    """

    attributes: tuple[str, ...]
    rows: list[Row] = field(default_factory=list)
    ordered: bool = False

    def __post_init__(self) -> None:
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(f"table has duplicate attributes: {self.attributes}")
        for row in self.rows:
            if len(row) != len(self.attributes):
                raise SchemaError(
                    f"row arity {len(row)} does not match attributes {self.attributes}"
                )

    @classmethod
    def of(
        cls,
        attributes: Sequence[str],
        rows: Iterable[Sequence[Value]] = (),
        ordered: bool = False,
    ) -> "Table":
        return cls(tuple(attributes), [tuple(row) for row in rows], ordered)

    # -- access ------------------------------------------------------------

    def column_index(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise SchemaError(
                f"table has no attribute {attribute!r} (has {self.attributes})"
            ) from None

    def column(self, attribute: str) -> list[Value]:
        index = self.column_index(attribute)
        return [row[index] for row in self.rows]

    def value(self, row: Row, attribute: str) -> Value:
        """``r.a`` — the value stored at *attribute* of *row*."""
        return row[self.column_index(attribute)]

    def union(self, other: "Table", distinct: bool) -> "Table":
        """``UNION ALL`` of two tables of one arity, or ``UNION`` (first
        occurrences only) when *distinct*; the columns take *self*'s names."""
        width, other_width = len(self.attributes), len(other.attributes)
        if width != other_width:
            raise SemanticsError(f"union arity mismatch: {width} vs {other_width}")
        rows = self.rows + other.rows
        return Table(self.attributes, dedup(rows) if distinct else rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def as_dicts(self) -> list[dict[str, Value]]:
        """Rows as attribute→value dictionaries (handy in tests)."""
        return [dict(zip(self.attributes, row)) for row in self.rows]

    def __str__(self) -> str:
        header = " | ".join(self.attributes)
        separator = "-" * len(header)
        body = "\n".join(" | ".join(repr(v) for v in row) for row in self.rows)
        return f"{header}\n{separator}\n{body}" if body else f"{header}\n{separator}\n(empty)"


class Database:
    """A relational database instance: relation name → :class:`Table`."""

    def __init__(self, schema: RelationalSchema, tables: dict[str, Table] | None = None) -> None:
        self.schema = schema
        self.tables: dict[str, Table] = {}
        for relation in schema.relations:
            self.tables[relation.name] = Table(relation.attributes)
        if tables:
            for name, table in tables.items():
                self.set_table(name, table)

    @classmethod
    def of(cls, schema: RelationalSchema, **rows: Iterable[Sequence[Value]]) -> "Database":
        """Build an instance giving each relation its rows by keyword."""
        database = cls(schema)
        for name, relation_rows in rows.items():
            for row in relation_rows:
                database.insert(name, row)
        return database

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"database has no table {name!r}") from None

    def set_table(self, name: str, table: Table) -> None:
        relation = self.schema.relation(name)
        if table.attributes != relation.attributes:
            raise SchemaError(
                f"table attributes {table.attributes} do not match schema "
                f"relation {relation}"
            )
        self.tables[name] = table

    def insert(self, name: str, row: Sequence[Value]) -> None:
        relation = self.schema.relation(name)
        if len(row) != len(relation.attributes):
            raise SchemaError(
                f"row arity {len(row)} does not match relation {relation}"
            )
        self.tables[name].rows.append(tuple(row))

    # -- integrity ---------------------------------------------------------

    def satisfies_constraints(self) -> bool:
        """Whether the instance satisfies every constraint in ``ξ``."""
        return self.constraint_violation() is None

    def constraint_violation(self) -> str | None:
        """Describe the first violated integrity constraint, or ``None``."""
        constraints = self.schema.constraints
        for pk in constraints.primary_keys:
            table = self.table(pk.relation)
            seen: set[Value] = set()
            for row in table:
                value = table.value(row, pk.attribute)
                if is_null(value):
                    return f"{pk}: NULL key value"
                if value in seen:
                    return f"{pk}: duplicate key value {value!r}"
                seen.add(value)
        for fk in constraints.foreign_keys:
            table = self.table(fk.relation)
            referenced = self.table(fk.referenced)
            targets = {
                referenced.value(row, fk.referenced_attribute) for row in referenced
            }
            for row in table:
                value = table.value(row, fk.attribute)
                if is_null(value):
                    continue
                if value not in targets:
                    return f"{fk}: dangling value {value!r}"
        for nn in constraints.not_nulls:
            table = self.table(nn.relation)
            for row in table:
                if is_null(table.value(row, nn.attribute)):
                    return f"{nn}: NULL value present"
        return None

    def total_rows(self) -> int:
        return sum(len(table) for table in self.tables.values())

    def __str__(self) -> str:
        chunks = []
        for name, table in self.tables.items():
            chunks.append(f"== {name} ==\n{table}")
        return "\n".join(chunks)


# ---------------------------------------------------------------------------
# Table equivalence (Definition 4.4)
# ---------------------------------------------------------------------------


def tables_equivalent(left: Table, right: Table) -> bool:
    """Definition 4.4: equivalence modulo a bijective column mapping.

    The bijection search is pruned by matching per-column value multisets —
    a column can only map to a column with the same bag of values — and the
    candidate mappings are verified against the full row bags.
    """
    if left.ordered or right.ordered:
        return tables_equivalent_ordered(left, right)
    if len(left.attributes) != len(right.attributes):
        return False
    if len(left.rows) != len(right.rows):
        return False
    for permutation in _candidate_column_mappings(left, right):
        if _row_bags_match(left.rows, right.rows, permutation):
            return True
    return False


def tables_equivalent_ordered(left: Table, right: Table) -> bool:
    """Footnote-4 variant: rows must match pairwise *at the same index*."""
    if len(left.attributes) != len(right.attributes):
        return False
    if len(left.rows) != len(right.rows):
        return False
    for permutation in _candidate_column_mappings(left, right):
        if all(
            _permute(right_row, permutation) == left_row
            for left_row, right_row in zip(left.rows, right.rows)
        ):
            return True
    return False


def _candidate_column_mappings(left: Table, right: Table) -> Iterator[tuple[int, ...]]:
    """Yield injective column mappings consistent with per-column value bags.

    A yielded mapping ``m`` sends left column ``i`` to right column ``m[i]``.
    """
    width = len(left.attributes)
    left_signatures = [Counter(row[i] for row in left.rows) for i in range(width)]
    right_signatures = [Counter(row[j] for row in right.rows) for j in range(width)]
    candidates: list[list[int]] = []
    for i in range(width):
        matching = [j for j in range(width) if right_signatures[j] == left_signatures[i]]
        if not matching:
            return
        candidates.append(matching)

    def backtrack(position: int, used: set[int], chosen: list[int]) -> Iterator[tuple[int, ...]]:
        if position == width:
            yield tuple(chosen)
            return
        for j in candidates[position]:
            if j in used:
                continue
            used.add(j)
            chosen.append(j)
            yield from backtrack(position + 1, used, chosen)
            chosen.pop()
            used.remove(j)

    yield from backtrack(0, set(), [])


def _permute(row: Row, mapping: tuple[int, ...]) -> Row:
    """Reorder *row* (a right-table row) into left-table column order."""
    return tuple(row[mapping[i]] for i in range(len(mapping)))


def _row_bags_match(
    left_rows: list[Row], right_rows: list[Row], mapping: tuple[int, ...]
) -> bool:
    permuted = Counter(_permute(row, mapping) for row in right_rows)
    return Counter(left_rows) == permuted
