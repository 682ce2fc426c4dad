"""Randomised instance generation for the bounded model checker.

The checker explores the space of induced-schema instances bounded by a
maximum per-table row count.  Generation respects the integrity constraints
``ξ`` (primary keys unique and non-null, foreign keys drawn from referenced
columns, not-null attributes non-null) so every sample is a legal instance —
i.e. the image of some property graph under the SDT.

Two ingredients matter for refutation power (they play the role VeriEQL's
SMT solver plays in the paper):

* **constant seeding** — literals appearing in either query or in the
  transformer are injected into the value domains of the attributes they are
  compared against, so selective predicates like ``CID = 1`` are exercised;
* **small domains** — values are drawn from a domain barely larger than the
  table bound, forcing joins to collide and fan-in/fan-out shapes (multiple
  edges sharing an endpoint) to appear, which is exactly the shape of the
  motivating example's double-counting bug.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.common.values import NULL, Value
from repro.relational.instance import Database
from repro.relational.schema import RelationalSchema
from repro.sql import ast as sq
from repro.sql.analysis import iter_nodes
from repro.transformer.dsl import Constant, Transformer

#: Attribute-name (local, unqualified) → constants compared against it.
ConstantSeeds = dict[str, set[Value]]


def collect_constant_seeds(
    queries: list[sq.Query], transformers: list[Transformer]
) -> ConstantSeeds:
    """Harvest literals that flow into comparisons with attributes, anywhere
    in *queries*: subquery bodies and recursive CTEs included."""
    seeds: ConstantSeeds = {}

    def note(attribute: str, value: Value) -> None:
        local = sq.local_name(attribute)
        # Flattened names like ``c1_CID`` should also seed ``CID``.
        if "_" in local:
            suffix = local.rsplit("_", 1)[-1]
            seeds.setdefault(suffix, set()).add(value)
        seeds.setdefault(local, set()).add(value)

    for query in queries:
        for node in iter_nodes(query):
            if isinstance(node, sq.Comparison):
                if isinstance(node.left, sq.AttributeRef) and isinstance(
                    node.right, sq.Literal
                ):
                    note(node.left.name, node.right.value)
                if isinstance(node.right, sq.AttributeRef) and isinstance(
                    node.left, sq.Literal
                ):
                    note(node.right.name, node.left.value)
            elif isinstance(node, sq.InValues):
                if isinstance(node.operand, sq.AttributeRef):
                    for value in node.values:
                        note(node.operand.name, value)
            elif isinstance(node, sq.BinaryOp):
                # Literals inside arithmetic (e.g. ``DeptNo + 5``) matter for
                # counterexamples even though they face no attribute directly.
                for side in (node.left, node.right):
                    if isinstance(side, sq.Literal):
                        seeds.setdefault("", set()).add(side.value)
    for transformer in transformers:
        for rule in transformer:
            for atom in (*rule.body, rule.head):
                for position, term in enumerate(atom.terms):
                    if isinstance(term, Constant):
                        seeds.setdefault(atom.name, set())  # keep name known
                        # Without schema positions we cannot name the attribute,
                        # so seed the global pool via the empty key.
                        seeds.setdefault("", set()).add(term.value)
    return seeds


@dataclass
class InstanceGenerator:
    """Draws random legal instances of *schema* with ≤ *bound* rows/table."""

    schema: RelationalSchema
    seeds: ConstantSeeds = field(default_factory=dict)
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    null_probability: float = 0.15

    def __post_init__(self) -> None:
        # Constants compared against *any* attribute also seed every other
        # attribute's pool: cross-attribute joins against a constant (the
        # paper's Figure-23 counterexample joins EmpNo to DeptNo at 10)
        # are otherwise unreachable with tiny domains.
        self._global_pool: list[Value] = sorted(
            {value for values in self.seeds.values() for value in values},
            key=repr,
        )

    def random_instance(self, bound: int) -> Database:
        database = Database(self.schema)
        for relation in self._topological_relations():
            pk_attr = self.schema.constraints.primary_key_of(relation.name)
            row_count = self.rng.randint(0, bound)
            pk_pool = self._key_pool(relation.name, pk_attr, bound)
            rows_added = 0
            for _ in range(row_count):
                row = self._random_row(database, relation.name, pk_attr, pk_pool, bound)
                if row is None:
                    break
                database.insert(relation.name, row)
                rows_added += 1
        return database

    # -- internals -----------------------------------------------------------

    def _topological_relations(self):
        """Relations ordered so FK targets are populated before referrers."""
        remaining = list(self.schema.relations)
        ordered = []
        placed: set[str] = set()
        while remaining:
            progressed = False
            for relation in list(remaining):
                fks = self.schema.constraints.foreign_keys_of(relation.name)
                if all(fk.referenced in placed or fk.referenced == relation.name for fk in fks):
                    ordered.append(relation)
                    placed.add(relation.name)
                    remaining.remove(relation)
                    progressed = True
            if not progressed:  # FK cycle: emit the rest in declaration order
                ordered.extend(remaining)
                break
        return ordered

    def _key_pool(self, relation: str, pk_attr: str | None, bound: int) -> list[Value]:
        pool: list[Value] = list(range(0, bound + 2))
        if pk_attr is not None:
            pool.extend(self.seeds.get(pk_attr, ()))
        pool.extend(v for v in self._global_pool if isinstance(v, int))
        pool = list(dict.fromkeys(pool))
        self.rng.shuffle(pool)
        return pool

    def _random_row(
        self,
        database: Database,
        relation_name: str,
        pk_attr: str | None,
        pk_pool: list[Value],
        bound: int,
    ):
        relation = self.schema.relation(relation_name)
        constraints = self.schema.constraints
        fks = {fk.attribute: fk for fk in constraints.foreign_keys_of(relation_name)}
        not_null = {
            nn.attribute for nn in constraints.not_nulls if nn.relation == relation_name
        }
        row: list[Value] = []
        for attribute in relation.attributes:
            if attribute == pk_attr:
                if not pk_pool:
                    return None
                row.append(pk_pool.pop())
            elif attribute in fks:
                fk = fks[attribute]
                referenced = database.table(fk.referenced)
                candidates = [
                    referenced.value(r, fk.referenced_attribute) for r in referenced
                ]
                if not candidates:
                    if attribute in not_null:
                        return None
                    row.append(NULL)
                else:
                    row.append(self.rng.choice(candidates))
            else:
                row.append(self._random_value(attribute, bound, attribute in not_null))
        return tuple(row)

    def _random_value(self, attribute: str, bound: int, must_not_be_null: bool) -> Value:
        if not must_not_be_null and self.rng.random() < self.null_probability:
            return NULL
        pool: list[Value] = list(range(0, bound + 2))
        pool.extend(self.seeds.get(attribute, ()))
        pool.extend(self._global_pool)
        return self.rng.choice(pool)
