"""Mock database generation for the execution experiment (paper Section 6.3).

The paper populates each base table with 10k-1M tuples while ensuring the
relationship ``Φ_rdt(R') = R`` between the induced-schema instance ``R'``
and the target-schema instance ``R``.  This generator produces the *induced*
instance first — node tables then edge tables whose SRC/TGT columns are
drawn from the node keys with configurable fan-out — and derives the target
instance through the residual transformer, so the pair is consistent by
construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.common.values import Value
from repro.core.sdt import SOURCE_ATTRIBUTE, TARGET_ATTRIBUTE, SdtResult, infer_sdt
from repro.graph.schema import GraphSchema
from repro.relational.instance import Database
from repro.relational.schema import RelationalSchema
from repro.transformer.dsl import Transformer
from repro.transformer.semantics import transform_database

_FIRST_NAMES = [
    "Alice", "Bob", "Carol", "Dave", "Erin", "Frank", "Grace", "Heidi",
    "Ivan", "Judy", "Mallory", "Niaj", "Olivia", "Peggy", "Rupert", "Sybil",
]


@dataclass
class MockDataGenerator:
    """Generates consistent (induced, target) instance pairs at scale."""

    graph_schema: GraphSchema
    sdt: SdtResult
    seed: int = 42
    string_pool_size: int = 50
    rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    def induced_instance(self, rows_per_table: int) -> Database:
        """An induced-schema instance with ~*rows_per_table* rows per table."""
        database = Database(self.sdt.schema)
        node_keys: dict[str, list[Value]] = {}
        for node_type in self.graph_schema.node_types:
            table = self.sdt.table_for(node_type.label)
            keys: list[Value] = list(range(1, rows_per_table + 1))
            node_keys[node_type.label] = keys
            for key in keys:
                row: list[Value] = [key]
                for attribute in node_type.keys[1:]:
                    row.append(self._attribute_value(attribute))
                database.insert(table, row)
        for edge_type in self.graph_schema.edge_types:
            table = self.sdt.table_for(edge_type.label)
            sources = node_keys[edge_type.source]
            targets = node_keys[edge_type.target]
            for key in range(1, rows_per_table + 1):
                row = [key]
                for attribute in edge_type.keys[1:]:
                    row.append(self._attribute_value(attribute))
                row.append(self.rng.choice(sources))
                row.append(self.rng.choice(targets))
                database.insert(table, row)
        return database

    def paired_instances(
        self,
        rows_per_table: int,
        residual: Transformer,
        target_schema: RelationalSchema,
    ) -> tuple[Database, Database]:
        """``(R', R)`` with ``Φ_rdt(R') = R`` by construction."""
        induced = self.induced_instance(rows_per_table)
        target = transform_database(residual, induced, target_schema)
        return induced, target

    def _attribute_value(self, attribute: str) -> Value:
        lowered = attribute.lower()
        if "name" in lowered:
            index = self.rng.randrange(self.string_pool_size)
            base = _FIRST_NAMES[index % len(_FIRST_NAMES)]
            return f"{base}{index}"
        return self.rng.randrange(0, max(10, self.string_pool_size))


def build_skewed_database(
    users: int, hubs: int, hub_edges: int, posts: int = 10
) -> Database:
    """A hub-skewed instance of the social universe: *hubs* users own all
    ``FOLLOWS`` fan-out (a dense hub→hub core plus one spoke per remaining
    user), so per-hop fan-out is ``hub_edges/hubs`` while the *mean*
    fan-out the NDV statistics see is only ``edges/users`` — the data
    that mis-plans bounded traversals under uniform statistics."""
    # Imported here: the benchmark-suite package is heavy, and only this
    # generator needs it.
    from repro.benchmarks.universes import SOCIAL

    sdt = infer_sdt(SOCIAL.graph_schema)
    database = Database(sdt.schema)
    user_table = sdt.table_for("USER")
    post_table = sdt.table_for("POST")
    follows = sdt.table_for("FOLLOWS")
    wrote = sdt.table_for("WROTE")
    likes = sdt.table_for("LIKES")
    for uid in range(1, users + 1):
        database.insert(user_table, [uid, f"user{uid}", 20 + uid % 50])
    for pid in range(1, posts + 1):
        database.insert(post_table, [pid, f"post{pid}", pid % 7])
    fid = 0
    for index in range(hub_edges):
        fid += 1
        source = (index % hubs) + 1
        target = ((index * 7 + index // hubs) % hubs) + 1
        database.insert(follows, [fid, source, target])
    for uid in range(hubs + 1, users + 1):
        fid += 1
        database.insert(follows, [fid, uid, (uid % hubs) + 1])
    for pid in range(1, posts + 1):
        database.insert(wrote, [pid, (pid % users) + 1, pid])
        database.insert(likes, [pid, (pid * 3 % users) + 1, pid])
    return database
