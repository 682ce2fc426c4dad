"""Benchmark and universe data structures.

A *universe* bundles a graph schema, a target relational schema, the
database transformer connecting them, and enough naming metadata to render
SQL text for a path through the graph (either via an edge table or via a
foreign-key column folded into the source node's table).

A *benchmark* is one (Cypher, SQL, transformer) triple with its ground
truth (equivalent or planted-bug class) and feature tags used by the
experiment harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.cypher import ast as cy
from repro.cypher.parser import parse_cypher
from repro.graph.schema import GraphSchema
from repro.relational.schema import (
    ForeignKey,
    IntegrityConstraints,
    NotNull,
    PrimaryKey,
    RelationalSchema,
)
from repro.sql import ast as sq
from repro.sql.parser import parse_sql
from repro.transformer.dsl import Transformer
from repro.transformer.parser import parse_transformer


@dataclass(frozen=True)
class NodeMap:
    """How a node label appears in the target relational schema."""

    label: str
    table: str
    columns: dict[str, str]  # property key → column name

    def column(self, key: str) -> str:
        return self.columns[key]


@dataclass(frozen=True)
class EdgeTableMap:
    """An edge label stored as its own table with SRC/TGT columns."""

    label: str
    table: str
    columns: dict[str, str]  # property key → column name
    src_column: str
    tgt_column: str


@dataclass(frozen=True)
class MergedEdgeMap:
    """An edge label folded into one endpoint's table as a FK column.

    ``fk_side`` names the endpoint whose table carries the column:
    ``"source"`` means the source node's table holds a FK to the target's
    key; ``"target"`` the reverse.  The carrying table only holds rows for
    nodes that *have* the edge (the transformer's join semantics), so
    generated queries always traverse the edge.
    """

    label: str
    fk_side: str  # "source" | "target"
    fk_column: str


def schema_of(relations, pks, fks=(), nns=()) -> RelationalSchema:
    """A relational schema over *relations*, its constraints given as tuples:
    ``(relation, attribute)`` for primary keys and not-nulls, and
    ``(relation, attribute, referenced, referenced_attribute)`` for foreign
    keys."""
    return RelationalSchema.of(
        relations,
        IntegrityConstraints(
            tuple(PrimaryKey(r, a) for r, a in pks),
            tuple(ForeignKey(r, a, r2, a2) for r, a, r2, a2 in fks),
            tuple(NotNull(r, a) for r, a in nns),
        ),
    )


@dataclass(frozen=True)
class Universe:
    """A reusable benchmark domain."""

    name: str
    graph_schema: GraphSchema
    relational_schema: RelationalSchema
    transformer_text: str
    nodes: dict[str, NodeMap]
    edges: dict[str, EdgeTableMap | MergedEdgeMap]

    def node(self, label: str) -> NodeMap:
        return self.nodes[label]

    def edge(self, label: str) -> EdgeTableMap | MergedEdgeMap:
        return self.edges[label]

    @cached_property
    def transformer(self) -> Transformer:
        return parse_transformer(self.transformer_text)


@dataclass
class Benchmark:
    """One evaluation benchmark."""

    id: str
    category: str
    universe: Universe
    cypher_text: str
    sql_text: str
    expected_equivalent: bool = True
    bug_class: str | None = None
    features: frozenset[str] = field(default_factory=frozenset)
    notes: str = ""

    @property
    def graph_schema(self) -> GraphSchema:
        return self.universe.graph_schema

    @property
    def relational_schema(self) -> RelationalSchema:
        return self.universe.relational_schema

    @property
    def transformer(self) -> Transformer:
        return self.universe.transformer

    @cached_property
    def cypher_query(self) -> cy.Query:
        return parse_cypher(self.cypher_text, self.graph_schema)

    @cached_property
    def sql_query(self) -> sq.Query:
        return parse_sql(self.sql_text)

    @property
    def transformer_size(self) -> int:
        return len(self.transformer)
