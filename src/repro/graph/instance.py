"""Property-graph instances (paper Definition 3.3).

An instance of a graph schema is a tuple ``G = (N, E, P, T)``: nodes, edges,
a property map, and a typing map.  Here nodes and edges are small records
carrying their own label and property dictionary, which realises ``P`` and
``T`` directly.

Identity: every node and edge has an internal ``uid`` so that two nodes with
identical properties remain distinct graph elements (property graphs are not
value-identified).  The *default property key* of each element is expected to
be globally unique per the paper's assumption; :meth:`PropertyGraph.validate`
enforces this.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.common.errors import SchemaError
from repro.common.values import NULL, Value, is_null
from repro.graph.schema import EdgeType, GraphSchema, NodeType

_uid_counter = itertools.count(1)


def _fresh_uid() -> int:
    return next(_uid_counter)


@dataclass(frozen=True)
class Node:
    """A graph node: a label and a property-key valuation."""

    label: str
    properties: tuple[tuple[str, Value], ...]
    uid: int = field(default_factory=_fresh_uid, compare=True)

    @classmethod
    def of(cls, label: str, properties: dict[str, Value], uid: int | None = None) -> "Node":
        items = tuple(properties.items())
        if uid is None:
            return cls(label, items)
        return cls(label, items, uid)

    @property
    def property_map(self) -> dict[str, Value]:
        return dict(self.properties)

    def value(self, key: str) -> Value:
        """``P(n, k)``: the value of property *key*, NULL if absent."""
        for name, value in self.properties:
            if name == key:
                return value
        return NULL

    def __hash__(self) -> int:
        # The uid identifies the node; equality still compares every field.
        return hash(self.uid)

    def __str__(self) -> str:
        props = ", ".join(f"{k}: {v!r}" for k, v in self.properties)
        return f"(:{self.label} {{{props}}})"


@dataclass(frozen=True)
class Edge:
    """A graph edge: label, endpoint node uids, and a property valuation."""

    label: str
    source_uid: int
    target_uid: int
    properties: tuple[tuple[str, Value], ...]
    uid: int = field(default_factory=_fresh_uid, compare=True)

    @classmethod
    def of(
        cls,
        label: str,
        source: Node,
        target: Node,
        properties: dict[str, Value],
        uid: int | None = None,
    ) -> "Edge":
        items = tuple(properties.items())
        if uid is None:
            return cls(label, source.uid, target.uid, items)
        return cls(label, source.uid, target.uid, items, uid)

    @property
    def property_map(self) -> dict[str, Value]:
        return dict(self.properties)

    def value(self, key: str) -> Value:
        """``P(e, k)``: the value of property *key*, NULL if absent."""
        for name, value in self.properties:
            if name == key:
                return value
        return NULL

    def __hash__(self) -> int:
        # The uid identifies the edge; equality still compares every field.
        return hash(self.uid)

    def __str__(self) -> str:
        props = ", ".join(f"{k}: {v!r}" for k, v in self.properties)
        return f"-[:{self.label} {{{props}}}]->"


class PropertyGraph:
    """An instance ``G = (N, E, P, T)`` of a :class:`GraphSchema`.

    The class is deliberately a thin, immutable-by-convention container:
    mutation happens through :class:`repro.graph.builder.GraphBuilder`, and
    the Cypher evaluator treats graphs as values.
    """

    def __init__(
        self,
        schema: GraphSchema,
        nodes: Iterable[Node] = (),
        edges: Iterable[Edge] = (),
    ) -> None:
        self.schema = schema
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._nodes_by_uid = {node.uid: node for node in self.nodes}

    # -- lookups -----------------------------------------------------------

    def node_by_uid(self, uid: int) -> Node:
        try:
            return self._nodes_by_uid[uid]
        except KeyError:
            raise SchemaError(f"graph has no node with uid {uid}") from None

    def nodes_with_label(self, label: str) -> Iterator[Node]:
        """All nodes whose type label is *label*."""
        for node in self.nodes:
            if node.label == label:
                yield node

    def edges_with_label(self, label: str) -> Iterator[Edge]:
        """All edges whose type label is *label*."""
        for edge in self.edges:
            if edge.label == label:
                yield edge

    def source_of(self, edge: Edge) -> Node:
        return self.node_by_uid(edge.source_uid)

    def target_of(self, edge: Edge) -> Node:
        return self.node_by_uid(edge.target_uid)

    def type_of(self, element: Node | Edge) -> NodeType | EdgeType:
        """``T(n)`` / ``T(e)``: the schema type of a graph element."""
        if isinstance(element, Node):
            return self.schema.node_type(element.label)
        return self.schema.edge_type(element.label)

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check ``G ⊲ Ψ_G``: labels known, endpoints typed, identities unique.

        Raises :class:`SchemaError` on the first violation found.
        """
        seen_defaults: dict[str, set[Value]] = {}
        for node in self.nodes:
            node_type = self.schema.node_type(node.label)
            self._check_keys(node, node_type)
            self._check_default_unique(node, node_type, seen_defaults)
        for edge in self.edges:
            edge_type = self.schema.edge_type(edge.label)
            self._check_keys(edge, edge_type)
            self._check_default_unique(edge, edge_type, seen_defaults)
            source = self.node_by_uid(edge.source_uid)
            target = self.node_by_uid(edge.target_uid)
            if source.label != edge_type.source:
                raise SchemaError(
                    f"edge {edge.label!r} source has label {source.label!r}, "
                    f"expected {edge_type.source!r}"
                )
            if target.label != edge_type.target:
                raise SchemaError(
                    f"edge {edge.label!r} target has label {target.label!r}, "
                    f"expected {edge_type.target!r}"
                )

    @staticmethod
    def _check_keys(element: Node | Edge, kind: NodeType | EdgeType) -> None:
        declared = set(kind.keys)
        for key, _ in element.properties:
            if key not in declared:
                raise SchemaError(
                    f"{kind.label!r} element carries undeclared property key {key!r}"
                )

    @staticmethod
    def _check_default_unique(
        element: Node | Edge,
        kind: NodeType | EdgeType,
        seen: dict[str, set[Value]],
    ) -> None:
        value = element.value(kind.default_key)
        if is_null(value):
            raise SchemaError(
                f"{kind.label!r} element has NULL default property key {kind.default_key!r}"
            )
        bucket = seen.setdefault(kind.label, set())
        if value in bucket:
            raise SchemaError(
                f"duplicate default-key value {value!r} for type {kind.label!r}"
            )
        bucket.add(value)

    # -- conveniences ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes) + len(self.edges)

    def __str__(self) -> str:
        lines = [f"graph over {len(self.nodes)} nodes, {len(self.edges)} edges:"]
        for node in self.nodes:
            lines.append(f"  {node}")
        for edge in self.edges:
            source = self.node_by_uid(edge.source_uid)
            target = self.node_by_uid(edge.target_uid)
            lines.append(f"  {source} {edge} {target}")
        return "\n".join(lines)
