"""Graph database schemas (paper Definitions 3.1 and 3.2).

A *node type* is a label plus an ordered list of property keys, the first of
which is the *default property key* — a globally unique identifier playing
the role of a relational primary key.  An *edge type* additionally names the
node types of its source and target endpoints.

The paper assumes that labels uniquely identify types within a schema and
that property-key names do not clash across types; :class:`GraphSchema`
enforces both at construction time so downstream passes (SDT inference,
transpilation) can use labels and keys as unambiguous names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.common.errors import SchemaError


@dataclass(frozen=True)
class NodeType:
    """A node type ``(label, K1, ..., Kn)`` (Definition 3.1).

    ``keys[0]`` is the default property key, globally unique per node.
    """

    label: str
    keys: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.label:
            raise SchemaError("node type needs a non-empty label")
        if not self.keys:
            raise SchemaError(f"node type {self.label!r} needs at least one property key")
        if len(set(self.keys)) != len(self.keys):
            raise SchemaError(f"node type {self.label!r} has duplicate property keys")

    @property
    def default_key(self) -> str:
        """The default property key ``K1`` — the node's identity key."""
        return self.keys[0]

    def __str__(self) -> str:
        return f"{self.label}({', '.join(self.keys)})"


@dataclass(frozen=True)
class EdgeType:
    """An edge type ``(label, t_src, t_tgt, K1, ..., Km)`` (Definition 3.1).

    Endpoints are referenced by node-type *label*; the owning
    :class:`GraphSchema` resolves and validates them.
    """

    label: str
    source: str
    target: str
    keys: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.label:
            raise SchemaError("edge type needs a non-empty label")
        if not self.keys:
            raise SchemaError(f"edge type {self.label!r} needs at least one property key")
        if len(set(self.keys)) != len(self.keys):
            raise SchemaError(f"edge type {self.label!r} has duplicate property keys")

    @property
    def default_key(self) -> str:
        """The default property key ``K1`` — the edge's identity key."""
        return self.keys[0]

    def __str__(self) -> str:
        keys = ", ".join(self.keys)
        return f"{self.label}({keys}): {self.source} -> {self.target}"


@dataclass(frozen=True)
class GraphSchema:
    """A graph database schema ``(T_N, T_E)`` (Definition 3.2)."""

    node_types: tuple[NodeType, ...]
    edge_types: tuple[EdgeType, ...] = field(default=())
    #: Label → its node or edge type, built once: a transpile resolves a
    #: label for every scan, key check and join it emits.
    _types: dict[str, NodeType | EdgeType] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        labels = [t.label for t in self.node_types] + [t.label for t in self.edge_types]
        duplicates = {name for name in labels if labels.count(name) > 1}
        if duplicates:
            raise SchemaError(f"duplicate type labels in schema: {sorted(duplicates)}")
        node_labels = {t.label for t in self.node_types}
        for edge in self.edge_types:
            if edge.source not in node_labels:
                raise SchemaError(
                    f"edge type {edge.label!r} references unknown source node type {edge.source!r}"
                )
            if edge.target not in node_labels:
                raise SchemaError(
                    f"edge type {edge.label!r} references unknown target node type {edge.target!r}"
                )
        all_keys: list[str] = []
        for kind in (*self.node_types, *self.edge_types):
            all_keys.extend(kind.keys)
        clashing = {key for key in all_keys if all_keys.count(key) > 1}
        if clashing:
            raise SchemaError(
                "property keys must be unique across the schema; "
                f"clashing keys: {sorted(clashing)}"
            )
        types = {kind.label: kind for kind in (*self.node_types, *self.edge_types)}
        object.__setattr__(self, "_types", types)

    @classmethod
    def of(
        cls,
        node_types: Iterable[NodeType],
        edge_types: Iterable[EdgeType] = (),
    ) -> "GraphSchema":
        """Build a schema from any iterables of types."""
        return cls(tuple(node_types), tuple(edge_types))

    # -- lookups -----------------------------------------------------------

    def node_type(self, label: str) -> NodeType:
        """Resolve a node label; raises :class:`SchemaError` if unknown."""
        kind = self._types.get(label)
        if isinstance(kind, NodeType):
            return kind
        raise SchemaError(f"unknown node type {label!r}")

    def edge_type(self, label: str) -> EdgeType:
        """Resolve an edge label; raises :class:`SchemaError` if unknown."""
        kind = self._types.get(label)
        if isinstance(kind, EdgeType):
            return kind
        raise SchemaError(f"unknown edge type {label!r}")

    def type_of(self, label: str) -> NodeType | EdgeType:
        """Resolve a label of either kind."""
        kind = self._types.get(label)
        if kind is None:
            raise SchemaError(f"unknown type label {label!r}")
        return kind

    def has_edge_type(self, label: str) -> bool:
        return any(edge.label == label for edge in self.edge_types)

    def owner_of_key(self, key: str) -> NodeType | EdgeType:
        """Find the unique type that declares property key *key*."""
        for kind in (*self.node_types, *self.edge_types):
            if key in kind.keys:
                return kind
        raise SchemaError(f"no type declares property key {key!r}")

    def edges_between(self, source_label: str, target_label: str) -> Iterator[EdgeType]:
        """All edge types running from *source_label* to *target_label*."""
        for edge in self.edge_types:
            if edge.source == source_label and edge.target == target_label:
                yield edge

    def __str__(self) -> str:
        lines = ["graph schema:"]
        lines.extend(f"  node {node}" for node in self.node_types)
        lines.extend(f"  edge {edge}" for edge in self.edge_types)
        return "\n".join(lines)
