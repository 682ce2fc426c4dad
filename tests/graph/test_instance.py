"""Property-graph instances and validation (Definition 3.3)."""

import pytest

from repro.common.errors import SchemaError
from repro.common.values import NULL, is_null
from repro.graph.builder import GraphBuilder
from repro.graph.instance import Edge, Node, PropertyGraph


class TestNodeAndEdge:
    def test_node_property_lookup(self):
        node = Node.of("EMP", {"id": 1, "name": "A"})
        assert node.value("id") == 1
        assert node.value("name") == "A"

    def test_missing_property_is_null(self):
        node = Node.of("EMP", {"id": 1})
        assert is_null(node.value("name"))

    def test_uids_are_unique(self):
        first = Node.of("EMP", {"id": 1})
        second = Node.of("EMP", {"id": 1})
        assert first.uid != second.uid

    def test_elements_hash_by_uid(self):
        # An unhashable property value does not stop the element hashing.
        node = Node.of("EMP", {"tags": ["a", "b"]}, uid=7)
        edge = Edge.of("WORK_AT", node, node, {"since": [2020]}, uid=8)
        assert hash(node) == hash(7) and hash(edge) == hash(8)
        # Equality still compares every field; equal elements hash alike.
        same = Node.of("EMP", {"tags": ["a", "b"]}, uid=7)
        assert node == same and hash(node) == hash(same)
        assert node != Node.of("EMP", {"tags": ["c"]}, uid=7)
        assert len({node, same, edge}) == 2


class TestGraphLookups:
    def test_nodes_with_label(self, emp_dept_graph):
        assert len(list(emp_dept_graph.nodes_with_label("EMP"))) == 2
        assert len(list(emp_dept_graph.nodes_with_label("DEPT"))) == 2

    def test_edges_with_label(self, emp_dept_graph):
        assert len(list(emp_dept_graph.edges_with_label("WORK_AT"))) == 2

    def test_edge_endpoints(self, emp_dept_graph):
        edge = next(emp_dept_graph.edges_with_label("WORK_AT"))
        assert emp_dept_graph.source_of(edge).label == "EMP"
        assert emp_dept_graph.target_of(edge).label == "DEPT"

    def test_type_of(self, emp_dept_graph):
        node = next(emp_dept_graph.nodes_with_label("EMP"))
        assert emp_dept_graph.type_of(node).default_key == "id"

    def test_len_counts_nodes_and_edges(self, emp_dept_graph):
        assert len(emp_dept_graph) == 6


class TestValidation:
    def test_valid_graph_passes(self, emp_dept_graph):
        emp_dept_graph.validate()

    def test_duplicate_default_key_rejected(self, emp_dept_schema):
        builder = GraphBuilder(emp_dept_schema)
        builder.add_node("EMP", id=1, name="A")
        builder.add_node("EMP", id=1, name="B")
        with pytest.raises(SchemaError, match="duplicate default-key"):
            builder.build()

    def test_null_default_key_rejected(self, emp_dept_schema):
        builder = GraphBuilder(emp_dept_schema)
        builder.add_node("EMP", id=NULL, name="A")
        with pytest.raises(SchemaError, match="NULL default property key"):
            builder.build()

    def test_wrong_endpoint_label_rejected(self, emp_dept_schema):
        builder = GraphBuilder(emp_dept_schema)
        a = builder.add_node("EMP", id=1, name="A")
        b = builder.add_node("EMP", id=2, name="B")
        # Bypass the builder's checks by constructing the graph directly.
        from repro.graph.instance import Edge

        edge = Edge.of("WORK_AT", a, b, {"wid": 1})
        graph = PropertyGraph(emp_dept_schema, [a, b], [edge])
        with pytest.raises(SchemaError, match="target has label"):
            graph.validate()

    def test_undeclared_property_rejected(self, emp_dept_schema):
        node = Node.of("EMP", {"id": 1, "bogus": 2})
        graph = PropertyGraph(emp_dept_schema, [node])
        with pytest.raises(SchemaError, match="undeclared property key"):
            graph.validate()


class TestBuilder:
    def test_builder_requires_default_key(self, emp_dept_schema):
        builder = GraphBuilder(emp_dept_schema)
        with pytest.raises(SchemaError, match="default key"):
            builder.add_node("EMP", name="A")

    def test_builder_rejects_unknown_keys(self, emp_dept_schema):
        builder = GraphBuilder(emp_dept_schema)
        with pytest.raises(SchemaError, match="does not declare"):
            builder.add_node("EMP", id=1, salary=3)

    def test_builder_rejects_foreign_nodes(self, emp_dept_schema):
        builder = GraphBuilder(emp_dept_schema)
        other = GraphBuilder(emp_dept_schema)
        a = builder.add_node("EMP", id=1, name="A")
        d = other.add_node("DEPT", dnum=1, dname="CS")
        with pytest.raises(SchemaError, match="added to the builder"):
            builder.add_edge("WORK_AT", a, d, wid=1)
