"""Recursive-descent parser for the Featherweight Cypher surface syntax.

Accepted shape (case-insensitive keywords)::

    MATCH (c1:CONCEPT {CID: 1})-[r1:CS]->(p1:PA)-[r2:SP]->(s:SENTENCE)
    WITH s
    MATCH (s:SENTENCE)<-[r3:SP]-(p2:PA)<-[r4:CS]-(c2:CONCEPT)
    RETURN c2.CID, Count(*)

Sugar handled by the parser (desugared into the Figure-9 core):

* inline property maps ``{CID: 1}`` become equality conjuncts in ``WHERE``;
* comma-separated patterns in one ``MATCH`` become nested ``Match`` clauses;
* anonymous node/edge variables receive fresh names ``_a1, _a2, ...``;
* node patterns without labels are inferred from adjacent edge types when a
  graph schema is supplied (the paper's Appendix C example needs this);
* ``EXISTS { MATCH ... }`` and ``EXISTS(...)`` both parse to ``Exists``.

Expressions and predicates come from the grammar both parsers share
(:class:`repro.cypher.lexer.ExpressionGrammar`); this parser overrides only
what Cypher writes its own way: a reference is ``n.key``, ``toInteger(φ)``
is the cast ``Cast(φ)`` of a predicate, ``IN`` also takes ``[...]``,
``EXISTS`` opens a pattern, ``Count(n)`` counts a variable, and an aggregate
stands only in a RETURN or ORDER BY item.
"""

from __future__ import annotations

from itertools import count

from repro.common.errors import ParseError
from repro.common.expressions import conjoin
from repro.cypher import ast
from repro.cypher.lexer import (
    AGGREGATES,
    CYPHER_SYNTAX,
    ExpressionGrammar,
    Token,
    TokenStream,
    number_value,
    tokenize,
)
from repro.graph.schema import GraphSchema

_KEYWORDS = {
    "MATCH", "OPTIONAL", "WHERE", "WITH", "AS", "RETURN", "DISTINCT",
    "ORDER", "BY", "ASC", "DESC", "LIMIT", "UNION", "ALL", "AND", "OR",
    "NOT", "IN", "IS", "NULL", "TRUE", "FALSE", "EXISTS",
}


def parse_cypher(source: str, schema: GraphSchema | None = None) -> ast.Query:
    """Parse Cypher text into a Featherweight Cypher AST."""
    stream = TokenStream(tokenize(source, CYPHER_SYNTAX))
    parser = _Parser(stream, schema)
    query = parser.parse_query()
    if not stream.at_end():
        raise stream.error(f"unexpected trailing input {stream.peek().text!r}")
    return query


class _Parser(ExpressionGrammar):
    #: Aggregates stand only in RETURN and ORDER BY items.
    NESTED_AGGREGATES = False

    def __init__(self, stream: TokenStream, schema: GraphSchema | None) -> None:
        self.stream = stream
        self.schema = schema
        self._anon = count(1)

    # -- queries -----------------------------------------------------------

    def parse_query(self) -> ast.Query:
        query: ast.Query = self._parse_statement()
        while self.stream.take_keyword("UNION"):
            bag = self.stream.take_keyword("ALL")
            right = self._parse_statement()
            query = ast.UnionAll(query, right) if bag else ast.Union(query, right)
        return query

    def _parse_statement(self) -> ast.Query:
        clause = self._parse_clauses()
        returned = self._parse_return(clause)
        if self.stream.take_keyword("ORDER"):
            self.stream.expect_keyword("BY")
            keys, ascending = self._parse_order_items(returned)
            limit = None
            if self.stream.take_keyword("LIMIT"):
                limit = int(number_value(self._expect_number()))
            return ast.OrderBy(returned, keys, ascending, limit)
        if self.stream.take_keyword("LIMIT"):
            limit = int(number_value(self._expect_number()))
            return ast.OrderBy(returned, (), (), limit)
        return returned

    def _expect_number(self) -> Token:
        token = self.stream.peek()
        if token.kind != "number":
            raise self.stream.error("expected a number")
        return self.stream.advance()

    def _parse_order_items(self, returned: ast.Return) -> tuple[tuple[str, ...], tuple[bool, ...]]:
        keys: list[str] = []
        ascending: list[bool] = []
        while True:
            key = self._resolve_order_key(returned)
            direction = True
            if self.stream.take_keyword("DESC"):
                direction = False
            else:
                self.stream.take_keyword("ASC")
            keys.append(key)
            ascending.append(direction)
            if not self.stream.take_op(","):
                break
        return tuple(keys), tuple(ascending)

    def _resolve_order_key(self, returned: ast.Return) -> str:
        """An ORDER BY item must name an output column (alias or expression)."""
        token = self.stream.peek()
        if (
            token.kind == "ident"
            and token.keyword not in _KEYWORDS
            and token.keyword not in AGGREGATES
            and not self.stream.peek(1).is_op(".")
        ):
            self.stream.advance()
            if token.text in returned.names:
                return token.text
            raise self.stream.error(
                f"ORDER BY key {token.text!r} does not name a RETURN column"
            )
        expression = self._parse_expression()
        from repro.cypher.pretty import _expression as render

        rendered = render(expression)
        if isinstance(expression, ast.PropertyRef):
            bare = f"{expression.variable}.{expression.key}"
            for name in returned.names:
                if name in (bare, expression.key):
                    return name
        for expr, name in zip(returned.expressions, returned.names):
            if render(expr) == rendered:
                return name
        if rendered in returned.names:
            return rendered
        raise self.stream.error(
            f"ORDER BY key {rendered!r} does not name a RETURN column"
        )

    # -- clauses -----------------------------------------------------------

    def _parse_clauses(self) -> ast.Clause:
        clause: ast.Clause | None = None
        while True:
            if self.stream.take_keyword("MATCH"):
                clause = self._parse_match(clause, optional=False)
            elif self.stream.at_keyword("OPTIONAL"):
                self.stream.advance()
                self.stream.expect_keyword("MATCH")
                if clause is None:
                    raise self.stream.error("OPTIONAL MATCH cannot open a query")
                clause = self._parse_match(clause, optional=True)
            elif self.stream.at_keyword("WITH"):
                self.stream.advance()
                if clause is None:
                    raise self.stream.error("WITH cannot open a query")
                clause = self._parse_with(clause)
            else:
                break
        if clause is None:
            raise self.stream.error("expected MATCH")
        return clause

    def _parse_match(self, previous: ast.Clause | None, optional: bool) -> ast.Clause:
        patterns: list[tuple[ast.PathPattern, ast.Predicate]] = []
        while True:
            pattern, inline = self._parse_path_pattern()
            patterns.append((pattern, inline))
            if not self.stream.take_op(","):
                break
        where: ast.Predicate = ast.TRUE
        if self.stream.take_keyword("WHERE"):
            where = self._parse_predicate()
        clause = previous
        for index, (pattern, inline) in enumerate(patterns):
            last = index == len(patterns) - 1
            predicate = conjoin((inline, where)) if last else inline
            if optional:
                if clause is None:  # pragma: no cover - guarded by caller
                    raise self.stream.error("OPTIONAL MATCH cannot open a query")
                clause = ast.OptMatch(clause, pattern, predicate)
            elif clause is None:
                clause = ast.Match(pattern, predicate)
            else:
                clause = ast.Match(pattern, predicate, previous=clause)
        assert clause is not None
        return clause

    def _parse_with(self, previous: ast.Clause) -> ast.Clause:
        old_names: list[str] = []
        new_names: list[str] = []
        while True:
            token = self.stream.expect_ident("variable in WITH")
            if token.keyword in _KEYWORDS or self.stream.at_op("."):
                raise self.stream.error(
                    "featherweight WITH carries only bare variables "
                    "(expressions in WITH are outside the supported fragment)"
                )
            old = token.text
            new = old
            if self.stream.take_keyword("AS"):
                token = self.stream.expect_ident("new variable name")
                new = token.text
            if new in new_names:
                raise ParseError(
                    f"duplicate variable {new!r} in WITH",
                    line=token.line,
                    column=token.column,
                )
            old_names.append(old)
            new_names.append(new)
            if not self.stream.take_op(","):
                break
        return ast.With(previous, tuple(old_names), tuple(new_names))

    # -- patterns ----------------------------------------------------------

    def _parse_path_pattern(self) -> tuple[ast.PathPattern, ast.Predicate]:
        elements: list[ast.NodePattern | ast.EdgePattern] = []
        constraints: list[ast.Predicate] = []
        node, node_constraints = self._parse_node_pattern()
        elements.append(node)
        constraints.extend(node_constraints)
        while self.stream.at_op("-", "<"):
            edge = self._parse_edge_pattern()
            next_node, node_constraints = self._parse_node_pattern()
            elements.append(edge)
            elements.append(next_node)
            constraints.extend(node_constraints)
        resolved = self._infer_labels(elements)
        # Inline constraints were parsed before inference; rebuild them now
        # that every node variable has a label.
        return ast.path_pattern(*resolved), conjoin(constraints)

    def _parse_node_pattern(self) -> tuple[ast.NodePattern, list[ast.Predicate]]:
        self.stream.expect_op("(")
        variable = None
        label = ""
        if self.stream.peek().kind == "ident" and not self.stream.at_op(":"):
            variable = self.stream.advance().text
        if self.stream.take_op(":"):
            label = self.stream.expect_ident("node label").text
        if variable is None:
            variable = f"_a{next(self._anon)}"
        constraints = self._parse_property_map(variable)
        self.stream.expect_op(")")
        return ast.NodePattern(variable, label), constraints

    def _parse_edge_pattern(self) -> ast.EdgePattern | ast.VarLengthEdgePattern:
        incoming = False
        if self.stream.take_op("<"):
            incoming = True
        self.stream.expect_op("-")
        variable = None
        label = ""
        hops: tuple[int, int | None] | None = None
        if self.stream.take_op("["):
            if self.stream.peek().kind == "ident" and not self.stream.at_op(":"):
                variable = self.stream.advance().text
            if self.stream.take_op(":"):
                label = self.stream.expect_ident("edge label").text
            if self.stream.take_op("*"):
                hops = self._parse_hop_bounds()
            self.stream.expect_op("]")
        self.stream.expect_op("-")
        outgoing = self.stream.take_op(">")
        if incoming and outgoing:
            raise self.stream.error("edge pattern cannot point both ways")
        if variable is None:
            variable = f"_a{next(self._anon)}"
        if incoming:
            direction = ast.Direction.IN
        elif outgoing:
            direction = ast.Direction.OUT
        else:
            direction = ast.Direction.BOTH
        if hops is not None:
            return ast.VarLengthEdgePattern(variable, label, direction, *hops)
        return ast.EdgePattern(variable, label, direction)

    def _parse_hop_bounds(self) -> tuple[int, int | None]:
        """The bounds after ``*``: ``*`` | ``*n`` | ``*lo..hi`` | ``*lo..`` | ``*..hi``."""
        min_hops = 1
        max_hops: int | None = None
        saw_lower = False
        if self.stream.peek().kind == "number":
            min_hops = self._expect_hop_count()
            saw_lower = True
        if self.stream.take_op(".."):
            if self.stream.peek().kind == "number":
                max_hops = self._expect_hop_count()
        elif saw_lower:
            max_hops = min_hops  # ``*n`` — exactly n hops
        if max_hops is not None and max_hops < min_hops:
            raise self.stream.error(
                f"variable-length bounds are inverted: *{min_hops}..{max_hops}"
            )
        return min_hops, max_hops

    def _expect_hop_count(self) -> int:
        token = self._expect_number()
        value = number_value(token)
        if not isinstance(value, int):
            raise self.stream.error(f"hop bound must be an integer, got {token.text}")
        return value

    def _parse_property_map(self, variable: str) -> list[ast.Predicate]:
        constraints: list[ast.Predicate] = []
        if not self.stream.take_op("{"):
            return constraints
        while True:
            key = self.stream.expect_ident("property key").text
            self.stream.expect_op(":")
            value = self._parse_literal_value()
            constraints.append(
                ast.Comparison("=", ast.PropertyRef(variable, key), ast.Literal(value))
            )
            if not self.stream.take_op(","):
                break
        self.stream.expect_op("}")
        return constraints

    def _infer_labels(
        self, elements: list[ast.NodePattern | ast.EdgePattern]
    ) -> list[ast.NodePattern | ast.EdgePattern]:
        """Fill in missing node/edge labels from the schema when possible."""
        resolved = list(elements)
        changed = True
        while changed:
            changed = False
            for index, element in enumerate(resolved):
                if element.label:
                    continue
                if isinstance(element, ast.NodePattern):
                    label = self._infer_node_label(resolved, index)
                else:
                    label = self._infer_edge_label(resolved, index)
                if label:
                    if isinstance(element, ast.NodePattern):
                        resolved[index] = ast.NodePattern(element.variable, label)
                    elif isinstance(element, ast.VarLengthEdgePattern):
                        resolved[index] = ast.VarLengthEdgePattern(
                            element.variable,
                            label,
                            element.direction,
                            element.min_hops,
                            element.max_hops,
                        )
                    else:
                        resolved[index] = ast.EdgePattern(
                            element.variable, label, element.direction
                        )
                    changed = True
        for element in resolved:
            if not element.label:
                raise self.stream.error(
                    f"cannot infer a label for pattern variable {element.variable!r}; "
                    "annotate it or provide a schema"
                )
        return resolved

    def _infer_node_label(
        self, elements: list[ast.NodePattern | ast.EdgePattern], index: int
    ) -> str:
        if self.schema is None:
            return ""
        # Same variable labelled elsewhere in the pattern?
        variable = elements[index].variable
        for other in elements:
            if (
                isinstance(other, ast.NodePattern)
                and other.variable == variable
                and other.label
            ):
                return other.label
        for edge_index in (index - 1, index + 1):
            if not 0 <= edge_index < len(elements):
                continue
            edge = elements[edge_index]
            if not isinstance(edge, ast.EdgePattern) or not edge.label:
                continue
            if not self.schema.has_edge_type(edge.label):
                raise self.stream.error(f"unknown edge type {edge.label!r}")
            edge_type = self.schema.edge_type(edge.label)
            left_of_edge = edge_index == index + 1
            if edge.direction is ast.Direction.OUT:
                return edge_type.source if left_of_edge else edge_type.target
            if edge.direction is ast.Direction.IN:
                return edge_type.target if left_of_edge else edge_type.source
        return ""

    def _infer_edge_label(
        self, elements: list[ast.NodePattern | ast.EdgePattern], index: int
    ) -> str:
        if self.schema is None:
            return ""
        left = elements[index - 1]
        right = elements[index + 1]
        if not (isinstance(left, ast.NodePattern) and isinstance(right, ast.NodePattern)):
            return ""
        if not left.label or not right.label:
            return ""
        edge = elements[index]
        assert isinstance(edge, (ast.EdgePattern, ast.VarLengthEdgePattern))
        if edge.direction is ast.Direction.OUT:
            candidates = list(self.schema.edges_between(left.label, right.label))
        elif edge.direction is ast.Direction.IN:
            candidates = list(self.schema.edges_between(right.label, left.label))
        else:
            candidates = list(self.schema.edges_between(left.label, right.label))
            candidates += [
                e
                for e in self.schema.edges_between(right.label, left.label)
                if e not in candidates
            ]
        if len(candidates) == 1:
            return candidates[0].label
        return ""

    # -- RETURN ---------------------------------------------------------------

    def _parse_return(self, clause: ast.Clause) -> ast.Return:
        self.stream.expect_keyword("RETURN")
        distinct = self.stream.take_keyword("DISTINCT")
        expressions: list[ast.Expression] = []
        names: list[str] = []
        from repro.cypher.pretty import _expression as render

        while True:
            token = self.stream.peek()
            expression = self._parse_expression()
            name = render(expression)
            if self.stream.take_keyword("AS"):
                token = self.stream.expect_ident("output name")
                name = token.text
            if name in names:
                # Cypher rejects a repeated result column name.
                raise ParseError(
                    f"duplicate output name {name!r} in RETURN",
                    line=token.line,
                    column=token.column,
                )
            expressions.append(expression)
            names.append(name)
            if not self.stream.take_op(","):
                break
        return ast.Return(clause, tuple(expressions), tuple(names), distinct)

    # -- expression forms Cypher writes its own way ---------------------------

    def _parse_reference(self, token: Token) -> ast.Expression:
        if token.keyword in AGGREGATES:
            raise self.stream.error(f"{token.text} must be called like a function")
        if self.stream.take_op("."):
            key = self.stream.expect_ident("property key").text
            return ast.PropertyRef(token.text, key)
        if token.keyword == "TOINTEGER" and self.stream.take_op("("):
            predicate = self._parse_predicate()
            self.stream.expect_op(")")
            return ast.CastPredicate(predicate)
        raise self.stream.error(
            f"bare variable {token.text!r} in expression position; "
            f"reference a property like {token.text}.key"
        )

    def _parse_in(self, left: ast.Expression, negated: bool) -> ast.Predicate:
        if self.stream.take_op("["):
            return self._parse_in_values(left, negated, "]")
        return super()._parse_in(left, negated)

    def _parse_exists(self) -> ast.Predicate:
        if self.stream.take_op("{"):
            self.stream.take_keyword("MATCH")
            pattern, inline = self._parse_path_pattern()
            predicate: ast.Predicate = inline
            if self.stream.take_keyword("WHERE"):
                predicate = conjoin((predicate, self._parse_predicate()))
            self.stream.expect_op("}")
            return ast.Exists(pattern, predicate)
        self.stream.expect_op("(")
        pattern, inline = self._parse_path_pattern()
        self.stream.expect_op(")")
        return ast.Exists(pattern, inline)

    def _parse_aggregate_argument(self, function: str) -> ast.Expression:
        token = self.stream.peek()
        if (
            token.kind == "ident"
            and token.keyword not in _KEYWORDS
            and token.keyword not in AGGREGATES
            and self.stream.peek(1).is_op(")")
        ):
            # ``Count(n)`` — a bare variable aggregates the element's
            # identity (its default property key), NULL for unmatched
            # optional bindings.
            if function != "Count":
                raise self.stream.error(
                    f"{function} needs a property expression argument"
                )
            self.stream.advance()  # the variable
            self.stream.advance()  # its ")"
            return ast.VariableRef(token.text)
        return super()._parse_aggregate_argument(function)
