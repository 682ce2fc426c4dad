"""Recursive-descent parser for the Featherweight SQL surface syntax.

Accepted shape (paper Figure 10's fragment rendered as standard SQL)::

    SELECT c2.CID, Count(*) FROM Cs AS c2, Pa AS p2, Sp AS s2
    WHERE s2.PID = p2.PID AND p2.CSID = c2.CSID AND s2.SID IN (
        SELECT s1.SID FROM Cs AS c1, Pa AS p1, Sp AS s1
        WHERE s1.PID = p1.PID AND p1.CSID = c1.CSID AND c1.CID = 1)
    GROUP BY CID

Supported: SELECT [DISTINCT], FROM with aliases, comma/CROSS/INNER/LEFT/
RIGHT/FULL joins, WHERE, GROUP BY/HAVING, ORDER BY/LIMIT, UNION [ALL],
WITH-CTEs, scalar subqueries in IN/EXISTS, and FROM-subqueries.

The parser lowers directly into the relational algebra of
:mod:`repro.sql.ast`: every FROM item is wrapped in a renaming ``ρ_alias`` so
attribute references are always qualified, comma-separated items become
cross joins, and ``WHERE`` becomes a selection.

Expressions and predicates come from the grammar both parsers share
(:class:`repro.cypher.lexer.ExpressionGrammar`); this parser overrides only
what SQL writes its own way: a reference is an attribute name, and ``IN``
and ``EXISTS`` take a subquery.
"""

from __future__ import annotations

from repro.common.expressions import has_aggregate
from repro.cypher.lexer import (
    SQL_SYNTAX,
    ExpressionGrammar,
    Token,
    TokenStream,
    number_value,
    tokenize,
)
from repro.sql import ast

_KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "LIMIT", "AS", "ON", "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER",
    "CROSS", "UNION", "ALL", "AND", "OR", "NOT", "IN", "IS", "NULL", "TRUE",
    "FALSE", "EXISTS", "WITH", "ASC", "DESC",
}


def parse_sql(source: str) -> ast.Query:
    """Parse SQL text into a Featherweight SQL algebra tree."""
    stream = TokenStream(tokenize(source, SQL_SYNTAX))
    parser = _Parser(stream)
    query = parser.parse_query()
    if not stream.at_end():
        raise stream.error(f"unexpected trailing input {stream.peek().text!r}")
    return query


class _Parser(ExpressionGrammar):
    SUBQUERY_KEYWORDS = ("SELECT", "WITH")

    def __init__(self, stream: TokenStream) -> None:
        self.stream = stream

    # -- queries -----------------------------------------------------------

    def parse_query(self) -> ast.Query:
        if self.stream.at_keyword("WITH"):
            return self._parse_with_query()
        return self._parse_union_query()

    def _parse_with_query(self) -> ast.Query:
        self.stream.expect_keyword("WITH")
        bindings: list[tuple[str, ast.Query]] = []
        while True:
            name = self.stream.expect_ident("CTE name").text
            self.stream.expect_keyword("AS")
            self.stream.expect_op("(")
            definition = self.parse_query()
            self.stream.expect_op(")")
            bindings.append((name, definition))
            if not self.stream.take_op(","):
                break
        body = self._parse_union_query()
        for name, definition in reversed(bindings):
            body = ast.WithQuery(name, definition, body)
        return body

    def _parse_union_query(self) -> ast.Query:
        query = self._parse_select()
        while self.stream.at_keyword("UNION"):
            self.stream.advance()
            bag = self.stream.take_keyword("ALL")
            right = self._parse_select()
            query = ast.UnionOp(query, right, all=bag)
        return query

    # -- SELECT ------------------------------------------------------------

    def _parse_select(self) -> ast.Query:
        self.stream.expect_keyword("SELECT")
        distinct = self.stream.take_keyword("DISTINCT")
        star = False
        items: list[tuple[ast.Expression, str]] = []
        if self.stream.take_op("*"):
            star = True
        else:
            while True:
                expression = self._parse_expression()
                name = _default_name(expression)
                if self.stream.take_keyword("AS"):
                    name = self.stream.expect_ident("output name").text
                elif (
                    self.stream.peek().kind == "ident"
                    and self.stream.peek().keyword not in _KEYWORDS
                ):
                    name = self.stream.advance().text
                items.append((expression, name))
                if not self.stream.take_op(","):
                    break
        source = self._parse_from()
        if self.stream.take_keyword("WHERE"):
            source = ast.Selection(source, self._parse_predicate())
        group_keys: tuple[ast.Expression, ...] | None = None
        having: ast.Predicate = ast.TRUE
        if self.stream.take_keyword("GROUP"):
            self.stream.expect_keyword("BY")
            keys = [self._parse_expression()]
            while self.stream.take_op(","):
                keys.append(self._parse_expression())
            group_keys = tuple(keys)
            if self.stream.take_keyword("HAVING"):
                having = self._parse_predicate()
        query = self._shape_output(source, star, items, distinct, group_keys, having)
        query = self._parse_order_limit(query, items)
        return query

    def _shape_output(
        self,
        source: ast.Query,
        star: bool,
        items: list[tuple[ast.Expression, str]],
        distinct: bool,
        group_keys: tuple[ast.Expression, ...] | None,
        having: ast.Predicate,
    ) -> ast.Query:
        if star:
            if group_keys is not None:
                raise self.stream.error("SELECT * with GROUP BY is not supported")
            if distinct:
                raise self.stream.error("SELECT DISTINCT * is not supported; name columns")
            return source
        aggregated = any(has_aggregate(e) for e, _ in items)
        columns = tuple(ast.OutputColumn(name, expr) for expr, name in items)
        if group_keys is None and not aggregated:
            return ast.Projection(source, columns, distinct=distinct)
        keys = group_keys
        if keys is None:
            keys = ()
        elif not group_keys and aggregated:
            keys = ()
        grouped: ast.Query = ast.GroupBy(source, tuple(keys), columns, having)
        if distinct:
            passthrough = tuple(
                ast.OutputColumn(c.alias, ast.AttributeRef(c.alias)) for c in columns
            )
            grouped = ast.Projection(grouped, passthrough, distinct=True)
        return grouped

    def _parse_order_limit(
        self, query: ast.Query, items: list[tuple[ast.Expression, str]]
    ) -> ast.Query:
        keys: list[ast.Expression] = []
        ascending: list[bool] = []
        if self.stream.take_keyword("ORDER"):
            self.stream.expect_keyword("BY")
            while True:
                expression = self._parse_expression()
                # Prefer the output alias when the key matches a SELECT item.
                for item_expr, name in items:
                    if item_expr == expression:
                        expression = ast.AttributeRef(name)
                        break
                keys.append(expression)
                if self.stream.take_keyword("DESC"):
                    ascending.append(False)
                else:
                    self.stream.take_keyword("ASC")
                    ascending.append(True)
                if not self.stream.take_op(","):
                    break
        limit = None
        if self.stream.take_keyword("LIMIT"):
            token = self.stream.peek()
            if token.kind != "number":
                raise self.stream.error("LIMIT needs a number")
            self.stream.advance()
            limit = int(number_value(token))
        if keys or limit is not None:
            return ast.OrderBy(query, tuple(keys), tuple(ascending), limit)
        return query

    # -- FROM ----------------------------------------------------------------

    def _parse_from(self) -> ast.Query:
        self.stream.expect_keyword("FROM")
        query = self._parse_from_item()
        while True:
            if self.stream.take_op(","):
                right = self._parse_from_item()
                query = ast.Join(ast.JoinKind.CROSS, query, right, ast.TRUE)
                continue
            kind = self._peek_join_kind()
            if kind is None:
                break
            right = self._parse_from_item()
            if kind is ast.JoinKind.CROSS:
                query = ast.Join(ast.JoinKind.CROSS, query, right, ast.TRUE)
            else:
                if self.stream.take_keyword("ON"):
                    predicate = self._parse_predicate()
                else:
                    predicate = ast.TRUE
                query = ast.Join(kind, query, right, predicate)
        return query

    def _peek_join_kind(self) -> ast.JoinKind | None:
        token = self.stream.peek()
        if token.is_keyword("JOIN"):
            self.stream.advance()
            return ast.JoinKind.INNER
        if token.is_keyword("INNER"):
            self.stream.advance()
            self.stream.expect_keyword("JOIN")
            return ast.JoinKind.INNER
        if token.is_keyword("LEFT"):
            self.stream.advance()
            self.stream.take_keyword("OUTER")
            self.stream.expect_keyword("JOIN")
            return ast.JoinKind.LEFT
        if token.is_keyword("RIGHT"):
            self.stream.advance()
            self.stream.take_keyword("OUTER")
            self.stream.expect_keyword("JOIN")
            return ast.JoinKind.RIGHT
        if token.is_keyword("FULL"):
            self.stream.advance()
            self.stream.take_keyword("OUTER")
            self.stream.expect_keyword("JOIN")
            return ast.JoinKind.FULL
        if token.is_keyword("CROSS"):
            self.stream.advance()
            self.stream.expect_keyword("JOIN")
            return ast.JoinKind.CROSS
        return None

    def _parse_from_item(self) -> ast.Query:
        if self.stream.take_op("("):
            subquery = self.parse_query()
            self.stream.expect_op(")")
            self.stream.take_keyword("AS")
            alias = self.stream.expect_ident("subquery alias").text
            return ast.Renaming(alias, subquery)
        name = self.stream.expect_ident("table name").text
        alias = name
        if self.stream.take_keyword("AS"):
            alias = self.stream.expect_ident("table alias").text
        elif (
            self.stream.peek().kind == "ident"
            and self.stream.peek().keyword not in _KEYWORDS
        ):
            alias = self.stream.advance().text
        return ast.Renaming(alias, ast.Relation(name))

    # -- expression forms SQL writes its own way -------------------------------

    def _parse_reference(self, token: Token) -> ast.Expression:
        if self.stream.take_op("."):
            if self.stream.peek().keyword in _KEYWORDS:
                raise self.stream.error(
                    f"expected attribute name after '{token.text}.', "
                    f"found keyword {self.stream.peek().text!r}"
                )
            attribute = self.stream.expect_ident("attribute name").text
            return ast.AttributeRef(f"{token.text}.{attribute}")
        return ast.AttributeRef(token.text)

    def _parse_in(self, left: ast.Expression, negated: bool) -> ast.Predicate:
        stream = self.stream
        if stream.at_op("(") and stream.peek(1).keyword in self.SUBQUERY_KEYWORDS:
            stream.advance()
            subquery = self.parse_query()
            stream.expect_op(")")
            return ast.InQuery((left,), subquery, negated)
        return super()._parse_in(left, negated)

    def _parse_exists(self) -> ast.Predicate:
        self.stream.expect_op("(")
        subquery = self.parse_query()
        self.stream.expect_op(")")
        return ast.ExistsQuery(subquery)


def _default_name(expression: ast.Expression) -> str:
    if isinstance(expression, ast.AttributeRef):
        return expression.local_name
    return str(expression)
