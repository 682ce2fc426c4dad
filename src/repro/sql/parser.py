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
"""

from __future__ import annotations

from repro.common.errors import ParseError
from repro.common.values import NULL, Value
from repro.cypher.lexer import (
    SQL_SYNTAX,
    Token,
    TokenStream,
    number_value,
    string_value,
    tokenize,
)
from repro.sql import ast
from repro.sql.analysis import has_aggregate

_AGGREGATES = {"COUNT": "Count", "SUM": "Sum", "AVG": "Avg", "MIN": "Min", "MAX": "Max"}

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


class _Parser:
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

    # -- predicates -----------------------------------------------------------

    def _parse_predicate(self) -> ast.Predicate:
        return self._parse_or()

    def _parse_or(self) -> ast.Predicate:
        left = self._parse_and()
        while self.stream.take_keyword("OR"):
            left = ast.Or(left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Predicate:
        left = self._parse_not()
        while self.stream.take_keyword("AND"):
            left = ast.And(left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Predicate:
        if self.stream.take_keyword("NOT"):
            return ast.Not(self._parse_not())
        return self._parse_atom_predicate()

    def _parse_atom_predicate(self) -> ast.Predicate:
        token = self.stream.peek()
        if token.is_keyword("EXISTS"):
            self.stream.advance()
            self.stream.expect_op("(")
            subquery = self.parse_query()
            self.stream.expect_op(")")
            return ast.ExistsQuery(subquery)
        if token.is_keyword("TRUE"):
            self.stream.advance()
            return ast.TRUE
        if token.is_keyword("FALSE"):
            self.stream.advance()
            return ast.FALSE
        if token.is_op("(") and self._parenthesised_predicate_ahead():
            self.stream.expect_op("(")
            inner = self._parse_predicate()
            self.stream.expect_op(")")
            return inner
        left = self._parse_expression()
        return self._parse_predicate_tail(left)

    def _parse_predicate_tail(self, left: ast.Expression) -> ast.Predicate:
        token = self.stream.peek()
        if token.is_op("=", "<>", "!=", "<", "<=", ">", ">="):
            self.stream.advance()
            op = "<>" if token.text == "!=" else token.text
            right = self._parse_expression()
            return ast.Comparison(op, left, right)
        if token.is_keyword("IS"):
            self.stream.advance()
            negated = self.stream.take_keyword("NOT")
            self.stream.expect_keyword("NULL")
            return ast.IsNull(left, negated)
        if token.is_keyword("IN"):
            self.stream.advance()
            return self._parse_in_tail(left, negated=False)
        if token.is_keyword("NOT"):
            self.stream.advance()
            self.stream.expect_keyword("IN")
            return self._parse_in_tail(left, negated=True)
        raise self.stream.error("expected a comparison, IS NULL, IN, or EXISTS")

    def _parse_in_tail(self, left: ast.Expression, negated: bool) -> ast.Predicate:
        self.stream.expect_op("(")
        if self.stream.at_keyword("SELECT", "WITH"):
            subquery = self.parse_query()
            self.stream.expect_op(")")
            return ast.InQuery((left,), subquery, negated)
        values = [self._parse_literal_value()]
        while self.stream.take_op(","):
            values.append(self._parse_literal_value())
        self.stream.expect_op(")")
        membership: ast.Predicate = ast.InValues(left, tuple(values))
        return ast.Not(membership) if negated else membership

    def _parenthesised_predicate_ahead(self) -> bool:
        depth = 0
        offset = 0
        while True:
            token = self.stream.peek(offset)
            if token.kind == "eof":
                return False
            if token.is_op("("):
                depth += 1
            elif token.is_op(")"):
                depth -= 1
                if depth == 0:
                    return False
            elif depth == 1 and token.is_keyword("SELECT", "WITH"):
                return False  # a subquery, not a predicate group
            elif depth == 1 and (
                token.is_keyword("AND", "OR", "NOT", "IN", "IS", "EXISTS")
                or token.is_op("=", "<>", "!=", "<", "<=", ">", ">=")
            ):
                return True
            offset += 1

    # -- expressions ---------------------------------------------------------

    def _parse_expression(self) -> ast.Expression:
        return self._parse_additive()

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while self.stream.at_op("+", "-"):
            op = self.stream.advance().text
            left = ast.BinaryOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while self.stream.at_op("*", "/", "%"):
            op = self.stream.advance().text
            left = ast.BinaryOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> ast.Expression:
        if self.stream.at_op("-"):
            self.stream.advance()
            operand = self._parse_unary()
            if isinstance(operand, ast.Literal) and isinstance(
                operand.value, (int, float)
            ):
                return ast.Literal(-operand.value)
            return ast.BinaryOp("-", ast.Literal(0), operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self.stream.peek()
        if token.kind == "number":
            self.stream.advance()
            return ast.Literal(number_value(token))
        if token.kind == "string":
            self.stream.advance()
            return ast.Literal(string_value(token))
        if token.is_keyword("NULL"):
            self.stream.advance()
            return ast.Literal(NULL)
        if token.is_keyword("TRUE"):
            self.stream.advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self.stream.advance()
            return ast.Literal(False)
        if token.kind == "ident" and token.keyword in _AGGREGATES:
            if self.stream.peek(1).is_op("("):
                return self._parse_aggregate()
        if token.kind == "ident":
            self.stream.advance()
            name = token.text
            if self.stream.take_op("."):
                attribute = self.stream.expect_ident("attribute name").text
                return ast.AttributeRef(f"{name}.{attribute}")
            return ast.AttributeRef(name)
        if token.is_op("("):
            self.stream.advance()
            inner = self._parse_expression()
            self.stream.expect_op(")")
            return inner
        raise self.stream.error(f"expected an expression, found {token.text!r}")

    def _parse_aggregate(self) -> ast.Expression:
        token = self.stream.advance()
        function = _AGGREGATES[token.keyword]
        self.stream.expect_op("(")
        distinct = self.stream.take_keyword("DISTINCT")
        if self.stream.take_op("*"):
            self.stream.expect_op(")")
            return ast.Aggregate("Count", None, distinct)
        argument = self._parse_expression()
        self.stream.expect_op(")")
        return ast.Aggregate(function, argument, distinct)

    def _parse_literal_value(self) -> Value:
        token = self.stream.peek()
        if token.kind == "number":
            self.stream.advance()
            return number_value(token)
        if token.kind == "string":
            self.stream.advance()
            return string_value(token)
        if token.is_keyword("TRUE"):
            self.stream.advance()
            return True
        if token.is_keyword("FALSE"):
            self.stream.advance()
            return False
        if token.is_keyword("NULL"):
            self.stream.advance()
            return NULL
        if token.is_op("-"):
            self.stream.advance()
            number = self.stream.peek()
            if number.kind != "number":
                raise self.stream.error("expected a number after '-'")
            self.stream.advance()
            return -number_value(number)
        raise self.stream.error(f"expected a literal, found {token.text!r}")


def _default_name(expression: ast.Expression) -> str:
    if isinstance(expression, ast.AttributeRef):
        return expression.local_name
    return str(expression)
