"""Tokenizer and expression grammar shared by the Cypher and SQL parsers.

Both languages in the supported fragments use the same lexical alphabet:
identifiers, numbers, single-quoted strings, punctuation, and a handful of
multi-character operators.  Keywords are recognised case-insensitively at
parse time (the lexer only produces ``IDENT`` tokens and leaves keyword
classification to the parsers).

Only the comment syntax differs: Cypher comments start with ``//``, while
``--`` is part of a relationship pattern (``-->``, ``<--``, ``--``) or two
minus signs; SQL accepts ``--`` and ``//``.  Each parser passes its own
token pattern (:data:`CYPHER_SYNTAX`, :data:`SQL_SYNTAX`).

Both languages also write expressions and predicates alike (arithmetic,
comparisons, ``IS [NOT] NULL``, ``IN`` lists, ``AND``/``OR``/``NOT``, aggregate
calls), and both ASTs hold them as the same nodes, those of
:mod:`repro.common.expressions`.  :class:`ExpressionGrammar` parses them once;
each parser subclasses it and overrides only the forms its language writes
its own way.
"""

from __future__ import annotations

import re

from repro.common.errors import ParseError
from repro.common.expressions import (
    FALSE,
    TRUE,
    Aggregate,
    And,
    BinaryOp,
    Comparison,
    InValues,
    IsNull,
    Literal,
    Not,
    Or,
)
from repro.common.values import NULL, Value


def _token_pattern(comment: str) -> re.Pattern[str]:
    return re.compile(
        rf"""
        (?P<ws>\s+)
      | (?P<comment>{comment})
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op><=|>=|<>|!=|<|>|=|\+|-|\*|/|%|\(|\)|\[|\]|\{{|\}}|,|:|\.\.|\.|;)
        """,
        re.VERBOSE,
    )


CYPHER_SYNTAX = _token_pattern(r"//[^\n]*")
SQL_SYNTAX = _token_pattern(r"//[^\n]*|--[^\n]*")


class Token:
    """One token: its kind (``"number"``, ``"string"``, ``"ident"``,
    ``"op"`` or ``"eof"``), its source text, and its 1-based position."""

    __slots__ = ("kind", "text", "line", "column", "keyword")

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column
        #: The upper-cased text of an identifier, folded once for keyword
        #: matching; empty for every other kind.
        self.keyword = text.upper() if kind == "ident" else ""

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r}, {self.line}, {self.column})"

    def is_keyword(self, *words: str) -> bool:
        return self.keyword in words

    def is_op(self, *ops: str) -> bool:
        return self.kind == "op" and self.text in ops


def tokenize(source: str, syntax: re.Pattern[str] = CYPHER_SYNTAX) -> list[Token]:
    """Split *source* into tokens, raising :class:`ParseError` on junk.

    *syntax* is the token pattern of the source language: Cypher's by
    default, :data:`SQL_SYNTAX` for SQL.
    """
    tokens: list[Token] = []
    match_at = syntax.match
    line = 1
    line_start = 0
    position = 0
    end = len(source)
    while position < end:
        match = match_at(source, position)
        if match is None:
            raise ParseError(
                f"unexpected character {source[position]!r}",
                line=line,
                column=position - line_start + 1,
            )
        kind = match.lastgroup
        if kind != "comment":  # a comment stops before its newline
            text = match.group()
            if kind != "ws":
                tokens.append(Token(kind, text, line, position - line_start + 1))
            if "\n" in text:
                line += text.count("\n")
                line_start = position + text.rfind("\n") + 1
        position = match.end()
    tokens.append(Token("eof", "", line, position - line_start + 1))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.position = 0

    def peek(self, offset: int = 0) -> Token:
        if not offset:  # the cursor never passes the trailing eof token
            return self.tokens[self.position]
        return self.tokens[min(self.position + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "eof":
            self.position += 1
        return token

    def at_keyword(self, *words: str) -> bool:
        return self.tokens[self.position].keyword in words

    def take_keyword(self, *words: str) -> bool:
        if self.at_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        token = self.peek()
        if not token.is_keyword(word):
            raise ParseError(
                f"expected {word}, found {token.text or 'end of input'!r}",
                line=token.line,
                column=token.column,
            )
        return self.advance()

    def at_op(self, *ops: str) -> bool:
        token = self.tokens[self.position]
        return token.kind == "op" and token.text in ops

    def take_op(self, *ops: str) -> bool:
        if self.at_op(*ops):
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> Token:
        token = self.peek()
        if not token.is_op(op):
            raise ParseError(
                f"expected {op!r}, found {token.text or 'end of input'!r}",
                line=token.line,
                column=token.column,
            )
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        token = self.peek()
        if token.kind != "ident":
            raise ParseError(
                f"expected {what}, found {token.text or 'end of input'!r}",
                line=token.line,
                column=token.column,
            )
        return self.advance()

    def at_end(self) -> bool:
        token = self.tokens[self.position]
        return token.kind == "eof" or token.is_op(";")

    def error(self, message: str) -> ParseError:
        token = self.peek()
        return ParseError(message, line=token.line, column=token.column)


def string_value(token: Token) -> str:
    """Strip quotes and unescape a string token."""
    body = token.text[1:-1]
    return body.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\")


def number_value(token: Token):
    """Convert a number token to int or float."""
    if "." in token.text:
        return float(token.text)
    return int(token.text)


#: The aggregate functions of both languages, by upper-cased name.
AGGREGATES = {"COUNT": "Count", "SUM": "Sum", "AVG": "Avg", "MIN": "Min", "MAX": "Max"}

_LITERAL_WORDS = {"NULL": NULL, "TRUE": True, "FALSE": False}
_COMPARISONS = ("=", "<>", "!=", "<", "<=", ">", ">=")
_PREDICATE_WORDS = ("AND", "OR", "NOT", "IN", "IS", "EXISTS")


class ExpressionGrammar:
    """The expression and predicate grammar of both surface languages.

    Precedence, loosest first: ``OR``, ``AND``, ``NOT``, an atomic predicate
    (``TRUE``/``FALSE``, a parenthesised predicate, ``EXISTS``, or an
    expression followed by a comparison, ``IS [NOT] NULL`` or ``[NOT] IN``),
    then ``+``/``-``, ``*``/``/``/``%``, unary minus (folded into a numeric
    literal) and a primary.  It builds the shared nodes of
    :mod:`repro.common.expressions`.  A subclass sets :attr:`stream` and
    overrides the hooks for what its language writes its own way: what an
    identifier denotes (:meth:`_parse_reference`), what follows ``IN``
    (:meth:`_parse_in`) and ``EXISTS`` (:meth:`_parse_exists`), and an
    aggregate's argument (:meth:`_parse_aggregate_argument`).
    """

    stream: TokenStream
    #: Keywords that open a subquery right after a ``(``.
    SUBQUERY_KEYWORDS: tuple[str, ...] = ()
    #: Whether an aggregate may stand in a predicate or in another
    #: aggregate's argument (SQL's ``HAVING``), not only in an output item.
    NESTED_AGGREGATES = True

    # -- hooks ---------------------------------------------------------------

    def _parse_reference(self, token: Token):
        """The expression an identifier opens; *token* is already consumed."""
        raise NotImplementedError

    def _parse_exists(self):
        """The predicate after ``EXISTS``, which is already consumed."""
        raise NotImplementedError

    def _parse_in(self, left, negated: bool):
        """The membership test after ``[NOT] IN``: ``(v, ...)``."""
        self.stream.expect_op("(")
        return self._parse_in_values(left, negated, ")")

    def _parse_aggregate_argument(self, function: str):
        """An aggregate's argument, through its closing ``)``."""
        argument = self._parse_expression(self.NESTED_AGGREGATES)
        self.stream.expect_op(")")
        return argument

    # -- predicates ----------------------------------------------------------

    def _parse_predicate(self):
        left = self._parse_and()
        while self.stream.take_keyword("OR"):
            left = Or(left, self._parse_and())
        return left

    def _parse_and(self):
        left = self._parse_not()
        while self.stream.take_keyword("AND"):
            left = And(left, self._parse_not())
        return left

    def _parse_not(self):
        if self.stream.take_keyword("NOT"):
            return Not(self._parse_not())
        return self._parse_atom_predicate()

    def _parse_atom_predicate(self):
        stream = self.stream
        token = stream.peek()
        if token.is_keyword("EXISTS"):
            stream.advance()
            return self._parse_exists()
        if token.is_keyword("TRUE"):
            stream.advance()
            return TRUE
        if token.is_keyword("FALSE"):
            stream.advance()
            return FALSE
        if token.is_op("(") and self._parenthesised_predicate_ahead():
            stream.advance()
            inner = self._parse_predicate()
            stream.expect_op(")")
            return inner
        left = self._parse_expression(self.NESTED_AGGREGATES)
        token = stream.peek()
        if token.is_op(*_COMPARISONS):
            stream.advance()
            op = "<>" if token.text == "!=" else token.text
            right = self._parse_expression(self.NESTED_AGGREGATES)
            return Comparison(op, left, right)
        if token.is_keyword("IS"):
            stream.advance()
            negated = stream.take_keyword("NOT")
            stream.expect_keyword("NULL")
            return IsNull(left, negated)
        if token.is_keyword("IN"):
            stream.advance()
            return self._parse_in(left, negated=False)
        if token.is_keyword("NOT"):
            stream.advance()
            stream.expect_keyword("IN")
            return self._parse_in(left, negated=True)
        raise stream.error("expected a comparison, IS NULL, or IN")

    def _parse_in_values(self, left, negated: bool, close: str):
        """``v, ...`` and the *close* bracket after ``[NOT] IN``."""
        values = [self._parse_literal_value()]
        while self.stream.take_op(","):
            values.append(self._parse_literal_value())
        self.stream.expect_op(close)
        membership = InValues(left, tuple(values))
        return Not(membership) if negated else membership

    def _parenthesised_predicate_ahead(self) -> bool:
        """Disambiguate ``(a.x + 1) > 2`` from ``(NOT p OR q)``.

        Scan ahead for a boolean keyword or a comparison at depth 1, before
        the matching close paren; one of :attr:`SUBQUERY_KEYWORDS` there
        opens a subquery, not a predicate group.
        """
        peek = self.stream.peek
        depth = 0
        offset = 0
        while True:
            token = peek(offset)
            if token.kind == "eof":
                return False
            if token.is_op("("):
                depth += 1
            elif token.is_op(")"):
                depth -= 1
                if depth == 0:
                    return False
            elif depth == 1:
                if token.keyword in self.SUBQUERY_KEYWORDS:
                    return False
                if token.keyword in _PREDICATE_WORDS or token.is_op(*_COMPARISONS):
                    return True
            offset += 1

    # -- expressions ---------------------------------------------------------

    def _parse_expression(self, allow_aggregates: bool = True):
        left = self._parse_multiplicative(allow_aggregates)
        while self.stream.at_op("+", "-"):
            op = self.stream.advance().text
            right = self._parse_multiplicative(allow_aggregates)
            left = BinaryOp(op, left, right)
        return left

    def _parse_multiplicative(self, allow_aggregates: bool):
        left = self._parse_unary(allow_aggregates)
        while self.stream.at_op("*", "/", "%"):
            op = self.stream.advance().text
            right = self._parse_unary(allow_aggregates)
            left = BinaryOp(op, left, right)
        return left

    def _parse_unary(self, allow_aggregates: bool):
        if self.stream.take_op("-"):
            operand = self._parse_unary(allow_aggregates)
            if isinstance(operand, Literal) and isinstance(
                operand.value, (int, float)
            ):
                return Literal(-operand.value)
            return BinaryOp("-", Literal(0), operand)
        return self._parse_primary(allow_aggregates)

    def _parse_primary(self, allow_aggregates: bool):
        token = self.stream.peek()
        if token.kind in ("number", "string") or token.keyword in _LITERAL_WORDS:
            return Literal(self._parse_literal_value())
        if token.kind == "ident":
            if token.keyword in AGGREGATES and self.stream.peek(1).is_op("("):
                return self._parse_aggregate(allow_aggregates)
            self.stream.advance()
            return self._parse_reference(token)
        if token.is_op("("):
            self.stream.advance()
            inner = self._parse_expression(allow_aggregates)
            self.stream.expect_op(")")
            return inner
        raise self.stream.error(f"expected an expression, found {token.text!r}")

    def _parse_aggregate(self, allow_aggregates: bool):
        """``F([DISTINCT] E)``; ``F([DISTINCT] *)`` is ``Count`` whatever ``F`` is."""
        function = AGGREGATES[self.stream.advance().keyword]
        if not allow_aggregates:
            raise self.stream.error("aggregates are not allowed here")
        self.stream.advance()  # the "(" the caller saw
        distinct = self.stream.take_keyword("DISTINCT")
        if self.stream.take_op("*"):
            self.stream.expect_op(")")
            return Aggregate("Count", None, distinct)
        argument = self._parse_aggregate_argument(function)
        return Aggregate(function, argument, distinct)

    def _parse_literal_value(self) -> Value:
        """A constant: a number, a string, ``TRUE``/``FALSE``/``NULL``, or ``-n``."""
        stream = self.stream
        token = stream.peek()
        if token.kind == "number":
            stream.advance()
            return number_value(token)
        if token.kind == "string":
            stream.advance()
            return string_value(token)
        if token.keyword in _LITERAL_WORDS:
            stream.advance()
            return _LITERAL_WORDS[token.keyword]
        if token.is_op("-"):
            stream.advance()
            number = stream.peek()
            if number.kind != "number":
                raise stream.error("expected a number after '-'")
            stream.advance()
            return -number_value(number)
        raise stream.error(f"expected a literal, found {token.text!r}")
