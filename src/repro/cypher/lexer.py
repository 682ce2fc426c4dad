"""Tokenizer shared by the Cypher and SQL surface parsers.

Both languages in the supported fragments use the same lexical alphabet:
identifiers, numbers, single-quoted strings, punctuation, and a handful of
multi-character operators.  Keywords are recognised case-insensitively at
parse time (the lexer only produces ``IDENT`` tokens and leaves keyword
classification to the parsers).

Only the comment syntax differs: Cypher comments start with ``//``, while
``--`` is part of a relationship pattern (``-->``, ``<--``, ``--``) or two
minus signs; SQL accepts ``--`` and ``//``.  Each parser passes its own
token pattern (:data:`CYPHER_SYNTAX`, :data:`SQL_SYNTAX`).
"""

from __future__ import annotations

import re

from repro.common.errors import ParseError


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
