"""Token positions, comment syntax, and parse-error locations."""

from __future__ import annotations

import pytest

from repro.backends import GraphitiService
from repro.benchmarks.universes import SOCIAL
from repro.common.errors import ParseError
from repro.cypher.lexer import tokenize
from repro.cypher.parser import parse_cypher
from repro.relational.instance import tables_equivalent
from repro.sql.parser import parse_sql

MULTI_LINE = "MATCH (a:USER)  // the author\n\tWHERE a.uname = 'it\\'s\nme'\nRETURN a.uid"


class TestTokenPositions:
    def test_multi_line_tokens(self):
        tokens = [(t.kind, t.text, t.line, t.column) for t in tokenize(MULTI_LINE)]
        assert tokens == [
            ("ident", "MATCH", 1, 1),
            ("op", "(", 1, 7),
            ("ident", "a", 1, 8),
            ("op", ":", 1, 9),
            ("ident", "USER", 1, 10),
            ("op", ")", 1, 14),
            ("ident", "WHERE", 2, 2),
            ("ident", "a", 2, 8),
            ("op", ".", 2, 9),
            ("ident", "uname", 2, 10),
            ("op", "=", 2, 16),
            ("string", "'it\\'s\nme'", 2, 18),
            ("ident", "RETURN", 4, 1),
            ("ident", "a", 4, 8),
            ("op", ".", 4, 9),
            ("ident", "uid", 4, 10),
            ("eof", "", 4, 13),
        ]

    def test_unexpected_character_position(self):
        with pytest.raises(ParseError, match="unexpected character '\\?'") as error:
            parse_cypher("MATCH (a:USER)\nRETURN a.uid ?")
        assert (error.value.line, error.value.column) == (2, 14)

    def test_expected_return_position(self):
        with pytest.raises(ParseError, match="expected RETURN, found 'RETRUN'") as error:
            parse_cypher("MATCH (a:USER)\nWHERE a.uid = 1\n  RETRUN a.uid")
        assert (error.value.line, error.value.column) == (3, 3)

    def test_sql_error_position(self):
        with pytest.raises(ParseError, match="expected an expression, found '='") as error:
            parse_sql("SELECT e.name\nFROM EMP AS e\nWHERE e.id = = 1")
        assert (error.value.line, error.value.column) == (3, 14)


class TestComments:
    def test_trailing_cypher_comment(self):
        assert parse_cypher("MATCH (a:USER) RETURN a.uid // trailing") == parse_cypher(
            "MATCH (a:USER) RETURN a.uid"
        )

    def test_sql_dash_comment(self):
        assert parse_sql(
            "SELECT e.name FROM EMP AS e -- trailing\nWHERE e.id = 1"
        ) == parse_sql("SELECT e.name FROM EMP AS e WHERE e.id = 1")

    def test_sql_slash_comment(self):
        assert parse_sql("SELECT e.name FROM EMP AS e // trailing") == parse_sql(
            "SELECT e.name FROM EMP AS e"
        )


class TestBracketlessRelationships:
    """``--`` is a relationship or two minus signs in Cypher, not a comment."""

    @pytest.fixture(scope="class")
    def social(self):
        service = GraphitiService(SOCIAL.graph_schema)
        service.load_mock(20, seed=1)
        yield service
        service.close()

    @pytest.mark.parametrize(
        ("bare", "bracketed"),
        [
            ("-->", "-[:FOLLOWS]->"),
            ("<--", "<-[:FOLLOWS]-"),
            ("--", "-[:FOLLOWS]-"),
        ],
    )
    def test_matches_bracketed_form(self, social, bare, bracketed):
        template = "MATCH (a:USER){}(b:USER)\nRETURN a.uid, b.uid"
        bare_text, full_text = template.format(bare), template.format(bracketed)
        executed = social.run(bare_text)
        assert executed.rows
        assert tables_equivalent(executed, social.run(full_text))
        assert tables_equivalent(social.reference(bare_text), social.reference(full_text))

    def test_one_line_arrow_parses(self):
        schema = SOCIAL.graph_schema
        assert parse_cypher("MATCH (a:USER)-->(b:USER) RETURN a.uid", schema) == (
            parse_cypher("MATCH (a:USER)-[:FOLLOWS]->(b:USER) RETURN a.uid", schema)
        )

    def test_double_minus_is_subtraction(self, social):
        table = social.run("MATCH (a:USER) WHERE a.uid = 3--1\nRETURN a.uid")
        assert [tuple(row) for row in table.rows] == [(4,)]

    def test_cypher_tokens_keep_double_minus(self):
        assert [t.text for t in tokenize("a -- b")] == ["a", "-", "-", "b", ""]
