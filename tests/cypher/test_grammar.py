"""The expression and predicate grammar that both surface parsers share.

One table per language pins what the grammar gives for each form: an
accepted text with the AST it parses to, or a rejected text with its
:class:`ParseError` message and column.  The rows cover every form a
language writes its own way (what an identifier denotes, what follows
``IN``, what ``EXISTS`` opens, Cypher's ``Count(n)``, the keywords that end
the parenthesis lookahead, and where an aggregate may stand) next to the
forms both write alike.  A rejected row pins the part of the message both
languages word the same way.
"""

import re
from typing import NamedTuple

import pytest

from repro.common.errors import ParseError
from repro.common.values import NULL
from repro.cypher import ast as cy
from repro.cypher.parser import parse_cypher
from repro.sql import ast as sq
from repro.sql.parser import parse_sql


class Rejected(NamedTuple):
    message: str  # a literal part of the ParseError message
    column: int  # on line 1


# -- Cypher ----------------------------------------------------------------

_N = cy.NodePattern("n", "EMP")
_N_ID = cy.PropertyRef("n", "id")
_N_NAME = cy.PropertyRef("n", "name")


def _match(predicate=cy.TRUE):
    return cy.Match(cy.path_pattern(_N), predicate)


def _where(predicate):
    """``MATCH (n:EMP) WHERE <predicate> RETURN n.name``."""
    return cy.Return(_match(predicate), (_N_NAME,), ("n.name",))


def _returns(*items):
    """``MATCH (n:EMP) RETURN <items>``, each item ``(expression, name)``."""
    expressions, names = zip(*items)
    return cy.Return(_match(), expressions, names)


def _works_at(target):
    return cy.path_pattern(
        _N, cy.EdgePattern("_a1", "WORK_AT", cy.Direction.OUT), target
    )


CYPHER_PINS = [
    (
        "MATCH (n:EMP) WHERE n.id != -n.id * 2 % 3 RETURN n.name",
        _where(
            cy.Comparison(
                "<>",
                _N_ID,
                cy.BinaryOp(
                    "%",
                    cy.BinaryOp(
                        "*", cy.BinaryOp("-", cy.Literal(0), _N_ID), cy.Literal(2)
                    ),
                    cy.Literal(3),
                ),
            )
        ),
    ),
    (
        "MATCH (n:EMP) WHERE n.id = - n.id OR TRUE AND NOT FALSE RETURN n.name",
        _where(
            cy.Or(
                cy.Comparison("=", _N_ID, cy.BinaryOp("-", cy.Literal(0), _N_ID)),
                cy.And(cy.TRUE, cy.Not(cy.FALSE)),
            )
        ),
    ),
    (
        "MATCH (n:EMP) WHERE n.name IS NULL AND n.id >= 3 RETURN n.name",
        _where(
            cy.And(cy.IsNull(_N_NAME), cy.Comparison(">=", _N_ID, cy.Literal(3)))
        ),
    ),
    (
        "MATCH (n:EMP) WHERE (n.id + 1) > 2 RETURN n.name",
        _where(
            cy.Comparison(
                ">", cy.BinaryOp("+", _N_ID, cy.Literal(1)), cy.Literal(2)
            )
        ),
    ),
    (
        "MATCH (n:EMP) WHERE (NOT n.id = 1 OR n.name IS NOT NULL) RETURN n.name",
        _where(
            cy.Or(
                cy.Not(cy.Comparison("=", _N_ID, cy.Literal(1))),
                cy.IsNull(_N_NAME, negated=True),
            )
        ),
    ),
    (
        "MATCH (n:EMP) WHERE n.id IN [1, -2, 'x', NULL, TRUE, FALSE, 2.5] "
        "RETURN n.name",
        _where(cy.InValues(_N_ID, (1, -2, "x", NULL, True, False, 2.5))),
    ),
    (
        "MATCH (n:EMP) WHERE n.id NOT IN (1, - 2) RETURN n.name",
        _where(cy.Not(cy.InValues(_N_ID, (1, -2)))),
    ),
    (
        "MATCH (n:EMP) WHERE EXISTS { MATCH (n)-[:WORK_AT]->(m:DEPT) "
        "WHERE m.dnum = 1 } RETURN n.name",
        _where(
            cy.Exists(
                _works_at(cy.NodePattern("m", "DEPT")),
                cy.Comparison("=", cy.PropertyRef("m", "dnum"), cy.Literal(1)),
            )
        ),
    ),
    (
        "MATCH (n:EMP) WHERE EXISTS((n)-[:WORK_AT]->(:DEPT)) AND TRUE OR FALSE "
        "RETURN n.name",
        _where(
            cy.Or(
                cy.And(
                    cy.Exists(_works_at(cy.NodePattern("_a2", "DEPT"))), cy.TRUE
                ),
                cy.FALSE,
            )
        ),
    ),
    (
        "MATCH (n:EMP {id: -1}) RETURN n.name",
        cy.Return(
            _match(cy.Comparison("=", _N_ID, cy.Literal(-1))), (_N_NAME,), ("n.name",)
        ),
    ),
    (
        "MATCH (n:EMP) RETURN Sum(*)",
        _returns((cy.Aggregate("Count", None), "Count(*)")),
    ),
    (
        "MATCH (n:EMP) RETURN Count(DISTINCT n), Count(n.id) + 1",
        _returns(
            (cy.Aggregate("Count", cy.VariableRef("n"), distinct=True), "Count(DISTINCT n)"),
            (
                cy.BinaryOp("+", cy.Aggregate("Count", _N_ID), cy.Literal(1)),
                "(Count(n.id) + 1)",
            ),
        ),
    ),
    (
        "MATCH (n:EMP) RETURN (n.id - - 3) / 2",
        _returns(
            (
                cy.BinaryOp("/", cy.BinaryOp("-", _N_ID, cy.Literal(-3)), cy.Literal(2)),
                "((n.id - -3) / 2)",
            )
        ),
    ),
    (
        "MATCH (n:EMP) WHERE tointeger(n.id > 3) = 1 RETURN toInteger(TRUE) AS t",
        cy.Return(
            _match(
                cy.Comparison(
                    "=",
                    cy.CastPredicate(cy.Comparison(">", _N_ID, cy.Literal(3))),
                    cy.Literal(1),
                )
            ),
            (cy.CastPredicate(cy.TRUE),),
            ("t",),
        ),
    ),
    (
        "MATCH (n:EMP) RETURN toInteger(n.id) AS c",
        Rejected("expected a comparison, IS NULL", 36),
    ),
    (
        "MATCH (n:EMP) WHERE n = 1 RETURN n.name",
        Rejected("bare variable 'n' in expression position", 23),
    ),
    (
        "MATCH (n:EMP) WHERE COUNT = 1 RETURN n.name",
        Rejected("COUNT must be called like a function", 27),
    ),
    (
        "MATCH (n:EMP) WHERE Count.x = 1 RETURN n.name",
        Rejected("Count must be called like a function", 26),
    ),
    ("MATCH (n:EMP) RETURN Count", Rejected("Count must be called like a function", 27)),
    (
        "MATCH (n:EMP) WHERE Count(*) > 1 RETURN n.name",
        Rejected("aggregates are not allowed here", 26),
    ),
    ("MATCH (n:EMP) RETURN Sum(Count(*))", Rejected("aggregates are not allowed here", 31)),
    (
        "MATCH (n:EMP) RETURN Sum(n) AS s",
        Rejected("Sum needs a property expression argument", 26),
    ),
    (
        "MATCH (n:EMP) WHERE n.id IN [1, - x] RETURN n.name",
        Rejected("expected a number", 35),
    ),
    ("MATCH (n:EMP {id: - x}) RETURN n.name", Rejected("expected a number", 21)),
    (
        "MATCH (n:EMP) WHERE n.id IN 1 RETURN n.name",
        Rejected("expected '(', found '1'", 29),
    ),
    (
        "MATCH (n:EMP) WHERE n.id RETURN n.name",
        Rejected("expected a comparison, IS NULL", 26),
    ),
    (
        "MATCH (n:EMP) WHERE (n.id WITH = 1) RETURN n.name",
        Rejected("expected a comparison, IS NULL", 27),
    ),
    (
        "MATCH (n:EMP) WHERE n.id IS 1 RETURN n.name",
        Rejected("expected NULL, found '1'", 29),
    ),
    (
        "MATCH (n:EMP) WHERE n.id NOT 1 RETURN n.name",
        Rejected("expected IN, found '1'", 30),
    ),
    (
        "MATCH (n:EMP) WHERE EXISTS [ RETURN n.name",
        Rejected("expected '(', found '['", 28),
    ),
    ("MATCH (n:EMP) RETURN n.", Rejected("expected property key", 24)),
]


# -- SQL -------------------------------------------------------------------

_R = sq.Renaming("r", sq.Relation("r"))
_R_A = sq.AttributeRef("r.a")
_A = (sq.OutputColumn("a", _R_A),)


def _select(table):
    """``SELECT <table>.a FROM <table>``."""
    return sq.Projection(
        sq.Renaming(table, sq.Relation(table)),
        (sq.OutputColumn("a", sq.AttributeRef(f"{table}.a")),),
    )


def _sql_where(predicate):
    """``SELECT r.a FROM r WHERE <predicate>``."""
    return sq.Projection(sq.Selection(_R, predicate), _A)


def _aggregate(name, expression):
    """``SELECT <expression> FROM r``, an aggregate named *name*."""
    return sq.GroupBy(_R, (), (sq.OutputColumn(name, expression),), sq.TRUE)


SQL_PINS = [
    (
        "SELECT count FROM r",
        sq.Projection(_R, (sq.OutputColumn("count", sq.AttributeRef("count")),)),
    ),
    (
        "SELECT Sum(Count(*)) FROM r",
        _aggregate(
            "Sum(Count(*))", sq.Aggregate("Sum", sq.Aggregate("Count", None))
        ),
    ),
    ("SELECT Sum(*) FROM r", _aggregate("Count(*)", sq.Aggregate("Count", None))),
    (
        "SELECT Sum(n) FROM r",
        _aggregate("Sum(n)", sq.Aggregate("Sum", sq.AttributeRef("n"))),
    ),
    (
        "SELECT r.a FROM r GROUP BY r.a HAVING Count(*) > 1",
        sq.GroupBy(
            _R,
            (_R_A,),
            _A,
            sq.Comparison(">", sq.Aggregate("Count", None), sq.Literal(1)),
        ),
    ),
    (
        "SELECT -r.a FROM r",
        sq.Projection(
            _R,
            (sq.OutputColumn("(0 - r.a)", sq.BinaryOp("-", sq.Literal(0), _R_A)),),
        ),
    ),
    (
        "SELECT r.a FROM r WHERE count.x != -r.b * 2 % 3",
        _sql_where(
            sq.Comparison(
                "<>",
                sq.AttributeRef("count.x"),
                sq.BinaryOp(
                    "%",
                    sq.BinaryOp(
                        "*",
                        sq.BinaryOp("-", sq.Literal(0), sq.AttributeRef("r.b")),
                        sq.Literal(2),
                    ),
                    sq.Literal(3),
                ),
            )
        ),
    ),
    (
        "SELECT r.a FROM r WHERE r.a = - r.b OR TRUE AND NOT FALSE",
        _sql_where(
            sq.Or(
                sq.Comparison(
                    "=", _R_A, sq.BinaryOp("-", sq.Literal(0), sq.AttributeRef("r.b"))
                ),
                sq.And(sq.TRUE, sq.Not(sq.FALSE)),
            )
        ),
    ),
    (
        "SELECT r.a FROM r WHERE (r.a + 1) > 2",
        _sql_where(
            sq.Comparison(">", sq.BinaryOp("+", _R_A, sq.Literal(1)), sq.Literal(2))
        ),
    ),
    (
        "SELECT r.a FROM r WHERE (NOT r.a = 1 OR r.b IS NULL)",
        _sql_where(
            sq.Or(
                sq.Not(sq.Comparison("=", _R_A, sq.Literal(1))),
                sq.IsNull(sq.AttributeRef("r.b")),
            )
        ),
    ),
    (
        "SELECT r.a FROM r WHERE r.a NOT IN (1, -2, 'x')",
        _sql_where(sq.Not(sq.InValues(_R_A, (1, -2, "x")))),
    ),
    (
        "SELECT r.a FROM r WHERE r.a IN (SELECT s.a FROM s)",
        _sql_where(sq.InQuery((_R_A,), _select("s"))),
    ),
    (
        "SELECT r.a FROM r WHERE r.a NOT IN "
        "(WITH t AS (SELECT s.a FROM s) SELECT t.a FROM t)",
        _sql_where(
            sq.InQuery(
                (_R_A,),
                sq.WithQuery("t", _select("s"), _select("t")),
                negated=True,
            )
        ),
    ),
    (
        "SELECT r.a FROM r WHERE EXISTS (SELECT s.a FROM s)",
        _sql_where(sq.ExistsQuery(_select("s"))),
    ),
    (
        "SELECT r.a FROM r WHERE r.a IN (1, - x)",
        Rejected("expected a number", 38),
    ),
    (
        "SELECT r.a FROM r WHERE r.a IN [1]",
        Rejected("expected '(', found '['", 32),
    ),
    ("SELECT r.a FROM r WHERE r.a", Rejected("expected a comparison, IS NULL", 28)),
    (
        "SELECT r.a FROM r WHERE (r.a WITH = 1)",
        Rejected("expected ')', found 'WITH'", 30),
    ),
    (
        "SELECT r.a FROM r WHERE EXISTS SELECT",
        Rejected("expected '(', found 'SELECT'", 32),
    ),
    (
        "SELECT r.a FROM r WHERE r.a IS NOT 1",
        Rejected("expected NULL, found '1'", 36),
    ),
    ("SELECT Count(* FROM r", Rejected("expected ')', found 'FROM'", 16)),
    (
        "SELECT r. FROM r",
        Rejected("expected attribute name after 'r.', found keyword 'FROM'", 11),
    ),
]


def _check(parse, text, expected):
    if isinstance(expected, Rejected):
        with pytest.raises(ParseError, match=re.escape(expected.message)) as caught:
            parse(text)
        assert (caught.value.line, caught.value.column) == (1, expected.column)
    else:
        assert parse(text) == expected


@pytest.mark.parametrize("text, expected", CYPHER_PINS, ids=[t for t, _ in CYPHER_PINS])
def test_cypher_pin(text, expected, emp_dept_schema):
    _check(lambda source: parse_cypher(source, emp_dept_schema), text, expected)


@pytest.mark.parametrize("text, expected", SQL_PINS, ids=[t for t, _ in SQL_PINS])
def test_sql_pin(text, expected):
    _check(parse_sql, text, expected)


def test_cypher_bare_variable_error_names_the_variable(emp_dept_schema):
    with pytest.raises(ParseError, match=r"like n\.key"):
        parse_cypher("MATCH (n:EMP) WHERE n = 1 RETURN n.name", emp_dept_schema)
