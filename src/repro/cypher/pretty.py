"""Pretty-printing Featherweight Cypher back to surface syntax.

The printer emits text the parser accepts, giving a round-trip property the
test suite checks: ``parse(pretty(q)) == q`` modulo anonymous-variable
naming.
"""

from __future__ import annotations

from decimal import Decimal

from repro.common.values import is_null
from repro.cypher import ast


def pretty(query: ast.Query) -> str:
    """Render a query as multi-line Cypher text."""
    if isinstance(query, ast.Return):
        return f"{_clause(query.clause)}\n{_return_line(query)}"
    if isinstance(query, ast.OrderBy):
        inner = pretty(query.query)
        items = ", ".join(
            f"{key}{'' if asc else ' DESC'}"
            for key, asc in zip(query.keys, query.ascending)
        )
        text = f"{inner}\nORDER BY {items}"
        if query.limit is not None:
            text += f"\nLIMIT {query.limit}"
        return text
    if isinstance(query, ast.Union):
        return f"{pretty(query.left)}\nUNION\n{pretty(query.right)}"
    if isinstance(query, ast.UnionAll):
        return f"{pretty(query.left)}\nUNION ALL\n{pretty(query.right)}"
    raise TypeError(f"not a Cypher query: {type(query).__name__}")


def _return_line(query: ast.Return) -> str:
    items = []
    for expr, name in zip(query.expressions, query.names):
        rendered = _expression(expr)
        if name != rendered:
            rendered = f"{rendered} AS {name}"
        items.append(rendered)
    keyword = "RETURN DISTINCT" if query.distinct else "RETURN"
    return f"{keyword} {', '.join(items)}"


def _clause(clause: ast.Clause) -> str:
    if isinstance(clause, ast.Match):
        line = f"MATCH {ast.pattern_text(clause.pattern)}{_where(clause.predicate)}"
        if clause.previous is not None:
            return f"{_clause(clause.previous)}\n{line}"
        return line
    if isinstance(clause, ast.OptMatch):
        line = f"OPTIONAL MATCH {ast.pattern_text(clause.pattern)}{_where(clause.predicate)}"
        return f"{_clause(clause.previous)}\n{line}"
    if isinstance(clause, ast.With):
        items = ", ".join(
            old if old == new else f"{old} AS {new}"
            for old, new in zip(clause.old_names, clause.new_names)
        )
        return f"{_clause(clause.previous)}\nWITH {items}"
    raise TypeError(f"not a Cypher clause: {type(clause).__name__}")


def _where(predicate: ast.Predicate) -> str:
    if predicate == ast.TRUE:
        return ""
    return f" WHERE {_predicate(predicate)}"


def _expression(expression: ast.Expression) -> str:
    if isinstance(expression, ast.PropertyRef):
        return f"{expression.variable}.{expression.key}"
    if isinstance(expression, ast.VariableRef):
        return expression.variable
    if isinstance(expression, ast.Literal):
        return _literal(expression.value)
    if isinstance(expression, ast.Aggregate):
        inner = "*" if expression.argument is None else _expression(expression.argument)
        if expression.distinct:
            inner = f"DISTINCT {inner}"
        return f"{expression.function}({inner})"
    if isinstance(expression, ast.BinaryOp):
        return f"({_expression(expression.left)} {expression.op} {_expression(expression.right)})"
    if isinstance(expression, ast.CastPredicate):
        return f"toInteger({_predicate(expression.predicate)})"
    raise TypeError(f"not a Cypher expression: {type(expression).__name__}")


def _literal(value) -> str:
    """*value* as the lexer reads it back: a string with ``\\`` and ``'``
    escaped, a float positionally (the number token has no exponent)."""
    if is_null(value):
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    if isinstance(value, float):
        text = format(Decimal(repr(value)), "f")
        return text if "." in text else f"{text}.0"
    return repr(value)


def _predicate(predicate: ast.Predicate) -> str:
    if isinstance(predicate, ast.BoolLit):
        return "TRUE" if predicate.value else "FALSE"
    if isinstance(predicate, ast.Comparison):
        return f"{_expression(predicate.left)} {predicate.op} {_expression(predicate.right)}"
    if isinstance(predicate, ast.IsNull):
        suffix = "IS NOT NULL" if predicate.negated else "IS NULL"
        return f"{_expression(predicate.operand)} {suffix}"
    if isinstance(predicate, ast.InValues):
        values = ", ".join(_literal(v) for v in predicate.values)
        return f"{_expression(predicate.operand)} IN [{values}]"
    if isinstance(predicate, ast.Exists):
        where = (
            f" WHERE {_predicate(predicate.predicate)}"
            if predicate.predicate != ast.TRUE
            else ""
        )
        return f"EXISTS {{ MATCH {ast.pattern_text(predicate.pattern)}{where} }}"
    if isinstance(predicate, ast.And):
        return f"({_predicate(predicate.left)} AND {_predicate(predicate.right)})"
    if isinstance(predicate, ast.Or):
        return f"({_predicate(predicate.left)} OR {_predicate(predicate.right)})"
    if isinstance(predicate, ast.Not):
        return f"(NOT {_predicate(predicate.operand)})"
    raise TypeError(f"not a Cypher predicate: {type(predicate).__name__}")
