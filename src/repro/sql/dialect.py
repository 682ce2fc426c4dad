"""SQL dialects: the engine-specific surface of SQL text rendering.

:mod:`repro.sql.pretty` lowers one Featherweight SQL AST to text; what
varies between execution engines is not the algebra but the spelling —
identifier quoting, boolean/NULL literals, DDL column types, and the
EXPLAIN incantation.  A :class:`SqlDialect` captures exactly those knobs so
one rendered algebra runs on every registered backend
(:mod:`repro.backends`).

Built-in dialects:

* ``sqlite``  — double-quoted identifiers, booleans as ``1``/``0``,
  untyped (dynamically-typed) DDL.
* ``duckdb``  — double-quoted identifiers, ``TRUE``/``FALSE``, typed DDL
  (defaults to ``VARCHAR`` when no type hint is available).
* ``ansi``    — standards-flavoured rendering for display/golden tests.
* ``mysql``   — backtick-quoted identifiers (rendering only; no backend
  ships with the repro, but the dialect demonstrates that quoting is a
  dialect property, not a renderer constant).

New engines register a dialect with :func:`register_dialect` and look it up
with :func:`dialect_for`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import SemanticsError
from repro.common.values import is_null


@dataclass(frozen=True)
class SqlDialect:
    """Engine-specific rendering parameters for one SQL dialect."""

    name: str
    #: Identifier quote character; escaped by doubling inside identifiers.
    quote_char: str = '"'
    #: Boolean *value* literals (expression position).
    true_literal: str = "1"
    false_literal: str = "0"
    #: Boolean *predicate* literals (WHERE/ON position).
    true_predicate: str = "1 = 1"
    false_predicate: str = "1 = 0"
    null_literal: str = "NULL"
    #: Whether CREATE TABLE requires a type per column.
    typed_ddl: bool = False
    #: Fallback DDL type when the engine demands one and no hint exists.
    default_column_type: str = "VARCHAR"
    integer_type: str = "INTEGER"
    real_type: str = "DOUBLE"
    text_type: str = "VARCHAR"
    #: Statement prefix that asks the engine for a query plan.
    explain_prefix: str = "EXPLAIN"
    #: Whether the engine treats backslash as an escape inside string
    #: literals (MySQL's default sql_mode), requiring it to be doubled.
    escape_backslashes: bool = False
    #: Name of the engine's implicit row-address pseudo-column (``rowid``
    #: on SQLite and DuckDB), or ``None`` when the engine has no such
    #: column.  Partition-parallel scans slice base tables by disjoint
    #: ranges of this column (:mod:`repro.backends.executor`); dialects
    #: without one refuse the parallel plan and stay serial.
    rowid_column: str | None = None

    # -- identifiers -------------------------------------------------------

    def quote(self, identifier: str) -> str:
        """Quote *identifier*, escaping embedded quote characters."""
        escaped = identifier.replace(self.quote_char, self.quote_char * 2)
        return f"{self.quote_char}{escaped}{self.quote_char}"

    # -- literals ----------------------------------------------------------

    def literal(self, value) -> str:
        """Render a constant in expression position."""
        if is_null(value):
            return self.null_literal
        if isinstance(value, bool):
            return self.true_literal if value else self.false_literal
        if isinstance(value, str):
            escaped = value
            if self.escape_backslashes:
                escaped = escaped.replace("\\", "\\\\")
            escaped = escaped.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(value, (int, float)):
            return repr(value)
        raise SemanticsError(f"cannot render literal {value!r} ({type(value).__name__})")

    def boolean(self, value: bool) -> str:
        """Render a constant in predicate position."""
        return self.true_predicate if value else self.false_predicate

    # -- DDL ---------------------------------------------------------------

    def ddl_column(self, attribute: str, type_hint: str | None = None) -> str:
        """One column declaration for CREATE TABLE.

        Untyped dialects (SQLite) omit the type unless a hint is given;
        typed dialects fall back to :attr:`default_column_type`.
        """
        if type_hint is None:
            type_hint = self.default_column_type if self.typed_ddl else ""
        declaration = self.quote(attribute)
        return f"{declaration} {type_hint}" if type_hint else declaration


SQLITE = SqlDialect(
    name="sqlite",
    explain_prefix="EXPLAIN QUERY PLAN",
    rowid_column="rowid",
)

DUCKDB = SqlDialect(
    name="duckdb",
    true_literal="TRUE",
    false_literal="FALSE",
    true_predicate="TRUE",
    false_predicate="FALSE",
    typed_ddl=True,
    rowid_column="rowid",
)

ANSI = SqlDialect(
    name="ansi",
    true_literal="TRUE",
    false_literal="FALSE",
    true_predicate="TRUE",
    false_predicate="FALSE",
    typed_ddl=True,
    real_type="DOUBLE PRECISION",
)

MYSQL = SqlDialect(
    name="mysql",
    quote_char="`",
    true_literal="TRUE",
    false_literal="FALSE",
    true_predicate="TRUE",
    false_predicate="FALSE",
    typed_ddl=True,
    text_type="TEXT",
    escape_backslashes=True,
)

_DIALECTS: dict[str, SqlDialect] = {}


def register_dialect(dialect: SqlDialect) -> SqlDialect:
    """Make *dialect* resolvable through :func:`dialect_for`."""
    _DIALECTS[dialect.name] = dialect
    return dialect


for _dialect in (SQLITE, DUCKDB, ANSI, MYSQL):
    register_dialect(_dialect)


def dialect_for(name: "str | SqlDialect") -> SqlDialect:
    """Resolve a dialect by name (idempotent on dialect instances)."""
    if isinstance(name, SqlDialect):
        return name
    try:
        return _DIALECTS[name]
    except KeyError:
        known = ", ".join(sorted(_DIALECTS))
        raise SemanticsError(f"unknown SQL dialect {name!r} (known: {known})") from None


def registered_dialects() -> tuple[str, ...]:
    """Names of every registered dialect, sorted."""
    return tuple(sorted(_DIALECTS))
