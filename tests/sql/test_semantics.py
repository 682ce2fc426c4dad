"""SQL reference evaluator: bag semantics, 3VL, correlated subqueries."""

import pytest

from repro.backends import available_backends, load_backend
from repro.common.errors import SemanticsError
from repro.common.values import NULL, is_null
from repro.relational.instance import Database, Table, tables_equivalent
from repro.relational.schema import Relation, RelationalSchema
from repro.sql import ast
from repro.sql.analysis import resolve_attribute
from repro.sql.parser import parse_sql
from repro.sql.semantics import evaluate_query


@pytest.fixture
def db() -> Database:
    schema = RelationalSchema.of(
        [
            Relation("emp", ("id", "name", "dept")),
            Relation("dept", ("dno", "dname")),
        ]
    )
    database = Database(schema)
    for row in [(1, "A", 10), (2, "B", 10), (3, "C", NULL)]:
        database.insert("emp", row)
    for row in [(10, "CS"), (20, "EE")]:
        database.insert("dept", row)
    return database


def run(text, database):
    return evaluate_query(parse_sql(text), database)


class TestProjectionsAndSelections:
    def test_scan(self, db):
        assert len(run("SELECT e.id FROM emp AS e", db)) == 3

    def test_projection_renames(self, db):
        result = run("SELECT e.name AS who FROM emp AS e", db)
        assert result.attributes == ("who",)

    def test_where_filters(self, db):
        result = run("SELECT e.name FROM emp AS e WHERE e.dept = 10", db)
        assert sorted(result.column("name")) == ["A", "B"]

    def test_null_comparison_excluded(self, db):
        result = run("SELECT e.name FROM emp AS e WHERE e.dept <> 10", db)
        assert len(result) == 0  # C's NULL dept is UNKNOWN, not TRUE

    def test_is_null(self, db):
        result = run("SELECT e.name FROM emp AS e WHERE e.dept IS NULL", db)
        assert result.column("name") == ["C"]

    def test_distinct(self, db):
        result = run("SELECT DISTINCT e.dept FROM emp AS e WHERE e.dept = 10", db)
        assert len(result) == 1

    def test_unqualified_resolution(self, db):
        result = run("SELECT name FROM emp AS e WHERE id = 1", db)
        assert result.column("name") == ["A"]

    def test_unknown_attribute_raises(self, db):
        with pytest.raises(SemanticsError, match="unknown attribute"):
            run("SELECT e.salary FROM emp AS e", db)


class TestJoins:
    def test_inner_join(self, db):
        result = run(
            "SELECT e.name, d.dname FROM emp AS e JOIN dept AS d ON e.dept = d.dno",
            db,
        )
        assert sorted(result.rows) == [("A", "CS"), ("B", "CS")]

    def test_left_join_null_pads(self, db):
        result = run(
            "SELECT e.name, d.dname FROM emp AS e LEFT JOIN dept AS d "
            "ON e.dept = d.dno",
            db,
        )
        assert ("C", NULL) in result.rows
        assert len(result) == 3

    def test_right_join(self, db):
        result = run(
            "SELECT e.name, d.dname FROM emp AS e RIGHT JOIN dept AS d "
            "ON e.dept = d.dno",
            db,
        )
        assert (NULL, "EE") in result.rows

    def test_full_join(self, db):
        result = run(
            "SELECT e.name, d.dname FROM emp AS e FULL JOIN dept AS d "
            "ON e.dept = d.dno",
            db,
        )
        assert ("C", NULL) in result.rows
        assert (NULL, "EE") in result.rows

    def test_cross_join_multiplicities(self, db):
        result = run("SELECT e.name, d.dname FROM emp AS e, dept AS d", db)
        assert len(result) == 6


class TestAggregation:
    def test_group_by_count(self, db):
        result = run(
            "SELECT e.dept, COUNT(*) AS c FROM emp AS e GROUP BY e.dept", db
        )
        assert sorted(result.rows, key=repr) == sorted(
            [(10, 2), (NULL, 1)], key=repr
        )

    def test_group_by_null_groups_together(self, db):
        db.insert("emp", (4, "D", NULL))
        result = run(
            "SELECT e.dept, COUNT(*) AS c FROM emp AS e GROUP BY e.dept", db
        )
        assert (NULL, 2) in result.rows

    def test_having(self, db):
        result = run(
            "SELECT e.dept, COUNT(*) AS c FROM emp AS e GROUP BY e.dept "
            "HAVING COUNT(*) > 1",
            db,
        )
        assert result.rows == [(10, 2)]

    def test_sum_avg(self, db):
        result = run("SELECT SUM(e.id) AS s, AVG(e.id) AS a FROM emp AS e", db)
        assert result.rows == [(6, 2.0)]

    def test_count_column_skips_nulls(self, db):
        result = run("SELECT COUNT(e.dept) AS c FROM emp AS e", db)
        assert result.rows == [(2,)]

    def test_empty_input_global_aggregate_is_empty(self, db):
        # The paper's Appendix-A-aligned semantics: no input rows → no groups.
        result = run("SELECT COUNT(*) AS c FROM emp AS e WHERE e.id > 99", db)
        assert len(result) == 0

    def test_aggregate_outside_group_by_rejected(self, db):
        bad = ast.Projection(
            ast.Relation("emp"),
            (ast.OutputColumn("c", ast.Aggregate("Count", None)),),
        )
        with pytest.raises(SemanticsError, match="aggregate"):
            evaluate_query(bad, db)


#: ``emp(id, dept)``: two rows in department 10, one in department 20.
GROUPED = Database.of(
    RelationalSchema.of([Relation("emp", ("id", "dept"))]),
    emp=[(1, 10), (2, 10), (3, 20)],
)


class TestAggregatesInGroupPredicates:
    """An aggregate folds over its group wherever it stands in a HAVING
    predicate, ``IN`` included, and the engine answers with the same bag;
    outside a grouped output list or HAVING it raises, as the engine
    refuses it."""

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            (
                "SELECT e.dept, Count(*) AS c FROM emp AS e GROUP BY e.dept "
                "HAVING Count(*) IN (1, 2)",
                [(10, 2), (20, 1)],
            ),
            (
                "SELECT e.dept FROM emp AS e GROUP BY e.dept "
                "HAVING Count(*) + 1 IN (3)",
                [(10,)],
            ),
            (
                "SELECT e.dept FROM emp AS e GROUP BY e.dept "
                "HAVING Count(*) IN (SELECT f.id FROM emp AS f)",
                [(10,), (20,)],
            ),
        ],
    )
    def test_aggregate_under_in_matches_the_engine(self, text, expected, backend_name):
        result = run(text, GROUPED)
        assert sorted(result.rows) == expected
        with load_backend(backend_name, GROUPED) as backend:
            assert tables_equivalent(backend.execute(text), result)

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT e.dept, Sum(Count(*)) FROM emp AS e GROUP BY e.dept",
            "SELECT e.dept FROM emp AS e WHERE Count(*) > 1",
        ],
    )
    def test_nested_or_ungrouped_aggregate_raises(self, text, backend_name):
        with pytest.raises(SemanticsError, match=r"aggregate Count\(\*\) outside"):
            run(text, GROUPED)
        with load_backend(backend_name, GROUPED) as backend:
            with pytest.raises(Exception):  # each engine has its own error type
                backend.execute(text)


class TestSubqueries:
    def test_uncorrelated_in(self, db):
        result = run(
            "SELECT e.name FROM emp AS e WHERE e.dept IN "
            "(SELECT d.dno FROM dept AS d)",
            db,
        )
        assert sorted(result.column("name")) == ["A", "B"]

    def test_correlated_exists(self, db):
        result = run(
            "SELECT d.dname FROM dept AS d WHERE EXISTS "
            "(SELECT e.id FROM emp AS e WHERE e.dept = d.dno)",
            db,
        )
        assert result.column("dname") == ["CS"]

    def test_not_exists(self, db):
        result = run(
            "SELECT d.dname FROM dept AS d WHERE NOT EXISTS "
            "(SELECT e.id FROM emp AS e WHERE e.dept = d.dno)",
            db,
        )
        assert result.column("dname") == ["EE"]

    def test_in_with_null_operand_is_filtered(self, db):
        result = run(
            "SELECT e.name FROM emp AS e WHERE e.dept IN (10, 20)", db
        )
        assert "C" not in result.column("name")

    def test_with_cte(self, db):
        result = run(
            "WITH big AS (SELECT e.id AS i FROM emp AS e WHERE e.id > 1) "
            "SELECT big.i FROM big",
            db,
        )
        assert sorted(result.column("i")) == [2, 3]


class TestSetOperations:
    def test_union_dedups(self, db):
        result = run(
            "SELECT e.dept FROM emp AS e UNION SELECT e2.dept FROM emp AS e2", db
        )
        assert len(result) == 2  # {10, NULL}

    def test_union_all(self, db):
        result = run(
            "SELECT e.dept FROM emp AS e UNION ALL SELECT e2.dept FROM emp AS e2",
            db,
        )
        assert len(result) == 6

    def test_union_arity_mismatch(self, db):
        with pytest.raises(SemanticsError, match="arity"):
            run(
                "SELECT e.id FROM emp AS e UNION SELECT d.dno, d.dname "
                "FROM dept AS d",
                db,
            )


class TestOrdering:
    def test_order_by_asc_desc(self, db):
        result = run("SELECT e.id AS k FROM emp AS e ORDER BY k DESC", db)
        assert result.column("k") == [3, 2, 1]
        assert result.ordered

    def test_limit(self, db):
        result = run("SELECT e.id AS k FROM emp AS e ORDER BY k LIMIT 2", db)
        assert result.column("k") == [1, 2]

    def test_nulls_sort_first(self, db):
        result = run("SELECT e.dept AS k FROM emp AS e ORDER BY k", db)
        assert is_null(result.column("k")[0])


class TestRenamingSemantics:
    def test_renaming_qualifies_attributes(self, db):
        renamed = ast.Renaming("T", ast.Renaming("e", ast.Relation("emp")))
        result = evaluate_query(renamed, db)
        assert result.attributes == ("T.e_id", "T.e_name", "T.e_dept")

    def test_join_attribute_collision_rejected(self, db):
        bad = ast.Join(
            ast.JoinKind.CROSS, ast.Relation("emp"), ast.Relation("emp")
        )
        with pytest.raises(SemanticsError, match="duplicate attribute"):
            evaluate_query(bad, db)


class TestAttributeIndex:
    """The one name lookup (``analysis.resolve_attribute``), which the
    evaluator, the renderer, the optimizer, the planner, the partition
    gather and the CQ normalizer share."""

    @pytest.mark.parametrize(
        ("name", "attributes", "expected"),
        [
            ("id", ("e.id", "id"), 1),  # an exact name beats local names
            ("name", ("e.id", "e.name"), 1),
            ("salary", ("e.id", "e.name"), None),
        ],
    )
    def test_resolves(self, name, attributes, expected):
        """*expected* is the position of the attribute *name* resolves to."""
        found = resolve_attribute(name, attributes)
        assert found == (None if expected is None else attributes[expected])

    def test_ambiguous_local_name_raises(self):
        with pytest.raises(SemanticsError, match="ambiguous"):
            resolve_attribute("id", ("d.id", "e.id"))

    def test_unknown_qualified_name_resolves_to_nothing(self):
        # A local name has no dot, so a qualified name matches only exactly.
        assert resolve_attribute("d.id", ("e.id", "id")) is None
        assert resolve_attribute("e.id.x", ("e.id", "x")) is None

    def test_exact_name_beats_a_local_one_across_join_sides(self):
        # The scope of ``Π_{e.id := id}(emp) ⋈ dept``: dept's ``id`` wins
        # over the left operand's local match, whichever side comes first.
        assert resolve_attribute("id", ("e.id", "id", "dname")) == "id"
        assert resolve_attribute("id", ("id", "dname", "e.id")) == "id"

    def test_resolves_among_dict_keys(self):
        fragments = {"e.id": '"e"."id"', "d.dname": '"d"."dname"'}
        assert resolve_attribute("dname", fragments) == "d.dname"
        assert resolve_attribute("salary", fragments) is None

    def test_qualify_flattens_an_inner_dot(self):
        assert ast.qualify("T", "c1.CID") == "T.c1_CID"
        assert ast.qualify("T", "CID") == "T.CID"
        assert ast.local_name("T.c1_CID") == "c1_CID"
        assert resolve_attribute("c1_CID", (ast.qualify("T", "c1.CID"),)) == "T.c1_CID"
