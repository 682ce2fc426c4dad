"""Cross-backend result equivalence.

Every registered-and-available backend must return a bag-equivalent table
(Definition 4.4) to the reference evaluator, both for hand-written SQL (the
renderer cross-validation corpus) and for transpiled Cypher over the
Figure-14 universe.  This is the contract that makes backends
interchangeable under the service.
"""

import pytest

from repro.backends import available_backends, load_backend
from repro.common.values import NULL
from repro.relational.instance import Database, tables_equivalent
from repro.relational.schema import Relation, RelationalSchema
from repro.sql.parser import parse_sql
from repro.sql.pretty import to_sql_text
from repro.sql.semantics import evaluate_query

JOIN_SQL = "SELECT e.name, d.dname FROM emp AS e JOIN dept AS d ON e.dept = d.dno"

CURATED_SQL = [
    "SELECT e.name FROM emp AS e",
    "SELECT DISTINCT e.name FROM emp AS e",
    JOIN_SQL,
    "SELECT e.name, d.dname FROM emp AS e LEFT JOIN dept AS d ON e.dept = d.dno",
    "SELECT e.dept, COUNT(*) AS c FROM emp AS e GROUP BY e.dept",
    "SELECT e.name FROM emp AS e WHERE e.dept IN (SELECT d.dno FROM dept AS d)",
    "SELECT d.dname FROM dept AS d WHERE EXISTS "
    "(SELECT e.id FROM emp AS e WHERE e.dept = d.dno)",
    "SELECT e.name FROM emp AS e UNION ALL SELECT d.dname FROM dept AS d",
    "SELECT e.id AS k, e.name AS n FROM emp AS e ORDER BY k DESC LIMIT 3",
    # Renderer cross-validation corpus: filters, NULL tests, cross joins,
    # HAVING, arithmetic, set UNION, and CTEs.
    "SELECT e.name, e.dept FROM emp AS e WHERE e.dept = 10",
    "SELECT e.dept FROM emp AS e WHERE e.id = 3",
    "SELECT e.name, d.dname FROM emp AS e, dept AS d",
    "SELECT d.dname, COUNT(*) AS c FROM emp AS e JOIN dept AS d "
    "ON e.dept = d.dno GROUP BY d.dname HAVING COUNT(*) > 1",
    "SELECT e.id + 1 AS bumped FROM emp AS e",
    "SELECT e.name FROM emp AS e WHERE e.dept IS NULL",
    "SELECT e.name FROM emp AS e WHERE e.dept IN (10, 30)",
    "SELECT e.name FROM emp AS e UNION SELECT d.dname FROM dept AS d",
    "WITH t AS (SELECT e.id AS i, e.dept AS dd FROM emp AS e WHERE e.id > 1) "
    "SELECT t.i FROM t WHERE t.dd = 10",
]


@pytest.fixture
def db() -> Database:
    schema = RelationalSchema.of(
        [
            Relation("emp", ("id", "name", "dept")),
            Relation("dept", ("dno", "dname")),
        ]
    )
    return Database.of(
        schema,
        emp=[(1, "A", 10), (2, "B", 10), (3, "C", NULL), (4, "A", 20)],
        dept=[(10, "CS"), (20, "EE"), (30, "ME")],
    )


class TestCrossBackendSql:
    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("sql", CURATED_SQL)
    def test_backend_matches_reference(self, backend_name, sql, db):
        query = parse_sql(sql)
        reference = evaluate_query(query, db)
        with load_backend(backend_name, db) as backend:
            rendered = to_sql_text(query, db.schema, dialect=backend.dialect)
            actual = backend.execute(rendered)
        assert tables_equivalent(reference, actual), (
            f"{backend_name} diverges on {sql}\n"
            f"reference:\n{reference}\nbackend:\n{actual}"
        )

    def test_backends_agree_pairwise(self, db):
        query = parse_sql(JOIN_SQL)
        results = {}
        for name in available_backends():
            with load_backend(name, db) as backend:
                rendered = to_sql_text(query, db.schema, dialect=backend.dialect)
                results[name] = backend.execute(rendered)
        names = sorted(results)
        for left, right in zip(names, names[1:]):
            assert tables_equivalent(results[left], results[right])


class TestCrossBackendCypher:
    CYPHER = [
        "MATCH (n:EMP) RETURN n.name",
        "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname",
        "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname, Count(*)",
        "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) "
        "RETURN n.name, m.dname",
        "MATCH (n:EMP) WHERE EXISTS { MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) } "
        "RETURN n.name",
    ]

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("cypher", CYPHER)
    def test_transpiled_query_identical_across_backends(
        self, backend_name, cypher, emp_dept_schema, emp_dept_graph
    ):
        from repro.cypher.parser import parse_cypher
        from repro.cypher.semantics import evaluate_query as evaluate_cypher
        from repro.backends import GraphitiService

        expected = evaluate_cypher(parse_cypher(cypher, emp_dept_schema), emp_dept_graph)
        with GraphitiService(emp_dept_schema, default_backend=backend_name) as service:
            service.load_graph(emp_dept_graph)
            actual = service.run(cypher)
        assert tables_equivalent(expected, actual), (
            f"{backend_name} diverges from Cypher semantics on {cypher}"
        )
