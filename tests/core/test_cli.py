"""Command-line interface smoke tests."""

import pytest

from repro.cli import main


class TestTranspile:
    def test_example_schema(self, capsys):
        code = main(
            [
                "transpile",
                "--example",
                "emp-dept",
                "--cypher",
                "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SELECT" in out
        assert "WORK_AT" in out

    def test_schema_file(self, tmp_path, capsys):
        schema_file = tmp_path / "schema.txt"
        schema_file.write_text("node A(x, y)\n")
        code = main(
            ["transpile", "--graph-schema", str(schema_file), "--cypher",
             "MATCH (a:A) RETURN a.y"]
        )
        assert code == 0
        assert '"A"' in capsys.readouterr().out

    def test_missing_schema(self):
        with pytest.raises(SystemExit):
            main(["transpile", "--cypher", "MATCH (a:A) RETURN a.x"])

    @pytest.mark.parametrize(
        ("cypher", "message"),
        [
            (
                "MATCH (n:USER) WHERE n = 1 RETURN n.uname",
                "reference a property like n.key (at line 1, column 24)",
            ),
            (
                "MATCH (n:USER) WITH m RETURN n.uname",
                "WITH references unbound variable 'm'",
            ),
        ],
    )
    def test_error_in_the_query_is_one_line(self, cypher, message):
        """A ParseError or TranspileError exits with its message, not a traceback."""
        with pytest.raises(SystemExit) as caught:
            main(["transpile", "--example", "social", "--cypher", cypher])
        assert message in caught.value.code
        assert "\n" not in caught.value.code


class TestCheck:
    def test_benchmark_deductive(self, capsys):
        code = main(
            [
                "check",
                "--benchmark",
                "tutorial/emp-count",
                "--backend",
                "deductive",
            ]
        )
        assert code == 0
        assert "unsupported" in capsys.readouterr().out  # aggregation

    def test_benchmark_bounded_refutes(self, capsys):
        code = main(
            [
                "check",
                "--benchmark",
                "veriql/emp-dept-join",
                "--backend",
                "bounded",
                "--max-bound",
                "3",
                "--samples",
                "250",
            ]
        )
        assert code == 1  # non-equivalent exits 1
        out = capsys.readouterr().out
        assert "not-equivalent" in out
        assert "counterexample" in out

    def test_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["check", "--benchmark", "nope/nothing"])

    def test_explicit_files(self, tmp_path, capsys):
        (tmp_path / "g.txt").write_text(
            "node EMP(id, name)\nnode DEPT(dnum, dname)\n"
            "edge WORK_AT(wid): EMP -> DEPT\n"
        )
        (tmp_path / "r.txt").write_text(
            "table emp(eid, ename, deptno)\ntable dept(dno, dname)\n"
            "pk emp.eid\npk dept.dno\nfk emp.deptno -> dept.dno\n"
            "notnull emp.deptno\n"
        )
        (tmp_path / "t.txt").write_text(
            "EMP(id, name), WORK_AT(wid, id, dnum) -> emp(wid, name, dnum)\n"
            "DEPT(dnum, dname) -> dept(dnum, dname)\n"
        )
        code = main(
            [
                "check",
                "--graph-schema", str(tmp_path / "g.txt"),
                "--relational-schema", str(tmp_path / "r.txt"),
                "--transformer", str(tmp_path / "t.txt"),
                "--cypher",
                "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname",
                "--sql",
                "SELECT e.ename, d.dname FROM emp AS e JOIN dept AS d "
                "ON e.deptno = d.dno",
                "--backend", "deductive",
            ]
        )
        assert code == 0
        assert "equivalent" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("cypher", "message"),
        [
            (
                "MATCH (n:EMP) WHERE n = 1 RETURN n.name",
                "reference a property like n.key (at line 1, column 23)",
            ),
            (
                "MATCH (n:EMP) WITH m RETURN n.name",
                "WITH references unbound variable 'm'",
            ),
        ],
    )
    def test_error_in_the_query_exits_2(self, tmp_path, capsys, cypher, message):
        """Exit 1 means not-equivalent, so an unusable query exits 2."""
        (tmp_path / "g.txt").write_text("node EMP(id, name)\n")
        (tmp_path / "r.txt").write_text("table emp(id, name)\n")
        (tmp_path / "t.txt").write_text("EMP(id, name) -> emp(id, name)\n")
        code = main(
            [
                "check",
                "--graph-schema", str(tmp_path / "g.txt"),
                "--relational-schema", str(tmp_path / "r.txt"),
                "--transformer", str(tmp_path / "t.txt"),
                "--cypher", cypher,
                "--sql", "SELECT e.name FROM emp AS e",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1

    @staticmethod
    def _check_emp(tmp_path, cypher, sql):
        """``repro check --backend bounded`` over ``node EMP(id, dept)``
        stored as ``emp(id, dept)``."""
        (tmp_path / "g.txt").write_text("node EMP(id, dept)\n")
        (tmp_path / "r.txt").write_text("table emp(id, dept)\npk emp.id\n")
        (tmp_path / "t.txt").write_text("EMP(id, dept) -> emp(id, dept)\n")
        return main(
            [
                "check",
                "--graph-schema", str(tmp_path / "g.txt"),
                "--relational-schema", str(tmp_path / "r.txt"),
                "--transformer", str(tmp_path / "t.txt"),
                "--cypher", cypher,
                "--sql", sql,
                "--backend", "bounded",
            ]
        )

    def test_aggregate_under_in_in_having_is_refuted(self, tmp_path, capsys):
        code = self._check_emp(
            tmp_path,
            "MATCH (n:EMP) RETURN n.dept, Count(*)",
            "SELECT e.dept, Count(*) FROM emp AS e GROUP BY e.dept "
            "HAVING Count(*) IN (1, 2)",
        )
        assert code == 1
        assert "verdict: not-equivalent" in capsys.readouterr().out

    def test_instances_that_raise_leave_the_verdict_unknown(self, tmp_path, capsys):
        """The reference and SQLite both refuse an aggregate in WHERE: an
        instance on which a query raises is no evidence of equivalence."""
        code = self._check_emp(
            tmp_path,
            "MATCH (n:EMP) RETURN n.dept",
            "SELECT e.dept FROM emp AS e WHERE Count(*) > 1",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: unknown" in out
        assert (
            "instances raised: aggregate Count(*) outside a GROUP BY output list"
            in out
        )


class TestMisc:
    def test_suite_listing(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "academic/motivating" in out
        assert out.count("\n") == 410

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2


class TestRunAsyncBatch:
    def test_async_batch_serves_through_the_async_service(self, capsys):
        """``--async-workers`` drives the batch through the asyncio layer."""
        code = main(
            [
                "run", "--example", "emp-dept", "--rows", "12",
                "--cypher", "MATCH (n:EMP) RETURN n.name",
                "--cypher", "MATCH (m:DEPT) RETURN m.dname",
                "--async-workers", "2",
            ]
        )
        assert code in (0, None)
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert "24 rows on sqlite-memory" in summary
        assert "(2 queries, async concurrency 2)" in summary
