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


class TestMisc:
    def test_suite_listing(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "academic/motivating" in out
        assert out.count("\n") == 410

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2


class TestRunAsyncBatch:
    @pytest.mark.parametrize("shards", [0, 2])
    def test_async_batch_serves_plain_and_sharded(self, shards, capsys):
        """``--async-workers`` wraps whichever service ``--shards`` built."""
        code = main(
            [
                "run", "--example", "emp-dept", "--rows", "12",
                "--cypher", "MATCH (n:EMP) RETURN n.name",
                "--cypher", "MATCH (m:DEPT) RETURN m.dname",
                "--async-workers", "2", "--shards", str(shards),
            ]
        )
        assert code in (0, None)
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert "24 rows on sqlite-memory" in summary
        assert "(2 queries, async concurrency 2)" in summary
        assert (", 2 shards" in summary) == (shards == 2)
