"""Deductive verifier: UCQ normalisation, simplification, isomorphism."""

import time

import pytest

from repro.checkers.base import CheckRequest, Verdict
from repro.checkers.cq import Atom, Condition, ConjunctiveQuery, Const, Normalizer, Var
from repro.checkers.deductive import (
    DeductiveChecker,
    contained_in,
    decide_ucq_equivalence,
    isomorphic,
    simplify,
    unfold_views,
)
from repro.common.errors import UnsupportedError
from repro.graph.schema import GraphSchema, NodeType
from repro.relational.schema import (
    ForeignKey,
    IntegrityConstraints,
    NotNull,
    PrimaryKey,
    Relation,
    RelationalSchema,
)
from repro.sql.parser import parse_sql
from repro.transformer.parser import parse_transformer

DEADLINE = time.monotonic() + 10_000


def simple_schema():
    return RelationalSchema.of(
        [Relation("r", ("a", "b")), Relation("s", ("c", "d"))],
        IntegrityConstraints(
            (PrimaryKey("r", "a"), PrimaryKey("s", "c")),
            (ForeignKey("r", "b", "s", "c"),),
            (NotNull("r", "b"),),
        ),
    )


def swapped_pair(op):
    """``r(x1, x2)`` and ``r(x2, x1)``, each with the condition ``x1 op x2``,
    heads ``x1`` and ``x2``: the one renaming between them swaps x1 and x2,
    so they are isomorphic exactly when ``op`` is symmetric."""
    condition = Condition(op, Var(1), Var(2))
    return (
        ConjunctiveQuery([Atom("r", (Var(1), Var(2)))], [condition], [Var(1)]),
        ConjunctiveQuery([Atom("r", (Var(2), Var(1)))], [condition], [Var(2)]),
    )


class TestNormalization:
    def test_scan_is_single_cq(self):
        cqs = Normalizer(simple_schema()).normalize(parse_sql("SELECT r.a FROM r"))
        assert len(cqs) == 1
        assert cqs[0].atoms[0].relation == "r"

    def test_join_merges_atoms(self):
        cqs = Normalizer(simple_schema()).normalize(
            parse_sql("SELECT x.a FROM r AS x JOIN s AS y ON x.b = y.c")
        )
        assert len(cqs[0].atoms) == 2
        # The equality was eliminated by unification.
        assert not cqs[0].conditions

    def test_constant_substitution(self):
        cqs = Normalizer(simple_schema()).normalize(
            parse_sql("SELECT x.b FROM r AS x WHERE x.a = 5")
        )
        atom = cqs[0].atoms[0]
        assert atom.terms[0] == Const(5)

    def test_inequality_becomes_condition(self):
        cqs = Normalizer(simple_schema()).normalize(
            parse_sql("SELECT x.a FROM r AS x WHERE x.a < 5")
        )
        assert len(cqs[0].conditions) == 1
        assert cqs[0].conditions[0].op == "<"

    def test_union_concatenates(self):
        cqs = Normalizer(simple_schema()).normalize(
            parse_sql("SELECT x.a FROM r AS x UNION ALL SELECT y.c FROM s AS y")
        )
        assert len(cqs) == 2

    def test_distinct_flag_propagates(self):
        cqs = Normalizer(simple_schema()).normalize(
            parse_sql("SELECT DISTINCT x.a FROM r AS x")
        )
        assert cqs[0].distinct

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(*) AS c FROM r",
            "SELECT x.a FROM r AS x LEFT JOIN s AS y ON x.b = y.c",
            "SELECT x.a FROM r AS x ORDER BY x.a",
            "SELECT x.a FROM r AS x WHERE x.a IN (1, 2)",
            "SELECT x.a FROM r AS x WHERE x.a IN (SELECT y.c FROM s AS y)",
            "SELECT x.a FROM r AS x WHERE x.a = 1 OR x.b = 2",
        ],
    )
    def test_unsupported_constructs(self, sql):
        with pytest.raises(UnsupportedError):
            Normalizer(simple_schema()).normalize(parse_sql(sql))


class TestViewUnfolding:
    @pytest.mark.parametrize(
        "terms",
        [(Var(1), Const(5), Var(2)), (Var(1), Var(2), Const(5))],
        ids=["constant-in-the-middle", "constant-last"],
    )
    def test_a_repeated_head_variable_unifies_in_any_term_order(self, terms):
        """``T(x) -> R(x, x, x)`` equates all three terms of ``R``'s atom
        with one constant, wherever the constant stands."""
        rdt = parse_transformer("T(x) -> R(x, x, x)")
        cq = ConjunctiveQuery([Atom("R", terms)], [], [Var(1), Var(2)])
        (unfolded,) = unfold_views([cq], rdt)
        assert str(unfolded) == "head(5, 5) :- T(5)"


class TestIsomorphism:
    def test_renamed_variables_are_isomorphic(self):
        cq1 = ConjunctiveQuery([Atom("r", (Var(1), Var(2)))], [], [Var(1)])
        cq2 = ConjunctiveQuery([Atom("r", (Var(7), Var(8)))], [], [Var(7)])
        assert isomorphic(cq1, cq2, DEADLINE)

    def test_head_mismatch_is_not(self):
        cq1 = ConjunctiveQuery([Atom("r", (Var(1), Var(2)))], [], [Var(1)])
        cq2 = ConjunctiveQuery([Atom("r", (Var(7), Var(8)))], [], [Var(8)])
        assert not isomorphic(cq1, cq2, DEADLINE)

    def test_constants_must_agree(self):
        cq1 = ConjunctiveQuery([Atom("r", (Const(1), Var(2)))], [], [Var(2)])
        cq2 = ConjunctiveQuery([Atom("r", (Const(2), Var(8)))], [], [Var(8)])
        assert not isomorphic(cq1, cq2, DEADLINE)

    def test_self_join_symmetry(self):
        cq1 = ConjunctiveQuery(
            [Atom("r", (Var(1), Var(2))), Atom("r", (Var(2), Var(3)))],
            [],
            [Var(1)],
        )
        cq2 = ConjunctiveQuery(
            [Atom("r", (Var(8), Var(9))), Atom("r", (Var(7), Var(8)))],
            [],
            [Var(7)],
        )
        assert isomorphic(cq1, cq2, DEADLINE)

    def test_inequality_matches_either_way_round(self):
        cq1, cq2 = swapped_pair("<>")
        assert isomorphic(cq1, cq2, DEADLINE)

    def test_less_than_keeps_its_orientation(self):
        cq1, cq2 = swapped_pair("<")
        assert not isomorphic(cq1, cq2, DEADLINE)

    def test_atom_count_must_match(self):
        cq1 = ConjunctiveQuery([Atom("r", (Var(1), Var(2)))], [], [Var(1)])
        cq2 = ConjunctiveQuery(
            [Atom("r", (Var(1), Var(2))), Atom("r", (Var(1), Var(2)))],
            [],
            [Var(1)],
        )
        assert not isomorphic(cq1, cq2, DEADLINE)


class TestContainment:
    def test_homomorphism_found(self):
        # sub: r(x,y), r(y,z) head x   ⊆   sup: r(a,b) head a  via a→x, b→y.
        sub = ConjunctiveQuery(
            [Atom("r", (Var(1), Var(2))), Atom("r", (Var(2), Var(3)))],
            [],
            [Var(1)],
        )
        sup = ConjunctiveQuery([Atom("r", (Var(10), Var(11)))], [], [Var(10)])
        assert contained_in(sub, sup, DEADLINE)
        assert not contained_in(sup, sub, DEADLINE)

    def test_inequality_matches_either_way_round(self):
        cq1, cq2 = swapped_pair("<>")
        assert contained_in(cq1, cq2, DEADLINE)
        assert contained_in(cq2, cq1, DEADLINE)


class TestSimplification:
    def test_pk_self_join_collapse(self):
        schema = simple_schema()
        cq = ConjunctiveQuery(
            [Atom("r", (Var(1), Var(2))), Atom("r", (Var(1), Var(3)))],
            [],
            [Var(2), Var(3)],
        )
        simplified = simplify(cq, schema)
        assert len(simplified.atoms) == 1
        assert simplified.head[0] == simplified.head[1]

    def test_fk_lookup_pruned(self):
        schema = simple_schema()
        # r joins s through its NOT NULL FK; s contributes nothing else.
        cq = ConjunctiveQuery(
            [Atom("r", (Var(1), Var(2))), Atom("s", (Var(2), Var(3)))],
            [],
            [Var(1)],
        )
        simplified = simplify(cq, schema)
        assert [a.relation for a in simplified.atoms] == ["r"]

    def test_used_lookup_not_pruned(self):
        schema = simple_schema()
        cq = ConjunctiveQuery(
            [Atom("r", (Var(1), Var(2))), Atom("s", (Var(2), Var(3)))],
            [],
            [Var(1), Var(3)],  # s's payload is projected: keep the atom
        )
        simplified = simplify(cq, schema)
        assert len(simplified.atoms) == 2

    def test_inequality_deduplicated_either_way_round(self):
        cq = ConjunctiveQuery(
            [Atom("r", (Var(1), Var(2)))],
            [Condition("<>", Var(1), Var(2)), Condition("<>", Var(2), Var(1))],
            [Var(1)],
        )
        assert len(simplify(cq, simple_schema()).conditions) == 1

    def test_constant_guarded_lookup_not_pruned(self):
        schema = simple_schema()
        cq = ConjunctiveQuery(
            [Atom("r", (Var(1), Var(2))), Atom("s", (Var(2), Const(5)))],
            [],
            [Var(1)],
        )
        simplified = simplify(cq, schema)
        assert len(simplified.atoms) == 2


class TestUcqDecision:
    def test_bag_equivalence_via_matching(self):
        cq_a = ConjunctiveQuery([Atom("r", (Var(1), Var(2)))], [], [Var(1)])
        cq_b = ConjunctiveQuery([Atom("s", (Var(1), Var(2)))], [], [Var(1)])
        assert decide_ucq_equivalence([cq_a, cq_b], [cq_b, cq_a], DEADLINE)

    def test_cardinality_mismatch(self):
        cq_a = ConjunctiveQuery([Atom("r", (Var(1), Var(2)))], [], [Var(1)])
        assert not decide_ucq_equivalence([cq_a, cq_a], [cq_a], DEADLINE)

    def test_head_permutation_is_global(self):
        cq1 = ConjunctiveQuery([Atom("r", (Var(1), Var(2)))], [], [Var(1), Var(2)])
        cq2 = ConjunctiveQuery([Atom("r", (Var(1), Var(2)))], [], [Var(2), Var(1)])
        assert decide_ucq_equivalence([cq1], [cq2], DEADLINE)

    def test_mixed_distinct_flags_fail(self):
        cq1 = ConjunctiveQuery([Atom("r", (Var(1), Var(2)))], [], [Var(1)], True)
        cq2 = ConjunctiveQuery([Atom("r", (Var(1), Var(2)))], [], [Var(1)], False)
        assert not decide_ucq_equivalence([cq1], [cq2], DEADLINE)


class TestEndToEnd:
    def test_full_pipeline_verdicts(self, emp_dept_schema, merged_target_schema, merged_transformer):
        from repro.core.equivalence import check_equivalence
        from repro.cypher.parser import parse_cypher

        cypher = parse_cypher(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname",
            emp_dept_schema,
        )
        sql = parse_sql(
            "SELECT e.ename, d.dname FROM emp AS e JOIN dept AS d "
            "ON e.deptno = d.dno"
        )
        result = check_equivalence(
            emp_dept_schema,
            cypher,
            merged_target_schema,
            sql,
            merged_transformer,
            DeductiveChecker(),
        )
        assert result.verdict is Verdict.EQUIVALENT

    def test_unknown_on_unprovable(self, emp_dept_schema, merged_target_schema, merged_transformer):
        from repro.core.equivalence import check_equivalence
        from repro.cypher.parser import parse_cypher

        cypher = parse_cypher(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) WHERE n.id < 3 RETURN n.name",
            emp_dept_schema,
        )
        sql = parse_sql(
            "SELECT e.ename FROM emp AS e JOIN dept AS d ON e.deptno = d.dno "
            "WHERE e.eid < 3 AND e.eid < 7"
        )
        result = check_equivalence(
            emp_dept_schema,
            cypher,
            merged_target_schema,
            sql,
            merged_transformer,
            DeductiveChecker(),
        )
        assert result.verdict is Verdict.UNKNOWN

    def test_unsupported_on_aggregation(self, emp_dept_schema, merged_target_schema, merged_transformer):
        from repro.core.equivalence import check_equivalence
        from repro.cypher.parser import parse_cypher

        cypher = parse_cypher(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname, Count(*)",
            emp_dept_schema,
        )
        sql = parse_sql(
            "SELECT d.dname, COUNT(*) FROM emp AS e JOIN dept AS d "
            "ON e.deptno = d.dno GROUP BY d.dname"
        )
        result = check_equivalence(
            emp_dept_schema,
            cypher,
            merged_target_schema,
            sql,
            merged_transformer,
            DeductiveChecker(),
        )
        assert result.verdict is Verdict.UNSUPPORTED

    @pytest.mark.parametrize("distinct", ["", "DISTINCT "])
    def test_inequality_proved_either_way_round(self, distinct):
        from repro.core.equivalence import check_equivalence
        from repro.cypher.parser import parse_cypher

        graph_schema = GraphSchema.of([NodeType("EMP", ("id", "boss"))], [])
        target_schema = RelationalSchema.of(
            [Relation("emp", ("id", "boss"))],
            IntegrityConstraints((PrimaryKey("emp", "id"),), (), ()),
        )
        cypher = parse_cypher(
            f"MATCH (m:EMP) MATCH (n:EMP) WHERE n.boss <> m.id RETURN {distinct}n.id",
            graph_schema,
        )
        sql = parse_sql(
            f"SELECT {distinct}e1.id FROM emp AS e1, emp AS e2 WHERE e1.boss <> e2.id"
        )
        result = check_equivalence(
            graph_schema,
            cypher,
            target_schema,
            sql,
            parse_transformer("EMP(id, boss) -> emp(id, boss)"),
            DeductiveChecker(),
        )
        assert result.verdict is Verdict.EQUIVALENT
