"""UCQ normal form: CTEs, unions, unfolding corner cases."""

import time

import pytest

from repro.checkers.cq import Atom, ConjunctiveQuery, Const, Normalizer, Var
from repro.checkers.deductive import decide_ucq_equivalence, unfold_views
from repro.common.errors import UnsupportedError
from repro.relational.schema import Relation, RelationalSchema
from repro.sql.parser import parse_sql
from repro.transformer.parser import parse_transformer

DEADLINE = time.monotonic() + 10_000


def schema():
    return RelationalSchema.of(
        [Relation("r", ("a", "b")), Relation("s", ("c", "d"))]
    )


class TestCteNormalization:
    def test_cte_inlined(self):
        cqs = Normalizer(schema()).normalize(
            parse_sql("WITH t AS (SELECT x.a AS v FROM r AS x) SELECT t.v FROM t")
        )
        assert len(cqs) == 1
        assert cqs[0].atoms[0].relation == "r"

    def test_cte_reused_twice_gets_fresh_variables(self):
        cqs = Normalizer(schema()).normalize(
            parse_sql(
                "WITH t AS (SELECT x.a AS v FROM r AS x) "
                "SELECT p.v, q.v FROM t AS p, t AS q"
            )
        )
        assert len(cqs) == 1
        assert len(cqs[0].atoms) == 2
        # The two scans must not share variables.
        first, second = cqs[0].atoms
        assert set(first.terms).isdisjoint(set(second.terms))

    def test_union_cte_in_join_unsupported(self):
        with pytest.raises(UnsupportedError):
            Normalizer(schema()).normalize(
                parse_sql(
                    "WITH t AS (SELECT x.a AS v FROM r AS x UNION ALL "
                    "SELECT y.c AS v FROM s AS y) "
                    "SELECT t.v, z.c FROM t, s AS z"
                )
            )


class TestNameResolution:
    def test_ambiguous_name_unsupported(self):
        # ``a`` is the local name of both ``x.a`` and ``y.a``.
        with pytest.raises(UnsupportedError, match="ambiguous attribute 'a'"):
            Normalizer(schema()).normalize(
                parse_sql("SELECT a FROM r AS x, r AS y")
            )

    def test_join_with_a_shared_name_unsupported(self):
        # Both operands name their attributes ``r.a`` and ``r.b``; the
        # reference evaluator rejects the join, so the checker declines it.
        with pytest.raises(UnsupportedError, match="duplicate attribute names"):
            Normalizer(schema()).normalize(parse_sql("SELECT r.a FROM r, r"))


class TestViewUnfolding:
    def test_constant_head_filters(self):
        # rule: R'(x, y) -> v(x, 5): the view's second column is constant.
        rdt = parse_transformer("rsrc(x, y) -> v(x, 5)")
        cq = ConjunctiveQuery([Atom("v", (Var(1), Var(2)))], [], [Var(1), Var(2)])
        unfolded = unfold_views([cq], rdt)
        assert len(unfolded) == 1
        # Variable 2 was forced to the constant 5 everywhere.
        assert unfolded[0].head[1] == Const(5)

    def test_contradictory_constant_drops_disjunct(self):
        rdt = parse_transformer("rsrc(x) -> v(3)")
        cq = ConjunctiveQuery([Atom("v", (Const(4),))], [], [Const(1)])
        assert unfold_views([cq], rdt) == []

    def test_repeated_head_variable_unifies(self):
        # rule: R'(x) -> v(x, x): both columns carry the same value.
        rdt = parse_transformer("rsrc(x) -> v(x, x)")
        cq = ConjunctiveQuery(
            [Atom("v", (Var(1), Var(2)))], [], [Var(1), Var(2)]
        )
        unfolded = unfold_views([cq], rdt)
        assert unfolded[0].head[0] == unfolded[0].head[1]

    def test_multiple_rules_unsupported(self):
        rdt = parse_transformer("a(x) -> v(x)\nb(x) -> v(x)")
        cq = ConjunctiveQuery([Atom("v", (Var(1),))], [], [Var(1)])
        with pytest.raises(UnsupportedError, match="several defining rules"):
            unfold_views([cq], rdt)

    def test_untouched_relations_pass_through(self):
        rdt = parse_transformer("rsrc(x, y) -> v(x, y)")
        cq = ConjunctiveQuery([Atom("w", (Var(1),))], [], [Var(1)])
        unfolded = unfold_views([cq], rdt)
        assert unfolded[0].atoms[0].relation == "w"


class TestUnionDecision:
    def test_empty_ucqs_are_equivalent(self):
        assert decide_ucq_equivalence([], [], DEADLINE)

    def test_empty_vs_nonempty(self):
        cq = ConjunctiveQuery([Atom("r", (Var(1), Var(2)))], [], [Var(1)])
        assert not decide_ucq_equivalence([], [cq], DEADLINE)

    def test_set_semantics_absorbs_contained_disjunct(self):
        # r(x,y) ∪ r(x,y)⋈r(y,z)  ≡  r(x,y)  under set semantics.
        broad = ConjunctiveQuery(
            [Atom("r", (Var(1), Var(2)))], [], [Var(1)], distinct=True
        )
        narrow = ConjunctiveQuery(
            [Atom("r", (Var(3), Var(4))), Atom("r", (Var(4), Var(5)))],
            [],
            [Var(3)],
            distinct=True,
        )
        assert decide_ucq_equivalence([broad, narrow], [broad], DEADLINE)

    def test_bag_semantics_does_not_absorb(self):
        broad = ConjunctiveQuery([Atom("r", (Var(1), Var(2)))], [], [Var(1)])
        narrow = ConjunctiveQuery(
            [Atom("r", (Var(3), Var(4))), Atom("r", (Var(4), Var(5)))],
            [],
            [Var(3)],
        )
        assert not decide_ucq_equivalence([broad, narrow], [broad], DEADLINE)
