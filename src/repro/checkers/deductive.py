"""Mediator-style deductive verification (paper Section 6.2 backend).

Mediator proves full (unbounded) equivalence for an aggregation-free,
outer-join-free SQL fragment by inferring bisimulation invariants with an
SMT solver.  This substitute reaches the same verdict surface through
classical database theory:

1. both queries are normalised to **unions of conjunctive queries** (UCQs,
   :mod:`repro.checkers.cq`);
2. the target-schema query is rewritten into the induced-schema vocabulary
   by *unfolding* the residual transformer's rules as conjunctive views;
3. tableaux are simplified with two integrity-constraint-aware rewrites —
   primary-key self-join collapse and foreign-key lookup elimination — which
   play the role of Mediator's invariant reasoning over schema constraints;
4. bag-semantics equivalence of UCQs is decided by tableau **isomorphism**
   (Chaudhuri–Vardi); set-semantics (DISTINCT/UNION) single-direction
   containment uses homomorphisms (Chandra–Merlin).

Verdicts mirror Mediator's: ``EQUIVALENT`` on success, ``UNSUPPORTED``
outside the fragment, ``UNKNOWN`` when the structural proof fails (the
queries may still be equivalent — e.g. via constraints the rewrites do not
capture — exactly the paper's "Unknown" row in Table 3).  The backend never
refutes: like Mediator, it cannot produce counterexamples.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace
from itertools import count, permutations
from math import factorial

from repro.checkers.base import CheckOutcome, CheckRequest, Verdict
from repro.checkers.cq import (
    Atom,
    Condition,
    ConjunctiveQuery,
    Const,
    Normalizer,
    Term,
    Var,
    expr_vars,
    map_terms,
    substitute,
)
from repro.common.errors import UnsupportedError
from repro.relational.schema import RelationalSchema
from repro.sql.analysis import (
    uses_aggregation,
    uses_order_by,
    uses_outer_join,
    uses_recursion,
)
from repro.transformer.dsl import Constant, Rule, Transformer, Variable, Wildcard

_MAX_HEAD_PERMUTATIONS = 5040  # 7! — beyond this only identity is tried
_SEARCH_NODE_BUDGET = 200_000


@dataclass
class DeductiveChecker:
    """Full equivalence verification for the UCQ fragment.

    ``enable_simplification`` toggles the integrity-constraint-aware
    rewrites (primary-key self-join collapse, foreign-key lookup
    elimination).  Turning it off is the ablation measured in
    ``benchmarks/bench_ablations.py``: without the rewrites the structural
    proof fails for most benchmarks, because the transpiled and
    hand-written queries differ exactly by constraint-implied joins.
    """

    time_budget_seconds: float = 20.0
    enable_simplification: bool = True

    def check(self, request: CheckRequest) -> CheckOutcome:
        started = time.monotonic()
        for query in (request.induced_query, request.target_query):
            if uses_aggregation(query):
                return _outcome(Verdict.UNSUPPORTED, started, "aggregation")
            if uses_outer_join(query):
                return _outcome(Verdict.UNSUPPORTED, started, "outer join")
            if uses_order_by(query):
                return _outcome(Verdict.UNSUPPORTED, started, "order by")
            if uses_recursion(query):
                return _outcome(Verdict.UNSUPPORTED, started, "recursive CTE")
        try:
            left = Normalizer(request.induced_schema).normalize(request.induced_query)
            right_raw = Normalizer(request.target_schema).normalize(request.target_query)
            right = unfold_views(right_raw, request.residual)
        except UnsupportedError as error:
            return _outcome(Verdict.UNSUPPORTED, started, str(error))
        if self.enable_simplification:
            left = [simplify(cq, request.induced_schema) for cq in left]
            right = [simplify(cq, request.induced_schema) for cq in right]
        deadline = started + self.time_budget_seconds
        try:
            verdict = decide_ucq_equivalence(left, right, deadline)
        except _Budget:
            return _outcome(Verdict.UNKNOWN, started, "search budget exhausted")
        if verdict:
            return _outcome(Verdict.EQUIVALENT, started, "tableaux isomorphic")
        return _outcome(Verdict.UNKNOWN, started, "no structural proof found")


def _outcome(verdict: Verdict, started: float, detail: str) -> CheckOutcome:
    return CheckOutcome(
        verdict, elapsed_seconds=time.monotonic() - started, detail=detail
    )


class _Budget(Exception):
    """Raised when the homomorphism search exceeds its node budget."""


# ---------------------------------------------------------------------------
# View unfolding (residual transformer rules as conjunctive views)
# ---------------------------------------------------------------------------


def unfold_views(cqs: list[ConjunctiveQuery], rdt: Transformer) -> list[ConjunctiveQuery]:
    """Replace target-relation atoms by the bodies of their defining rules.

    Each rule ``B1, ..., Bn → R(t̄)`` defines ``R`` as a conjunctive view
    over the induced schema.  Soundness under bag semantics needs the view
    to be duplicate-free, which holds for residual transformers derived from
    schema mappings whose extra body atoms are primary-key lookups; a
    relation with several defining rules is rejected as unsupported.
    """
    rules_by_head: dict[str, list[Rule]] = {}
    for rule in rdt:
        rules_by_head.setdefault(rule.head.name, []).append(rule)
    fresh = count(10_000)
    out = []
    for cq in cqs:
        out.append(_unfold_cq(cq, rules_by_head, fresh))
    return [cq for cq in out if cq is not None]


def _unfold_cq(
    cq: ConjunctiveQuery,
    rules_by_head: dict[str, list[Rule]],
    fresh,
) -> ConjunctiveQuery | None:
    current = cq
    progress = True
    while progress:
        progress = False
        for index, atom in enumerate(current.atoms):
            rules = rules_by_head.get(atom.relation)
            if not rules:
                continue
            if len(rules) > 1:
                raise UnsupportedError(
                    f"relation {atom.relation!r} has several defining rules"
                )
            replaced = _replace_atom(current, index, rules[0], fresh)
            if replaced is None:
                return None  # contradictory constants: the disjunct is empty
            current = replaced
            progress = True
            break
    return current


def _replace_atom(
    cq: ConjunctiveQuery, index: int, rule: Rule, fresh
) -> ConjunctiveQuery | None:
    atom = cq.atoms[index]
    if len(rule.head.terms) != len(atom.terms):
        raise UnsupportedError(
            f"rule head arity does not match atom {atom.relation!r}"
        )
    unifier = _head_unifier(rule.head.terms, atom.terms)
    if unifier is None:
        return None
    body_atoms: list[Atom] = []
    for body in rule.body:
        terms: list[Term] = []
        for term in body.terms:
            if isinstance(term, Constant):
                terms.append(Const(term.value))
            elif isinstance(term, Wildcard):
                terms.append(Var(next(fresh)))
            else:
                bound = unifier.get(term)
                if bound is None:
                    bound = unifier[term] = Var(next(fresh))
                terms.append(bound)
        body_atoms.append(Atom(body.name, tuple(terms)))
    result = replace(cq, atoms=cq.atoms[:index] + body_atoms + cq.atoms[index + 1 :])
    return map_terms(result, lambda v: unifier.get(v, v))


def _head_unifier(
    head: tuple, terms: tuple[Term, ...]
) -> dict[object, Term] | None:
    """The most general unifier of a rule *head*'s terms with an atom's
    *terms*: each rule variable and each unified tableau variable mapped to
    its class's constant, or else to the class's first tableau variable.
    ``None`` when a class holds two different constants (the atom cannot
    match the head, so the disjunct is empty).  It is applied in one step,
    so no pair of terms can bring back a variable another pair replaced,
    whatever order the terms come in."""
    parent: dict[object, object] = {}

    def find(term: object) -> object:
        root = parent.setdefault(term, term)
        while root != parent[root]:
            root = parent[root]
        return root

    for head_term, atom_term in zip(head, terms):
        if isinstance(head_term, Constant):
            head_term = Const(head_term.value)
        elif not isinstance(head_term, Variable):  # pragma: no cover
            raise UnsupportedError("wildcard in rule head")
        parent[find(head_term)] = find(atom_term)
    classes: dict[object, list] = {}
    for term in parent:
        classes.setdefault(find(term), []).append(term)
    unifier: dict[object, Term] = {}
    for members in classes.values():
        constants = {member for member in members if isinstance(member, Const)}
        if len(constants) > 1:
            return None
        if constants:
            (representative,) = constants
        else:
            representative = next(m for m in members if isinstance(m, Var))
        for member in members:
            unifier[member] = representative
    return unifier


# ---------------------------------------------------------------------------
# Constraint-aware simplification
# ---------------------------------------------------------------------------


def simplify(cq: ConjunctiveQuery, schema: RelationalSchema) -> ConjunctiveQuery:
    """Primary-key self-join collapse + foreign-key lookup elimination.

    Both rewrites are bag-equivalence preserving given the schema's
    integrity constraints; they normalise away the structural differences
    the transpiler introduces (re-joining a table on its primary key for a
    shared MATCH variable; scanning an endpoint table a hand-written query
    elides because the foreign key guarantees the join partner).
    """
    current = cq
    changed = True
    while changed:
        changed = False
        collapsed = _collapse_pk_self_join(current, schema)
        if collapsed is not None:
            current = collapsed
            changed = True
            continue
        pruned = _prune_fk_lookup(current, schema)
        if pruned is not None:
            current = pruned
            changed = True
    return _dedup_conditions(current)


def _collapse_pk_self_join(
    cq: ConjunctiveQuery, schema: RelationalSchema
) -> ConjunctiveQuery | None:
    for i, first in enumerate(cq.atoms):
        if not schema.has_relation(first.relation):
            continue
        pk = schema.constraints.primary_key_of(first.relation)
        if pk is None:
            continue
        pk_index = schema.relation(first.relation).attributes.index(pk)
        for j in range(i + 1, len(cq.atoms)):
            second = cq.atoms[j]
            if second.relation != first.relation:
                continue
            if first.terms[pk_index] != second.terms[pk_index]:
                continue
            # Same relation, same primary key ⇒ same row: merge.
            merged = replace(cq, atoms=cq.atoms[:j] + cq.atoms[j + 1 :])
            for left, right in zip(first.terms, second.terms):
                if left == right:
                    continue
                if isinstance(right, Var):
                    merged = substitute(merged, right, left)
                elif isinstance(left, Var):
                    merged = substitute(merged, left, right)
                elif left.value != right.value:  # contradictory constants
                    return None
            return merged
    return None


def _prune_fk_lookup(
    cq: ConjunctiveQuery, schema: RelationalSchema
) -> ConjunctiveQuery | None:
    """Drop an atom that is a guaranteed-unique, guaranteed-present lookup."""
    occurrences = _variable_occurrences(cq)
    for index, atom in enumerate(cq.atoms):
        if not schema.has_relation(atom.relation):
            continue
        pk = schema.constraints.primary_key_of(atom.relation)
        if pk is None:
            continue
        attributes = schema.relation(atom.relation).attributes
        pk_index = attributes.index(pk)
        pk_term = atom.terms[pk_index]
        if not isinstance(pk_term, Var):
            continue
        # Every non-key variable must be private to this atom.
        private = True
        for position, term in enumerate(atom.terms):
            if position == pk_index:
                continue
            if isinstance(term, Const):
                private = False
                break
            if occurrences.get(term, 0) > 1:
                private = False
                break
        if not private:
            continue
        if not _pk_var_guarded(cq, schema, atom, index, pk_term):
            continue
        return replace(cq, atoms=cq.atoms[:index] + cq.atoms[index + 1 :])
    return None


def _pk_var_guarded(
    cq: ConjunctiveQuery,
    schema: RelationalSchema,
    atom: Atom,
    atom_index: int,
    pk_term: Var,
) -> bool:
    """Is *pk_term* bound elsewhere by a NOT-NULL FK referencing this PK?"""
    pk = schema.constraints.primary_key_of(atom.relation)
    not_null = {
        (nn.relation, nn.attribute) for nn in schema.constraints.not_nulls
    }
    for other_index, other in enumerate(cq.atoms):
        if other_index == atom_index:
            continue
        if not schema.has_relation(other.relation):
            continue
        attributes = schema.relation(other.relation).attributes
        for position, term in enumerate(other.terms):
            if term != pk_term:
                continue
            attribute = attributes[position]
            for fk in schema.constraints.foreign_keys_of(other.relation):
                if (
                    fk.attribute == attribute
                    and fk.referenced == atom.relation
                    and fk.referenced_attribute == pk
                    and (other.relation, attribute) in not_null
                ):
                    return True
    return False


def _variable_occurrences(cq: ConjunctiveQuery) -> dict[Var, int]:
    counts: dict[Var, int] = {}

    def bump(term) -> None:
        if isinstance(term, Var):
            counts[term] = counts.get(term, 0) + 1

    for atom in cq.atoms:
        seen_here: set[Var] = set()
        for term in atom.terms:
            if isinstance(term, Var) and term not in seen_here:
                seen_here.add(term)
                bump(term)
    for condition in cq.conditions:
        bump(condition.left)
        if condition.right is not None:
            bump(condition.right)
    for head_term in cq.head:
        for variable in expr_vars(head_term):
            bump(variable)
    return counts


def _dedup_conditions(cq: ConjunctiveQuery) -> ConjunctiveQuery:
    kept: dict[tuple, Condition] = {}
    for condition in cq.conditions:
        kept.setdefault(condition.key(), condition)
    return replace(cq, conditions=list(kept.values()))


# ---------------------------------------------------------------------------
# UCQ equivalence decision
# ---------------------------------------------------------------------------


def decide_ucq_equivalence(
    left: list[ConjunctiveQuery], right: list[ConjunctiveQuery], deadline: float
) -> bool:
    """Equivalence of two UCQs modulo a global output-column permutation."""
    if not left and not right:
        return True
    if not left or not right:
        return False
    arity = len(left[0].head)
    if any(len(cq.head) != arity for cq in left + right):
        return False
    distinct_flags = {cq.distinct for cq in left + right}
    if len(distinct_flags) > 1:
        return False
    set_semantics = distinct_flags.pop()
    head_positions = list(range(arity))
    candidate_permutations = (
        permutations(head_positions)
        if factorial(arity) <= _MAX_HEAD_PERMUTATIONS
        else iter([tuple(head_positions)])
    )
    for permutation in candidate_permutations:
        if time.monotonic() > deadline:
            raise _Budget()
        permuted_right = [_permute_head(cq, permutation) for cq in right]
        if set_semantics:
            if _set_equivalent(left, permuted_right, deadline):
                return True
        else:
            if _bag_equivalent(left, permuted_right, deadline):
                return True
    return False


def _permute_head(cq: ConjunctiveQuery, permutation: tuple[int, ...]) -> ConjunctiveQuery:
    return replace(cq, head=[cq.head[p] for p in permutation])


def _bag_equivalent(
    left: list[ConjunctiveQuery], right: list[ConjunctiveQuery], deadline: float
) -> bool:
    """Perfect matching between disjuncts under isomorphism."""
    if len(left) != len(right):
        return False
    used: set[int] = set()

    def match(index: int) -> bool:
        if index == len(left):
            return True
        for j, candidate in enumerate(right):
            if j in used:
                continue
            if isomorphic(left[index], candidate, deadline):
                used.add(j)
                if match(index + 1):
                    return True
                used.remove(j)
        return False

    return match(0)


def _set_equivalent(
    left: list[ConjunctiveQuery], right: list[ConjunctiveQuery], deadline: float
) -> bool:
    """Mutual containment of UCQs (Sagiv–Yannakakis), conservatively."""
    return all(
        any(contained_in(l, r, deadline) for r in right) for l in left
    ) and all(any(contained_in(r, l, deadline) for l in left) for r in right)


# ---------------------------------------------------------------------------
# Isomorphism and homomorphism search
# ---------------------------------------------------------------------------


def isomorphic(
    cq1: ConjunctiveQuery, cq2: ConjunctiveQuery, deadline: float
) -> bool:
    """Tableau isomorphism: a variable bijection mapping atoms bijectively,
    preserving conditions (as a multiset) and the head exactly."""
    if sorted(a.relation for a in cq1.atoms) != sorted(a.relation for a in cq2.atoms):
        return False
    if len(cq1.conditions) != len(cq2.conditions):
        return False
    if len(cq1.head) != len(cq2.head):
        return False
    return _maps_onto(cq1, cq2, deadline, bijective=True)


def contained_in(
    sub: ConjunctiveQuery, sup: ConjunctiveQuery, deadline: float
) -> bool:
    """Set-semantics containment ``sub ⊆ sup`` via homomorphism ``sup → sub``.

    Conditions are handled conservatively: each condition of *sup* must map
    to a condition literally present in *sub*.
    """
    if len(sub.head) != len(sup.head):
        return False
    return _maps_onto(sup, sub, deadline, bijective=False)


def _maps_onto(
    source: ConjunctiveQuery,
    target: ConjunctiveQuery,
    deadline: float,
    bijective: bool,
) -> bool:
    """Backtracking search for a variable mapping that takes every atom of
    *source* to an atom of *target*, the head to *target*'s head exactly,
    and the conditions into *target*'s (as a subset).

    *bijective* asks for an isomorphism instead: variables map one-to-one
    onto variables, each target atom is the image of one source atom, and
    the conditions map onto *target*'s as a multiset.
    """
    groups: dict[str, list[Atom]] = {}
    for atom in source.atoms:
        groups.setdefault(atom.relation, []).append(atom)
    atoms = [atom for group in sorted(groups.values(), key=len) for atom in group]
    wanted = Counter(condition.key() for condition in target.conditions)
    # The search maps the atoms; the leaves map the head and conditions.
    unmatched = replace(source, atoms=[])
    mapping: dict[Var, Term] = {}
    images: set[Term] = set()  # the mapping's values, when bijective
    used: set[int] = set()
    budget = [_SEARCH_NODE_BUDGET]

    def bind(atom: Atom, image: Atom, added: list[Var]) -> bool:
        for term, onto in zip(atom.terms, image.terms):
            if isinstance(term, Const) or (bijective and isinstance(onto, Const)):
                if term != onto:
                    return False
                continue
            bound = mapping.get(term)
            if bound is not None:
                if bound != onto:
                    return False
                continue
            if bijective:
                if onto in images:
                    return False
                images.add(onto)
            mapping[term] = onto
            added.append(term)
        return True

    def image_matches() -> bool:
        image = map_terms(unmatched, mapping.get)
        if image is None or image.head != target.head:
            return False
        mapped = Counter(condition.key() for condition in image.conditions)
        return mapped == wanted if bijective else mapped.keys() <= wanted.keys()

    def search(index: int) -> bool:
        budget[0] -= 1
        if budget[0] <= 0 or time.monotonic() > deadline:
            raise _Budget()
        if index == len(atoms):
            return image_matches()
        for j, candidate in enumerate(target.atoms):
            if candidate.relation != atoms[index].relation or j in used:
                continue
            added: list[Var] = []
            if bind(atoms[index], candidate, added):
                if bijective:
                    used.add(j)
                if search(index + 1):
                    return True
                used.discard(j)
            for variable in added:
                images.discard(mapping.pop(variable))
        return False

    return search(0)
