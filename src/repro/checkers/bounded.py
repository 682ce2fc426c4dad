"""VeriEQL-style bounded model checking (paper Section 6.1 backend).

The paper's first backend, VeriEQL, symbolically explores all database
instances whose tables hold at most *k* rows, growing *k* until it refutes
equivalence or exhausts a time budget.  No SMT solver is available offline,
so this substitute explores the same bounded space by sampling legal
induced-schema instances (see :mod:`repro.checkers.generation`), mapping
each through the residual transformer, executing both queries with the
reference evaluator, and comparing result tables under Definition 4.4.

The contract matches VeriEQL's: a ``NOT_EQUIVALENT`` verdict carries a
concrete counterexample (which the pipeline lifts to a property graph), and
the absence of a counterexample up to the reached bound is reported as
``BOUNDED_EQUIVALENT`` together with that bound.  An instance on which
either query raises (an ill-typed or ill-formed query) is evidence of
neither: when any instance raised and none refuted, the verdict is
``UNKNOWN``, and its detail counts the instances that raised and quotes the
first error.

Counterexamples are shrunk greedily (row removal while the disagreement and
the integrity constraints persist) so the witnesses match the paper's tiny
Figure 3 / Figure 23 style instances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.checkers.base import CheckOutcome, CheckRequest, Verdict
from repro.checkers.generation import InstanceGenerator, collect_constant_seeds
from repro.common.errors import GraphitiError
from repro.relational.instance import Database, Table, tables_equivalent
from repro.sql.semantics import evaluate_query
from repro.transformer.semantics import transform_database


@dataclass
class BoundedChecker:
    """Bounded equivalence checking with growing per-table row bounds.

    ``enable_constant_seeding`` and ``enable_shrinking`` exist for the
    ablation study (``benchmarks/bench_ablations.py``): seeding is what
    makes selective predicates reachable with tiny domains, and shrinking
    is what turns raw witnesses into paper-sized counterexamples.
    """

    max_bound: int = 6
    samples_per_bound: int = 220
    time_budget_seconds: float = 20.0
    seed: int = 2025
    enable_constant_seeding: bool = True
    enable_shrinking: bool = True

    def check(self, request: CheckRequest) -> CheckOutcome:
        started = time.monotonic()
        if self.enable_constant_seeding:
            seeds = collect_constant_seeds(
                [request.induced_query, request.target_query], [request.residual]
            )
        else:
            seeds = {}
        generator = InstanceGenerator(
            request.induced_schema,
            seeds=seeds,
        )
        generator.rng.seed(self.seed)
        checked = 0
        reached_bound = 0
        raised = 0
        first_error = ""
        for bound in range(1, self.max_bound + 1):
            for _ in range(self.samples_per_bound):
                if time.monotonic() - started > self.time_budget_seconds:
                    return _unrefuted(
                        reached_bound, checked, started, raised, first_error,
                        "time budget exhausted",
                    )
                induced = generator.random_instance(bound)
                checked += 1
                try:
                    disagrees = self._disagree(request, induced)
                except GraphitiError as error:
                    raised += 1
                    first_error = first_error or str(error)
                    continue
                if disagrees:
                    return self._refutation(request, induced, bound, checked, started)
            reached_bound = bound
        return _unrefuted(reached_bound, checked, started, raised, first_error)

    # -- single-instance check ------------------------------------------------

    def _refutation(
        self,
        request: CheckRequest,
        induced: Database,
        bound: int,
        checked: int,
        started: float,
    ) -> CheckOutcome:
        induced_small = self._shrink(request, induced) if self.enable_shrinking else induced
        target_small = transform_database(
            request.residual, induced_small, request.target_schema
        )
        return CheckOutcome(
            Verdict.NOT_EQUIVALENT,
            induced_witness=induced_small,
            target_witness=target_small,
            checked_bound=bound,
            instances_checked=checked,
            elapsed_seconds=time.monotonic() - started,
        )

    def _disagree(self, request: CheckRequest, induced: Database) -> bool:
        """Whether the queries disagree on *induced*, a legal instance whose
        target image is legal too (any other instance agrees).  An error
        evaluating either query propagates."""
        if induced.constraint_violation() is not None:
            return False
        try:
            target = transform_database(
                request.residual, induced, request.target_schema
            )
        except GraphitiError:
            return False
        if target.constraint_violation() is not None:
            return False
        left = evaluate_query(request.induced_query, induced)
        right = evaluate_query(request.target_query, target)
        return not tables_equivalent(left, right)

    # -- shrinking --------------------------------------------------------------

    def _shrink(self, request: CheckRequest, induced: Database) -> Database:
        """Greedy row-removal shrinking preserving the disagreement."""
        current = induced
        improved = True
        while improved:
            improved = False
            for relation in current.schema.relations:
                table = current.table(relation.name)
                for index in range(len(table.rows)):
                    candidate = _without_row(current, relation.name, index)
                    if candidate.constraint_violation() is not None:
                        continue
                    try:
                        disagrees = self._disagree(request, candidate)
                    except GraphitiError:
                        continue  # a smaller instance that raises witnesses nothing
                    if disagrees:
                        current = candidate
                        improved = True
                        break
                if improved:
                    break
        return current


def _unrefuted(
    bound: int,
    checked: int,
    started: float,
    raised: int,
    first_error: str,
    detail: str = "",
) -> CheckOutcome:
    """The verdict when no instance refuted: ``BOUNDED_EQUIVALENT`` up to
    *bound*, or ``UNKNOWN`` when *raised* of the *checked* instances raised."""
    verdict = Verdict.BOUNDED_EQUIVALENT
    if raised:
        verdict = Verdict.UNKNOWN
        errors = f"{raised} of {checked} instances raised: {first_error}"
        detail = f"{errors}; {detail}" if detail else errors
    return CheckOutcome(
        verdict,
        checked_bound=bound,
        instances_checked=checked,
        elapsed_seconds=time.monotonic() - started,
        detail=detail,
    )


def _without_row(database: Database, relation_name: str, index: int) -> Database:
    clone = Database(database.schema)
    for name, table in database.tables.items():
        rows = list(table.rows)
        if name == relation_name:
            rows = rows[:index] + rows[index + 1 :]
        clone.set_table(name, Table(table.attributes, rows))
    return clone
