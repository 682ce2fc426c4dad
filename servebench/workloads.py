"""The serving benchmark's workloads: query texts generated from a seed.

Every workload runs over the ``social`` universe (USER/POST nodes with
FOLLOWS, WROTE and LIKES edge tables) loaded with ``load_mock`` at
:data:`ROWS_PER_TABLE` rows per table on the default ``sqlite-memory``
backend.  The seed drives the mock data and every literal in the texts, so
one seed always yields the same dataset and the same query stream.

Each workload names the layers it stresses in :attr:`Workload.why`; the
same sentences sit in ``BENCHMARK.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Rows per table of the timed dataset.
ROWS_PER_TABLE = 2000

#: Rows per table of the correctness-gate dataset.  The reference evaluator
#: nested-loops its joins, so the gate stays small.
GATE_ROWS = 40

#: Distinct point lookups of ``point-hot``/``point-async`` (the service's
#: transpilation LRU holds 128 entries, so they all stay cached).
POINT_TEXTS = 64

#: Distinct texts ``cold-stream`` cycles through: 8x the LRU, so every
#: prepare misses, while the per-text state the service keeps stays the
#: same size however many queries a run completes.  A multiple of the
#: template count, so the templates take turns even across the wrap.
COLD_TEXTS = 1026

POINT_TEMPLATE = "MATCH (n:USER) WHERE n.uid = {k} RETURN n.uname, n.age"

#: Five texts, not four: with an odd count the median latency falls inside
#: one text's distribution instead of on the edge between two.
LARGE_TEMPLATES = (
    "MATCH (a:USER)-[w:WROTE]->(p:POST) RETURN a.uname, p.title",
    "MATCH (a:USER)-[f:FOLLOWS]->(b:USER) RETURN a.uname, b.uname",
    "MATCH (u:USER)-[l:LIKES]->(p:POST) RETURN u.uname, p.score",
    "MATCH (a:USER)-[:FOLLOWS*1..2]->(b:USER) RETURN a.uid, b.uid",
    "MATCH (u:USER)-[l:LIKES]->(p:POST) RETURN p.pid, Count(*)",
)

#: A one-table filter, a one-hop join and a two-hop aggregate: three, so
#: the median latency falls inside the middle one's distribution.
COLD_TEMPLATES = (
    "MATCH (n:POST) WHERE n.pid = {k} RETURN n.title, n.score",
    "MATCH (a:USER)-[w:WROTE]->(p:POST) WHERE p.pid = {k} RETURN a.uname, p.score",
    "MATCH (a:USER)-[f:FOLLOWS]->(b:USER)-[w:WROTE]->(p:POST) "
    "WHERE a.uid = {k} RETURN b.uname, Count(*)",
)


@dataclass(frozen=True)
class Workload:
    """One traffic mix: its texts, how it is driven, and why it exists."""

    name: str
    why: str
    #: ``"sync"`` drives ``GraphitiService.run``; ``"async"`` drives
    #: ``AsyncGraphitiService.run``.
    mode: str
    #: Closed-loop clients (each sends its next query when the last returns).
    clients: int
    #: Whether set-up serves every text once, so timed prepares hit the LRU.
    primed: bool
    #: Query templates; ``{k}`` is a node key drawn from the seed.
    templates: tuple[str, ...]
    #: Distinct texts per run (one per template when the templates carry
    #: no literal).
    distinct: int
    #: Name of the literal stream; workloads that share one send the same
    #: texts and differ only in how they are driven.
    stream: str = ""
    #: Rows the workload's answers must average per query (0: no floor).
    min_mean_rows: int = 0

    def texts(self, seed: int, rows: int = ROWS_PER_TABLE) -> list[str]:
        """The run's distinct query texts, in the order they are sent."""
        if "{k}" not in self.templates[0]:
            return list(self.templates)
        rng = random.Random(f"servebench:{self.stream or self.name}:{seed}")
        per_template = -(-self.distinct // len(self.templates))
        keys = [
            rng.sample(range(1, rows + 1), min(per_template, rows))
            for _ in self.templates
        ]
        texts = []
        for index in range(self.distinct):
            template = index % len(self.templates)
            literals = keys[template]
            texts.append(
                self.templates[template].format(
                    k=literals[(index // len(self.templates)) % len(literals)]
                )
            )
        return texts

    def gate_texts(self, seed: int) -> list[str]:
        """One instance of every template, with literals valid at
        :data:`GATE_ROWS` rows per table."""
        rng = random.Random(f"servebench:gate:{self.name}:{seed}")
        return [
            template.format(k=rng.randint(1, GATE_ROWS))
            for template in self.templates
        ]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "point-hot",
            "Warm point lookups that all hit the LRU: SQLite does ~2 us of a "
            "~50 us query, so this measures the service's fixed per-query "
            "overhead.",
            mode="sync",
            clients=1,
            primed=True,
            templates=(POINT_TEMPLATE,),
            distinct=POINT_TEXTS,
            stream="point",
        ),
        Workload(
            "large-result",
            "2,000-row joins, a FOLLOWS*1..2 traversal and a grouped count: "
            "engine execution, fetch and per-cell conversion dominate; fixed "
            "overhead is under 2%.",
            mode="sync",
            clients=1,
            primed=True,
            templates=LARGE_TEMPLATES,
            distinct=len(LARGE_TEMPLATES),
            min_mean_rows=2000,
        ),
        Workload(
            "cold-stream",
            "A new literal in every text, so every prepare misses the LRU: "
            "parse, transpile, optimize and render dominate, and per-text "
            "service state grows.",
            mode="sync",
            clients=1,
            primed=False,
            templates=COLD_TEMPLATES,
            distinct=COLD_TEXTS,
        ),
        Workload(
            "point-async",
            "The point-hot texts through AsyncGraphitiService with 2 "
            "concurrent clients: the async layer and pool contention are "
            "measured nowhere else.",
            mode="async",
            clients=2,
            primed=True,
            templates=(POINT_TEMPLATE,),
            distinct=POINT_TEXTS,
            stream="point",
        ),
    )
}
