"""A persistent, cross-process transpilation cache.

The in-memory LRU in :class:`~repro.backends.service.GraphitiService` makes
*repeated* queries cheap within one process; this module makes them cheap
across processes.  Prepared queries (optimised SQL AST + rendered text) are
pickled into a small SQLite store keyed by the same :class:`PlanKey` the
LRU uses — schema fingerprint, Cypher text, dialect, opt level, statistics
digest, forced recursion, depth cap, feedback epoch, row scale and
parallel degree — so a cold process skips parse → transpile → optimize →
render entirely for any query any previous process prepared over the same
schema and statistics.

The statistics component is a *content digest* (not the process-local epoch
counter): two processes that load the same data derive the same digest and
therefore share entries, while loading different data invalidates level-2
plans exactly as it should (fresh statistics can change the chosen join
order).

Store location: ``$GRAPHITI_CACHE_DIR``, else ``$XDG_CACHE_HOME/graphiti-repro``,
else ``~/.cache/graphiti-repro``.  The store versions its format with
``PRAGMA user_version`` and silently rebuilds on mismatch — a cache may
always be dropped.  Entries that fail to unpickle (e.g. the AST classes
changed between releases) count as misses and are purged.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sqlite3
import threading
import time
from pathlib import Path
from typing import NamedTuple

#: Bump when the pickled payload or key layout changes incompatibly.
#: 2: PreparedQuery grew a ``plan`` (PlanReport) field — version-1 pickles
#: would unpickle without it and fail on attribute access.
#: 3: PreparedQuery grew ``feedback`` (ExecutionFeedback) and
#: ``feedback_epoch`` fields for adaptive execution — version-2 pickles
#: lack both and would fail on attribute access.
#: 4: a variant plan's key names each non-default :class:`PlanKey` field
#: (``|depth_cap=2|parallelism=3``) where one ``fr1:dc2:fb1.0.1:par3``
#: string was; plain plans keep their keys.
#: 5: PreparedQuery grew ``runner`` (the partition gate's executor, never
#: stored) and ExecutionFeedback ``timings``; a partition-parallel key
#: carries the statistics digest at every level.
SCHEMA_VERSION = 5

CACHE_FILE_NAME = "transpilations.sqlite"


def default_cache_dir() -> Path:
    """The platform cache directory for this package (not yet created)."""
    override = os.environ.get("GRAPHITI_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "graphiti-repro"


class PlanKey(NamedTuple):
    """Everything a prepared plan depends on, and the key of both cache
    tiers: :meth:`GraphitiService._plan_key
    <repro.backends.service.GraphitiService._plan_key>` builds it, and a
    miss plans from its fields alone.  The fields after ``stats_digest``
    are the plan variants, all at their defaults for a plain plan."""

    fingerprint: str
    text: str
    dialect: str
    level: int
    #: Empty unless the entry reads statistics: at level 2, and at a
    #: partition degree of 2 or more (the gate prices row counts).
    stats_digest: str
    force_recursive: bool = False  # a budget downgrade, or feedback
    depth_cap: int | None = None  # a ``max_depth`` budget's traversal cap
    feedback_epoch: int = 0
    row_scale: float = 1.0  # the feedback's base-row correction
    parallelism: int = 1  # the service's partition-parallel degree


def cache_key(*fields: object) -> str:
    """The store's primary key for the :class:`PlanKey` of *fields*
    (``cache_key(*key)``): stable, compact, collision-resistant.

    The Cypher text is hashed (queries can be long and multi-line); the
    other fields are short and kept readable for debugging.  A variant
    field appears only when it differs from its default, so a plain
    plan's key names just the five fields before them.
    """
    key = PlanKey(*fields)
    hashed = hashlib.sha256(key.text.encode("utf-8")).hexdigest()[:32]
    parts = [key.fingerprint, hashed, key.dialect, str(key.level), key.stats_digest]
    for name, default in PlanKey._field_defaults.items():
        value = getattr(key, name)
        if value != default:
            parts.append(f"{name}={value!r}")
    return "|".join(parts)


class PersistentQueryCache:
    """SQLite-backed pickle store for prepared queries (thread-safe)."""

    def __init__(self, path: str | Path | None = None) -> None:
        if path is None:
            path = default_cache_dir() / CACHE_FILE_NAME
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._connection = sqlite3.connect(str(self.path), check_same_thread=False)
        self._initialise()

    def _initialise(self) -> None:
        with self._lock:
            version = self._connection.execute("PRAGMA user_version").fetchone()[0]
            if version not in (0, SCHEMA_VERSION):
                self._connection.execute("DROP TABLE IF EXISTS entries")
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                "  key TEXT PRIMARY KEY,"
                "  cypher TEXT NOT NULL,"
                "  payload BLOB NOT NULL,"
                "  created_at REAL NOT NULL"
                ")"
            )
            self._connection.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
            self._connection.commit()

    # -- store -------------------------------------------------------------

    def get(self, key: str) -> object | None:
        """The stored prepared query for *key*, or ``None`` (counted).

        The whole read — select, unpickle, possible purge of a stale
        payload, counter update — happens under the lock, so a concurrent
        ``put`` of the same key can never be deleted by a racing purge and
        the hit/miss counters never lose increments.
        """
        with self._lock:
            row = self._connection.execute(
                "SELECT payload FROM entries WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                self.misses += 1
                return None
            try:
                value = pickle.loads(row[0])
            except Exception:
                # Stale payload from an incompatible build: purge and miss.
                self._connection.execute("DELETE FROM entries WHERE key = ?", (key,))
                self._connection.commit()
                self.misses += 1
                return None
            self.hits += 1
            return value

    def put(self, key: str, cypher_text: str, value: object) -> None:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._connection.execute(
                "INSERT OR REPLACE INTO entries (key, cypher, payload, created_at) "
                "VALUES (?, ?, ?, ?)",
                (key, cypher_text, payload, time.time()),
            )
            self._connection.commit()

    # -- maintenance ---------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return self._connection.execute(
                "SELECT COUNT(*) FROM entries"
            ).fetchone()[0]

    def clear(self) -> None:
        """Drop every entry (keeps the store file and counters' semantics)."""
        with self._lock:
            self._connection.execute("DELETE FROM entries")
            self._connection.commit()
        self.hits = 0
        self.misses = 0

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "PersistentQueryCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
