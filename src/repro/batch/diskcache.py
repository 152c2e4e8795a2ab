"""Disk-persistent model cache: the batch scanner's shared parse store.

The in-memory :class:`~repro.core.cache.ModelCache` dies with the
process, so CI runs, the history workflow and ``timing_repetitions``
would re-parse every unchanged file.  :class:`DiskModelCache` also
pickles every cached artifact into one row of
``cache_dir/objects.sqlite``, keyed by its cache key, and a memory miss
probes that table before re-parsing.  Keys carry a content digest, so
the store needs no invalidation; WAL mode with autocommit makes each
store visible at once to every process sharing the directory.  The
memory tier is bounded by estimated heap bytes
(:data:`~repro.core.cache.MEMORY_TIER_MAX_BYTES`); the disk tier is
unbounded, survives across runs and also keeps entries too large for
the memory budget (``clear()`` drops both tiers).
"""

from __future__ import annotations

import os
import pickle
import sqlite3
from typing import List, Optional

from ..core.cache import MEMORY_TIER_MAX_BYTES, ModelCache, _Slot
from ..perf import counters

#: connections a forked child inherited: SQLite must not use or close a
#: connection across ``fork()``, so the child keeps them, unused
_INHERITED: List[sqlite3.Connection] = []


class DiskModelCache(ModelCache):
    """A :class:`ModelCache` backed by a persistent cache directory."""

    def __init__(
        self,
        cache_dir: str,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = MEMORY_TIER_MAX_BYTES,
    ) -> None:
        super().__init__(max_entries=max_entries, max_bytes=max_bytes)
        self.cache_dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)
        self._db_path = os.path.join(cache_dir, "objects.sqlite")
        self._db: Optional[sqlite3.Connection] = None
        self._db_pid = 0

    # -- tiering -----------------------------------------------------------

    def _load(self, key: str) -> Optional[_Slot]:
        slot = super()._load(key)
        if slot is not None:
            return slot
        row = self._execute("SELECT slot FROM objects WHERE key = ?", key)
        if row is None:
            return None
        try:
            model, error = pickle.loads(row[0])
        except Exception:
            # truncated/corrupted/stale-format row: delete it so the
            # next store rewrites it, and count it for batch telemetry
            counters.cache_corrupt += 1
            self._execute("DELETE FROM objects WHERE key = ?", key)
            return None
        counters.cache_disk_hits += 1
        # promote into the memory LRU without re-writing the object
        super()._insert(key, (model, error))
        return model, error

    def _insert(self, key: str, slot: _Slot) -> None:
        super()._insert(key, slot)
        try:
            blob = pickle.dumps(tuple(slot), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return  # unpicklable model: keep the memory entry only
        self._execute("INSERT OR REPLACE INTO objects VALUES (?, ?)", key, blob)

    def clear(self) -> None:
        """Drop the memory tier *and* the persistent objects."""
        super().clear()
        self._execute("DELETE FROM objects")

    def disk_len(self) -> int:
        """Number of objects currently persisted."""
        row = self._execute("SELECT COUNT(*) FROM objects")
        return row[0] if row else 0

    def _connection(self) -> sqlite3.Connection:
        """This process's connection, opened on first use."""
        if self._db is not None and self._db_pid != os.getpid():
            _INHERITED.append(self._db)  # forked: open our own
            self._db = None
        while self._db is None:
            db = sqlite3.connect(
                self._db_path, timeout=30.0, isolation_level=None,
                check_same_thread=False,
            )
            try:
                db.executescript(
                    "PRAGMA journal_mode=WAL; PRAGMA synchronous=NORMAL;"
                    " PRAGMA cache_size=-256; CREATE TABLE IF NOT EXISTS"
                    " objects (key TEXT PRIMARY KEY, slot BLOB) WITHOUT ROWID"
                )
                self._db, self._db_pid = db, os.getpid()
            except sqlite3.DatabaseError as error:
                db.close()
                if isinstance(error, sqlite3.OperationalError):
                    raise
                # not a database: move it aside, drop its WAL (which must
                # not replay onto the fresh file) and start over
                counters.cache_corrupt += 1
                os.replace(self._db_path, self._db_path + ".corrupt")
                for leftover in ("-wal", "-shm"):
                    if os.path.exists(self._db_path + leftover):
                        os.remove(self._db_path + leftover)
        return self._db

    def _execute(self, sql: str, *params) -> Optional[tuple]:
        """First row of one statement; None if the store is unusable."""
        try:
            return self._connection().execute(sql, params).fetchone()
        except (sqlite3.Error, OSError):
            return None
