"""Durable SQLite-backed job queue for the analysis daemon.

Every accepted submission becomes one row in ``jobs.sqlite`` and moves
through ``queued → running → done | failed``.  Durability is the whole
point: the row is committed before the HTTP 202 goes out, so a daemon
crash (or SIGTERM mid-run) can never lose an accepted job — on restart
:meth:`JobQueue.recover` puts interrupted ``running`` rows back to
``queued`` (or ``failed`` once their claim attempts are exhausted,
which is how a plugin that reliably kills its worker is quarantined
instead of crash-looping the daemon forever).

Backpressure is a bounded queue depth: :meth:`submit` raises
:class:`QueueFull` when ``max_depth`` jobs are already waiting, which
the HTTP front end maps to ``429 Too Many Requests``.

Fleet semantics (the coordinator of :mod:`repro.service.coordinator`
uses the same queue as its dispatch ledger):

- :meth:`claim` can take a **lease**: the claimer's name plus an
  expiry timestamp.  A healthy dispatcher keeps the lease alive with
  :meth:`extend_lease` while its node works.
- :meth:`expire_leases` is the work-stealing primitive — a ``running``
  row whose lease lapsed (dispatcher wedged, node SIGSTOPped, process
  gone) is **stolen** back to ``queued`` so another worker can claim
  it.  Stealing never decrements ``attempts`` (the interrupted attempt
  really happened), so a job that keeps dying lands in quarantine
  (``failed``, with an error naming the quarantine) after
  ``max_attempts`` instead of bouncing between nodes forever.
- :meth:`release` is only for claimed-but-unstarted returns during a
  graceful shutdown; it refunds the attempt (floored at zero) because
  no work was begun.

Thread safety: one shared connection guarded by a lock.  Queue
operations are tiny row updates, so serializing them costs nothing
next to the seconds-long analyses they bracket.
Every change that makes a row ``queued`` notifies one condition on
that lock, which a blocking :meth:`claim` waits on; a spool belongs to
one process, so the condition sees every write.  WAL journaling with
``synchronous`` at its default (FULL) keeps each commit durable.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: job lifecycle states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class QueueFull(Exception):
    """The bounded queue is at capacity; submission must be rejected."""


@dataclass(frozen=True)
class Job:
    """One submission's queue row."""

    id: str
    digest: str
    fingerprint: str
    plugin: str
    state: str
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    cached: bool = False
    error: Optional[str] = None
    #: lease fields (fleet dispatch ledger; all None for plain daemons)
    lease_owner: Optional[str] = None
    lease_expires: Optional[float] = None
    #: fleet node the job was last dispatched to (observability)
    node: Optional[str] = None

    @property
    def queued_seconds(self) -> float:
        """Queue-wait latency (0 until the job is claimed)."""
        if self.started_at is None:
            return 0.0
        return max(0.0, self.started_at - self.submitted_at)

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "digest": self.digest,
            "plugin": self.plugin,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "cached": self.cached,
            "queued_seconds": round(self.queued_seconds, 6),
            "node": self.node,
            "error": self.error,
        }


_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id TEXT PRIMARY KEY,
    digest TEXT NOT NULL,
    fingerprint TEXT NOT NULL DEFAULT '',
    plugin TEXT NOT NULL DEFAULT '',
    state TEXT NOT NULL DEFAULT 'queued',
    submitted_at REAL NOT NULL,
    started_at REAL,
    finished_at REAL,
    attempts INTEGER NOT NULL DEFAULT 0,
    cached INTEGER NOT NULL DEFAULT 0,
    error TEXT,
    lease_owner TEXT,
    lease_expires REAL,
    node TEXT
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs(state, submitted_at);
CREATE INDEX IF NOT EXISTS jobs_digest ON jobs(digest, fingerprint);
"""

#: columns added after the v1 schema shipped; old spools are migrated
#: in place when reopened
_MIGRATIONS = (
    ("lease_owner", "TEXT"),
    ("lease_expires", "REAL"),
    ("node", "TEXT"),
)


#: guards every queue's SQLite connection in this process and is taken
#: around every ``fork()``: a child forked while a thread is inside a
#: SQLite call inherits SQLite's own mutexes locked and hangs on its
#: first SQLite call (a process job slot's disk cache is one)
_SQLITE_LOCK = threading.Lock()
os.register_at_fork(
    before=_SQLITE_LOCK.acquire,
    after_in_parent=_SQLITE_LOCK.release,
    after_in_child=_SQLITE_LOCK.release,
)


class JobQueue:
    """Crash-safe spool of scan jobs (see module docstring)."""

    def __init__(
        self,
        path: str,
        max_depth: int = 64,
        max_attempts: int = 2,
    ) -> None:
        self.path = path
        self.max_depth = max_depth
        self.max_attempts = max_attempts
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._lock = _SQLITE_LOCK
        self._queued = threading.Condition(self._lock)
        with self._lock:
            self._conn = sqlite3.connect(path, check_same_thread=False)
            self._conn.row_factory = sqlite3.Row
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.executescript(_SCHEMA)
            present = {
                row["name"]
                for row in self._conn.execute("PRAGMA table_info(jobs)")
            }
            for column, kind in _MIGRATIONS:
                if column not in present:
                    self._conn.execute(
                        f"ALTER TABLE jobs ADD COLUMN {column} {kind}"
                    )
            self._conn.commit()

    # -- submission side ---------------------------------------------------

    def submit(
        self,
        digest: str,
        fingerprint: str = "",
        plugin: str = "",
        cached: bool = False,
    ) -> Tuple[Job, bool]:
        """Enqueue one job; returns ``(job, created)``.

        A submission whose ``(digest, fingerprint)`` is already queued
        or running coalesces onto the in-flight job instead of queueing
        duplicate work — both clients poll the same id, and ``created``
        is False.  ``cached=True`` records a submission that was
        answered straight from the result store: the row is born
        ``done`` so the status API stays uniform.
        """
        now = time.time()
        with self._lock:
            if not cached:
                row = self._conn.execute(
                    "SELECT * FROM jobs WHERE digest = ? AND fingerprint = ?"
                    " AND state IN (?, ?) ORDER BY submitted_at LIMIT 1",
                    (digest, fingerprint, QUEUED, RUNNING),
                ).fetchone()
                if row is not None:
                    return self._job(row), False
                depth = self._depth_locked()
                if depth >= self.max_depth:
                    raise QueueFull(
                        f"queue depth {depth} at capacity {self.max_depth}"
                    )
            job_id = uuid.uuid4().hex[:16]
            state = DONE if cached else QUEUED
            self._conn.execute(
                "INSERT INTO jobs (id, digest, fingerprint, plugin, state,"
                " submitted_at, finished_at, cached)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    job_id,
                    digest,
                    fingerprint,
                    plugin,
                    state,
                    now,
                    now if cached else None,
                    1 if cached else 0,
                ),
            )
            self._conn.commit()
            if not cached:
                self._queued.notify()
            return self._get_locked(job_id), True

    # -- worker side -------------------------------------------------------

    def claim(
        self,
        owner: str = "",
        lease_seconds: Optional[float] = None,
        stop: Optional[threading.Event] = None,
    ) -> Optional[Job]:
        """Atomically move the oldest queued job to ``running``.

        Without ``stop`` this returns None when nothing is queued; with
        it, it blocks until a row is queued or ``stop`` is set (a blocked
        caller notices that on :meth:`wake`).

        ``owner``/``lease_seconds`` attach a lease to the claim: if the
        claimer stops extending it (crash, wedge, straggler node), the
        row becomes stealable via :meth:`expire_leases`.
        """
        with self._queued:
            while True:
                if stop is not None and stop.is_set():
                    return None
                row = self._conn.execute(
                    "SELECT id FROM jobs WHERE state = ?"
                    " ORDER BY submitted_at, id LIMIT 1",
                    (QUEUED,),
                ).fetchone()
                if row is not None:
                    break
                if stop is None:
                    return None
                self._queued.wait()
            now = time.time()
            expires = now + lease_seconds if lease_seconds else None
            self._conn.execute(
                "UPDATE jobs SET state = ?, started_at = ?,"
                " attempts = attempts + 1, lease_owner = ?,"
                " lease_expires = ? WHERE id = ?",
                (RUNNING, now, owner or None, expires, row["id"]),
            )
            self._conn.commit()
            return self._get_locked(row["id"])

    def wake(self) -> None:
        """Wake every blocked :meth:`claim` so it rechecks its ``stop``."""
        with self._queued:
            self._queued.notify_all()

    def extend_lease(self, job_id: str, lease_seconds: float) -> None:
        """Push a running job's lease expiry out (healthy heartbeat)."""
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET lease_expires = ? WHERE id = ? AND state = ?",
                (time.time() + lease_seconds, job_id, RUNNING),
            )
            self._conn.commit()

    def assign_node(self, job_id: str, node: str) -> None:
        """Record which fleet node the job was dispatched to."""
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET node = ? WHERE id = ?", (node, job_id)
            )
            self._conn.commit()

    def complete(self, job_id: str) -> None:
        self._finish(job_id, DONE, None)

    def fail(self, job_id: str, error: str) -> None:
        self._finish(job_id, FAILED, error)

    def release(self, job_id: str) -> None:
        """Put a claimed-but-unstarted job back (graceful shutdown).

        The attempt is refunded (floored at zero) because no work was
        begun — unlike :meth:`steal`, which charges the interrupted
        attempt so repeatedly-dying jobs converge on quarantine.
        """
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET state = ?, started_at = NULL,"
                " attempts = MAX(attempts - 1, 0), lease_owner = NULL,"
                " lease_expires = NULL WHERE id = ? AND state = ?",
                (QUEUED, job_id, RUNNING),
            )
            self._conn.commit()
            self._queued.notify()

    def steal(self, job_id: str, reason: str = "lease expired") -> str:
        """Take a running job away from its (dead/wedged) worker.

        Returns one of:

        - ``"stolen"`` — the row went back to ``queued`` for the next
          claimer, keeping its ``attempts`` count (the interrupted
          attempt happened; it must count toward quarantine).
        - ``"quarantined"`` — attempts were already exhausted, so the
          row was failed for good instead of flipping back to
          ``queued`` forever.  The caller records the incident in
          telemetry.
        - ``"noop"`` — the row was not ``running`` (finished while we
          decided, or unknown id).
        """
        with self._lock:
            return self._steal_locked(job_id, reason)

    def _steal_locked(
        self, job_id: str, reason: str, verdict: str = "quarantined"
    ) -> str:
        row = self._conn.execute(
            "SELECT state, attempts FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None or row["state"] != RUNNING:
            return "noop"
        if row["attempts"] >= self.max_attempts:
            self._conn.execute(
                "UPDATE jobs SET state = ?, finished_at = ?, error = ?,"
                " lease_owner = NULL, lease_expires = NULL WHERE id = ?",
                (
                    FAILED,
                    time.time(),
                    f"{verdict} after {row['attempts']} attempt(s): {reason}",
                    job_id,
                ),
            )
            self._conn.commit()
            return "quarantined"
        self._conn.execute(
            "UPDATE jobs SET state = ?, started_at = NULL,"
            " lease_owner = NULL, lease_expires = NULL WHERE id = ?",
            (QUEUED, job_id),
        )
        self._conn.commit()
        self._queued.notify()
        return "stolen"

    def expire_leases(self, now: Optional[float] = None) -> List[Tuple[Job, str]]:
        """Steal every running job whose lease has lapsed.

        Returns ``(job, outcome)`` pairs where ``outcome`` is
        ``"stolen"`` or ``"quarantined"`` (see :meth:`steal`); rows
        without a lease are never touched.
        """
        cutoff = time.time() if now is None else now
        with self._lock:
            rows = self._conn.execute(
                "SELECT id FROM jobs WHERE state = ?"
                " AND lease_expires IS NOT NULL AND lease_expires < ?",
                (RUNNING, cutoff),
            ).fetchall()
            expired = []
            for row in rows:
                job = self._get_locked(row["id"])
                outcome = self._steal_locked(row["id"], "lease expired")
                if outcome != "noop":
                    expired.append((job, outcome))
            return expired

    def _finish(self, job_id: str, state: str, error: Optional[str]) -> None:
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET state = ?, finished_at = ?, error = ?"
                " WHERE id = ?",
                (state, time.time(), error, job_id),
            )
            self._conn.commit()

    # -- restart / introspection -------------------------------------------

    def recover(self) -> int:
        """Requeue jobs interrupted by a crash; returns how many.

        Rows still ``running`` when the daemon starts belong to a
        previous process that died mid-analysis.  Each is stolen back
        like a lapsed lease, so once its claim attempts are exhausted it
        is failed for good (a reliably worker-killing input must not
        crash-loop the daemon).
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT id FROM jobs WHERE state = ?", (RUNNING,)
            ).fetchall()
            outcomes = [
                self._steal_locked(row["id"], "interrupted by a restart", "abandoned")
                for row in rows
            ]
            return outcomes.count("stolen")

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            return self._job(row) if row is not None else None

    def depth(self) -> int:
        """Jobs currently waiting (the bounded-depth measure)."""
        with self._lock:
            return self._depth_locked()

    def counts(self) -> Dict[str, int]:
        """Row count per state (for ``GET /metrics``)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        counts = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        for row in rows:
            counts[row["state"]] = row["n"]
        return counts

    def jobs_in(self, *states: str) -> List[Job]:
        with self._lock:
            marks = ",".join("?" for _ in states)
            rows = self._conn.execute(
                f"SELECT * FROM jobs WHERE state IN ({marks})"
                " ORDER BY submitted_at, id",
                states,
            ).fetchall()
            return [self._job(row) for row in rows]

    def close(self) -> None:
        with self._lock:
            self._conn.close()
            self._queued.notify_all()

    # -- helpers -----------------------------------------------------------

    def _depth_locked(self) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) AS n FROM jobs WHERE state = ?", (QUEUED,)
        ).fetchone()
        return row["n"]

    def _get_locked(self, job_id: str) -> Job:
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return self._job(row)

    @staticmethod
    def _job(row: sqlite3.Row) -> Job:
        return Job(
            id=row["id"],
            digest=row["digest"],
            fingerprint=row["fingerprint"],
            plugin=row["plugin"],
            state=row["state"],
            submitted_at=row["submitted_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            attempts=row["attempts"],
            cached=bool(row["cached"]),
            error=row["error"],
            lease_owner=row["lease_owner"],
            lease_expires=row["lease_expires"],
            node=row["node"],
        )
