"""Worker pool: drains the job queue into the batch analysis pipeline.

Each worker is a dispatcher thread that claims jobs from the durable
:class:`~repro.service.queue.JobQueue` and runs each one through the
job routine the batch scanner uses (:func:`repro.batch.job.run_job`,
as a diff-aware rescan), so the daemon inherits everything that
subsystem already provides: the persistent
:class:`~repro.batch.DiskModelCache` parse/summary tiers (repeat
submissions of mostly-unchanged plugins are near-free), the SIGALRM
per-job deadline, and the typed incident taxonomy for timeouts/crashes.

Every dispatcher thread owns one :class:`~repro.batch.job.JobSlot`,
the executor the batch scanner runs its jobs on too.  Two isolation
levels pick its kind:

``process`` (default)
    A process slot.  A job that kills its worker process (segfault,
    ``os._exit``) is failed with a fatal incident and counts one worker
    restart; the slot starts a fresh worker for the next job and the
    pool keeps serving.  Any other executor error (a result that cannot
    be pickled back) fails the job the same way.  The worker process
    persists across jobs, keeping its in-memory cache tiers warm.

``thread``
    An inline slot: the analysis runs inside the dispatcher thread
    itself — no fork, used by tests and fork-hostile environments.
    Deadlines degrade to the engine's per-unit ``file_deadline`` and a
    hard crash would take the daemon down, which is why it is not the
    default.

Per-job perf attribution uses :func:`repro.perf.scoped` inside the job
routine, which is race-free under concurrent workers because the
counters are thread-local.  The pool's telemetry keeps running totals
only; per-job detail lives in each job's result document.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional

from ..batch.job import JobSlot
from ..batch.scheduler import ToolSpec
from ..batch.telemetry import ScanTelemetry, ServiceStats
from ..core.phpsafe import PhpSafeOptions
from ..core.results import ToolReport
from ..core.review import to_json
from .queue import Job, JobQueue
from .sarif import to_sarif
from .store import ResultStore

#: schema of the stored result document
RESULT_SCHEMA = "repro.service.result/v2"


def result_document(
    job: Job,
    report: ToolReport,
    outcome: str,
    rescan: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The JSON document persisted per finished job: the full review
    report, its SARIF rendering, and the service-side envelope.

    Schema v2 adds the ``rescan`` section — how much of the plugin's
    prior analysis the diff-aware rescan reused (empty dict when the
    tool has no incremental path)."""
    return {
        "schema": RESULT_SCHEMA,
        "digest": job.digest,
        "fingerprint": job.fingerprint,
        "outcome": outcome,
        "queued_seconds": round(job.queued_seconds, 6),
        "seconds": round(report.seconds, 6),
        "rescan": dict(rescan or {}),
        "report": json.loads(to_json(report)),
        "sarif": to_sarif(report),
    }


class WorkerPool:
    """N dispatcher threads draining the queue (see module docstring)."""

    def __init__(
        self,
        queue: JobQueue,
        store: ResultStore,
        spec: Optional[ToolSpec] = None,
        jobs: int = 1,
        timeout: Optional[float] = None,
        cache_dir: Optional[str] = None,
        isolation: str = "process",
        stats: Optional[ServiceStats] = None,
        poll_interval: float = 0.05,
    ) -> None:
        if isolation not in ("process", "thread"):
            raise ValueError(f"unknown isolation level {isolation!r}")
        self.queue = queue
        self.store = store
        self.spec = spec or ToolSpec()
        self.jobs = max(1, jobs)
        self.timeout = timeout
        self.cache_dir = cache_dir
        self.isolation = isolation
        self.poll_interval = poll_interval
        # running totals only: a row per job would grow without bound
        self.stats = stats if stats is not None else ServiceStats()
        self.telemetry = ScanTelemetry(
            jobs=self.jobs, plugins=None, service=self.stats
        )
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._started_at: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._threads:
            return
        self._stop.clear()
        self._started_at = time.monotonic()
        for slot in range(self.jobs):
            thread = threading.Thread(
                target=self._run, name=f"phpsafe-worker-{slot}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: Optional[float] = None) -> bool:
        """Drain: stop claiming new jobs, finish the ones running.

        Queued jobs stay queued (the sqlite spool is the durability
        boundary).  Returns True when every dispatcher thread exited
        within ``timeout``.
        """
        self._stop.set()
        drained = True
        for thread in self._threads:
            thread.join(timeout=timeout)
            drained = drained and not thread.is_alive()
        if drained:
            self._threads = []
        return drained

    @property
    def running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    def uptime(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    # -- dispatcher loop ---------------------------------------------------

    def _run(self) -> None:
        slot = self._slot()
        try:
            while not self._stop.is_set():
                job = self.queue.claim()
                if job is None:
                    # nothing queued: idle until work or shutdown
                    self._stop.wait(self.poll_interval)
                    continue
                self._execute(job, slot)
        finally:
            slot.close()

    def _execute(self, job: Job, slot: JobSlot) -> None:
        plugin = self.store.load_plugin(job.digest)
        if plugin is None:
            self.queue.fail(job.id, "plugin payload missing from store")
            with self._lock:
                self.stats.failed += 1
            return
        # diff-aware rescan: the nearest prior scan of this plugin's
        # lineage (same analyzer fingerprint) supplies the manifest the
        # engine reuses unchanged analysis units from
        manifest = self.store.latest_manifest(
            plugin.name, job.fingerprint, exclude_digest=job.digest
        )
        restarts = slot.restarts
        record = slot.run(plugin, manifest, rescan=True)
        document = result_document(job, record.report, record.outcome, record.rescan)
        self.store.put_result(job.digest, job.fingerprint, document)
        # count the run before publishing its state: a poller that sees
        # the job finished must also see it in the stats
        row = record.stats(job.queued_seconds)
        with self._lock:
            self.telemetry.record(row)
            self.telemetry.worker_restarts += slot.restarts - restarts
            self.stats.queue_wait_seconds += job.queued_seconds
            self.stats.waits_recorded += 1
            if record.outcome == "ok":
                self.stats.completed += 1
            else:
                self.stats.failed += 1
        if record.outcome == "ok":
            if record.manifest is not None:
                self.store.put_manifest(job.digest, job.fingerprint, record.manifest)
            self.store.record_lineage(plugin.name, job.digest)
            self.queue.complete(job.id)
        else:
            self.queue.fail(job.id, f"analysis {record.outcome}")

    # -- the slot ----------------------------------------------------------

    def _slot(self) -> JobSlot:
        """This dispatcher thread's job slot."""
        if self.isolation == "process":
            return JobSlot(
                timeout=self.timeout, spec=self.spec, cache_dir=self.cache_dir
            )
        spec = self.spec
        if spec.name == "phpsafe" and self.timeout:
            # no SIGALRM off the main thread: degrade the job deadline
            # to the engine's per-unit wall clock
            options = spec.options or PhpSafeOptions()
            if options.file_deadline is None or options.file_deadline > self.timeout:
                spec = replace(spec, options=replace(options, file_deadline=self.timeout))
        # per-thread instance: the memory LRU is not thread-safe, but
        # the content-addressed disk tier is shared by design
        return JobSlot(spec.build_job_tool(self.cache_dir))
