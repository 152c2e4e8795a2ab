"""Worker pool: drains the job queue into the batch analysis pipeline.

Each worker is a dispatcher thread that claims jobs from the durable
:class:`~repro.service.queue.JobQueue` and runs them through the exact
worker pipeline the batch scanner uses (``repro.batch.scheduler``), so
the daemon inherits everything that subsystem already provides: the
persistent :class:`~repro.batch.DiskModelCache` parse/summary tiers
(repeat submissions of mostly-unchanged plugins are near-free), the
SIGALRM per-job deadline, and the typed incident taxonomy for
timeouts/crashes.

Two isolation levels:

``process`` (default)
    Every dispatcher thread owns a single-process
    ``ProcessPoolExecutor`` built with the batch scheduler's own
    initializer.  A job that kills its worker process (segfault,
    ``os._exit``) breaks only that executor: the job is failed with a
    fatal incident, the executor is rebuilt, and the pool keeps
    serving.  The worker process persists across jobs, keeping its
    in-memory cache tiers warm.

``thread``
    The analysis runs inside the dispatcher thread itself — no fork,
    used by tests and fork-hostile environments.  Deadlines degrade to
    the engine's per-unit ``file_deadline`` and a hard crash would take
    the daemon down, which is why it is not the default.

Per-job perf attribution uses :func:`repro.perf.scoped`, which is
race-free under concurrent workers because the counters are
thread-local.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..batch.scheduler import (
    BatchOptions,
    ToolSpec,
    _cache_stats,
    _failure_report,
    _init_worker,
    _rescan_one,
)
from ..batch.telemetry import PluginScanStats, ScanTelemetry, ServiceStats
from ..core.results import ToolReport
from ..core.review import to_json
from ..perf import scoped
from ..plugin import Plugin
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


class _WorkerState:
    """Per-dispatcher-thread lazily built scan machinery."""

    def __init__(self) -> None:
        self.executor: Optional[ProcessPoolExecutor] = None
        self.tool = None  # thread-isolation analyzer instance


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
        self.telemetry = ScanTelemetry(jobs=self.jobs)
        self.telemetry.service = stats if stats is not None else ServiceStats()
        self.stats = self.telemetry.service
        self._batch_options = BatchOptions(
            jobs=1, timeout=timeout, cache_dir=cache_dir
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
        state = _WorkerState()
        try:
            while not self._stop.is_set():
                job = self.queue.claim()
                if job is None:
                    # nothing queued: idle until work or shutdown
                    self._stop.wait(self.poll_interval)
                    continue
                self._execute(job, state)
        finally:
            if state.executor is not None:
                state.executor.shutdown(wait=False)

    def _execute(self, job: Job, state: _WorkerState) -> None:
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
        with scoped() as scope:
            report, outcome, delta, new_manifest, rescan = self._scan(
                plugin, state, manifest
            )
        document = result_document(job, report, outcome, rescan)
        self.store.put_result(job.digest, job.fingerprint, document)
        # count the run before publishing its state: a poller that sees
        # the job finished must also see it in the stats
        self._record(job, report, outcome, delta, scope.report(), rescan)
        if outcome == "ok":
            if new_manifest is not None:
                self.store.put_manifest(job.digest, job.fingerprint, new_manifest)
            self.store.record_lineage(plugin.name, job.digest)
            self.queue.complete(job.id)
        else:
            self.queue.fail(job.id, f"analysis {outcome}")

    def _record(
        self,
        job: Job,
        report: ToolReport,
        outcome: str,
        delta: Tuple[int, ...],
        scope_perf: Dict[str, float],
        rescan: Optional[Dict[str, object]] = None,
    ) -> None:
        # process-isolated reports carry their own perf delta (computed
        # inside the worker process); the dispatcher-side scope supplies
        # it otherwise, race-free because counters are thread-local
        perf = dict(report.perf) if report.perf else scope_perf
        stats_row = PluginScanStats(
            plugin=report.plugin,
            seconds=report.seconds,
            files=report.files_analyzed,
            loc=report.loc_analyzed,
            findings=len(report.findings),
            failures=len(report.failures),
            incidents=len(report.incidents),
            recovered=report.recovered_count,
            files_skipped=report.files_skipped,
            loc_skipped=report.loc_skipped,
            cache_hits=delta[0],
            cache_misses=delta[1],
            disk_hits=delta[2],
            cache_corrupt=delta[3],
            summary_hits=delta[4] if len(delta) > 4 else 0,
            summary_misses=delta[5] if len(delta) > 5 else 0,
            summary_stale=delta[6] if len(delta) > 6 else 0,
            perf=perf,
            queued_seconds=job.queued_seconds,
            outcome=outcome,
            rescan_roots_total=int((rescan or {}).get("roots_total", 0)),
            rescan_roots_reused=int((rescan or {}).get("roots_reused", 0)),
            rescan_fallback=str((rescan or {}).get("fallback_reason", "")),
        )
        with self._lock:
            self.telemetry.record(stats_row)
            self.stats.queue_wait_seconds += job.queued_seconds
            self.stats.waits_recorded += 1
            if outcome == "ok":
                self.stats.completed += 1
            else:
                self.stats.failed += 1
            if outcome == "timeout":
                self.telemetry.timeouts += 1
            elif outcome in ("crashed", "error"):
                self.telemetry.crashes += 1

    # -- the scan itself ---------------------------------------------------

    #: scan return value: report, outcome, cache delta, the new per-file
    #: digest manifest (None on failure or manifest-less tools), and the
    #: rescan-stats dict
    _ScanResult = Tuple[
        ToolReport, str, Tuple[int, ...], Optional[Dict[str, object]],
        Dict[str, object],
    ]

    def _scan(
        self,
        plugin: Plugin,
        state: _WorkerState,
        manifest: Optional[Dict[str, object]] = None,
    ) -> "_ScanResult":
        if self.isolation == "process":
            return self._scan_process(plugin, state, manifest)
        return self._scan_thread(plugin, state, manifest)

    def _scan_process(
        self,
        plugin: Plugin,
        state: _WorkerState,
        manifest: Optional[Dict[str, object]] = None,
    ) -> "_ScanResult":
        if state.executor is None:
            state.executor = ProcessPoolExecutor(
                max_workers=1,
                initializer=_init_worker,
                initargs=(self.spec, self._batch_options),
            )
        payload = (plugin.name, plugin.version, dict(plugin.files), manifest)
        try:
            report, _seconds, outcome, delta, new_manifest, rescan = (
                state.executor.submit(_rescan_one, payload).result()
            )
            return report, outcome, delta, new_manifest, rescan
        except BrokenProcessPool:
            state.executor.shutdown(wait=False)
            state.executor = None
            with self._lock:
                self.telemetry.worker_restarts += 1
            report = _failure_report(
                self.spec.display_name,
                plugin.slug,
                "worker process died during analysis",
            )
            return report, "crashed", (0,) * 7, None, {}

    def _scan_thread(
        self,
        plugin: Plugin,
        state: _WorkerState,
        manifest: Optional[Dict[str, object]] = None,
    ) -> "_ScanResult":
        if state.tool is None:
            state.tool = self._build_thread_tool()
        cache = getattr(state.tool, "cache", None)
        before = _cache_stats(cache)
        new_manifest: Optional[Dict[str, object]] = None
        rescan: Dict[str, object] = {}
        start = time.perf_counter()
        try:
            if hasattr(state.tool, "rescan"):
                report, new_manifest, stats = state.tool.rescan(plugin, manifest)
                rescan = stats.to_dict()
            else:
                report = state.tool.analyze(plugin)
            outcome = "ok"
        except Exception as error:
            report = _failure_report(
                self.spec.display_name, plugin.slug, f"worker exception: {error!r}"
            )
            outcome = "error"
            new_manifest = None
        report.seconds = time.perf_counter() - start
        report.variables = {}
        after = _cache_stats(cache)
        delta = tuple(b - a for a, b in zip(before, after))
        return report, outcome, delta, new_manifest, rescan

    def _build_thread_tool(self):
        spec = self.spec
        if spec.name == "phpsafe" and self.timeout:
            # no SIGALRM off the main thread: degrade the job deadline
            # to the engine's per-unit wall clock
            from ..core.phpsafe import PhpSafeOptions

            options = spec.options or PhpSafeOptions()
            if options.file_deadline is None or options.file_deadline > self.timeout:
                options = replace(options, file_deadline=self.timeout)
            spec = ToolSpec(name=spec.name, options=options)
        cache = None
        if self.cache_dir:
            from ..batch.diskcache import DiskModelCache

            # per-thread instance: the memory LRU is not thread-safe,
            # but the content-addressed disk tier is shared by design
            cache = DiskModelCache(self.cache_dir)
        elif spec.name == "phpsafe":
            from ..core.cache import ModelCache

            cache = ModelCache()
        return spec.build(cache=cache)
