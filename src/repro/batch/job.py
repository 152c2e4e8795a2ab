"""One plugin scan as one isolated job (paper Section V.E).

Every plugin is one :func:`run_job`, run on a :class:`JobSlot`: inline
on a tool (:func:`run_jobs`, the one in-process loop; the service's
``isolation="thread"``), or in a worker process (``jobs=N`` batch
scans, the service's default).  A job that raises, overruns its
deadline or kills its worker does not propagate: its report is a
``FileFailure(file="<plugin>", completed=False)`` with a fatal
incident, and its :class:`JobRecord` says which outcome it had.  Batch
and service jobs differ only in whether the tool is asked for a
manifest (``rescan=True``, the service's diff-aware rescan).

Deadlines use a ``SIGALRM`` interval timer that is armed only while a
job with a timeout runs; the previous handler is restored afterwards.
Signals belong to a process's main thread, so only that thread (or a
slot's worker) can run a job with a timeout.
"""

from __future__ import annotations

import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Tuple

from ..core.results import FileFailure, ToolReport
from ..core.tool import AnalyzerTool
from ..incidents import Incident, IncidentSeverity, IncidentStage
from ..perf import scoped
from ..plugin import Plugin
from .telemetry import CacheDelta, PluginScanStats, ScanTelemetry


class _JobDeadline(BaseException):
    """Raised inside a job when its deadline fires.

    Derives from ``BaseException`` so the fault-tolerant pipeline's
    per-unit ``except Exception`` boundaries cannot swallow the alarm —
    the deadline must abort the whole plugin scan, not degrade to a
    recovered unit incident.
    """


def _on_alarm(signum, frame):  # pragma: no cover - fires asynchronously
    raise _JobDeadline()


def _failure_report(tool_name: str, plugin_slug: str, reason: str) -> ToolReport:
    """The report of a job that produced none of its own."""
    report = ToolReport(tool=tool_name, plugin=plugin_slug)
    report.failures.append(
        FileFailure(file="<plugin>", reason=reason, completed=False)
    )
    report.incidents.append(
        Incident(
            stage=IncidentStage.ANALYSIS,
            severity=IncidentSeverity.FATAL,
            file="<plugin>",
            reason=reason,
            recovered=False,
        )
    )
    return report


@dataclass
class JobRecord:
    """Everything one job produced; a process slot pickles it back."""

    report: ToolReport
    #: "ok" | "timeout" | "error" | "crashed"
    outcome: str = "ok"
    #: cache counters the job moved
    cache: CacheDelta = CacheDelta()
    #: the rescan's new per-file digest manifest (``None`` for a plain
    #: scan, a failed job or a tool without a rescan path)
    manifest: Optional[Dict[str, object]] = None
    #: :meth:`repro.core.incremental.RescanStats.to_dict` of a rescan
    rescan: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.report.seconds

    def stats(self, queued_seconds: float = 0.0) -> PluginScanStats:
        """This job's telemetry row."""
        report, rescan = self.report, self.rescan
        return PluginScanStats(
            plugin=report.plugin,
            seconds=self.seconds,
            files=report.files_analyzed,
            loc=report.loc_analyzed,
            findings=len(report.findings),
            failures=len(report.failures),
            incidents=len(report.incidents),
            recovered=report.recovered_count,
            files_skipped=report.files_skipped,
            loc_skipped=report.loc_skipped,
            cache=self.cache,
            perf=dict(report.perf),
            queued_seconds=queued_seconds,
            outcome=self.outcome,
            rescan_roots_total=int(rescan.get("roots_total", 0)),
            rescan_roots_reused=int(rescan.get("roots_reused", 0)),
            rescan_fallback=str(rescan.get("fallback_reason", "")),
        )


def run_job(
    tool: AnalyzerTool,
    plugin: Plugin,
    manifest: Optional[Dict[str, object]] = None,
    timeout: Optional[float] = None,
    rescan: bool = False,
) -> JobRecord:
    """Scan ``plugin`` with ``tool`` as one isolated job.

    ``rescan=True`` asks a tool that has a ``rescan`` method for a
    diff-aware scan against ``manifest`` (``None`` forces a full
    tracked scan that still yields a manifest); otherwise the tool
    analyzes.  ``timeout`` (seconds) arms the SIGALRM deadline.
    """
    cache = getattr(tool, "cache", None)
    before = CacheDelta.read(cache)
    outcome, new_manifest, rescan_stats = "ok", None, {}
    previous = signal.signal(signal.SIGALRM, _on_alarm) if timeout else None
    start = time.perf_counter()
    with scoped() as scope:
        try:
            if timeout:
                signal.setitimer(signal.ITIMER_REAL, timeout)
            if rescan and hasattr(tool, "rescan"):
                report, new_manifest, stats = tool.rescan(plugin, manifest)
                rescan_stats = stats.to_dict()
            else:
                report = tool.analyze(plugin)
        except _JobDeadline:
            outcome, reason = "timeout", f"scan deadline of {timeout:g}s exceeded"
            report = _failure_report(tool.name, plugin.slug, reason)
        except Exception as error:
            outcome, reason = "error", f"worker exception: {error!r}"
            report = _failure_report(tool.name, plugin.slug, reason)
        finally:
            if timeout:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous or signal.SIG_DFL)
    report.seconds = time.perf_counter() - start
    # the reviewer variable dump is large and holds analysis-internal
    # objects; don't ship it over the result pickle channel
    report.variables = {}
    # tools that keep no perf counters of their own get the job's
    if not report.perf:
        report.perf = scope.report()
    if outcome != "ok":
        new_manifest = None
    delta = CacheDelta.read(cache).since(before)
    return JobRecord(report, outcome, delta, new_manifest, rescan_stats)


#: held while a slot submits a job, which forks its worker when it has
#: none: a worker forked while another slot's fork is half done keeps
#: that worker's death pipe open, and the other slot never sees it die
_FORK_LOCK = threading.Lock()


class JobSlot:
    """Runs one :func:`run_job` at a time: inline on ``tool``, or else
    in one worker process that builds its tool from the picklable
    ``spec`` once and keeps it, warm caches included, across jobs.

    A job that kills the worker comes back ``crashed`` and adds one to
    :attr:`restarts`; the next job starts a fresh worker.  Any other
    executor error (a report that cannot be pickled back) fails the job
    the same way and keeps the worker.
    """

    def __init__(self, tool=None, timeout=None, spec=None, cache_dir=None) -> None:
        self.tool = tool
        self.timeout = timeout
        self.spec = spec
        self.cache_dir = cache_dir
        #: worker processes this slot lost to a job
        self.restarts = 0
        self._worker: Optional[ProcessPoolExecutor] = None

    def run(self, plugin: Plugin, manifest=None, rescan: bool = False) -> JobRecord:
        if self.tool is not None:
            return run_job(self.tool, plugin, manifest, self.timeout, rescan)
        if self._worker is None:
            self._worker = ProcessPoolExecutor(
                1, initializer=_init_worker, initargs=(self.spec, self.cache_dir)
            )
        try:
            with _FORK_LOCK:
                future = self._worker.submit(
                    _worker_job, plugin, manifest, self.timeout, rescan
                )
            return future.result()
        except BrokenProcessPool:
            self.close()
            self.restarts += 1
            reason = "worker process died during analysis"
        except Exception as error:
            reason = f"scheduler error: {error!r}"
        report = _failure_report(self.spec.display_name, plugin.slug, reason)
        return JobRecord(report, "crashed")

    def close(self) -> None:
        """Stop and reap the worker process, if one is running."""
        if self._worker is not None:
            self._worker.shutdown()
            self._worker = None


def run_jobs(
    tool: AnalyzerTool,
    plugins: Iterable[Plugin],
    telemetry: ScanTelemetry,
    timeout: Optional[float] = None,
) -> Iterator[Tuple[Plugin, JobRecord]]:
    """Run ``plugins`` in this process, one :func:`run_job` each on an
    inline :class:`JobSlot`, and yield ``(plugin, record)`` after
    folding the record's row into ``telemetry``.

    ``plugins`` is pulled one plugin at a time, and the next one only
    after the caller has handled the previous record, so a generator
    corpus stays out of memory.  ``telemetry.wall_seconds`` is the
    run's wall time, the caller's per-record work included.
    """
    slot = JobSlot(tool, timeout)
    start = time.perf_counter()
    try:
        for plugin in plugins:
            record = slot.run(plugin)
            telemetry.record(record.stats())
            yield plugin, record
    finally:
        telemetry.wall_seconds = time.perf_counter() - start


# -- worker side (runs in a process slot's worker) --------------------------

#: a slot worker's tool, built once by :func:`_init_worker`; the process
#: that owns the slot never sets it
_worker_tool: Optional[AnalyzerTool] = None


def _init_worker(spec, cache_dir: Optional[str]) -> None:
    global _worker_tool
    _worker_tool = spec.build_job_tool(cache_dir)


def _worker_job(plugin: Plugin, manifest, timeout, rescan: bool) -> JobRecord:
    return run_job(_worker_tool, plugin, manifest, timeout, rescan)  # type: ignore[arg-type]
