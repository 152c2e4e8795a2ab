"""One plugin scan as one isolated job (paper Section V.E).

Every executor runs a plugin through :func:`run_job`: the in-process
``jobs=1`` batch path, the batch process pool, the service's
per-dispatcher worker process and its ``isolation="thread"`` mode.  A
job that raises or overruns its deadline does not propagate: its
report is a ``FileFailure(file="<plugin>", completed=False)`` with a
fatal incident, and its :class:`JobRecord` says which outcome it had.
Batch and service jobs differ only in whether the tool is asked for a
manifest (``rescan=True``, the service's diff-aware rescan).

Deadlines use a ``SIGALRM`` interval timer that is armed only while a
job with a timeout runs; the previous handler is restored afterwards.
Signals belong to a process's main thread, so only that thread can run
a job with a timeout.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.results import FileFailure, ToolReport
from ..core.tool import AnalyzerTool
from ..incidents import Incident, IncidentSeverity, IncidentStage
from ..perf import scoped
from ..plugin import Plugin
from .telemetry import CacheDelta, PluginScanStats


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
    """Everything one job produced; the process pools pickle it back."""

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

    @classmethod
    def crashed(cls, tool_name: str, plugin_slug: str, reason: str) -> "JobRecord":
        """A job whose worker died or whose result never came back."""
        return cls(_failure_report(tool_name, plugin_slug, reason), "crashed")

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


# -- pool worker side (runs in the worker processes) ------------------------

#: a pool worker process's tool and deadline, set by the pool
#: initializer :func:`init_worker`; the submitting process never sets them
_pool_tool: Optional[AnalyzerTool] = None
_pool_timeout: Optional[float] = None


def init_worker(spec, cache_dir: Optional[str], timeout: Optional[float]) -> None:
    """Pool initializer: build the worker process's tool once."""
    global _pool_tool, _pool_timeout
    _pool_tool = spec.build_job_tool(cache_dir)
    _pool_timeout = timeout


def pool_job(
    plugin: Plugin,
    manifest: Optional[Dict[str, object]] = None,
    rescan: bool = False,
) -> JobRecord:
    """The process-pool task: one job on this worker's tool."""
    return run_job(_pool_tool, plugin, manifest, _pool_timeout, rescan)  # type: ignore[arg-type]
