"""Parallel batch scanning with per-plugin crash/timeout isolation.

Per-plugin analysis is embarrassingly parallel (every plugin is an
independent file set), so the scheduler fans a corpus out over a
``ProcessPoolExecutor`` of analyzer workers.  Robustness follows the
paper's Section V.E incident taxonomy: a worker that raises, exceeds
its deadline or dies outright yields a ``FileFailure(file="<plugin>",
completed=False)`` on that plugin's report instead of aborting the
batch.

Isolation mechanics:

- *Exceptions* are caught inside the worker and returned as a failure
  report.
- *Deadlines* are enforced in the worker with a ``SIGALRM`` interval
  timer, so a runaway plugin is interrupted mid-analysis.
- *Process death* (segfault, ``os._exit``) breaks the whole pool; the
  scheduler then restarts and re-runs each unresolved plugin in its own
  single-worker pool, which pins the crash on the guilty plugin while
  every innocent one still completes.

Workers are described by a picklable :class:`ToolSpec` (not a live tool
instance) and share a persistent :class:`DiskModelCache` when a cache
directory is configured, so repeated scans never re-parse unchanged
files.  ``jobs=1`` runs the identical worker pipeline in-process — same
findings, no pool overhead.
"""

from __future__ import annotations

import functools
import importlib
import signal
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cache import ModelCache
from ..core.phpsafe import PhpSafe, PhpSafeOptions
from ..core.results import FileFailure, ToolReport, finding_signatures
from ..incidents import Incident, IncidentSeverity, IncidentStage
from ..core.tool import AnalyzerTool
from ..plugin import Plugin
from .diskcache import DiskModelCache
from .telemetry import PluginScanStats, ScanTelemetry

#: profile names ToolSpec can rebuild from options alone; named base
#: profiles + rule packs are also rebuildable (workers re-resolve them
#: from ``options.profile_name`` / ``options.rule_packs``)
_REBUILDABLE_PHPSAFE_PROFILES = ("wordpress", "generic-php")


@dataclass(frozen=True)
class ToolSpec:
    """Picklable recipe for constructing an analyzer inside a worker.

    ``name`` is a registry key (``"phpsafe"``, ``"rips"``, ``"pixy"``)
    or a ``"module:qualname"`` reference to any :class:`AnalyzerTool`
    subclass with a no-argument constructor.
    """

    name: str = "phpsafe"
    options: Optional[PhpSafeOptions] = None

    @property
    def display_name(self) -> str:
        """The tool name a report carries (``phpSAFE``, not ``phpsafe``)."""
        names = {"phpsafe": "phpSAFE", "rips": "RIPS", "pixy": "Pixy"}
        return names.get(self.name, self.name)

    def build(self, cache: Optional[ModelCache] = None) -> AnalyzerTool:
        if self.name == "phpsafe":
            return PhpSafe(options=self.options, cache=cache)
        if self.name == "rips":
            from ..baselines import RipsLike

            return RipsLike()
        if self.name == "pixy":
            from ..baselines import PixyLike

            return PixyLike()
        if ":" in self.name:
            module_name, qualname = self.name.split(":", 1)
            tool_cls = importlib.import_module(module_name)
            for part in qualname.split("."):
                tool_cls = getattr(tool_cls, part)
            return tool_cls()  # type: ignore[operator]
        raise ValueError(f"unknown tool spec {self.name!r}")

    @classmethod
    def from_tool(cls, tool: AnalyzerTool) -> Optional["ToolSpec"]:
        """Capture a live tool instance, or ``None`` when it cannot be
        reconstructed in a worker (custom profile objects)."""
        from ..baselines import PixyLike, RipsLike

        if isinstance(tool, PhpSafe):
            options = tool.options
            if options.profile_name or options.rule_packs:
                # options-driven profiles (named base + rule packs) are
                # re-resolved in the worker; reject only hand-built
                # profile objects that the options cannot reproduce
                from ..rules import resolve_profile

                expected = resolve_profile(options).name
            else:
                expected = (
                    "wordpress" if options.wordpress_config else "generic-php"
                )
            if tool.profile.name != expected:
                return None
            return cls(name="phpsafe", options=options)
        if isinstance(tool, RipsLike):
            return cls(name="rips") if tool.profile.name == "rips" else None
        if isinstance(tool, PixyLike):
            return cls(name="pixy") if tool.profile.name == "pixy-2007" else None
        return None


@dataclass
class BatchOptions:
    """Knobs of one batch scan."""

    #: worker processes; 1 = run the worker pipeline in-process
    jobs: int = 1
    #: per-plugin deadline in seconds (None = no deadline)
    timeout: Optional[float] = None
    #: persistent parse-cache directory (None = per-process memory cache)
    cache_dir: Optional[str] = None


# -- worker side (runs in the child processes) ------------------------------

_worker_tool: Optional[AnalyzerTool] = None
_worker_timeout: Optional[float] = None


class _ScanDeadline(BaseException):
    """Raised inside a worker when the per-plugin deadline fires.

    Derives from ``BaseException`` so the fault-tolerant pipeline's
    per-unit ``except Exception`` boundaries cannot swallow the alarm —
    the deadline must abort the whole plugin scan, not degrade to a
    recovered unit incident.
    """


def _on_alarm(signum, frame):  # pragma: no cover - fires asynchronously
    raise _ScanDeadline()


def _init_worker(spec: ToolSpec, options: BatchOptions) -> None:
    """Pool initializer: build the tool once per worker process."""
    global _worker_tool, _worker_timeout
    cache: Optional[ModelCache] = None
    if options.cache_dir:
        cache = DiskModelCache(options.cache_dir)
    elif spec.name == "phpsafe":
        cache = ModelCache()
    _worker_tool = spec.build(cache=cache)
    _worker_timeout = options.timeout
    signal.signal(signal.SIGALRM, _on_alarm)


#: worker return value: (report, seconds, outcome, cache-stat delta of
#: (hits, misses, disk_hits, corrupt, summary_hits, summary_misses,
#: summary_stale))
_TaskResult = Tuple[ToolReport, float, str, Tuple[int, ...]]


def _failure_report(tool_name: str, plugin_slug: str, reason: str) -> ToolReport:
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


def _scan_one(payload: Tuple[str, str, Dict[str, str]]) -> _TaskResult:
    """Analyze one plugin inside a worker, isolating failures."""
    name, version, files = payload
    plugin = Plugin(name=name, version=version, files=files)
    tool = _worker_tool
    assert tool is not None, "worker used before initialization"
    cache = getattr(tool, "cache", None)
    stats_before = _cache_stats(cache)
    outcome = "ok"
    start = time.perf_counter()
    if _worker_timeout:
        signal.setitimer(signal.ITIMER_REAL, _worker_timeout)
    try:
        report = tool.analyze(plugin)
    except _ScanDeadline:
        outcome = "timeout"
        report = _failure_report(
            tool.name,
            plugin.slug,
            f"scan deadline of {_worker_timeout:g}s exceeded",
        )
    except Exception as error:
        outcome = "error"
        report = _failure_report(
            tool.name, plugin.slug, f"worker exception: {error!r}"
        )
    finally:
        if _worker_timeout:
            signal.setitimer(signal.ITIMER_REAL, 0)
    report.seconds = time.perf_counter() - start
    # the reviewer variable dump is large and holds analysis-internal
    # objects; don't ship it over the result pickle channel
    report.variables = {}
    stats_after = _cache_stats(cache)
    delta = tuple(after - before for after, before in zip(stats_after, stats_before))
    return report, report.seconds, outcome, delta


#: rescan worker return value: ``_TaskResult`` plus the new per-file
#: digest manifest and the rescan-stats dict
_RescanResult = Tuple[
    ToolReport, float, str, Tuple[int, ...], Optional[Dict[str, object]],
    Dict[str, object],
]


def _rescan_one(
    payload: Tuple[str, str, Dict[str, str], Optional[Dict[str, object]]]
) -> _RescanResult:
    """Diff-aware variant of :func:`_scan_one` for the service workers.

    Runs :meth:`PhpSafe.rescan` against the prior manifest (``None``
    forces a full tracked scan that still produces a manifest for the
    next submission); tools without a rescan path analyze normally and
    return no manifest.
    """
    name, version, files, manifest = payload
    plugin = Plugin(name=name, version=version, files=files)
    tool = _worker_tool
    assert tool is not None, "worker used before initialization"
    cache = getattr(tool, "cache", None)
    stats_before = _cache_stats(cache)
    outcome = "ok"
    new_manifest: Optional[Dict[str, object]] = None
    rescan_stats: Dict[str, object] = {}
    start = time.perf_counter()
    if _worker_timeout:
        signal.setitimer(signal.ITIMER_REAL, _worker_timeout)
    try:
        if hasattr(tool, "rescan"):
            report, new_manifest, stats = tool.rescan(plugin, manifest)
            rescan_stats = stats.to_dict()
        else:
            report = tool.analyze(plugin)
    except _ScanDeadline:
        outcome = "timeout"
        new_manifest = None
        report = _failure_report(
            tool.name,
            plugin.slug,
            f"scan deadline of {_worker_timeout:g}s exceeded",
        )
    except Exception as error:
        outcome = "error"
        new_manifest = None
        report = _failure_report(
            tool.name, plugin.slug, f"worker exception: {error!r}"
        )
    finally:
        if _worker_timeout:
            signal.setitimer(signal.ITIMER_REAL, 0)
    report.seconds = time.perf_counter() - start
    report.variables = {}
    stats_after = _cache_stats(cache)
    delta = tuple(after - before for after, before in zip(stats_after, stats_before))
    return report, report.seconds, outcome, delta, new_manifest, rescan_stats


def _cache_stats(cache: Optional[ModelCache]) -> Tuple[int, ...]:
    """Current cache counters, parse tier then summary tier."""
    if cache is None:
        return (0,) * 7
    return (
        cache.stats.hits,
        cache.stats.misses,
        cache.stats.disk_hits,
        cache.stats.corrupt,
        cache.summary_stats.hits,
        cache.summary_stats.misses,
        cache.summary_stats.stale,
    )


# -- scheduler side ---------------------------------------------------------


@dataclass
class BatchResult:
    """Reports (in input order) plus the run's telemetry."""

    reports: List[ToolReport]
    telemetry: ScanTelemetry

    def merged_report(self) -> Optional[ToolReport]:
        """Whole-corpus totals (plugin-scoped finding dedup)."""
        if not self.reports:
            return None
        return functools.reduce(ToolReport.merged, self.reports)

    def finding_signatures(self):
        """Canonical finding-signature set of the whole batch — the
        value the differential harness compares across configurations
        (see :func:`repro.core.results.finding_signatures`)."""
        return finding_signatures(self.reports)


class BatchScanner:
    """Fans per-plugin analysis out over worker processes."""

    def __init__(
        self,
        spec: Optional[ToolSpec] = None,
        options: Optional[BatchOptions] = None,
    ) -> None:
        self.spec = spec or ToolSpec()
        self.options = options or BatchOptions()

    def scan(self, plugins: Sequence[Plugin]) -> BatchResult:
        plugins = list(plugins)
        telemetry = ScanTelemetry(jobs=max(1, self.options.jobs))
        start = time.perf_counter()
        if self.options.jobs <= 1:
            results = self._scan_in_process(plugins)
        else:
            results = self._scan_parallel(plugins, telemetry)
        telemetry.wall_seconds = time.perf_counter() - start
        reports: List[ToolReport] = []
        for plugin, (report, seconds, outcome, delta) in zip(plugins, results):
            if outcome == "timeout":
                telemetry.timeouts += 1
            elif outcome in ("crashed", "error"):
                telemetry.crashes += 1
            telemetry.record(
                PluginScanStats(
                    plugin=plugin.slug,
                    seconds=seconds,
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
                    perf=dict(report.perf),
                    outcome=outcome,
                )
            )
            reports.append(report)
        return BatchResult(reports=reports, telemetry=telemetry)

    # -- serial path -------------------------------------------------------

    def _scan_in_process(self, plugins: Sequence[Plugin]) -> List[_TaskResult]:
        """``jobs=1``: the identical worker pipeline, no pool."""
        _init_worker(self.spec, self.options)
        return [_scan_one(self._payload(plugin)) for plugin in plugins]

    # -- parallel path -----------------------------------------------------

    def _scan_parallel(
        self, plugins: Sequence[Plugin], telemetry: ScanTelemetry
    ) -> List[_TaskResult]:
        results: Dict[int, _TaskResult] = {}
        unresolved = set(range(len(plugins)))
        pool_broken = False
        with ProcessPoolExecutor(
            max_workers=self.options.jobs,
            initializer=_init_worker,
            initargs=(self.spec, self.options),
        ) as executor:
            futures = {
                executor.submit(_scan_one, self._payload(plugins[index])): index
                for index in sorted(unresolved)
            }
            for future in as_completed(futures):
                index = futures[future]
                try:
                    results[index] = future.result()
                except (BrokenProcessPool, CancelledError):
                    # a worker died; which task killed it is unknown yet
                    pool_broken = True
                    continue
                except Exception as error:  # pragma: no cover - defensive
                    results[index] = self._crash_result(
                        plugins[index], f"scheduler error: {error!r}"
                    )
                unresolved.discard(index)
        if pool_broken:
            telemetry.worker_restarts += 1
            self._isolate(plugins, sorted(unresolved), results, telemetry)
        return [results[index] for index in range(len(plugins))]

    def _isolate(
        self,
        plugins: Sequence[Plugin],
        indexes: Sequence[int],
        results: Dict[int, _TaskResult],
        telemetry: ScanTelemetry,
    ) -> None:
        """Re-run each unresolved plugin in its own single-worker pool so
        the crasher is identified and every innocent plugin completes."""
        for index in indexes:
            with ProcessPoolExecutor(
                max_workers=1,
                initializer=_init_worker,
                initargs=(self.spec, self.options),
            ) as solo:
                try:
                    results[index] = solo.submit(
                        _scan_one, self._payload(plugins[index])
                    ).result()
                except (BrokenProcessPool, CancelledError):
                    telemetry.worker_restarts += 1
                    results[index] = self._crash_result(
                        plugins[index], "worker process died during analysis"
                    )

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _payload(plugin: Plugin) -> Tuple[str, str, Dict[str, str]]:
        return plugin.name, plugin.version, dict(plugin.files)

    def _crash_result(self, plugin: Plugin, reason: str) -> _TaskResult:
        report = _failure_report(self.spec.display_name, plugin.slug, reason)
        return report, 0.0, "crashed", (0,) * 7


def scan_corpus(
    plugins: Sequence[Plugin],
    jobs: int = 1,
    timeout: Optional[float] = None,
    cache_dir: Optional[str] = None,
    spec: Optional[ToolSpec] = None,
) -> BatchResult:
    """One-call batch scan of a plugin corpus."""
    scanner = BatchScanner(
        spec=spec,
        options=BatchOptions(jobs=jobs, timeout=timeout, cache_dir=cache_dir),
    )
    return scanner.scan(plugins)
