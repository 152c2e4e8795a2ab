"""Parallel batch scanning with per-plugin crash/timeout isolation.

Per-plugin analysis is embarrassingly parallel (every plugin is an
independent file set), so the scheduler fans a corpus out over a
``ProcessPoolExecutor`` of analyzer workers.  Robustness follows the
paper's Section V.E incident taxonomy: a worker that raises, exceeds
its deadline or dies outright yields a ``FileFailure(file="<plugin>",
completed=False)`` on that plugin's report instead of aborting the
batch.

Isolation mechanics:

- *Exceptions* and *deadlines* are handled by the job routine every
  executor shares (:func:`repro.batch.job.run_job`): a raising or
  runaway plugin yields a failure report, and a ``SIGALRM`` interval
  timer interrupts a runaway mid-analysis.
- *Process death* (segfault, ``os._exit``) breaks the whole pool; the
  scheduler then restarts and re-runs each unresolved plugin in its own
  single-worker pool, which pins the crash on the guilty plugin while
  every innocent one still completes.

Workers are described by a picklable :class:`ToolSpec` (not a live tool
instance) and share a persistent :class:`DiskModelCache` when a cache
directory is configured, so repeated scans never re-parse unchanged
files.  ``jobs=1`` runs the identical job routine in-process — same
findings, no pool overhead, and no process-wide state left behind.
"""

from __future__ import annotations

import functools
import importlib
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.cache import ModelCache
from ..core.phpsafe import PhpSafe, PhpSafeOptions
from ..core.results import ToolReport, finding_signatures
from ..core.tool import AnalyzerTool
from ..plugin import Plugin
from .diskcache import DiskModelCache
from .job import JobRecord, init_worker, pool_job, run_job
from .telemetry import ScanTelemetry

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

    def build_job_tool(self, cache_dir: Optional[str] = None) -> AnalyzerTool:
        """The tool every job executor runs.  phpSAFE gets the disk cache
        under ``cache_dir`` (content-addressed, so concurrent workers
        share it safely) or else a private memory cache."""
        if self.name != "phpsafe":
            return self.build()
        return self.build(cache=DiskModelCache(cache_dir) if cache_dir else ModelCache())

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
            # the identical job routine, no pool
            tool = self.spec.build_job_tool(self.options.cache_dir)
            records = [
                run_job(tool, plugin, timeout=self.options.timeout)
                for plugin in plugins
            ]
        else:
            records = self._scan_parallel(plugins, telemetry)
        telemetry.wall_seconds = time.perf_counter() - start
        for record in records:
            telemetry.record(record.stats())
        return BatchResult(
            reports=[record.report for record in records], telemetry=telemetry
        )

    def _pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=init_worker,
            initargs=(self.spec, self.options.cache_dir, self.options.timeout),
        )

    def _scan_parallel(
        self, plugins: Sequence[Plugin], telemetry: ScanTelemetry
    ) -> List[JobRecord]:
        records: Dict[int, JobRecord] = {}
        pool_broken = False
        with self._pool(self.options.jobs) as executor:
            futures = {
                executor.submit(pool_job, plugin): index
                for index, plugin in enumerate(plugins)
            }
            for future in as_completed(futures):
                index = futures[future]
                try:
                    records[index] = future.result()
                except (BrokenProcessPool, CancelledError):
                    # a worker died; which task killed it is unknown yet
                    pool_broken = True
                except Exception as error:
                    records[index] = self._crashed(
                        plugins[index], f"scheduler error: {error!r}"
                    )
        if pool_broken:
            telemetry.worker_restarts += 1
            for index, plugin in enumerate(plugins):
                if index not in records:
                    records[index] = self._isolate(plugin, telemetry)
        return [records[index] for index in range(len(plugins))]

    def _isolate(self, plugin: Plugin, telemetry: ScanTelemetry) -> JobRecord:
        """Re-run one unresolved plugin in its own single-worker pool so
        the crasher is identified and every innocent plugin completes."""
        with self._pool(1) as solo:
            try:
                return solo.submit(pool_job, plugin).result()
            except (BrokenProcessPool, CancelledError):
                telemetry.worker_restarts += 1
                return self._crashed(plugin, "worker process died during analysis")

    def _crashed(self, plugin: Plugin, reason: str) -> JobRecord:
        return JobRecord.crashed(self.spec.display_name, plugin.slug, reason)


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
