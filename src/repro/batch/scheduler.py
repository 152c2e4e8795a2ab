"""Parallel batch scanning with per-plugin crash/timeout isolation.

Per-plugin analysis is embarrassingly parallel (every plugin is an
independent file set), so ``jobs=N`` hands a corpus to N process job
slots (:class:`~repro.batch.job.JobSlot`), each plugin to whichever
slot is free, and returns the records in input order.  Robustness
follows the paper's Section V.E incident taxonomy: a job that raises,
exceeds its deadline or kills its worker yields a
``FileFailure(file="<plugin>", completed=False)`` on that plugin's
report instead of aborting the batch.

Isolation mechanics:

- *Exceptions* and *deadlines* are handled by the job routine every
  executor shares (:func:`repro.batch.job.run_job`): a raising or
  runaway plugin yields a failure report, and a ``SIGALRM`` interval
  timer interrupts a runaway mid-analysis.
- *Process death* (segfault, ``os._exit``) costs only the job that
  caused it: its slot reports it ``crashed``, counts one worker
  restart, and starts a fresh worker for its next plugin while the
  other slots keep running.

Workers are described by a picklable :class:`ToolSpec` (not a live tool
instance) and share a persistent :class:`DiskModelCache` when a cache
directory is configured, so repeated scans never re-parse unchanged
files.  ``jobs=1`` runs the identical job routine in-process — same
findings, no worker overhead, and no process-wide state left behind.
"""

from __future__ import annotations

import functools
import importlib
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.cache import ModelCache
from ..core.phpsafe import PhpSafe, PhpSafeOptions
from ..core.results import ToolReport
from ..core.tool import AnalyzerTool
from ..plugin import Plugin
from .diskcache import DiskModelCache
from .job import JobRecord, JobSlot, run_jobs
from .telemetry import ScanTelemetry

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
        reconstructed in a worker (a hand-built profile object that the
        tool's options do not compile to)."""
        from ..baselines import PixyLike, RipsLike

        if isinstance(tool, PhpSafe):
            spec = cls(name="phpsafe", options=tool.options)
        elif isinstance(tool, RipsLike):
            spec = cls(name="rips")
        elif isinstance(tool, PixyLike):
            spec = cls(name="pixy")
        else:
            return None
        rebuilt = spec.build().profile  # type: ignore[attr-defined]
        if rebuilt.fingerprint() != tool.profile.fingerprint():
            return None
        return spec


@dataclass
class BatchOptions:
    """Knobs of one batch scan."""

    #: worker processes; 1 = run the job routine in-process
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
        telemetry = ScanTelemetry(jobs=max(1, self.options.jobs))
        if self.options.jobs <= 1:
            # the identical job routine, no worker process
            tool = self.spec.build_job_tool(self.options.cache_dir)
            run = run_jobs(tool, plugins, telemetry, self.options.timeout)
            records = [record for _plugin, record in run]
        else:
            records = self._scan_parallel(plugins, telemetry)
        return BatchResult(
            reports=[record.report for record in records], telemetry=telemetry
        )

    def _scan_parallel(
        self, plugins: Sequence[Plugin], telemetry: ScanTelemetry
    ) -> List[JobRecord]:
        """Run each plugin on whichever of ``jobs`` process slots is
        free; the records come back in input order."""
        timeout, cache_dir = self.options.timeout, self.options.cache_dir
        slots = [
            JobSlot(timeout=timeout, spec=self.spec, cache_dir=cache_dir)
            for _ in range(self.options.jobs)
        ]
        free: "queue.SimpleQueue[JobSlot]" = queue.SimpleQueue()
        for slot in slots:
            free.put(slot)

        def run(plugin: Plugin) -> JobRecord:
            slot = free.get()
            try:
                return slot.run(plugin)
            finally:
                free.put(slot)

        start = time.perf_counter()
        try:
            with ThreadPoolExecutor(len(slots)) as threads:
                records = list(threads.map(run, plugins))
        finally:
            for slot in slots:
                slot.close()
        telemetry.wall_seconds = time.perf_counter() - start
        telemetry.worker_restarts = sum(slot.restarts for slot in slots)
        for record in records:
            telemetry.record(record.stats())
        return records


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
