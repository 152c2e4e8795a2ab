"""Batch scanning subsystem (paper Section VI performance work).

Fans per-plugin analysis out over worker processes with crash/timeout
isolation (:mod:`.scheduler`), each plugin one job of the routine every
executor shares (:mod:`.job`, whose one lazy loop runs jobs
in-process), backed by a disk-persistent parse cache
(:mod:`.diskcache`), and reports wall time, throughput, cache hit rate
and robustness incidents as JSON telemetry (:mod:`.telemetry`).
"""

from .diskcache import DiskModelCache
from .job import JobRecord, run_job, run_jobs
from .scheduler import (
    BatchOptions,
    BatchResult,
    BatchScanner,
    ToolSpec,
    scan_corpus,
)
from .telemetry import SCHEMA, PluginScanStats, ScanTelemetry, ServiceStats

__all__ = [
    "BatchOptions",
    "BatchResult",
    "BatchScanner",
    "DiskModelCache",
    "JobRecord",
    "PluginScanStats",
    "SCHEMA",
    "ScanTelemetry",
    "ServiceStats",
    "ToolSpec",
    "run_job",
    "run_jobs",
    "scan_corpus",
]
