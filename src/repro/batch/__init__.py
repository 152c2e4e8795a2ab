"""Batch scanning subsystem (paper Section VI performance work).

Every plugin is one job (:mod:`.job`) on a job slot: :func:`.run_jobs`
runs jobs in-process, and :mod:`.scheduler` fans a corpus out over
worker-process slots with crash/timeout isolation.  A disk-persistent
parse cache (:mod:`.diskcache`) backs both, and :mod:`.telemetry`
reports wall time, throughput, cache hit rate and robustness incidents
as JSON.
"""

from .diskcache import DiskModelCache
from .job import JobRecord, JobSlot, run_job, run_jobs
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
    "JobSlot",
    "PluginScanStats",
    "SCHEMA",
    "ScanTelemetry",
    "ServiceStats",
    "ToolSpec",
    "run_job",
    "run_jobs",
    "scan_corpus",
]
