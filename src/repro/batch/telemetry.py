"""Batch-scan telemetry: the JSON report a scan leaves behind.

Each batch run aggregates one :class:`PluginScanStats` per plugin
(wall time, size, findings, perf counters, outcome) plus run-level
incidents (worker restarts, deadline timeouts, crashes) into a
:class:`ScanTelemetry` that serializes to a stable JSON schema
(``schema`` key: :data:`SCHEMA`) for CI dashboards and the
performance benchmarks.

Schema history: v2 adds per-plugin typed-incident counts
(``incidents``/``recovered``), skipped-coverage counters
(``files_skipped``/``loc_skipped``), and the ``corrupt`` cache counter
(quarantined disk-cache objects).  v3 adds the function-summary cache
counters (``summary_hits``/``summary_misses``/``summary_stale``) and
the per-plugin/aggregated ``perf`` counter deltas (tokens/s, engine
steps, taint-interning rates) from :mod:`repro.perf`.  v4 adds the
analysis-service fields: a run-level ``service`` section
(:class:`ServiceStats`: queue depth/peak, accepted/rejected/deduped
jobs, queue-wait latency and throughput) and the per-plugin
``queued_seconds`` latency (time a submission waited before a worker
picked it up; always 0 outside the daemon).  v5 adds the incremental
rescan counters: per-plugin ``rescan`` (analysis roots total/reused,
fallback reason) and the run-level ``rescan`` aggregate
(roots reused across the run, incremental runs, full-scan fallbacks).
v6 adds the fleet layer: ``ServiceStats.quarantined`` (jobs failed for
good after exhausting their attempts), :class:`FleetStats` (the
coordinator's dispatch/steal/degradation counters) and
:func:`aggregate_fleet`, which folds the per-node ``GET /metrics``
documents of a sharded fleet into one fleet-wide view.  v7 adds the
``process_cache`` section: occupancy of the process-wide L1 artifact
cache (entries/bytes against both caps, byte-pressure evictions), so
long-lived fleet nodes surface artifact-memory growth instead of
leaking models across jobs invisibly.  v8 keeps the daemon's telemetry
to running totals: ``GET /metrics`` no longer lists a row per job
(``plugins``), which grew by about 0.9 KB per job served, and
``service.waits_recorded`` counts the jobs the queue-wait sum covers.
Batch documents are unchanged.  v9 keeps every key but computes the
``cache`` sections from the ``perf`` counters, the one tally of a job's
cache events: a summary found but rejected by dependency validation
counts as ``summary_stale`` only, no longer also as a ``summary_hits``
(``summary_hit_rate`` is hits over all lookups, stale ones included),
and ``disk_hits`` counts reads served from disk by every tier (parse,
summary and lowered IR), not by the parse tier alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..perf import merge as merge_perf

SCHEMA = "repro.batch.telemetry/v9"


@dataclass
class ServiceStats:
    """Run-level metrics of the ``phpsafe serve`` daemon (schema v4).

    One instance is shared by the HTTP front end (which counts
    submissions and rejections) and the worker pool (which counts
    completions and queue-wait latency); ``GET /metrics`` serializes it
    inside the live :class:`ScanTelemetry`.
    """

    #: jobs currently waiting in the queue (sampled at serialization)
    queue_depth: int = 0
    #: deepest the queue ever got during this daemon's lifetime
    queue_depth_peak: int = 0
    #: submissions admitted to the queue (excludes cached/rejected)
    accepted: int = 0
    #: submissions bounced with HTTP 429 because the queue was full
    rejected: int = 0
    #: submissions answered instantly from the content-addressed
    #: result store (identical plugin digest already analyzed)
    deduped: int = 0
    #: accepted jobs a worker finished successfully
    completed: int = 0
    #: accepted jobs that ended in the ``failed`` state
    failed: int = 0
    #: jobs failed for good after exhausting their claim attempts
    #: (crash-looping or repeatedly-stolen inputs; subset of ``failed``)
    quarantined: int = 0
    #: summed queued→running wait over all started jobs (latency)
    queue_wait_seconds: float = 0.0
    #: jobs the wait sum covers (denominator of the mean)
    waits_recorded: int = 0
    #: seconds since the daemon started serving
    uptime_seconds: float = 0.0

    @property
    def mean_queue_wait(self) -> float:
        return (
            self.queue_wait_seconds / self.waits_recorded
            if self.waits_recorded
            else 0.0
        )

    @property
    def jobs_per_minute(self) -> float:
        """Sustained throughput: completed jobs per minute of uptime."""
        if not self.uptime_seconds:
            return 0.0
        return self.completed / (self.uptime_seconds / 60.0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "queue_depth": self.queue_depth,
            "queue_depth_peak": self.queue_depth_peak,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "deduped": self.deduped,
            "completed": self.completed,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "queue_wait_seconds": round(self.queue_wait_seconds, 6),
            "waits_recorded": self.waits_recorded,
            "mean_queue_wait": round(self.mean_queue_wait, 6),
            "uptime_seconds": round(self.uptime_seconds, 6),
            "jobs_per_minute": round(self.jobs_per_minute, 3),
        }


@dataclass
class FleetStats:
    """The coordinator's own counters (schema v6).

    Everything here is about *dispatch*, not analysis: the per-node
    analysis numbers live in each node's :class:`ServiceStats` and are
    folded together by :func:`aggregate_fleet`.
    """

    #: fleet size as configured
    nodes_total: int = 0
    #: jobs handed to a node (each re-dispatch counts again)
    dispatched: int = 0
    #: node submissions retried after a transient failure or 429
    retries: int = 0
    #: dispatches that moved to the next node on the ring because the
    #: preferred node was down or refused
    failovers: int = 0
    #: in-flight jobs taken away from a dead/wedged/straggler node and
    #: requeued for another one
    steals: int = 0
    #: steals avoided because the dying node had already persisted the
    #: result — the (digest, fingerprint) dedup of the exactly-once path
    steal_dedups: int = 0
    #: submissions shed with 503 because the fleet was degraded
    shed_503: int = 0
    #: up→down health transitions observed by the prober
    nodes_lost: int = 0
    #: down→up transitions (node recovered or SIGCONT'd)
    nodes_recovered: int = 0
    #: dispatch cycles that found no live node and had to park the job
    no_live_node_waits: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "nodes_total": self.nodes_total,
            "dispatched": self.dispatched,
            "retries": self.retries,
            "failovers": self.failovers,
            "steals": self.steals,
            "steal_dedups": self.steal_dedups,
            "shed_503": self.shed_503,
            "nodes_lost": self.nodes_lost,
            "nodes_recovered": self.nodes_recovered,
            "no_live_node_waits": self.no_live_node_waits,
        }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


#: ServiceStats counters that sum across nodes
_FLEET_SUMMED = (
    "queue_depth",
    "accepted",
    "rejected",
    "deduped",
    "completed",
    "failed",
    "quarantined",
    "queue_wait_seconds",
    "waits_recorded",
)


def aggregate_fleet(
    node_documents: Dict[str, Optional[Dict[str, object]]],
) -> Dict[str, object]:
    """Fold per-node ``GET /metrics`` documents into one fleet view.

    ``node_documents`` maps node name to the node's live telemetry
    document, or ``None`` when the node was unreachable (down nodes
    still count toward ``nodes.total``).  Counter-like service fields
    sum; throughput sums (jobs/min of the fleet is the sum of its
    nodes); queue-state counts sum; per-node one-line summaries are
    kept under ``per_node``.
    """
    service_totals: Dict[str, float] = {key: 0 for key in _FLEET_SUMMED}
    queue_totals: Dict[str, int] = {}
    jobs_per_minute = 0.0
    findings = files = loc = 0
    per_node: Dict[str, Dict[str, object]] = {}
    up = 0
    for name in sorted(node_documents):
        document = node_documents[name]
        if document is None:
            per_node[name] = {"up": False}
            continue
        up += 1
        service = document.get("service") or {}
        for key in _FLEET_SUMMED:
            service_totals[key] += service.get(key, 0) or 0
        jobs_per_minute += service.get("jobs_per_minute", 0.0) or 0.0
        for state, count in (document.get("queue") or {}).items():
            queue_totals[state] = queue_totals.get(state, 0) + count
        findings += document.get("findings", 0) or 0
        files += document.get("files", 0) or 0
        loc += document.get("loc", 0) or 0
        per_node[name] = {
            "up": True,
            "completed": service.get("completed", 0),
            "failed": service.get("failed", 0),
            "quarantined": service.get("quarantined", 0),
            "queue_depth": service.get("queue_depth", 0),
            "jobs_per_minute": service.get("jobs_per_minute", 0.0),
            "uptime_seconds": service.get("uptime_seconds", 0.0),
        }
    waits = service_totals.pop("queue_wait_seconds")
    recorded = service_totals["waits_recorded"]
    return {
        "schema": SCHEMA,
        "nodes": {
            "total": len(node_documents),
            "up": up,
            "down": len(node_documents) - up,
        },
        "service": {
            **{key: round(value, 6) for key, value in service_totals.items()},
            "queue_wait_seconds": round(waits, 6),
            "mean_queue_wait": round(waits / recorded, 6) if recorded else 0.0,
            "jobs_per_minute": round(jobs_per_minute, 3),
        },
        "queue": queue_totals,
        "findings": findings,
        "files": files,
        "loc": loc,
        "per_node": per_node,
    }


#: ``cache`` section key -> the :data:`repro.perf.FIELDS` counter it reads
_CACHE_COUNTERS = (
    ("hits", "parse_cache_hits"),
    ("misses", "parse_cache_misses"),
    ("disk_hits", "cache_disk_hits"),
    ("corrupt", "cache_corrupt"),
    ("summary_hits", "summary_cache_hits"),
    ("summary_misses", "summary_cache_misses"),
    ("summary_stale", "summary_cache_stale"),
)


def cache_section(perf: Dict[str, float]) -> Dict[str, int]:
    """A telemetry ``cache`` section read off a perf counter delta."""
    return {key: int(perf.get(name, 0)) for key, name in _CACHE_COUNTERS}


@dataclass
class PluginScanStats:
    """Per-plugin telemetry row; :class:`ScanTelemetry` also keeps one as
    the running totals of a run."""

    #: the plugin's slug (empty for a run's totals)
    plugin: str = ""
    seconds: float = 0.0
    files: int = 0
    loc: int = 0
    findings: int = 0
    failures: int = 0
    #: typed robustness incidents recorded for this plugin, and the
    #: subset the pipeline recovered from (Section V.E taxonomy)
    incidents: int = 0
    recovered: int = 0
    #: files/LOC the tool could not analyze (coverage denominator)
    files_skipped: int = 0
    loc_skipped: int = 0
    #: per-run perf counter delta (:data:`repro.perf.counters`)
    perf: Dict[str, float] = field(default_factory=dict)
    #: time the job waited queued before a worker claimed it (service
    #: submissions only; 0 for batch scans, which have no queue)
    queued_seconds: float = 0.0
    #: "ok" | "timeout" | "crashed" | "error"
    outcome: str = "ok"
    #: incremental-rescan counters (schema v5): analysis roots in the
    #: plugin and how many were reused from the prior scan's manifest;
    #: both 0 for plain (non-rescan) scans
    rescan_roots_total: int = 0
    rescan_roots_reused: int = 0
    #: why an attempted incremental rescan fell back to a full scan
    #: (empty: no fallback, or no rescan was attempted)
    rescan_fallback: str = ""

    @property
    def files_per_second(self) -> float:
        return self.files / self.seconds if self.seconds else 0.0

    def add(self, other: "PluginScanStats") -> None:
        """Sum ``other``'s counters into this row."""
        for name in _SUMMED:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        merge_perf(self.perf, other.perf)

    def to_dict(self) -> Dict[str, object]:
        return {
            "plugin": self.plugin,
            "seconds": round(self.seconds, 6),
            "files": self.files,
            "loc": self.loc,
            "findings": self.findings,
            "failures": self.failures,
            "incidents": self.incidents,
            "recovered": self.recovered,
            "files_skipped": self.files_skipped,
            "loc_skipped": self.loc_skipped,
            "files_per_second": round(self.files_per_second, 3),
            "cache": cache_section(self.perf),
            "perf": dict(self.perf),
            "queued_seconds": round(self.queued_seconds, 6),
            "outcome": self.outcome,
            "rescan": {
                "roots_total": self.rescan_roots_total,
                "roots_reused": self.rescan_roots_reused,
                "fallback": self.rescan_fallback,
            },
        }


#: PluginScanStats fields that sum into a run's totals
_SUMMED = (
    "seconds", "files", "loc", "findings", "failures", "incidents",
    "recovered", "files_skipped", "loc_skipped", "queued_seconds",
    "rescan_roots_total", "rescan_roots_reused",
)


@dataclass
class ScanTelemetry:
    """Everything one batch scan (or one daemon's lifetime) measured.

    :meth:`record` adds each row to ``totals`` as it arrives.  Batch
    scans also keep the rows, because their JSON lists them; the
    service passes ``plugins=None`` and keeps the totals only, so its
    telemetry does not grow with the jobs it serves.
    """

    jobs: int = 1
    wall_seconds: float = 0.0
    worker_restarts: int = 0
    timeouts: int = 0
    crashes: int = 0
    #: per-plugin rows in record order; ``None`` keeps no rows
    plugins: Optional[List[PluginScanStats]] = field(default_factory=list)
    #: rows recorded, kept even when the rows themselves are not
    recorded: int = 0
    #: running sums over every recorded row
    totals: PluginScanStats = field(default_factory=PluginScanStats)
    #: plugins whose rescan skipped at least one root without falling back
    rescan_incremental_runs: int = 0
    #: attempted incremental rescans that fell back to a full scan
    rescan_fallbacks: int = 0
    #: daemon metrics; ``None`` for plain batch scans (schema v4)
    service: Optional[ServiceStats] = None
    #: process-cache occupancy override (schema v7); ``None`` samples
    #: the serializing process's live L1 cache at ``to_dict`` time
    process_cache: Optional[Dict[str, object]] = None

    def record(self, stats: PluginScanStats) -> None:
        self.recorded += 1
        self.totals.add(stats)
        if stats.rescan_fallback:
            self.rescan_fallbacks += 1
        elif stats.rescan_roots_reused:
            self.rescan_incremental_runs += 1
        if stats.outcome == "timeout":
            self.timeouts += 1
        elif stats.outcome in ("crashed", "error"):
            self.crashes += 1
        if self.plugins is not None:
            self.plugins.append(stats)

    # -- rates -------------------------------------------------------------

    @property
    def files_per_second(self) -> float:
        return self.totals.files / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def cache(self) -> Dict[str, int]:
        """The run's ``cache`` section counters (see :func:`cache_section`)."""
        return cache_section(self.totals.perf)

    @property
    def cache_hit_rate(self) -> float:
        cache = self.cache
        return _rate(cache["hits"], cache["misses"])

    @property
    def summary_hit_rate(self) -> float:
        """Hits per summary lookup; a stale entry is a lookup, not a hit."""
        cache = self.cache
        return _rate(
            cache["summary_hits"], cache["summary_misses"] + cache["summary_stale"]
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        totals = self.totals
        cache = self.cache
        document: Dict[str, object] = {
            "schema": SCHEMA,
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 6),
            "analysis_seconds": round(totals.seconds, 6),
            "files": totals.files,
            "loc": totals.loc,
            "findings": totals.findings,
            "files_per_second": round(self.files_per_second, 3),
            "files_skipped": totals.files_skipped,
            "cache": {
                "hits": cache["hits"],
                "misses": cache["misses"],
                "disk_hits": cache["disk_hits"],
                "hit_rate": round(self.cache_hit_rate, 4),
                "corrupt": cache["corrupt"],
                "summary_hits": cache["summary_hits"],
                "summary_misses": cache["summary_misses"],
                "summary_stale": cache["summary_stale"],
                "summary_hit_rate": round(self.summary_hit_rate, 4),
            },
            "perf": dict(totals.perf),
            "rescan": {
                "roots_total": totals.rescan_roots_total,
                "roots_reused": totals.rescan_roots_reused,
                "incremental_runs": self.rescan_incremental_runs,
                "fallbacks": self.rescan_fallbacks,
            },
            "incidents": {
                "worker_restarts": self.worker_restarts,
                "timeouts": self.timeouts,
                "crashes": self.crashes,
                "total": totals.incidents,
                "recovered": totals.recovered,
            },
        }
        if self.plugins is not None:
            document["plugins"] = [stats.to_dict() for stats in self.plugins]
        if self.process_cache is not None:
            document["process_cache"] = dict(self.process_cache)
        else:
            # sample the serializing process's live L1 occupancy; batch
            # workers keep their own caches, so this reports the
            # coordinator/daemon process — exactly the one whose
            # lifetime makes unbounded growth dangerous
            from ..core.phpsafe import process_cache_occupancy

            document["process_cache"] = process_cache_occupancy()
        if self.service is not None:
            document["service"] = self.service.to_dict()
        return document

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0
