"""Memory-bounded streaming evaluation (ROADMAP item 5).

The classic batch path materializes every plugin, accumulates one
:class:`~repro.core.results.ToolReport` per plugin, and merges them at
the end — three unbounded growth axes that cap the scanner far below
million-LOC corpora.  :func:`stream_scan` removes all three:

- **corpus**: plugins are consumed from an *iterator* (lazily
  generated or loaded), at most one alive at a time;
- **artifacts**: the parse/IR/summary cache is byte-capped
  (``max_cache_bytes``) and each plugin's file models are eagerly
  spilled the moment its analysis completes — huge models never wait
  for LRU pressure (file models carry no token lists at all);
- **results**: findings stream to an on-disk JSONL sink
  (:class:`~repro.core.results.JsonlFindingSink`) and the report is
  dropped; SARIF export and telemetry read the stream back
  plugin-at-a-time via :func:`~repro.core.results.stream_reports`.

Each plugin is one :func:`~repro.batch.job.run_job` of the in-process
loop :func:`~repro.batch.job.run_jobs`, so a plugin whose analysis
raises becomes a ``<plugin>`` failure record and the scan goes on.

Soundness: every cache tier is content-addressed, so eviction/spill can
only cost recomputation, never change a result — tier-1 tests compare
streamed and accumulated finding signatures, ``scripts/scale_smoke.py``
checks the streamed ones against the golden files, and
``BENCH_scale.json`` (``scripts/scale_smoke.py``) records the RSS bound
streaming buys.  Streaming speed across commits is measured by
perfbench's ``stress-stream`` workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Optional

from ..core.cache import ModelCache, content_key
from ..core.model import parse_variant
from ..core.phpsafe import PhpSafe, PhpSafeOptions
from ..core.results import JsonlFindingSink
from ..plugin import Plugin
from .job import run_jobs
from .telemetry import ScanTelemetry

#: default in-memory artifact budget for streaming scans (64 MB keeps a
#: working set of warm models while staying far below any tier's RSS
#: contract; raise it to trade memory for fewer re-parses)
DEFAULT_MAX_CACHE_BYTES = 64 * 1024 * 1024
#: entry cap of the default streaming cache (the byte cap is the bound)
MAX_CACHE_ENTRIES = 4096


def streaming_options(base: Optional[PhpSafeOptions] = None) -> PhpSafeOptions:
    """A copy of ``base`` (default options when omitted).  Streaming
    needs no analysis knob of its own, so nothing in the package calls
    this; it stays only because ``perfbench/workloads.py`` does, and
    goes when that harness next changes."""
    return replace(base or PhpSafeOptions())


def _total(name: str) -> property:
    return property(lambda self: getattr(self.telemetry.totals, name))


@dataclass
class StreamingSummary:
    """What one streaming scan measured — O(1) memory by design: the
    run's :class:`ScanTelemetry` keeps totals only, no per-plugin rows."""

    sink_path: str = ""
    telemetry: ScanTelemetry = field(
        default_factory=lambda: ScanTelemetry(plugins=None)
    )
    #: estimated bytes released by eager per-plugin spills
    spilled_bytes: int = 0
    #: high-water mark of the artifact cache's estimated bytes
    peak_cache_bytes: int = 0
    #: final cache occupancy snapshot (:meth:`ModelCache.occupancy`)
    cache: Dict[str, object] = field(default_factory=dict)

    files = _total("files")
    loc = _total("loc")
    findings = _total("findings")
    failures = _total("failures")
    incidents = _total("incidents")
    files_skipped = _total("files_skipped")
    loc_skipped = _total("loc_skipped")

    @property
    def plugins(self) -> int:
        return self.telemetry.recorded

    @property
    def seconds(self) -> float:
        return self.telemetry.wall_seconds

    @property
    def loc_per_second(self) -> float:
        return self.loc / self.seconds if self.seconds else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "sink_path": self.sink_path,
            "plugins": self.plugins,
            "files": self.files,
            "loc": self.loc,
            "findings": self.findings,
            "failures": self.failures,
            "incidents": self.incidents,
            "files_skipped": self.files_skipped,
            "loc_skipped": self.loc_skipped,
            "seconds": round(self.seconds, 6),
            "loc_per_second": round(self.loc_per_second, 1),
            "spilled_bytes": self.spilled_bytes,
            "peak_cache_bytes": self.peak_cache_bytes,
            "cache": dict(self.cache),
        }


def stream_scan(
    plugins: Iterable[Plugin],
    sink_path: str,
    options: Optional[PhpSafeOptions] = None,
    max_cache_bytes: int = DEFAULT_MAX_CACHE_BYTES,
    cache: Optional[ModelCache] = None,
) -> StreamingSummary:
    """Scan ``plugins`` one at a time, streaming findings to
    ``sink_path``; returns the run's :class:`StreamingSummary`.

    ``plugins`` may be any iterable — pass a generator to keep the
    corpus itself out of memory.  ``options`` defaults to
    :class:`PhpSafeOptions`; an explicit options object is honoured
    as-is so harnesses control every analysis knob.
    ``cache`` overrides the default byte-capped in-memory cache (e.g.
    with a :class:`~repro.batch.diskcache.DiskModelCache` so spilled
    artifacts demote to disk instead of vanishing).
    """
    if options is None:
        options = PhpSafeOptions()
    if cache is None:
        cache = ModelCache(max_entries=MAX_CACHE_ENTRIES, max_bytes=max_cache_bytes)
    tool = PhpSafe(options=options, cache=cache, use_process_cache=False)
    variant = parse_variant(options.recover)

    summary = StreamingSummary(sink_path=sink_path)
    with JsonlFindingSink(sink_path, tool=tool.name) as sink:
        for plugin, record in run_jobs(tool, plugins, summary.telemetry):
            sink.write_report(record.report)
            summary.peak_cache_bytes = max(
                summary.peak_cache_bytes, cache.current_bytes
            )
            # eager spill: this plugin's file models are dead weight now
            summary.spilled_bytes += cache.spill(
                content_key(path, source, variant)
                for path, source in plugin.iter_files()
            )
    summary.cache = cache.occupancy()
    return summary
