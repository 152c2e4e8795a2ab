"""Lightweight performance counters for the analysis hot paths.

The paper treats analysis time as a first-class result (Table 5); this
module gives the reproduction the observability to track it.  A single
process-wide :data:`counters` object is incremented from the lexer,
parser, taint engine and the cache tiers — always on, integer adds only,
aggregated per call site (never per token) so the instrumentation cost
is unmeasurable.

Callers that want a per-run view (``PhpSafe.analyze``/``rescan``,
:func:`repro.batch.job.run_job`) wrap the work in :func:`scoped`, which
takes a :meth:`PerfCounters.snapshot` before it and
:meth:`PerfCounters.since` after; the delta dict is what lands in
``ToolReport.perf`` and the batch telemetry.  These counters are the
only tally of a job's cache hits, misses, stale summaries, disk hits
and corrupt rows: the telemetry ``cache`` section is computed from
them.  Derived rates (tokens/s, nodes/s) are computed by :func:`derive`
at reporting time.

Counter storage is **thread-local**: the analysis service runs several
jobs concurrently in one process, and a per-job delta taken against a
truly process-global counter would silently include every other job's
work.  Each thread therefore increments (and snapshots) its own counter
struct; single-threaded callers see no behaviour change, and the batch
worker processes are single-threaded by construction.
"""

from __future__ import annotations

import threading
from typing import Dict

#: counter fields, in reporting order; ``*_seconds`` fields are floats
FIELDS = (
    # substrate
    "tokens_lexed",
    "lex_seconds",
    "files_parsed",
    "parse_seconds",
    # engine
    "engine_steps",
    "analysis_seconds",
    "taint_joins",
    "taint_states_interned",
    "taint_intern_hits",
    # parse tier of the artifact cache (ModelCache.lookup); disk hits
    # and corrupt rows are counted for every tier (DiskModelCache)
    "parse_cache_hits",
    "parse_cache_misses",
    "cache_disk_hits",
    "cache_corrupt",
    # summaries (in-memory memo + persistent cache); a stale entry was
    # found but rejected by dependency validation, and is not a hit
    "summaries_computed",
    "summary_memo_hits",
    "summary_cache_hits",
    "summary_cache_misses",
    "summary_cache_stale",
    # lowered taint IR (per-file lowering + persistent IR cache)
    "ir_bodies_lowered",
    "ir_lower_seconds",
    "ir_cache_hits",
    "ir_cache_misses",
    # the bounded full collection an analysis exit runs (core/tool.py)
    "gc_full_passes",
    "gc_full_seconds",
)


class PerfCounters(threading.local):
    """Monotonic per-thread counters (see module docstring).

    Deriving from ``threading.local`` gives every thread its own field
    storage behind the single module-level :data:`counters` name, which
    is what makes :func:`scoped` race-free under the service's
    concurrent worker threads.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in FIELDS:
            setattr(self, name, 0.0 if name.endswith("_seconds") else 0)

    def snapshot(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in FIELDS}

    def since(self, snapshot: Dict[str, float]) -> Dict[str, float]:
        """Delta of every counter relative to ``snapshot``."""
        delta: Dict[str, float] = {}
        for name in FIELDS:
            value = getattr(self, name) - snapshot.get(name, 0)
            delta[name] = round(value, 6) if isinstance(value, float) else value
        return delta


#: the shared name every hot path increments (thread-local storage)
counters = PerfCounters()


class PerfScope:
    """Snapshot/delta pair captured around a ``with`` block.

    ``delta`` (raw counter deltas) and ``rates`` (derived tokens/s etc.)
    are populated when the block exits; :meth:`report` merges both into
    the dict shape ``ToolReport.perf`` uses.  Because the underlying
    counters are thread-local, two jobs scoped concurrently on
    different threads each see only their own work.
    """

    __slots__ = ("delta", "rates", "_before")

    def __init__(self) -> None:
        self.delta: Dict[str, float] = {}
        self.rates: Dict[str, float] = {}

    def __enter__(self) -> "PerfScope":
        self._before = counters.snapshot()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.delta = counters.since(self._before)
        self.rates = derive(self.delta)
        return False

    def report(self) -> Dict[str, float]:
        """Counter deltas plus derived rates, merged."""
        merged = dict(self.delta)
        merged.update(self.rates)
        return merged


def scoped() -> PerfScope:
    """Per-job measurement scope: ``with scoped() as s: ...; s.delta``."""
    return PerfScope()


def derive(delta: Dict[str, float]) -> Dict[str, float]:
    """Compute the human-facing rates from a counter delta."""
    rates: Dict[str, float] = {}
    if delta.get("lex_seconds"):
        rates["tokens_per_second"] = round(
            delta.get("tokens_lexed", 0) / delta["lex_seconds"], 1
        )
    if delta.get("analysis_seconds"):
        rates["nodes_per_second"] = round(
            delta.get("engine_steps", 0) / delta["analysis_seconds"], 1
        )
    interned = delta.get("taint_states_interned", 0)
    hits = delta.get("taint_intern_hits", 0)
    if interned or hits:
        rates["taint_intern_hit_rate"] = round(hits / (interned + hits), 4)
    return rates


def merge(into: Dict[str, float], delta: Dict[str, float]) -> None:
    """Accumulate one job's counters into ``into`` (batch aggregation).

    Only :data:`FIELDS` add up; the rates are re-derived from the sums,
    because a sum of per-job rates is not a rate."""
    for name in FIELDS:
        if name in delta:
            into[name] = round(into.get(name, 0) + delta[name], 6)
    into.update(derive(into))
