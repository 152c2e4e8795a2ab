"""Common interface every analyzer tool implements.

The evaluation harness (paper Section IV) drives phpSAFE, RIPS-like and
Pixy-like through this one protocol, mirroring how the authors wrapped
each real tool in automation scripts and normalized their outputs into
"a single repository".
"""

from __future__ import annotations

import abc
import contextlib
import gc
import threading
import time
from typing import Iterator

from ..perf import counters
from ..plugin import Plugin
from .results import ToolReport

# the collector is process-wide, so the pause's state is too
_pause_lock = threading.Lock()
#: analyses currently inside :func:`collector_paused`, in any thread
_pause_depth = 0
#: whether the collector was enabled when the outermost analysis began
_pause_resume = False
#: tracked objects the last full collection left frozen: the bound
#: :data:`_outside_allocations` must reach before the next one runs
_frozen_population = 0
#: net tracked allocations made outside analyses since that collection
_outside_allocations = 0
#: ``gc.get_count()[0]`` and the collections run so far, as the last
#: outermost analysis left
_exit_mark = (0, 0)


def _collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _settle() -> None:
    """Freeze what outlives the analysis that just left (in practice the
    memory tier), so later collections no longer walk it; run a full
    collection first once enough was allocated outside analyses to
    need one.  Called with :data:`_pause_lock` held."""
    global _frozen_population, _outside_allocations
    if _outside_allocations >= _frozen_population:
        start = time.perf_counter()
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        _frozen_population = gc.get_freeze_count()
        _outside_allocations = 0
        counters.gc_full_passes += 1
        counters.gc_full_seconds += time.perf_counter() - start
    else:
        gc.freeze()


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Keep CPython's cyclic garbage collector off for one analysis, and
    keep what outlives it out of later collections.

    An analysis allocates millions of short-lived objects and creates no
    reference cycles (``tests/test_gc_pause.py`` pins that), so
    reference counting frees all of it and every collection the
    allocations would trigger is wasted work.  The first analysis to
    enter disables the collector; the last to leave restores the state
    it found.  The depth count is process-wide and guarded by a lock,
    so nested entry (``analyze_source`` -> ``analyze``) and concurrent
    analyses in threads (the service's ``isolation="thread"``) share
    one pause.

    When the last analysis leaves and the collector was on, it calls
    ``gc.freeze()``: every object alive then (a long-lived analyzer's
    cache tier, above all) leaves the collector's walk, and reference
    counting still frees it.  A cycle made outside an analysis would
    stay frozen for good, so the freeze is bounded: each outermost
    entry adds the net tracked allocations made since the last exit,
    and once they reach the population the last full collection left
    frozen, the exit unfreezes, collects and freezes again.  Both the
    count and the check are O(1).

    Assumes no process forks while an analysis is running: a forked
    child would inherit a disabled collector and a depth it can never
    bring back to zero.  No job slot forks its worker inside an
    analysis.
    """
    global _pause_depth, _pause_resume, _outside_allocations, _exit_mark
    with _pause_lock:
        if _pause_depth == 0:
            count, collections = _exit_mark
            _outside_allocations += (
                gc.get_count()[0] - count
                + gc.get_threshold()[0] * (_collections() - collections)
            )
            _pause_resume = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            if _pause_depth == 0:
                if _pause_resume:
                    # on first, so a deadline that lands in a full
                    # collection cannot leave it off
                    gc.enable()
                    _settle()
                _exit_mark = (gc.get_count()[0], _collections())


class AnalyzerTool(abc.ABC):
    """A static analysis tool that scans one plugin at a time."""

    #: Short display name used in tables ("phpSAFE", "RIPS", "Pixy").
    name: str = "tool"

    @abc.abstractmethod
    def analyze(self, plugin: Plugin) -> ToolReport:
        """Scan ``plugin`` and return findings, failures and stats."""

    def analyze_timed(self, plugin: Plugin) -> ToolReport:
        """Like :meth:`analyze` but fills ``report.seconds`` (Table III)."""
        start = time.perf_counter()
        report = self.analyze(plugin)
        report.seconds = time.perf_counter() - start
        return report
