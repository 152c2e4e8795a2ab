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

from ..plugin import Plugin
from .results import ToolReport

# the collector is process-wide, so the pause's state is too
_pause_lock = threading.Lock()
#: analyses currently inside :func:`collector_paused`, in any thread
_pause_depth = 0
#: whether the collector was enabled when the outermost analysis began
_pause_resume = False


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Keep CPython's cyclic garbage collector off for one analysis.

    An analysis allocates millions of short-lived objects and creates no
    reference cycles (``tests/test_gc_pause.py`` pins that), so
    reference counting frees all of it and every collection the
    allocations would trigger is wasted work.  The first analysis to
    enter disables the collector; the last to leave restores the state
    it found.  The depth count is process-wide and guarded by a lock,
    so nested entry (``analyze_source`` -> ``analyze``) and concurrent
    analyses in threads (the service's ``isolation="thread"``) share
    one pause.

    Assumes no process forks while an analysis is running: a forked
    child would inherit a disabled collector and a depth it can never
    bring back to zero.  No batch pool or service executor forks inside
    an analysis.
    """
    global _pause_depth, _pause_resume
    with _pause_lock:
        if _pause_depth == 0:
            _pause_resume = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            if _pause_depth == 0 and _pause_resume:
                gc.enable()


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
