"""Outside-in span recorder for the benchmark's traced runs.

The recorder wraps the analyzer's public entry points (class methods and
module functions) from the benchmark's own process, so no source file of
the program changes.  Every call through a wrapped entry point records
one span ``(name, start, end, parent, op)``; spans stay in an in-memory
list and are written out once, after the run.

A span's *self time* is its duration minus the part of its interval its
child spans cover.  Each span name belongs to one layer, and a layer's
self time is the sum over its spans.  The spans the benchmark records
around each operation (``op``) form the ``harness`` layer, so the layer
self times always partition the traced wall time exactly; the share the
program's own layers cover is the run's *coverage*.

Tracing costs :func:`span_cost` seconds per span, timed in the traced
interpreter itself, so a run's overhead is its span count times that.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: span name -> layer; names match the module or class they wrap
LAYER_OF: Dict[str, str] = {
    "op": "harness",
    "Lexer.tokenize": "lexer",
    "Parser.parse_file": "parser",
    "PluginModel.build": "model",
    "IRTaintEngine.run": "taint",
    "ModelCache.lookup": "cache",
    "ModelCache.lookup_summary": "cache",
    "ModelCache.lookup_ir": "cache",
    "ModelCache.store": "cache",
    "ModelCache.store_failure": "cache",
    "ModelCache.store_summary": "cache",
    "ModelCache.store_ir": "cache",
    "ModelCache.spill": "cache",
    "incremental.plan_rescan": "incremental",
    "incremental.validate_rescan": "incremental",
    "incremental.build_manifest": "incremental",
    "PhpSafe.analyze": "finalize",
    "PhpSafe.rescan": "finalize",
    "JsonlFindingSink.write_report": "output",
    "sarif.to_sarif": "output",
    "stream_scan": "stream",
}

#: every layer in reporting order (harness last: it is the residual)
LAYERS: Tuple[str, ...] = (
    "lexer",
    "parser",
    "model",
    "taint",
    "cache",
    "incremental",
    "finalize",
    "output",
    "stream",
    "harness",
)

#: one finished span: name, start, end, parent index (-1 = none), op id
Span = Tuple[str, float, float, int, int]


class SpanRecorder:
    """In-memory span list plus the wrappers that feed it.

    ``install`` patches entry points; ``uninstall`` restores them.  The
    recorder is single-threaded by design: the traced workloads run the
    analyzer on the calling thread, and the parent of a span is simply
    the span open below it on the stack.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.op = 0
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        # placeholder keeps the index stable while children append
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _end, parent, op = self.spans[index]  # type: ignore[misc]
        self.spans[index] = (name, start, end, parent, op)

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- patching ----------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        observe: Optional[Callable[["SpanRecorder", object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``observe(recorder, result)`` runs after the call, outside the
        timed interval, to count outcomes (cache hits, statements).
        """
        static = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        is_classmethod = isinstance(static, classmethod)
        target = static.__func__ if is_classmethod else getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = target(*args, **kwargs)
            finally:
                recorder.close(index)
            if observe is not None:
                observe(recorder, result)
            return result

        wrapper.__name__ = getattr(target, "__name__", attr)
        wrapper.__doc__ = getattr(target, "__doc__", None)
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patched.append((owner, attr, static, own))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, static, own = self._patched.pop()
            if own:
                setattr(owner, attr, static)
            else:
                delattr(owner, attr)

    def finished(self) -> List[Span]:
        return [span for span in self.spans if span is not None]

    def write(self, path: str) -> None:
        """Write every span as one JSON line (after the run only)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.finished()):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                )
                handle.write("\n")


class _SpanContext:
    __slots__ = ("recorder", "name", "index")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.index = -1

    def __enter__(self) -> "_SpanContext":
        self.index = self.recorder.open(self.name)
        return self

    def __exit__(self, *exc_info) -> bool:
        self.recorder.close(self.index)
        return False


class _Probe:
    def call(self) -> None:
        return None


def span_cost(calls: int = 20000, rounds: int = 7) -> float:
    """Seconds one recorded span adds to a call, timed in this interpreter.

    Alternates rounds of bare and wrapped calls to a no-op method and
    returns the difference of the two medians per call, so the cost is
    measured under the same conditions as the traced run itself.
    """
    probe = _Probe()
    bare: List[float] = []
    wrapped: List[float] = []
    for _round in range(rounds):
        for times, traced in ((bare, False), (wrapped, True)):
            recorder = SpanRecorder()
            if traced:
                recorder.wrap(_Probe, "call", "probe")
            begin = time.perf_counter()
            for _ in range(calls):
                probe.call()
            times.append(time.perf_counter() - begin)
            recorder.uninstall()
    return max(0.0, (statistics.median(wrapped) - statistics.median(bare)) / calls)


def _covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the union its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: List[float] = []
    for index, (_name, start, end, _parent, _op) in enumerate(spans):
        duration = end - start
        out.append(duration - _covered(children.get(index, ()), start, end))
    return out


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per layer; every layer of :data:`LAYERS` present."""
    totals = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        totals[LAYER_OF.get(span[0], "harness")] += own
    return totals
