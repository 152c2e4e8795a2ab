"""Host-speed probe: measured times in reference seconds.

The benchmark runs on a few vCPUs of a shared host whose speed drifts:
the same fixed work takes up to 1.7x longer for stretches of seconds to
minutes, and the guest's CPU clock slows with it (no steal time shows),
so CPU time is no way out.  Wall times of the program alone move with
the host as much as with the program.

The probe is a fixed reference workload built from the standard library
only: a regex tokenizer over a seeded PHP-like text, a tree built and
walked in pure Python, and random reads over a freshly allocated table.
Its speed follows the interpreter's speed on the host, and no change to
the program can move it.  A run interleaves short probe bursts between
operations (never inside one) and reports every measured interval in
*reference seconds*: wall seconds divided by the host's slowdown around
the interval, which is the median of the nearest bursts over
:data:`NOMINAL_S`.  On a host running at the nominal speed reference
seconds equal wall seconds.

A burst runs with the garbage collector paused and frees everything it
allocates, so it neither depends on the program's heap nor moves the
program's collections.
"""

from __future__ import annotations

import bisect
import gc
import os
import random
import re
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Sequence, Tuple

#: one burst's CPU seconds on the reference host (2-vCPU x86 at 2.0 GHz,
#: Python 3.11, quiet); reference seconds are wall seconds at that speed
NOMINAL_S = 0.032
#: fewest bursts a slowdown averages over
NEAREST = 6
#: entries of the probe's resident table (about 25 MB of small objects)
TABLE_ENTRIES = 60000

_TOKEN = re.compile(r"\$\w+|->|==|[^\s\w]|\w+")


def _reference_text() -> str:
    rng = random.Random(12345)
    names = ["$" + "".join(rng.choice("abcdefghij") for _ in range(rng.randint(2, 8)))
             for _ in range(300)]
    symbols = ["=", ".", "(", ")", ";", "->", "[", "]", "{", "}", ",", "==", "+"]
    lines = []
    for _ in range(400):
        lines.append(" ".join(
            rng.choice(names) if rng.random() < 0.6 else rng.choice(symbols)
            for _ in range(rng.randint(3, 12))
        ))
    return "\n".join(lines)


_TEXT = _reference_text()


class _Node:
    __slots__ = ("kind", "text", "kids")

    def __init__(self, kind: str, text: str) -> None:
        self.kind = kind
        self.text = text
        self.kids: List["_Node"] = []


def _walk(node: _Node, seen: dict) -> None:
    seen[node.kind] = seen.get(node.kind, 0) + 1
    for kid in node.kids:
        _walk(kid, seen)


def _reference(resident: List[dict]) -> int:
    """The fixed reference work: tokenize, build a tree, walk it,
    allocate a small table and read it at random, then read the resident
    table at random."""
    root = _Node("root", "")
    stack = [root]
    counts: dict = {}
    for token in _TOKEN.findall(_TEXT):
        if token.startswith("$"):
            kind = "var"
        elif token in "([{":
            kind = "open"
        elif token in ")]}":
            kind = "close"
        else:
            kind = "op"
        counts[token] = counts.get(token, 0) + 1
        node = _Node(kind, token)
        stack[-1].kids.append(node)
        if kind == "open":
            stack.append(node)
        elif kind == "close" and len(stack) > 1:
            stack.pop()
    seen: dict = {}
    _walk(root, seen)
    table = [{"k%d" % index: [str(index + step) for step in range(8)]}
             for index in range(4000)]
    rng = random.Random(3)
    total = len(counts) + len(seen)
    for _ in range(8000):
        for values in table[rng.randrange(len(table))].values():
            total += len(values[3])
    for _ in range(16000):
        for values in resident[rng.randrange(len(resident))].values():
            total += len(values[3])
    return total


def resident_table() -> List[dict]:
    return [{"k%d" % index: [str(index + step) for step in range(8)]}
            for index in range(TABLE_ENTRIES)]


def burst(resident: List[dict]) -> float:
    """CPU seconds of one reference burst, collector paused.  CPU time,
    not wall: the host's slowness shows in both, but only wall time
    would also count waiting for a CPU the service's workers hold."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = time.process_time()
        _reference(resident)
        return time.process_time() - begin
    finally:
        if enabled:
            gc.enable()


def current_cpu() -> int:
    """The CPU the calling thread last ran on."""
    with open("/proc/thread-self/stat", "r", encoding="ascii") as handle:
        return int(handle.read().rsplit(")", 1)[1].split()[36])


def serve_probe() -> None:
    """The probe process: one burst per request line (the CPU to run
    on), answered with the burst's seconds."""
    resident = resident_table()
    for line in sys.stdin:
        try:
            os.sched_setaffinity(0, {int(line)})
        except (OSError, ValueError):
            pass
        sys.stdout.write(f"{burst(resident)!r}\n")
        sys.stdout.flush()


class HostClock:
    """Probe bursts taken through a run, and the slowdown they give.

    The bursts run in a probe process of their own, so its resident
    table adds nothing to the workload's peak memory and the probe's
    state never depends on the workload's heap.  The caller waits while
    a burst runs, on the CPU the caller was last on.
    ``maybe_sample`` takes a burst when ``every_s`` seconds have passed
    since the last one; the workloads call it between operations.  A
    disabled clock (traced runs, whose spans must cover the traced wall)
    starts no probe and reports a slowdown of 1.
    """

    def __init__(self, enabled: bool = True, every_s: float = 0.6) -> None:
        self.every_s = every_s
        #: (midpoint, seconds) of every burst, in time order
        self.samples: List[Tuple[float, float]] = []
        #: wall seconds spent in bursts, so set-up can leave them out
        self.spent = 0.0
        self._last = float("-inf")
        self._probe: Optional[subprocess.Popen] = None
        if enabled:
            self._probe = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--serve"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
            )

    def close(self) -> None:
        if self._probe is None:
            return
        self._probe.stdin.close()  # type: ignore[union-attr]
        try:
            self._probe.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._probe.kill()
            self._probe.wait()
        self._probe.stdout.close()  # type: ignore[union-attr]
        self._probe = None

    def sample(self, count: int = 1) -> None:
        if self._probe is None:
            return
        for _ in range(count):
            begin = time.perf_counter()
            self._probe.stdin.write(f"{current_cpu()}\n")  # type: ignore[union-attr]
            answer = self._probe.stdout.readline()  # type: ignore[union-attr]
            if not answer:
                raise RuntimeError("the host probe exited")
            seconds = float(answer)
            self._last = time.perf_counter()
            self.samples.append(((begin + self._last) / 2, seconds))
            self.spent += self._last - begin

    def maybe_sample(self) -> None:
        if self._probe is not None and time.perf_counter() - self._last >= self.every_s:
            self.sample()

    def slowdown(self, begin: float, end: float) -> float:
        """Host slowdown over ``[begin, end]``: the mean of every burst
        inside the interval, or of the :data:`NEAREST` nearest if fewer
        fell inside, over the nominal burst.  A mean, not a median: the
        host flips between a fast and a slow state, and the workload
        pays the average of the two."""
        if not self.samples:
            return 1.0
        times = [midpoint for midpoint, _seconds in self.samples]
        lo = bisect.bisect_left(times, begin)
        hi = bisect.bisect_right(times, end)
        # widen one burst at a time towards the closer side
        while hi - lo < min(NEAREST, len(times)):
            if lo == 0:
                hi += 1
            elif hi == len(times) or begin - times[lo - 1] <= times[hi] - end:
                lo -= 1
            else:
                hi += 1
        return statistics.fmean(seconds for _t, seconds in self.samples[lo:hi]) / NOMINAL_S

    def correct(self, seconds: float, begin: float, end: float) -> float:
        """``seconds`` measured over ``[begin, end]`` in reference seconds."""
        return seconds / self.slowdown(begin, end)

    def summary(self) -> Sequence[float]:
        """Median, minimum and maximum burst over the nominal one."""
        if not self.samples:
            return (1.0, 1.0, 1.0)
        values = [seconds / NOMINAL_S for _t, seconds in self.samples]
        return (statistics.median(values), min(values), max(values))


if __name__ == "__main__":
    serve_probe()
