#!/usr/bin/env python
"""Gate one perfbench result: correct, and cold-corpus kLOC/s at its floor.

``perfbench/run.py`` is the repository's one performance harness.  The
last line it prints is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  This script reads
that line from a saved run and fails unless:

1. ``correct`` is true (every SARIF matched ``perfbench/expected/`` and,
   for a traced run, the layers covered the wall clock);
2. when the result carries ``kloc_per_s`` (an untraced run), it is at or
   above ``RECORDED_KLOC_PER_S * (1 - bound)``, where ``bound`` is the
   ``kloc_per_s`` entry of ``BENCHMARK.json``.  A traced result has no
   end-to-end metrics, so only check 1 applies to it.

The floor is meant for the ``cold-corpus`` workload.  Stdlib only; run
from the repo root::

    python3 perfbench/run.py --workload cold-corpus --seed 1 \\
        --seconds 15 --trace 0 > perfbench-gate.txt
    python scripts/perf_check.py perfbench-gate.txt
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List

BENCHMARK = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"
)

#: ``cold-corpus`` kLOC/s of the change that paused the cyclic garbage
#: collector for each analysis: the change median of its ten recorded
#: parent/change pairs, in perfbench's host-normalized reference seconds.
RECORDED_KLOC_PER_S = 28.65


def kloc_floor(benchmark: str = BENCHMARK) -> float:
    """``RECORDED_KLOC_PER_S`` less the ``kloc_per_s`` regression bound."""
    with open(benchmark, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    (bound,) = [
        metric["bound"]
        for metric in document["end_to_end"]
        if metric["name"] == "kloc_per_s"
    ]
    return RECORDED_KLOC_PER_S * (1.0 - bound)


def result_line(text: str) -> Dict[str, object]:
    """The JSON object on the last non-empty line of a perfbench run."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


def check(result: Dict[str, object], floor: float) -> List[str]:
    """Why ``result`` fails the gate; empty when it passes."""
    failures: List[str] = []
    if result.get("correct") is not True:
        failures.append(
            f"result is not correct ({result.get('failed')} of "
            f"{result.get('attempted')} operations failed, or a check did)"
        )
    metrics: Dict[str, Dict[str, float]] = result.get("metrics") or {}  # type: ignore[assignment]
    kloc = metrics.get("kloc_per_s")
    if kloc is not None:
        if kloc["value"] < floor:
            failures.append(
                f"kloc_per_s {kloc['value']:.2f} is below the floor {floor:.2f}"
            )
    elif "trace.coverage" not in metrics:
        failures.append("an untraced result must carry kloc_per_s")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="saved stdout of perfbench/run.py")
    args = parser.parse_args(argv)

    with open(args.output, "r", encoding="utf-8") as handle:
        result = result_line(handle.read())
    floor = kloc_floor()
    kloc = (result.get("metrics") or {}).get("kloc_per_s")  # type: ignore[union-attr]
    print(
        f"perf-check: correct {result.get('correct')}, kloc_per_s "
        + (f"{kloc['value']:.2f}" if kloc else "not measured (traced run)")
        + f", floor {floor:.2f} ({RECORDED_KLOC_PER_S} less the"
        " BENCHMARK.json bound)"
    )
    failures = check(result, floor)
    for failure in failures:
        print(f"perf-check: FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
