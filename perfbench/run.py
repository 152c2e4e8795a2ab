"""phpSAFE repository benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload cold-corpus --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs one
traced session of one pass and prints the per-layer metrics, including
the tracing overhead.  Each run executes in a fresh interpreter
(``workloads.py``), and this process only orchestrates, checks and
reports.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

See ``perfbench/README.md`` for why each workload exists and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
#: the whole command must finish well inside three minutes
DEADLINE_S = 170.0
#: share of the traced wall the program's own layers must cover
MIN_COVERAGE = 0.95


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def best_of_sessions(
    latencies: Sequence[float], keys: Sequence[Optional[str]]
) -> List[float]:
    """One latency per operation: a keyed operation, which every session
    repeats, counts with its fastest repetition; an unkeyed sample counts
    as it is."""
    best: Dict[str, float] = {}
    single: List[float] = []
    for seconds, key in zip(latencies, keys):
        if key is None:
            single.append(seconds)
        else:
            best[key] = min(seconds, best.get(key, seconds))
    return single + list(best.values())


def end_to_end(result: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    latencies: List[float] = result["latencies"]  # type: ignore[assignment]
    per_operation = best_of_sessions(latencies, result["keys"])  # type: ignore[arg-type]
    round_walls: List[float] = result["round_walls"]  # type: ignore[assignment]
    # concurrent operations overlap, so their busy time is the round wall
    wall = sum(round_walls) if round_walls else sum(latencies)
    return {
        "setup_s": _metric(statistics.median(result["setup_times"]), "s"),  # type: ignore[arg-type]
        "kloc_per_s": _metric(float(result["loc"]) / 1000.0 / wall, "kLOC/s"),  # type: ignore[arg-type]
        "peak_rss_mb": _metric(float(result["peak_rss_mb"]), "MB"),  # type: ignore[arg-type]
        "latency_p50_ms": _metric(percentile(per_operation, 0.5) * 1000.0, "ms"),
        "latency_p90_ms": _metric(percentile(per_operation, 0.9) * 1000.0, "ms"),
        "ops_per_s": _metric(len(latencies) / wall, "1/s"),
    }


def per_layer(traced: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    counts: Dict[str, float] = traced["counts"]  # type: ignore[assignment]
    samples: Dict[str, List[float]] = traced["samples"]  # type: ignore[assignment]
    layers: Dict[str, float] = traced.get("layers") or {}  # type: ignore[assignment]
    span_counts: Dict[str, int] = traced.get("span_counts") or {}  # type: ignore[assignment]
    in_process = bool(layers)

    def count(key: str) -> float:
        return float(counts.get(key, 0))

    def self_s(layer: str, counter: Optional[str] = None) -> float:
        # the service's layers run inside the node: its counters stand in
        if in_process:
            return layers.get(layer, 0.0)
        return count(f"perf.{counter}") if counter else 0.0

    def median_of(key: str) -> float:
        values = samples.get(key)
        return statistics.median(values) if values else 0.0

    files_lexed = span_counts.get("Lexer.tokenize") if in_process else count("perf.files_parsed")
    files_parsed = span_counts.get("Parser.parse_file") if in_process else count("perf.files_parsed")
    reads = count("cache.reads")
    roots_total = count("incremental.roots_total")
    traced_wall = float(traced.get("traced_wall") or sum(traced["round_walls"]))  # type: ignore[arg-type]
    span_total = float(traced.get("spans") or 0)  # type: ignore[arg-type]
    if in_process:
        coverage = 1.0 - layers.get("harness", 0.0) / traced_wall
    else:
        latency = sum(traced["latencies"])  # type: ignore[arg-type]
        explained = sum(samples.get("queue.wait_ms", ())) + sum(samples.get("worker.scan_ms", ()))
        coverage = explained / 1000.0 / latency if latency else 0.0
    values = {
        "lexer.self_s": (self_s("lexer", "lex_seconds"), "s"),
        "lexer.files": (float(files_lexed or 0), "count"),
        "lexer.tokens": (count("perf.tokens_lexed"), "count"),
        "parser.self_s": (self_s("parser", "parse_seconds"), "s"),
        "parser.files": (float(files_parsed or 0), "count"),
        "parser.statements": (count("parser.statements"), "count"),
        "model.self_s": (self_s("model"), "s"),
        "model.files_skipped": (count("model.files_skipped"), "count"),
        "ir.lower_s": (count("perf.ir_lower_seconds"), "s"),
        "ir.bodies_lowered": (count("perf.ir_bodies_lowered"), "count"),
        "ir.cache_hits": (count("perf.ir_cache_hits"), "count"),
        "ir.cache_misses": (count("perf.ir_cache_misses"), "count"),
        "taint.self_s": (self_s("taint", "analysis_seconds"), "s"),
        "taint.steps": (count("perf.engine_steps"), "count"),
        "taint.summaries_computed": (count("perf.summaries_computed"), "count"),
        "taint.findings": (count("taint.findings"), "count"),
        "cache.self_s": (self_s("cache"), "s"),
        "cache.reads": (reads, "count"),
        "cache.writes": (count("cache.writes"), "count"),
        "cache.hit_ratio": (count("cache.read_hits") / reads if reads else 0.0, "ratio"),
        "cache.summary_hits": (count("perf.summary_cache_hits"), "count"),
        "cache.summary_stale": (count("perf.summary_cache_stale"), "count"),
        "incremental.self_s": (self_s("incremental"), "s"),
        "incremental.roots_reused": (count("incremental.roots_reused"), "count"),
        "incremental.reuse_ratio": (
            count("incremental.roots_reused") / roots_total if roots_total else 0.0,
            "ratio",
        ),
        "incremental.fallbacks": (count("incremental.fallbacks"), "count"),
        "finalize.self_s": (self_s("finalize"), "s"),
        "output.self_s": (self_s("output"), "s"),
        "output.records": (count("output.records"), "count"),
        "stream.self_s": (self_s("stream"), "s"),
        "harness.self_s": (self_s("harness"), "s"),
        "http.submit_ms": (median_of("http.submit_ms"), "ms"),
        "queue.wait_ms": (median_of("queue.wait_ms"), "ms"),
        "worker.scan_ms": (median_of("worker.scan_ms"), "ms"),
        "service.overhead_ms": (median_of("service.overhead_ms"), "ms"),
        "store.dedup_hits": (count("store.dedup_hits"), "count"),
        "queue.coalesced": (count("queue.coalesced"), "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.spans": (span_total, "count"),
        "trace.overhead_s": (span_total * float(traced.get("span_cost") or 0.0), "s"),  # type: ignore[arg-type]
        "trace.coverage": (coverage, "ratio"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in values.items()}


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait for
    the group to be empty (service nodes are grandchildren)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(config: Dict[str, object], deadline: float) -> Dict[str, object]:
    """Run one workload in a fresh interpreter; return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "workloads.py"), json.dumps(config)],
        stdout=subprocess.PIPE,
        env=env,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _reap_group(child.pid)
        child.wait()
        raise RuntimeError(f"{config['workload']} exceeded the run deadline")
    finally:
        if child.returncode is not None:
            _reap_group(child.pid)
    if child.returncode != 0:
        raise RuntimeError(f"{config['workload']} child exited with {child.returncode}")
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    if not lines:
        raise RuntimeError(f"{config['workload']} child printed no result")
    return json.loads(lines[-1])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="phpSAFE repository benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="nominal run length; each workload's operation count is fixed"
             " (workloads.SHAPE) so that every run measures the same work",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="'tiny' shrinks every input for the self-tests",
    )
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2

    base = os.path.abspath(".perfbench")
    workdir = os.path.join(base, f"run-{os.getpid()}")
    config: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "workdir": workdir,
    }
    deadline = started + DEADLINE_S
    sessions, passes, setups = workloads.SHAPE[args.workload]
    if args.size == "tiny":
        sessions, passes, setups = 2, 1, 1
    try:
        if args.trace:
            result = spawn(dict(config, trace=True, sessions=1, passes=1, setups=1), deadline)
            metrics = per_layer(result)
        else:
            result = spawn(
                dict(config, trace=False, sessions=sessions, passes=passes, setups=setups),
                deadline,
            )
            metrics = end_to_end(result)
    except (RuntimeError, ValueError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = int(result["attempted"])  # type: ignore[arg-type]
    failed = int(result["failed"])  # type: ignore[arg-type]
    problems = list(result["errors"])  # type: ignore[call-overload]
    if args.trace and metrics["trace.coverage"]["value"] < MIN_COVERAGE and result.get("layers"):
        problems.append(
            f"layers cover {metrics['trace.coverage']['value']:.1%} of the traced wall,"
            f" below {MIN_COVERAGE:.0%}"
        )
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} operations, {failed} failed "
          f"(fail_ratio {failed / attempted if attempted else 1.0:.4f})")
    if not args.trace:
        median, low, high = result["host_slowdown"]  # type: ignore[misc]
        wall = sum(result["wall_latencies"])  # type: ignore[arg-type]
        print(f"# host slowdown {median:.3f} (bursts {low:.3f}..{high:.3f}); "
              f"{wall:.3f} wall s of operations, "
              f"{sum(result['latencies']):.3f} reference s")  # type: ignore[arg-type]
    for name, metric in metrics.items():
        print(f"#   {name:28s} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0 and not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
