"""Scale benchmark: peak RSS and LOC/s across the stress tiers.

``phpsafe bench scale`` runs each stress tier
(:mod:`repro.corpus.stress`) in both evaluation modes and writes the
results to ``BENCH_scale.json`` as one plain JSON document:

- **streaming** — :func:`repro.batch.streaming.stream_scan`: lazy
  corpus generation, byte-capped artifact cache, eager per-plugin
  spill, findings streamed to a JSONL sink;
- **accumulating** — the classic path: materialize the corpus, keep an
  entry-bounded cache, accumulate every ToolReport in memory.

Each (tier, mode) pair runs in its own **spawn-context** subprocess and
reports its own ``ru_maxrss``: spawn (not fork) matters because a
forked child inherits the parent's touched pages and its peak-RSS
counter starts from the parent's footprint, which would double-count
the harness itself.  The per-tier contract is
``StressTier.streaming_rss_mb``: streaming must hold peak RSS under it;
accumulating is *expected* to exceed it on the largest tier (that gap
is the point of the PR, and :func:`check_scale` gates on both).

The findings themselves are pinned by the golden files:
``scripts/scale_smoke.py`` checks the streamed signatures against them.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from .corpus.stress import get_tier, iter_stress_plugins, stress_options

BENCH_PATH = "BENCH_scale.json"


def _peak_rss_mb() -> float:
    """This process's lifetime peak RSS, in MB (ru_maxrss is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child_entry(mode: str, tier_name: str, seed: int, sink_path: str, conn) -> None:
    """Subprocess body: run one (tier, mode) and send the measurement."""
    try:
        tier = get_tier(tier_name)
        started = time.perf_counter()
        if mode == "streaming":
            from .batch.streaming import stream_scan

            summary = stream_scan(
                iter_stress_plugins(tier, seed),
                sink_path,
                options=stress_options(),
            )
            loc, findings, plugins = summary.loc, summary.findings, summary.plugins
        elif mode == "accumulating":
            import functools

            from .core.cache import ModelCache
            from .core.phpsafe import PhpSafe
            from .core.results import ToolReport

            # the pre-streaming configuration this PR displaces:
            # materialized corpus, entry-bounded (NOT byte-bounded)
            # artifact cache — the batch scheduler's old default — and
            # every report accumulated then merged
            plugins_list = list(iter_stress_plugins(tier, seed))
            tool = PhpSafe(
                options=stress_options(),
                cache=ModelCache(max_entries=4096),
                use_process_cache=False,
            )
            reports = [tool.analyze(plugin) for plugin in plugins_list]
            merged = (
                functools.reduce(ToolReport.merged, reports) if reports else None
            )
            loc = sum(report.loc_analyzed for report in reports)
            findings = len(merged.findings) if merged else 0
            plugins = len(reports)
        else:  # pragma: no cover - argparse restricts the choices
            raise ValueError(f"unknown mode {mode!r}")
        seconds = time.perf_counter() - started
        conn.send(
            {
                "ok": True,
                "peak_rss_mb": round(_peak_rss_mb(), 1),
                "seconds": round(seconds, 3),
                "loc": loc,
                "loc_per_second": round(loc / seconds, 1) if seconds else 0.0,
                "findings": findings,
                "plugins": plugins,
            }
        )
    except Exception as error:  # pragma: no cover - surfaced by the parent
        conn.send({"ok": False, "error": repr(error)})
    finally:
        conn.close()


def sink_file(sink_dir: str, tier_name: str, mode: str) -> str:
    """Where :func:`run_tier_mode` writes a (tier, mode) findings stream."""
    return os.path.join(sink_dir, f"{tier_name}-{mode}.jsonl")


def run_tier_mode(
    tier_name: str, mode: str, seed: int = 0, sink_dir: Optional[str] = None
) -> Dict[str, object]:
    """Measure one (tier, mode) in an isolated spawn subprocess."""
    context = multiprocessing.get_context("spawn")
    parent_conn, child_conn = context.Pipe(duplex=False)
    sink_path = sink_file(
        sink_dir or tempfile.mkdtemp(prefix="benchscale-"), tier_name, mode
    )
    process = context.Process(
        target=_child_entry, args=(mode, tier_name, seed, sink_path, child_conn)
    )
    process.start()
    child_conn.close()
    try:
        result = parent_conn.recv()
    except EOFError:
        result = {"ok": False, "error": f"child died (exit {process.exitcode})"}
    process.join()
    if not result.get("ok"):
        raise RuntimeError(
            f"bench child {tier_name}/{mode} failed: {result.get('error')}"
        )
    result.pop("ok")
    return result


def run_scale_bench(
    tier_names: Sequence[str],
    seed: int = 0,
    sink_dir: Optional[str] = None,
) -> Dict[str, object]:
    """The ``BENCH_scale.json`` document.  Findings streams go to
    ``sink_dir`` (a fresh temporary directory if None)."""
    tiers: Dict[str, object] = {}
    streaming_total = 0.0
    for name in tier_names:
        tier = get_tier(name)
        row: Dict[str, object] = {
            "target_loc": tier.target_loc,
            "plugins": tier.plugin_count,
            "expected_findings": tier.expected_findings,
            "rss_bound_mb": tier.streaming_rss_mb,
        }
        for mode in ("streaming", "accumulating"):
            print(f"bench scale: {name}/{mode} ...", flush=True)
            measured = run_tier_mode(name, mode, seed=seed, sink_dir=sink_dir)
            row[mode] = measured
            print(
                f"bench scale: {name}/{mode}: {measured['loc']} LOC in "
                f"{measured['seconds']}s ({measured['loc_per_second']} LOC/s), "
                f"peak RSS {measured['peak_rss_mb']} MB",
                flush=True,
            )
        streaming_total += row["streaming"]["seconds"]  # type: ignore[index]
        row["streaming_within_bound"] = (
            row["streaming"]["peak_rss_mb"] <= tier.streaming_rss_mb  # type: ignore[index]
        )
        row["accumulating_within_bound"] = (
            row["accumulating"]["peak_rss_mb"] <= tier.streaming_rss_mb  # type: ignore[index]
        )
        tiers[name] = row
    return {
        "tiers": tiers,
        "streaming_scan_seconds": round(streaming_total, 3),
    }


def check_scale(data: Dict[str, object]) -> List[str]:
    """Gate conditions over a ``BENCH_scale.json`` document."""
    failures: List[str] = []
    tiers: Dict[str, Dict[str, object]] = data.get("tiers") or {}  # type: ignore[assignment]
    if not tiers:
        return ["no tiers benched"]
    for name, row in sorted(tiers.items()):
        if not row.get("streaming_within_bound"):
            failures.append(
                f"{name}: streaming peak RSS "
                f"{row.get('streaming', {}).get('peak_rss_mb')} MB exceeds "
                f"the {row.get('rss_bound_mb')} MB bound"
            )
        streaming = row.get("streaming") or {}
        expected = row.get("expected_findings")
        if expected is not None and streaming.get("findings") != expected:
            failures.append(
                f"{name}: streaming found {streaming.get('findings')} "
                f"findings, expected {expected}"
            )
        accumulating = row.get("accumulating") or {}
        if accumulating.get("findings") != streaming.get("findings"):
            failures.append(
                f"{name}: modes disagree on findings "
                f"({accumulating.get('findings')} accumulating vs "
                f"{streaming.get('findings')} streaming)"
            )
    # the headline claim: on at least one benched tier the bound is only
    # holdable by streaming
    if not any(
        row.get("streaming_within_bound")
        and not row.get("accumulating_within_bound")
        for row in tiers.values()
    ):
        failures.append(
            "no tier shows streaming under a bound accumulating exceeds "
            "(bench more tiers or lower the bound)"
        )
    return failures


def write_bench(path: str, document: Dict[str, object]) -> None:
    """Write one bench run as an indented JSON document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def run_and_gate(
    tier_names: Sequence[str],
    path: str = BENCH_PATH,
    seed: int = 0,
) -> int:
    """CLI core: bench, write, gate; returns the exit code."""
    document = run_scale_bench(tier_names, seed=seed)
    write_bench(path, document)
    failures = check_scale(document)
    for failure in failures:
        print(f"bench scale: FAIL: {failure}", flush=True)
    if not failures:
        print(f"bench scale: ok — results in {path}", flush=True)
    return 1 if failures else 0
