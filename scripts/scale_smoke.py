#!/usr/bin/env python
"""CI smoke for memory-bounded streaming at stress scale.

Runs the smallest stress tier (``scale-smoke``) in both evaluation
modes in isolated spawn subprocesses, asserting:

1. streaming peak RSS stays under the tier's configured bound
   (``StressTier.streaming_rss_mb``) — the hard RSS ceiling;
2. both modes report the tier's expected seeded finding count, and
   the streamed finding *signatures* equal the committed golden file
   ``tests/golden/scale-smoke.json`` (seed 0);
3. streaming and accumulating finding *signatures* are identical on
   the paper corpus at scale 0.25 (the acceptance-criteria parity
   proof, re-run here on every push);

and writes the measurements to ``BENCH_scale.json`` (uploaded as a CI
artifact).  The full three-tier bench, including the ≥1M-LOC tier, is
run via ``phpsafe bench scale``; this job keeps the per-push cost to
the smallest tier.

Stdlib only; run from the repo root::

    python scripts/scale_smoke.py [--out BENCH_scale.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
GOLDEN = os.path.join(ROOT, "tests", "golden", "scale-smoke.json")


def golden_signatures() -> set:
    """The committed ``scale-smoke`` signatures (seed 0) as
    ``(plugin slug, kind, file, line, sink)`` tuples."""
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return {
        (slug, kind, file, int(line), sink)
        for slug, rows in document["plugins"].items()
        for kind, file, line, sink in rows
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_scale.json", help="bench file to write"
    )
    parser.add_argument(
        "--parity-scale", type=float, default=0.25,
        help="paper-corpus scale of the parity proof (default: 0.25)",
    )
    args = parser.parse_args(argv)

    from repro.benchscale import run_parity, run_scale_bench, sink_file, write_bench
    from repro.core.results import stream_signatures
    from repro.corpus.stress import get_tier

    tier = get_tier("scale-smoke")
    failures = []

    with tempfile.TemporaryDirectory(prefix="scale-smoke-") as sink_dir:
        section = run_scale_bench(["scale-smoke"], parity=False, sink_dir=sink_dir)
        streamed = stream_signatures(sink_file(sink_dir, "scale-smoke", "streaming"))
    row = section["tiers"]["scale-smoke"]
    streaming = row["streaming"]
    accumulating = row["accumulating"]
    print(
        f"scale-smoke: streaming {streaming['peak_rss_mb']} MB peak RSS "
        f"(bound {tier.streaming_rss_mb} MB), "
        f"{streaming['loc_per_second']} LOC/s; "
        f"accumulating {accumulating['peak_rss_mb']} MB peak RSS"
    )

    if streaming["peak_rss_mb"] > tier.streaming_rss_mb:
        failures.append(
            f"streaming peak RSS {streaming['peak_rss_mb']} MB exceeds the "
            f"{tier.streaming_rss_mb} MB ceiling"
        )
    for mode, measured in (("streaming", streaming), ("accumulating", accumulating)):
        if measured["findings"] != tier.expected_findings:
            failures.append(
                f"{mode} found {measured['findings']} findings, expected "
                f"{tier.expected_findings}"
            )
    golden = golden_signatures()
    print(
        f"golden: {len(streamed)} streamed signatures vs {len(golden)} in "
        "tests/golden/scale-smoke.json — "
        + ("identical" if streamed == golden else "DIFFERENT")
    )
    if streamed != golden:
        failures.append(
            "streamed signatures differ from the golden file: "
            f"missing={sorted(golden - streamed)[:5]} "
            f"unexpected={sorted(streamed - golden)[:5]}"
        )

    print(f"parity: paper corpus at scale {args.parity_scale} ...", flush=True)
    parity = run_parity(scale=args.parity_scale)
    section["parity"] = parity
    print(
        f"parity: {parity['streaming_findings']} streaming vs "
        f"{parity['accumulating_findings']} accumulating findings over "
        f"{parity['loc']} LOC — "
        + ("identical" if parity["identical"] else "DIVERGED")
    )
    if not parity["identical"]:
        failures.append(
            "streaming and accumulating finding signatures diverge: "
            f"only-streaming={parity['only_streaming']} "
            f"only-accumulating={parity['only_accumulating']}"
        )

    write_bench(args.out, section)
    print(f"bench written to {args.out}")

    for failure in failures:
        print(f"FAIL: {failure}")
    print("scale smoke:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
