#!/usr/bin/env python
"""CI smoke for memory-bounded streaming at stress scale.

Runs the smallest stress tier (``scale-smoke``) in both evaluation
modes in isolated spawn subprocesses, asserting:

1. streaming peak RSS stays under the tier's configured bound
   (``StressTier.streaming_rss_mb``) — the hard RSS ceiling;
2. both modes report the tier's expected seeded finding count, and
   the streamed finding *signatures* equal the committed golden file
   ``tests/golden/scale-smoke.json`` (seed 0);
3. both paper corpus versions at scale 0.25, streamed in-process,
   yield exactly the phpSAFE signatures of
   ``tests/golden/paper-{2012,2014}.json``;

and writes the measurements to ``BENCH_scale.json`` (uploaded as a CI
artifact).  CI keeps the per-push cost to the smallest tier.
``--tiers`` benches more tiers next to it (``scale-smoke`` always
runs, its golden file being the smoke check); a run that names another
tier also applies the full :func:`repro.benchscale.check_scale` gate.
The committed three-tier file, including the ≥1M-LOC tier, comes from::

    python scripts/scale_smoke.py --tiers scale-smoke scale-quarter scale-1m

Stdlib only; run from the repo root::

    python scripts/scale_smoke.py [--tiers TIER ...] [--out BENCH_scale.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
#: the corpus scale the paper golden files pin
PAPER_SCALE = 0.25


def golden_signatures(name: str) -> set:
    """phpSAFE's committed signatures in ``tests/golden/<name>.json`` as
    ``(plugin slug, kind, file, line, sink)`` tuples: the rows of a
    stress-tier file, or the ``phpSAFE`` rows of a paper-corpus file."""
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if "plugins" in document:
        plugins = document["plugins"]
    else:
        plugins = {
            slug: row["findings"]
            for slug, row in document["tools"]["phpSAFE"].items()
        }
    return {
        (slug, kind, file, int(line), sink)
        for slug, rows in plugins.items()
        for kind, file, line, sink in rows
    }


def check_golden(name: str, streamed: set, failures: list) -> None:
    """Require the streamed signatures to equal golden file ``name``."""
    golden = golden_signatures(name)
    print(
        f"golden: {len(streamed)} streamed signatures vs {len(golden)} in "
        f"tests/golden/{name}.json — "
        + ("identical" if streamed == golden else "DIFFERENT")
    )
    if streamed != golden:
        failures.append(
            f"streamed signatures differ from tests/golden/{name}.json: "
            f"missing={sorted(golden - streamed)[:5]} "
            f"unexpected={sorted(streamed - golden)[:5]}"
        )


def main(argv=None) -> int:
    from repro.corpus.stress import TIERS, get_tier

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiers", nargs="+", choices=sorted(TIERS), default=["scale-smoke"],
        help="stress tiers to bench (default: scale-smoke, which always runs)",
    )
    parser.add_argument(
        "--out", default="BENCH_scale.json", help="bench file to write"
    )
    args = parser.parse_args(argv)
    tiers = sorted(set(args.tiers) | {"scale-smoke"})

    from repro.batch.streaming import stream_scan
    from repro.benchscale import check_scale, run_scale_bench, sink_file, write_bench
    from repro.core.results import stream_signatures
    from repro.corpus.generator import build_corpus

    tier = get_tier("scale-smoke")
    failures = []

    with tempfile.TemporaryDirectory(prefix="scale-smoke-") as sink_dir:
        section = run_scale_bench(tiers, sink_dir=sink_dir)
        streamed = stream_signatures(sink_file(sink_dir, "scale-smoke", "streaming"))
        paper = {}
        for version in ("2012", "2014"):
            print(f"paper {version}: streaming at scale {PAPER_SCALE} ...", flush=True)
            corpus = build_corpus(version, scale=PAPER_SCALE)
            sink = os.path.join(sink_dir, f"paper-{version}.jsonl")
            stream_scan(iter(corpus.plugins), sink)
            paper[version] = stream_signatures(sink)
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
    check_golden("scale-smoke", streamed, failures)
    for version, signatures in paper.items():
        check_golden(f"paper-{version}", signatures, failures)
    if tiers != ["scale-smoke"]:
        failures.extend(check_scale(section))

    write_bench(args.out, section)
    print(f"bench written to {args.out}")

    for failure in failures:
        print(f"FAIL: {failure}")
    print("scale smoke:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
