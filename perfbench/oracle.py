"""Finding oracles for the benchmark's workloads.

The paper-corpus oracle is a committed file per corpus version
(``expected/paper-<version>.json``) holding every plugin's expected
finding signatures at scale 0.25.  A signature is
``(plugin slug, kind, file, line, sink)``, the identity
``repro.core.results.finding_signatures`` and
``repro.service.sarif.result_signatures`` both produce.

Regenerate (and cross-check) the files with::

    PYTHONPATH=src python3 perfbench/oracle.py --write

The cross-check matches the signatures against the corpus generator's
ground-truth manifest and requires the resulting true/false-positive
counts per vulnerability kind to equal the paper's Table I row for
phpSAFE.  ``--check`` runs the cross-check on the committed files only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterable, Optional, Set, Tuple

Signature = Tuple[str, str, str, int, str]

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")
SCHEMA = "perfbench.expected/v1"
#: corpus scale every paper-corpus workload runs at
SCALE = 0.25
VERSIONS = ("2012", "2014")


def expected_path(version: str) -> str:
    return os.path.join(EXPECTED_DIR, f"paper-{version}.json")


def load_expected(version: str) -> Dict[str, Set[Signature]]:
    """Plugin slug -> expected signature set, from the committed file."""
    with open(expected_path(version), "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != SCHEMA or document.get("scale") != SCALE:
        raise ValueError(f"{expected_path(version)}: unexpected schema or scale")
    return {
        slug: {(slug, kind, file, int(line), sink) for kind, file, line, sink in rows}
        for slug, rows in document["plugins"].items()
    }


def compare(actual: Set[Signature], expected: Set[Signature]) -> Optional[str]:
    """None when the sets agree, else a one-line description of the diff."""
    if actual == expected:
        return None
    missing = sorted(expected - actual)
    extra = sorted(actual - expected)
    parts = []
    if missing:
        parts.append(f"{len(missing)} missing (first {missing[0]})")
    if extra:
        parts.append(f"{len(extra)} unexpected (first {extra[0]})")
    return "; ".join(parts)


def tp_fp_counts(signatures: Iterable[Signature], truth) -> Dict[str, int]:
    """TP/FP per kind of ``signatures`` against a ground-truth manifest,
    keyed like the paper's Table I (``xss_tp``, ``sqli_fp``, ...)."""
    counts = {"xss_tp": 0, "xss_fp": 0, "sqli_tp": 0, "sqli_fp": 0}
    for slug, kind, file, line, _sink in signatures:
        entry = truth.lookup(slug.split("@", 1)[0], kind, file, line)
        verdict = "tp" if entry is not None and entry.spec.is_vulnerable else "fp"
        key = f"{kind}_{verdict}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def cross_check(version: str, by_slug: Dict[str, Set[Signature]], truth) -> Optional[str]:
    """Compare the oracle's TP/FP counts with the paper's Table I.

    The paper's phpSAFE-2014 XSS row does not add up to its Global row
    (374 + 9 != 387, see EXPERIMENTS.md), so XSS is checked as Global
    minus SQLi, which equals the published XSS figure wherever the
    paper is consistent."""
    from repro.evaluation.report import PAPER_TABLE1

    counts = tp_fp_counts(
        (signature for rows in by_slug.values() for signature in rows), truth
    )
    paper = PAPER_TABLE1["phpSAFE"][version]
    target = {
        "xss_tp": paper["global_tp"] - paper["sqli_tp"],
        "xss_fp": paper["global_fp"] - paper["sqli_fp"],
        "sqli_tp": paper["sqli_tp"],
        "sqli_fp": paper["sqli_fp"],
    }
    wrong = {
        key: (counts.get(key, 0), value)
        for key, value in target.items()
        if counts.get(key, 0) != value
    }
    if wrong:
        return f"{version}: (oracle, paper) counts differ: {wrong}"
    return None


def _scan_version(version: str) -> Tuple[Dict[str, Set[Signature]], object]:
    from repro.core.phpsafe import PhpSafe
    from repro.core.results import finding_signatures
    from repro.corpus import build_corpus

    corpus = build_corpus(version, scale=SCALE)
    by_slug = {
        plugin.slug: finding_signatures(
            [PhpSafe(use_process_cache=False).analyze(plugin)]
        )
        for plugin in corpus.plugins
    }
    return by_slug, corpus.truth


def write_expected(version: str) -> Optional[str]:
    by_slug, truth = _scan_version(version)
    problem = cross_check(version, by_slug, truth)
    # one plugin per line keeps the file reviewable and diffs local
    plugin_lines = [
        f"  {json.dumps(slug)}: "
        + json.dumps([list(signature[1:]) for signature in sorted(rows)])
        for slug, rows in sorted(by_slug.items())
    ]
    header = json.dumps({"schema": SCHEMA, "version": version, "scale": SCALE})
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    with open(expected_path(version), "w", encoding="utf-8") as handle:
        handle.write(header[:-1] + ', "plugins": {\n')
        handle.write(",\n".join(plugin_lines))
        handle.write("\n}}\n")
    return problem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paper-corpus finding oracle")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rescan and rewrite")
    mode.add_argument("--check", action="store_true", help="cross-check only")
    args = parser.parse_args(argv)
    from repro.corpus import build_corpus

    problems = []
    for version in VERSIONS:
        if args.write:
            problem = write_expected(version)
        else:
            problem = cross_check(
                version, load_expected(version), build_corpus(version, SCALE).truth
            )
        if problem:
            problems.append(problem)
        total = sum(len(rows) for rows in load_expected(version).values())
        print(f"{version}: {total} expected findings", "FAIL" if problem else "ok")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
