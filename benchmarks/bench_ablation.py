"""Ablation benchmark (experiment A1, ours).

Quantifies each phpSAFE design choice from DESIGN.md on the 2014
corpus by re-running phpSAFE with one capability removed and counting
the lost true positives:

- ``oop=False``        loses the 179 OOP-mediated vulnerabilities;
- ``analyze_uncalled=False`` loses the entry-point flows;
- ``profile_name="generic"`` loses WP-source flows *and* OOP entries
  (``$wpdb`` methods come from the WordPress profile).
"""

import pytest

from repro.core import PhpSafe, PhpSafeOptions
from repro.evaluation.matching import MatchResult, accumulate_report

VARIANTS = {
    "full": PhpSafeOptions(),
    "no-oop": PhpSafeOptions(oop=False),
    "no-uncalled": PhpSafeOptions(analyze_uncalled=False),
    "no-wordpress": PhpSafeOptions(profile_name="generic"),
    "no-summaries": PhpSafeOptions(use_summaries=False),
}

_DETECTED = {}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_ablation_variant(benchmark, corpus_2014, variant):
    tool = PhpSafe(options=VARIANTS[variant])

    def run_all():
        match = MatchResult(tool=variant, version="2014")
        for plugin in corpus_2014.plugins:
            report = tool.analyze(plugin)
            accumulate_report(match, report, corpus_2014.truth, plugin.name)
        return match

    match = benchmark.pedantic(run_all, rounds=1, iterations=1)
    tp, fp = match.counts()
    _DETECTED[variant] = set(match.detected_ids)
    print(f"\nphpSAFE[{variant}]: TP={tp} FP={fp}")


def test_ablation_shape(corpus_2014):
    if "full" not in _DETECTED or len(_DETECTED) < 5:
        pytest.skip("ablation variants did not all run")
    full = _DETECTED["full"]
    oop_ids = {
        entry.spec.spec_id
        for entry in corpus_2014.truth.vulnerabilities()
        if entry.spec.via_oop
    }
    # removing OOP loses exactly the OOP population (and nothing else)
    assert full - _DETECTED["no-oop"] >= oop_ids
    # removing uncalled-function analysis loses the entry-point flows
    assert len(_DETECTED["no-uncalled"]) < len(full)
    # removing the WordPress profile loses the $wpdb-mediated flows
    # (DB-vector OOP + SQLi + WP sources) but keeps pure property flows
    # ($_COOKIE -> $this->prop -> echo needs only OOP resolution)
    wpdb_ids = {
        entry.spec.spec_id
        for entry in corpus_2014.truth.vulnerabilities()
        if entry.spec.via_oop and entry.spec.vector.value == "DB"
    }
    assert wpdb_ids & _DETECTED["no-wordpress"] == set()
    property_ids = oop_ids - wpdb_ids - {
        entry.spec.spec_id
        for entry in corpus_2014.truth.vulnerabilities()
        if entry.spec.region == "e_sqli"
    }
    assert property_ids <= _DETECTED["no-wordpress"]
    assert len(_DETECTED["no-wordpress"]) < len(_DETECTED["no-oop"])
    # summaries are a pure optimization: same detections
    assert _DETECTED["no-summaries"] == full
    print("\nablation deltas (lost TPs vs full):")
    for variant, detected in sorted(_DETECTED.items()):
        print(f"  {variant:14s} -{len(full - detected):4d}")
