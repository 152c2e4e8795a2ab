"""Ablation of phpSAFE's design choices (experiment A1).

Each feature flag removes one capability the paper credits for
phpSAFE's performance; each test verifies the capability's signature
flow is found with the flag on and missed with it off.
:class:`TestCorpusAblation` pins EXPERIMENTS.md's A1 table on the 2014
corpus.
"""

import pytest

from repro.core import PhpSafe, PhpSafeOptions
from repro.evaluation.matching import MatchResult, accumulate_report
from repro.rules import resolve_profile
from repro.config.vulnerability import VulnKind

from tests.helpers import findings_of

WPDB_FLOW = "<?php $r = $wpdb->get_var('SELECT x'); echo $r;"
PROPERTY_FLOW = (
    "<?php class W { public $d;"
    " public function a() { $this->d = $_GET['x']; }"
    " public function b() { echo $this->d; } }"
)
UNCALLED_FLOW = "<?php function hook() { echo $_POST['v']; }"
WP_SOURCE_FLOW = "<?php $v = get_option('k'); echo $v;"
WP_FILTER_FLOW = "<?php echo esc_html($_GET['x']);"
PLAIN_FLOW = "<?php echo $_GET['x'];"


def found(source, tool):
    return bool(findings_of(source, tool))


class TestOopFlag:
    def test_on_finds_wpdb_and_properties(self):
        tool = PhpSafe()
        assert found(WPDB_FLOW, tool)
        assert found(PROPERTY_FLOW, tool)

    def test_off_misses_oop_only(self):
        tool = PhpSafe(options=PhpSafeOptions(oop=False))
        assert not found(WPDB_FLOW, tool)
        assert not found(PROPERTY_FLOW, tool)
        assert found(PLAIN_FLOW, tool)  # procedural capability intact


class TestUncalledFlag:
    def test_off_misses_entry_points(self):
        tool = PhpSafe(options=PhpSafeOptions(analyze_uncalled=False))
        assert not found(UNCALLED_FLOW, tool)
        assert found(PLAIN_FLOW, tool)

    def test_on_finds_entry_points(self):
        assert found(UNCALLED_FLOW, PhpSafe())


class TestWordpressConfigFlag:
    def test_off_misses_wp_sources(self):
        tool = PhpSafe(options=PhpSafeOptions(profile_name="generic"))
        assert not found(WP_SOURCE_FLOW, tool)
        assert not found(WPDB_FLOW, tool)

    def test_off_keeps_generic_php(self):
        tool = PhpSafe(options=PhpSafeOptions(profile_name="generic"))
        assert found(PLAIN_FLOW, tool)

    def test_off_does_not_fp_on_wp_filters(self):
        # without WP config, esc_html is unknown and unknown calls are
        # trusted (phpSAFE's unknown-call policy) — still no FP
        tool = PhpSafe(options=PhpSafeOptions(profile_name="generic"))
        assert not found(WP_FILTER_FLOW, tool)

    def test_explicit_profile_overrides_flag(self):
        generic = resolve_profile("generic")
        tool = PhpSafe(profile=generic, options=PhpSafeOptions())
        assert tool.options.profile_name == "wordpress"
        assert not found(WP_SOURCE_FLOW, tool)


class TestSummariesFlag:
    def test_off_is_slower_but_equivalent(self):
        source = (
            "<?php function s($v) { echo $v; }"
            "s($_GET['a']); s($_GET['b']); s('clean');"
        )
        with_summaries = findings_of(source, PhpSafe())
        without = findings_of(
            source, PhpSafe(options=PhpSafeOptions(use_summaries=False))
        )
        assert {f.key for f in with_summaries} == {f.key for f in without}


class TestCombinedAblation:
    def test_fully_ablated_equals_generic_procedural_tool(self):
        """All flags off ≈ a generic procedural analyzer (RIPS-like
        reach on OOP, minus its unknown-call pessimism)."""
        tool = PhpSafe(
            options=PhpSafeOptions(
                oop=False, analyze_uncalled=False, profile_name="generic"
            )
        )
        assert found(PLAIN_FLOW, tool)
        for flow in (WPDB_FLOW, PROPERTY_FLOW, UNCALLED_FLOW, WP_SOURCE_FLOW):
            assert not found(flow, tool)

    def test_sqli_kind_via_wpdb_needs_both_oop_and_config(self):
        flow = "<?php $wpdb->query('D WHERE i=' . $_GET['x']);"
        assert any(
            f.kind is VulnKind.SQLI for f in findings_of(flow, PhpSafe())
        )
        for options in (
            PhpSafeOptions(oop=False),
            PhpSafeOptions(profile_name="generic"),
        ):
            assert not findings_of(flow, PhpSafe(options=options))


#: A1's variants: one capability removed each (EXPERIMENTS.md)
VARIANTS = {
    "full": PhpSafeOptions(),
    "no-oop": PhpSafeOptions(oop=False),
    "no-uncalled": PhpSafeOptions(analyze_uncalled=False),
    "no-wordpress": PhpSafeOptions(profile_name="generic"),
    "no-summaries": PhpSafeOptions(use_summaries=False),
}


@pytest.fixture(scope="module")
def ablation(corpus_2014):
    """Variant name -> true-positive vulnerability ids on the 2014 corpus."""
    detected = {}
    for variant, options in VARIANTS.items():
        tool = PhpSafe(options=options)
        match = MatchResult(tool=variant, version="2014")
        for plugin in corpus_2014.plugins:
            accumulate_report(
                match, tool.analyze(plugin), corpus_2014.truth, plugin.name
            )
        detected[variant] = set(match.detected_ids)
    return detected


class TestCorpusAblation:
    """The A1 table: TP 387 / 208 / 137 / 106 / 387."""

    def test_true_positives_per_variant(self, ablation):
        assert {variant: len(ids) for variant, ids in ablation.items()} == {
            "full": 387,
            "no-oop": 208,
            "no-wordpress": 137,
            "no-uncalled": 106,
            "no-summaries": 387,
        }

    def test_shape(self, ablation, corpus_2014):
        full = ablation["full"]
        vulnerabilities = list(corpus_2014.truth.vulnerabilities())
        oop_ids = {entry.spec.spec_id for entry in vulnerabilities if entry.spec.via_oop}
        wpdb_ids = {
            entry.spec.spec_id
            for entry in vulnerabilities
            if entry.spec.via_oop and entry.spec.vector.value == "DB"
        }
        assert (len(oop_ids), len(wpdb_ids)) == (179, 150)
        # removing OOP loses exactly the OOP population of E6
        assert full - ablation["no-oop"] == oop_ids
        # removing uncalled-function analysis loses the entry-point flows
        assert ablation["no-uncalled"] < full
        # removing the WordPress profile loses the $wpdb-mediated flows
        # but keeps pure property flows ($_COOKIE -> $this->prop -> echo
        # needs only OOP resolution)
        assert wpdb_ids & ablation["no-wordpress"] == set()
        sqli_ids = {
            entry.spec.spec_id
            for entry in vulnerabilities
            if entry.spec.region == "e_sqli"
        }
        assert oop_ids - wpdb_ids - sqli_ids <= ablation["no-wordpress"]
        assert len(ablation["no-wordpress"]) < len(ablation["no-oop"])
        # summaries are a pure optimization: same detections
        assert ablation["no-summaries"] == full
