"""Unit tests for the corpus snippet templates.

Each template promises a detectability class (which tools find it,
whether the expert calls it a true vulnerability).  These tests verify
every promise directly on a minimal file, independent of the full
corpus calibration — if a template drifts, this pinpoints it.
"""

import pytest

from repro.baselines import PixyLike, RipsLike
from repro.config.vulnerability import InputVector, VulnKind
from repro.core import PhpSafe
from repro.corpus import snippets
from repro.plugin import Plugin

ALL_TOOLS = {"phpSAFE": PhpSafe, "RIPS": RipsLike, "Pixy": PixyLike}


def detectors_of(fragment, kind=None):
    """Which tools report a finding at the fragment's sink line."""
    source = "<?php\n" + "\n".join(fragment.lines) + "\n"
    sink_line = fragment.sink_offset + 2  # +1 for <?php, +1 for 1-basing
    plugin = Plugin(name="t", files={"t.php": source})
    found = set()
    for name, factory in ALL_TOOLS.items():
        report = factory().analyze(plugin)
        for finding in report.findings:
            if finding.line == sink_line and (kind is None or finding.kind is kind):
                found.add(name)
    return found


class TestVulnerableTemplates:
    def test_direct_echo_main_found_by_all(self):
        fragment = snippets.direct_echo_main("s1", InputVector.GET)
        assert detectors_of(fragment) == {"phpSAFE", "RIPS", "Pixy"}

    def test_direct_echo_uncalled_skips_pixy(self):
        fragment = snippets.direct_echo_uncalled("s2", InputVector.POST)
        assert detectors_of(fragment) == {"phpSAFE", "RIPS"}

    def test_file_read_uncalled_skips_pixy(self):
        fragment = snippets.file_read_echo_uncalled("s3")
        assert detectors_of(fragment) == {"phpSAFE", "RIPS"}

    def test_db_read_uncalled_is_rips_and_phpsafe(self):
        fragment = snippets.db_read_echo_uncalled("s4")
        assert detectors_of(fragment) == {"phpSAFE", "RIPS"}

    def test_wpdb_results_only_phpsafe(self):
        fragment = snippets.wpdb_results_echo("s5")
        assert detectors_of(fragment) == {"phpSAFE"}

    def test_property_flow_only_phpsafe(self):
        fragment = snippets.property_flow_class("s6", InputVector.COOKIE)
        assert detectors_of(fragment) == {"phpSAFE"}

    def test_wp_option_only_phpsafe(self):
        fragment = snippets.wp_option_echo("s7")
        assert detectors_of(fragment) == {"phpSAFE"}

    def test_wpdb_sqli_only_phpsafe(self):
        fragment = snippets.wpdb_query_sqli("s8", InputVector.GET)
        assert detectors_of(fragment, VulnKind.SQLI) == {"phpSAFE"}

    def test_register_globals_only_pixy(self):
        fragment = snippets.register_globals_echo("s9")
        assert detectors_of(fragment) == {"Pixy"}


class TestBaitTemplates:
    def test_guarded_echo_phpsafe_and_rips(self):
        fragment = snippets.fp_guarded_echo("b1", InputVector.POST)
        assert detectors_of(fragment) == {"phpSAFE", "RIPS"}

    def test_wpdb_internal_table_only_phpsafe(self):
        fragment = snippets.fp_wpdb_internal_table("b2")
        assert detectors_of(fragment) == {"phpSAFE"}

    def test_esc_html_only_rips(self):
        fragment = snippets.fp_esc_html_echo("b3", InputVector.GET)
        assert detectors_of(fragment) == {"RIPS"}

    def test_uninitialized_only_pixy(self):
        fragment = snippets.fp_uninitialized_pixy("b4")
        assert detectors_of(fragment) == {"Pixy"}

    def test_sqli_whitelist_only_phpsafe(self):
        fragment = snippets.fp_sqli_whitelist("b5")
        assert detectors_of(fragment, VulnKind.SQLI) == {"phpSAFE"}

    def test_sqli_absint_only_rips(self):
        fragment = snippets.fp_sqli_absint_rips("b6")
        assert detectors_of(fragment, VulnKind.SQLI) == {"RIPS"}


class TestNoiseTemplates:
    @pytest.mark.parametrize(
        "factory",
        [
            snippets.noise_helper_function,
            snippets.noise_sanitized_echo,
            snippets.noise_loop_block,
            snippets.pixy_warning_block,
        ],
    )
    def test_noise_triggers_no_tool(self, factory):
        fragment = factory("n1")
        source = "<?php\n" + "\n".join(fragment.lines) + "\n"
        plugin = Plugin(name="t", files={"t.php": source})
        for name, tool in ALL_TOOLS.items():
            assert not tool().analyze(plugin).findings, name

    def test_pixy_fatal_block_fails_pixy_only(self):
        fragment = snippets.pixy_fatal_block("n2")
        source = "<?php\n" + "\n".join(fragment.lines) + "\n"
        plugin = Plugin(name="t", files={"t.php": source})
        assert PixyLike().analyze(plugin).failed_files == ["t.php"]
        assert not PhpSafe().analyze(plugin).failed_files
        assert not RipsLike().analyze(plugin).failed_files

    def test_pixy_warning_block_warns_but_completes(self):
        fragment = snippets.pixy_warning_block("n3")
        source = "<?php\n" + "\n".join(fragment.lines) + "\n"
        plugin = Plugin(name="t", files={"t.php": source})
        report = PixyLike().analyze(plugin)
        assert not report.failed_files
        assert report.error_count == 1

    def test_biglib_function_parses(self):
        from repro.php import parse_source

        fragment = snippets.biglib_function("lib", 7, "x" * 200)
        parse_source("<?php\n" + "\n".join(fragment.lines))


class TestFragmentContract:
    def test_sink_offsets_point_at_sinks(self):
        cases = [
            snippets.direct_echo_main("c1", InputVector.GET),
            snippets.direct_echo_uncalled("c2", InputVector.GET),
            snippets.wpdb_results_echo("c3"),
            snippets.wpdb_query_sqli("c4", InputVector.GET),
            snippets.fp_esc_html_echo("c5", InputVector.GET),
        ]
        for fragment in cases:
            sink_text = fragment.lines[fragment.sink_offset]
            assert "echo" in sink_text or "query" in sink_text

    def test_unique_ids_produce_unique_identifiers(self):
        one = snippets.direct_echo_main("id-a", InputVector.GET)
        two = snippets.direct_echo_main("id-b", InputVector.GET)
        assert one.lines != two.lines
