"""Unit tests for the knowledge base (configuration stage)."""

import json

from repro.config import InputVector, SourceSpec, VulnKind
from repro.config.vulnerability import TABLE2_ROWS
from repro.rules import resolve_profile


class TestInputVector:
    def test_tiers_follow_section_vc(self):
        assert InputVector.GET.tier == 1
        assert InputVector.POST.tier == 1
        assert InputVector.COOKIE.tier == 1
        assert InputVector.DB.tier == 2
        assert InputVector.FILE.tier == 3

    def test_directly_exploitable(self):
        assert InputVector.GET.directly_exploitable
        assert not InputVector.DB.directly_exploitable

    def test_table2_rows(self):
        assert InputVector.POST.table2_row == "POST"
        assert InputVector.COOKIE.table2_row == "POST/GET/COOKIE"
        assert InputVector.REQUEST.table2_row == "POST/GET/COOKIE"
        assert InputVector.FILE.table2_row == "File/Function/Array"
        assert InputVector.FUNCTION.table2_row == "File/Function/Array"
        assert set(TABLE2_ROWS) == {
            v.table2_row for v in InputVector
        }


class TestGenericProfile:
    def test_superglobals_are_sources(self):
        profile = resolve_profile("generic")
        for name in ("_GET", "_POST", "_COOKIE", "_REQUEST", "_SERVER"):
            assert profile.superglobal_source(name) is not None
        assert profile.superglobal_source("not_a_superglobal") is None

    def test_file_and_db_sources(self):
        profile = resolve_profile("generic")
        assert profile.function_source("fgets").vector is InputVector.FILE
        assert profile.function_source("mysql_fetch_assoc").vector is InputVector.DB

    def test_lookups_case_insensitive(self):
        profile = resolve_profile("generic")
        assert profile.function_filter("HTMLEntities") is not None
        assert profile.function_sinks("MYSQL_QUERY")

    def test_filter_kinds(self):
        profile = resolve_profile("generic")
        assert profile.function_filter("htmlentities").kinds == frozenset({VulnKind.XSS})
        assert VulnKind.SQLI in profile.function_filter("intval").kinds
        assert profile.function_filter("addslashes").kinds == frozenset({VulnKind.SQLI})

    def test_reverts(self):
        profile = resolve_profile("generic")
        assert profile.revert("stripslashes") is not None
        assert profile.revert("htmlentities") is None

    def test_sink_kinds_and_args(self):
        profile = resolve_profile("generic")
        assert profile.function_sinks("echo")[0].kind is VulnKind.XSS
        (query,) = profile.function_sinks("mysqli_query")
        assert query.kind is VulnKind.SQLI
        assert query.arg_is_sensitive(1)
        assert not query.arg_is_sensitive(0)
        assert profile.function_sinks("print_r")[0].arg_is_sensitive(0)

    def test_no_wordpress_knowledge(self):
        profile = resolve_profile("generic")
        assert profile.function_filter("esc_html") is None
        assert profile.method_source("wpdb", "get_results") is None
        assert profile.known_instance("wpdb") is None


class TestWordpressProfile:
    def test_wpdb_methods(self):
        profile = resolve_profile("wordpress")
        assert profile.method_source("wpdb", "get_results") is not None
        assert profile.method_sinks("wpdb", "query")[0].kind is VulnKind.SQLI
        assert profile.method_filter("wpdb", "prepare") is not None

    def test_known_instances(self):
        profile = resolve_profile("wordpress")
        assert profile.known_instance("wpdb").class_name == "wpdb"

    def test_wp_escaping_functions(self):
        profile = resolve_profile("wordpress")
        assert profile.function_filter("esc_html").kinds == frozenset({VulnKind.XSS})
        assert VulnKind.SQLI in profile.function_filter("absint").kinds
        assert profile.function_filter("esc_sql").kinds == frozenset({VulnKind.SQLI})

    def test_wp_sources(self):
        profile = resolve_profile("wordpress")
        assert profile.function_source("get_option").vector is InputVector.DB
        assert profile.function_source("get_post_meta") is not None

    def test_includes_generic_entries_too(self):
        profile = resolve_profile("wordpress")
        assert profile.function_filter("htmlentities") is not None
        assert profile.superglobal_source("_GET") is not None


class TestPixyProfile:
    def test_register_globals_enabled(self):
        assert resolve_profile("pixy-2007").register_globals
        assert not resolve_profile("generic").register_globals

    def test_no_mysqli_era_functions(self):
        profile = resolve_profile("pixy-2007")
        assert profile.function_source("mysqli_fetch_assoc") is None
        assert profile.function_sinks("mysqli_query") == ()
        assert profile.function_source("mysql_fetch_assoc") is not None

    def test_reduced_filters(self):
        profile = resolve_profile("pixy-2007")
        assert profile.function_filter("htmlentities") is not None
        assert profile.function_filter("filter_var") is None

    def test_no_wordpress(self):
        assert resolve_profile("pixy-2007").function_filter("esc_html") is None


class TestProfileComposition:
    DRUPAL_PACK = {
        "schema": 1,
        "name": "drupal-bits",
        "version": "1.0.0",
        "sources": [{"name": "drupal_get_query", "vector": "GET"}],
        "filters": [{"name": "check_plain", "kinds": ["xss"]}],
        "sinks": [{"name": "drupal_render_echo", "kind": "xss"}],
    }

    def _pack(self, tmp_path):
        path = tmp_path / "drupal-bits.json"
        path.write_text(json.dumps(self.DRUPAL_PACK), encoding="utf-8")
        return str(path)

    def test_extended_adds_entries(self, tmp_path):
        base = resolve_profile("generic")
        drupal = resolve_profile("generic", rule_packs=(self._pack(tmp_path),))
        assert drupal.function_source("drupal_get_query") is not None
        assert drupal.function_filter("check_plain") is not None
        assert drupal.function_sinks("drupal_render_echo")
        # base profile untouched
        assert base.function_source("drupal_get_query") is None

    def test_extended_preserves_base(self, tmp_path):
        drupal = resolve_profile("generic", rule_packs=(self._pack(tmp_path),))
        assert drupal.function_filter("htmlentities") is not None

    def test_qualified_names(self):
        spec = SourceSpec("get_results", InputVector.DB, class_name="wpdb")
        assert spec.qualified == "wpdb::get_results"
        assert SourceSpec("_GET", InputVector.GET, is_superglobal=True).qualified == "$_GET"
