"""Tests for the shipped Drupal and Joomla profiles (Section VI)."""

from repro.config.vulnerability import VulnKind
from repro.core import PhpSafe
from repro.rules import resolve_profile

from tests.helpers import findings_of


def kinds(source, profile_name):
    tool = PhpSafe(profile=resolve_profile(profile_name))
    return sorted(f.kind.value for f in findings_of(source, tool))


class TestDrupalProfile:
    def test_db_query_is_source_and_sink(self):
        source = (
            "<?php $r = db_fetch_object(db_query('SELECT title FROM {node}'));"
            "echo $r->title;"
        )
        assert kinds(source, "drupal") == ["xss"]

    def test_check_plain_sanitizes(self):
        source = "<?php echo check_plain($_GET['q']);"
        assert kinds(source, "drupal") == []

    def test_filter_xss_sanitizes(self):
        assert kinds("<?php echo filter_xss($_GET['q']);", "drupal") == []

    def test_sqli_through_db_query(self):
        source = "<?php db_query(\"SELECT 1 WHERE t = '\" . $_GET['t'] . \"'\");"
        assert kinds(source, "drupal") == ["sqli"]

    def test_db_escape_string_blocks_sqli_only(self):
        source = (
            "<?php $e = db_escape_string($_GET['t']);"
            "db_query('S WHERE t = ' . $e); echo $e;"
        )
        assert kinds(source, "drupal") == ["xss"]  # blended attack survives

    def test_variable_get_is_db_source(self):
        assert kinds("<?php echo variable_get('greeting');", "drupal") == ["xss"]

    def test_drupal_set_message_sink(self):
        assert kinds(
            "<?php drupal_set_message('x: ' . $_GET['m']);", "drupal"
        ) == ["xss"]

    def test_wordpress_profile_blind_to_drupal(self):
        source = "<?php echo db_fetch_object(db_query('S'))->title;"
        assert kinds(source, "wordpress") == []


class TestJoomlaProfile:
    def test_jrequest_static_source(self):
        source = "<?php echo JRequest::getVar('title');"
        assert kinds(source, "joomla") == ["xss"]

    def test_jrequest_getint_is_clean(self):
        assert kinds("<?php echo JRequest::getInt('n');", "joomla") == []

    def test_jdatabase_conventional_name(self):
        # $db = JFactory::getDBO() is opaque, but the conventional name
        # carries the JDatabase type (known-instance registry)
        source = (
            "<?php $db = JFactory::getDBO();"
            "$db->setQuery('S WHERE t = ' . JRequest::getVar('t'));"
        )
        assert kinds(source, "joomla") == ["sqli"]

    def test_jdatabase_quote_blocks_sqli(self):
        source = (
            "<?php $db = JFactory::getDBO();"
            "$db->setQuery('S WHERE t = ' . $db->quote(JRequest::getVar('t')));"
        )
        assert kinds(source, "joomla") == []

    def test_load_object_list_rows_tainted(self):
        source = (
            "<?php $db = JFactory::getDBO();"
            "$rows = $db->loadObjectList();"
            "foreach ($rows as $row) { echo $row->text; }"
        )
        found = findings_of(source, PhpSafe(profile=resolve_profile("joomla")))
        assert found and found[0].kind is VulnKind.XSS
        assert found[0].via_oop

    def test_jinput_object(self):
        source = "<?php echo $input->getString('q');"
        assert kinds(source, "joomla") == ["xss"]

    def test_wordpress_profile_blind_to_joomla(self):
        assert kinds("<?php echo JRequest::getVar('t');", "wordpress") == []
