"""Tests for automatic remediation proposals."""

from repro.core import PhpSafe
from repro.core.autofix import apply_fixes, verify_fix
from repro.plugin import Plugin


def analyzed(files):
    plugin = Plugin(name="t", files=files)
    return plugin, PhpSafe().analyze(plugin).findings


class TestProposeFix:
    """One finding through ``apply_fixes``: the proposal built for it."""

    def test_xss_echo_wrapped_in_esc_html(self):
        plugin, findings = analyzed({"t.php": "<?php echo $_GET['m'];"})
        _, [proposal] = apply_fixes(plugin, [findings[0]])
        assert proposal.changed
        assert "esc_html($_GET['m'])" in proposal.patched_source
        assert "esc_html()" in proposal.description

    def test_sqli_query_wrapped_in_esc_sql(self):
        plugin, findings = analyzed(
            {"t.php": "<?php $wpdb->query('D WHERE i=' . $_GET['i']);"}
        )
        _, [proposal] = apply_fixes(plugin, [findings[0]])
        assert "esc_sql(" in proposal.patched_source

    def test_cmdi_wrapped_in_escapeshellarg(self):
        plugin, findings = analyzed({"t.php": "<?php system('x ' . $_GET['a']);"})
        cmdi = [f for f in findings if f.kind.value == "cmdi"]
        _, [proposal] = apply_fixes(plugin, [cmdi[0]])
        assert "escapeshellarg(" in proposal.patched_source

    def test_lfi_wrapped_in_basename(self):
        plugin, findings = analyzed({"t.php": "<?php include $_GET['p'];"})
        lfi = [f for f in findings if f.kind.value == "lfi"]
        _, [proposal] = apply_fixes(plugin, [lfi[0]])
        assert "basename(" in proposal.patched_source

    def test_literals_not_wrapped(self):
        plugin, findings = analyzed(
            {"t.php": "<?php echo 'prefix', $_GET['m'];"}
        )
        _, [proposal] = apply_fixes(plugin, [findings[0]])
        assert "esc_html('prefix')" not in proposal.patched_source

    def test_missing_file_returns_none(self):
        plugin, findings = analyzed({"t.php": "<?php echo $_GET['m'];"})
        finding = findings[0]
        other = Plugin(name="o", files={"other.php": "<?php"})
        patched, proposals = apply_fixes(other, [finding])
        assert proposals == [] and patched.files == other.files


class TestApplyAndVerify:
    def test_fixes_clear_all_findings(self):
        plugin, findings = analyzed(
            {
                "t.php": (
                    "<?php\n"
                    "echo '<p>' . $_GET['m'] . '</p>';\n"
                    "$wpdb->query(\"D WHERE id = '\" . $_GET['id'] . \"'\");\n"
                    "function hook() { system('zip ' . $_POST['f']); }\n"
                )
            }
        )
        assert len(findings) == 3
        patched, proposals = apply_fixes(plugin, findings)
        assert len(proposals) == 3
        assert all(verify_fix(patched, finding) for finding in findings)
        assert not PhpSafe().analyze(patched).findings

    def test_multiple_sinks_same_file_single_pass(self):
        plugin, findings = analyzed(
            {
                "t.php": (
                    "<?php\n"
                    "echo $_GET['a'];\n"
                    "echo $_GET['b'];\n"
                    "echo $_GET['c'];\n"
                )
            }
        )
        patched, proposals = apply_fixes(plugin, findings)
        assert len(proposals) == 3
        assert patched.files["t.php"].count("esc_html(") == 3

    def test_fix_in_oop_method(self):
        plugin, findings = analyzed(
            {
                "t.php": (
                    "<?php class W { public $d;\n"
                    "  public function a() { $this->d = $_COOKIE['p']; }\n"
                    "  public function b() { echo $this->d; } }\n"
                )
            }
        )
        patched, _proposals = apply_fixes(plugin, findings)
        assert "esc_html($this->d)" in patched.files["t.php"]
        assert not PhpSafe().analyze(patched).findings

    def test_original_plugin_untouched(self):
        plugin, findings = analyzed({"t.php": "<?php echo $_GET['m'];"})
        original = plugin.files["t.php"]
        apply_fixes(plugin, findings)
        assert plugin.files["t.php"] == original

    def test_patched_source_parses(self):
        from repro.php import parse_source

        plugin, findings = analyzed(
            {"t.php": "<?php echo \"Hello {$_GET['n']}!\";"}
        )
        patched, _ = apply_fixes(plugin, findings)
        parse_source(patched.files["t.php"])  # must not raise


class TestCorpusRemediation:
    """A3: the fixes clear every phpSAFE finding of the 2014 corpus."""

    def test_fixes_clear_every_corpus_finding(self, corpus_2014):
        tool = PhpSafe()
        before = after = 0
        for plugin in corpus_2014.plugins:
            findings = tool.analyze(plugin).findings
            patched, _proposals = apply_fixes(plugin, findings)
            before += len(findings)
            after += len(tool.analyze(patched).findings)
        assert (before, after) == (449, 0)
