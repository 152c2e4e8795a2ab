"""Tests for the dynamic exploit-confirmation harness."""

from collections import Counter

from repro.config.vulnerability import VulnKind
from repro.core import PhpSafe
from repro.dynamic import (
    ExploitConfirmer,
    Status,
    build_attack_runtime,
    confirm_findings,
    make_payload,
)
from repro.plugin import Plugin


def analyzed(source):
    plugin = Plugin(name="t", files={"t.php": source})
    return plugin, PhpSafe().analyze(plugin).findings


class TestPayloads:
    def test_unique_markers(self):
        one = make_payload(VulnKind.XSS)
        two = make_payload(VulnKind.XSS)
        assert one.marker != two.marker

    def test_xss_raw_vs_escaped(self):
        payload = make_payload(VulnKind.XSS)
        assert payload.appears_raw_in(f"<div>{payload.text}</div>")
        escaped = payload.text.replace("<", "&lt;").replace(">", "&gt;")
        assert not payload.appears_raw_in(f"<div>{escaped}</div>")

    def test_sqli_raw_vs_escaped(self):
        payload = make_payload(VulnKind.SQLI)
        assert payload.appears_raw_in(f"SELECT x WHERE id = '{payload.text}'")
        slashed = payload.text.replace("'", "\\'")
        assert not payload.appears_raw_in(f"SELECT x WHERE id = '{slashed}'")

    def test_cmdi_raw_vs_quoted(self):
        payload = make_payload(VulnKind.CMDI)
        assert payload.appears_raw_in(f"ping {payload.text}")
        assert not payload.appears_raw_in(f"ping '{payload.text}'")

    def test_lfi(self):
        payload = make_payload(VulnKind.LFI)
        assert payload.appears_raw_in(payload.text + ".php")
        assert not payload.appears_raw_in("templates/header.php")


class TestAttackRuntime:
    def test_superglobals_return_payload(self):
        interp = build_attack_runtime("PAY")
        interp.load_source("<?php echo $_GET['a'] . $_POST['b'] . $_COOKIE['c'];")
        interp.run_file("input.php")
        assert interp.effects.page == "PAYPAYPAY"

    def test_wpdb_rows_are_payload(self):
        interp = build_attack_runtime("PAY")
        interp.load_source(
            "<?php $rows = $wpdb->get_results('SELECT 1');"
            "foreach ($rows as $r) { echo $r->whatever_column; }"
        )
        interp.run_file("input.php")
        assert "PAY" in interp.effects.page
        assert interp.effects.queries == ["SELECT 1"]

    def test_wpdb_prepare_escapes(self):
        interp = build_attack_runtime("a'b")
        interp.load_source(
            "<?php $wpdb->query($wpdb->prepare('SELECT %s', $_GET['x']));"
        )
        interp.run_file("input.php")
        assert "a\\'b" in interp.effects.queries[0]

    def test_guards_follow_threat_model(self):
        source = "<?php if (current_user_can('admin')) { echo 'in'; } else { echo 'out'; }"
        anonymous = build_attack_runtime("PAY")
        anonymous.load_source(source)
        anonymous.run_file("input.php")
        assert anonymous.effects.page == "out"  # unauthenticated attacker
        insider = build_attack_runtime("PAY", privileged=True)
        insider.load_source(source)
        insider.run_file("input.php")
        assert insider.effects.page == "in"

    def test_file_reads_are_payload(self):
        interp = build_attack_runtime("PAY")
        interp.load_source("<?php $fp = fopen('x', 'r'); echo fgets($fp);")
        interp.run_file("input.php")
        assert interp.effects.page == "PAY"


class TestConfirmation:
    def test_reflected_xss_confirmed(self):
        plugin, findings = analyzed("<?php echo '<p>' . $_GET['m'] . '</p>';")
        verdicts = confirm_findings(plugin, findings)
        assert verdicts and verdicts[0].confirmed
        assert "page output" in verdicts[0].evidence

    def test_escaped_flow_not_reported_hence_nothing_to_confirm(self):
        plugin, findings = analyzed("<?php echo htmlentities($_GET['m']);")
        assert not findings

    def test_stored_xss_via_wpdb_confirmed(self):
        plugin, findings = analyzed(
            "<?php $rows = $wpdb->get_results('SELECT * FROM t');"
            "foreach ($rows as $r) { echo '<td>' . $r->name . '</td>'; }"
        )
        verdicts = confirm_findings(plugin, findings)
        assert verdicts and verdicts[0].confirmed

    def test_sqli_confirmed(self):
        plugin, findings = analyzed(
            "<?php $wpdb->query(\"D WHERE id = '\" . $_GET['id'] . \"'\");"
        )
        verdicts = confirm_findings(plugin, findings)
        assert verdicts and verdicts[0].confirmed
        assert "SQL query log" in verdicts[0].evidence

    def test_uncalled_function_flow_confirmed_by_driving(self):
        plugin, findings = analyzed(
            "<?php function hook_cb() { echo '<b>' . $_POST['v'] . '</b>'; }"
        )
        verdicts = confirm_findings(plugin, findings)
        assert verdicts and verdicts[0].confirmed

    def test_method_flow_confirmed_by_driving(self):
        plugin, findings = analyzed(
            "<?php class W { public $d;"
            " public function collect() { $this->d = $_COOKIE['p']; }"
            " public function render() { echo $this->d; } }"
        )
        verdicts = confirm_findings(plugin, findings)
        assert verdicts and verdicts[0].confirmed

    def test_false_positive_bait_not_confirmed(self):
        """The in_array-whitelisted ORDER BY: phpSAFE flags it (FP), the
        dynamic check shows the whitelist stops the payload."""
        plugin, findings = analyzed(
            "<?php $col = $_GET['s'];"
            "if (!in_array($col, array('title', 'date'))) { $col = 'title'; }"
            "$wpdb->query('SELECT id FROM t ORDER BY ' . $col);"
        )
        assert findings  # static FP
        verdicts = confirm_findings(plugin, findings)
        assert verdicts[0].status is Status.UNCONFIRMED

    def test_cmdi_confirmed(self):
        plugin, findings = analyzed("<?php system('ping ' . $_GET['h']);")
        verdicts = confirm_findings(plugin, findings)
        cmdi = [v for v in verdicts if v.finding.kind is VulnKind.CMDI]
        assert cmdi and cmdi[0].confirmed

    def test_escapeshellarg_blocks_confirmation(self):
        plugin, findings = analyzed(
            "<?php some_logger($_GET['x']);"  # keep file non-trivial
            "system('ping ' . escapeshellarg($_GET['h']));"
        )
        cmdi = [f for f in findings if f.kind is VulnKind.CMDI]
        assert not cmdi  # static already silent; dynamic agrees:
        interp_plugin = Plugin(
            name="t2",
            files={"t.php": "<?php system('ping ' . escapeshellarg($_GET['h']));"},
        )
        from repro.core.results import Finding

        fake = Finding(kind=VulnKind.CMDI, file="t.php", line=1, sink="system")
        verdict = ExploitConfirmer().confirm(interp_plugin, fake)
        assert verdict.status is Status.UNCONFIRMED

    def test_lfi_confirmed(self):
        plugin, findings = analyzed("<?php include $_GET['page'] . '.php';")
        lfi = [f for f in findings if f.kind is VulnKind.LFI]
        verdicts = confirm_findings(plugin, lfi)
        assert verdicts and verdicts[0].confirmed

    def test_unparseable_file_yields_error(self):
        from repro.core.results import Finding

        plugin = Plugin(name="bad", files={"bad.php": "<?php $a = ;"})
        fake = Finding(kind=VulnKind.XSS, file="bad.php", line=1, sink="echo")
        verdict = ExploitConfirmer().confirm(plugin, fake)
        assert verdict.status is Status.ERROR


class TestCorpusConfirmation:
    """A2: on the densest OOP plugin of the 2014 corpus, every seeded
    vulnerability phpSAFE reports confirms and no expert-rejected bait
    does."""

    def test_seeded_vulns_confirm_and_baits_do_not(self, corpus_2014):
        plugin = corpus_2014.plugin("mail-subscribe-list")
        confirmer = ExploitConfirmer()
        statuses = {True: Counter(), False: Counter()}  # keyed by is_vulnerable
        for finding in PhpSafe().analyze(plugin).findings:
            entry = corpus_2014.truth.lookup(
                plugin.name, finding.kind.value, finding.file, finding.line
            )
            if entry is not None:
                verdict = confirmer.confirm(plugin, finding)
                statuses[entry.spec.is_vulnerable][verdict.status] += 1
        assert statuses[True] == {Status.CONFIRMED: 22}
        assert statuses[False] == {Status.UNCONFIRMED: 3}
