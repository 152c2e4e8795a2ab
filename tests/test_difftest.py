"""Differential harness: regression fixes, config-matrix oracle, slices."""

from repro.batch import BatchOptions, BatchScanner, ToolSpec
from repro.config.vulnerability import VulnKind
from repro.core.phpsafe import PhpSafe, PhpSafeOptions
from repro.core.results import finding_signatures
from repro.corpus.generator import build_corpus
from repro.difftest import (
    SLICES,
    ConfigMatrixOracle,
    OracleOptions,
    diff_signatures,
    pack_enabled_phpsafe,
    render_oracle_reports,
    render_slice_table,
    run_slices,
)
from repro.evaluation.runner import evaluate_version, run_tool
from repro.incidents import IncidentSeverity, IncidentStage
from repro.php import parse_source, print_file

from tests.helpers import analyze, findings_of


def xss(source, tool=None):
    return [f for f in findings_of(source, tool) if f.kind is VulnKind.XSS]


class TestCoalesceFix:
    """`??` used to be a parse error silently dropped in recover mode."""

    def test_coalesce_taints_result(self):
        assert xss("<?php $x = $_GET['x'] ?? 'd'; echo $x;")

    def test_coalesce_no_parse_incident(self):
        report = analyze("<?php $x = $_GET['x'] ?? 'd'; echo $x;")
        assert not report.incidents

    def test_coalesce_strict_mode_agrees(self):
        strict = PhpSafe(options=PhpSafeOptions(recover=False))
        assert xss("<?php $x = $_GET['x'] ?? 'd'; echo $x;", strict)

    def test_coalesce_assign_operator(self):
        assert xss("<?php $x = $_GET['x']; $x ??= 'd'; echo $x;")

    def test_coalesce_right_operand_taints(self):
        assert xss("<?php $x = 'd' ?? $_GET['x']; echo $x;")

    def test_clean_coalesce_stays_clean(self):
        assert not xss("<?php $x = 'a' ?? 'd'; echo $x;")

    def test_coalesce_is_right_associative(self):
        tree = parse_source("<?php $q = $a ?? $b ?? $c;")
        assignment = tree.statements[0].expr
        assert assignment.value.op == "??"
        assert assignment.value.right.op == "??"

    def test_printer_round_trip(self):
        for source in (
            "<?php $x = $_GET['x'] ?? 'd'; echo $x;",
            "<?php $x ??= $y ?? 'w';",
        ):
            once = print_file(parse_source(source))
            assert "??" in once
            assert print_file(parse_source(once)) == once


class TestReferenceAliasFix:
    """`$b =& $a` used to create no alias — writes never propagated."""

    def test_write_to_source_reaches_alias(self):
        assert xss("<?php $a = 1; $b =& $a; $a = $_GET['x']; echo $b;")

    def test_write_to_alias_reaches_source(self):
        assert xss("<?php $a = 1; $b =& $a; $b = $_GET['x']; echo $a;")

    def test_alias_of_tainted_is_tainted(self):
        assert xss("<?php $a = $_GET['x']; $b =& $a; echo $b;")

    def test_alias_group_of_three(self):
        assert xss(
            "<?php $a = 1; $b =& $a; $c =& $b; $a = $_GET['x']; echo $c;"
        )

    def test_clean_alias_stays_clean(self):
        assert not xss("<?php $a = 'safe'; $b =& $a; $a = 'still'; echo $b;")


class TestStaticLocalFix:
    """`static $s` used to lose taint between calls."""

    def test_taint_persists_across_calls(self):
        assert xss(
            "<?php function f(){ static $s; echo $s; $s = $_GET['x']; } f(); f();"
        )

    def test_static_with_default_persists(self):
        assert xss(
            "<?php function f(){ static $s = ''; echo $s; $s = $_GET['x']; } f(); f();"
        )

    def test_clean_static_stays_clean(self):
        assert not xss(
            "<?php function f(){ static $s = 'a'; echo $s; $s = 'b'; } f(); f();"
        )

    def test_static_summary_not_persisted_to_cache(self):
        source = "<?php function f(){ static $s; $s = $_GET['x']; echo $s; } f();"
        from repro.batch.diskcache import DiskModelCache

        import tempfile

        with tempfile.TemporaryDirectory() as cache_dir:
            tool = PhpSafe(cache=DiskModelCache(cache_dir))
            tool.analyze_source(source)
            assert not any(key.startswith("summary2!") for key in tool.cache._slots)


class TestStrictRecoverProperty:
    """Recover-mode findings equal strict-mode findings on every
    cleanly-parseable corpus file — the invariant the `??` bug broke."""

    def test_corpus_findings_agree(self):
        corpus = build_corpus("2012", scale=0.02)
        strict_tool = PhpSafe(options=PhpSafeOptions(recover=False))
        recover_tool = PhpSafe(options=PhpSafeOptions(recover=True))
        for plugin in corpus.plugins:
            for path, source in plugin.files.items():
                try:
                    parse_source(source, filename=path)
                except Exception:
                    continue  # not cleanly parseable: strict may drop it
                strict = finding_signatures([strict_tool.analyze_source(source, path)])
                recover = finding_signatures(
                    [recover_tool.analyze_source(source, path)]
                )
                assert strict == recover, f"divergence in {plugin.name}/{path}"


class TestDivergenceModel:
    def test_diff_signatures_typed_records(self):
        left = {("p", "xss", "a.php", 3, "echo")}
        right = {("p", "xss", "a.php", 3, "echo"), ("p", "sqli", "b.php", 7, "mysql_query")}
        divergences = diff_signatures("jobs", "jobs=1", "jobs=4", left, right)
        assert len(divergences) == 1
        divergence = divergences[0]
        assert divergence.axis == "jobs"
        assert divergence.side == "right-only"
        assert divergence.kind == "sqli"
        assert divergence.line == 7
        assert "jobs=4" in divergence.describe()

    def test_divergence_to_incident(self):
        divergence = diff_signatures(
            "cache", "cold", "warm", {("p", "xss", "a.php", 3, "echo")}, set()
        )[0]
        incident = divergence.to_incident()
        assert incident.stage is IncidentStage.DIFF
        assert incident.severity is IncidentSeverity.ERROR
        assert incident.unit == "p"

    def test_identical_sets_no_divergence(self):
        sigs = {("p", "xss", "a.php", 3, "echo")}
        assert diff_signatures("recover", "strict", "recover", sigs, set(sigs)) == []


class TestConfigMatrixOracle:
    def test_zero_divergences_on_small_corpus(self):
        oracle = ConfigMatrixOracle(
            OracleOptions(versions=("2012",), scale=0.02, jobs=2)
        )
        reports = oracle.run()
        assert len(reports) == 1
        report = reports[0]
        assert {outcome.axis for outcome in report.axes} == {
            "recover",
            "cache",
            "jobs",
            "summaries",
            "incremental",
        }
        assert report.ok, render_oracle_reports(reports, verbose=True)
        # the corpus plants vulnerabilities, so an empty set would mean
        # the oracle compared nothing
        assert all(outcome.left_count > 0 for outcome in report.axes)

    def test_render_mentions_every_axis(self):
        oracle = ConfigMatrixOracle(
            OracleOptions(versions=("2012",), scale=0.02, jobs=2)
        )
        rendered = render_oracle_reports(oracle.run())
        for axis in ("recover", "summaries", "jobs", "cache", "incremental"):
            assert axis in rendered


class TestSliceCatalog:
    def test_catalog_is_large_and_deterministic(self):
        assert len(SLICES) == 85
        assert len({piece.name for piece in SLICES}) == len(SLICES)
        for piece in SLICES:
            assert piece.code.startswith("<?php")

    def test_reference_envelope_matches_expectations(self):
        results = run_slices(tools=[pack_enabled_phpsafe()])
        mismatches = [
            f"{r.slice.name}: expected {sorted(r.slice.expected)},"
            f" got {sorted(r.reference_kinds)}"
            for r in results
            if not r.ok
        ]
        assert not mismatches, "\n".join(mismatches)

    def test_bug_slices_present(self):
        names = {piece.name for piece in SLICES}
        assert {"coalesce", "ref-alias-write", "static-local"} <= names

    def test_slice_table_renders(self):
        results = run_slices(tools=[PhpSafe()], slices=SLICES[:3])
        table = render_slice_table(results)
        assert SLICES[0].name in table
        assert "phpSAFE" in table


class TestCaptureHooks:
    def test_batch_result_finding_signatures(self):
        corpus = build_corpus("2012", scale=0.02)
        scanner = BatchScanner(ToolSpec(name="phpsafe"), BatchOptions(jobs=1))
        plugins = corpus.plugins[:2]
        result = scanner.scan(plugins)
        signatures = finding_signatures(result.reports)
        direct = finding_signatures([PhpSafe().analyze(p) for p in plugins])
        assert signatures == direct
        # unstamped findings take their owning report's plugin
        assert {s[0] for s in signatures} <= {p.slug for p in plugins}

    def test_runner_report_hook_captures_reports(self):
        corpus = build_corpus("2012", scale=0.02)
        captured = {}
        evaluate_version(
            corpus,
            [PhpSafe()],
            report_hook=lambda tool, reports: captured.setdefault(tool, reports),
        )
        assert "phpSAFE" in captured
        assert len(captured["phpSAFE"]) == len(corpus.plugins)

    def test_run_tool_serial_and_batch_agree(self):
        corpus = build_corpus("2012", scale=0.02)
        plugins = corpus.plugins[:3]
        serial, _ = run_tool(PhpSafe(), plugins)
        parallel, _ = run_tool(PhpSafe(), plugins, jobs=2)
        assert finding_signatures(serial) == finding_signatures(parallel)


class TestSwitchFallthrough:
    def test_fallthrough_carries_taint(self):
        assert xss(
            "<?php $x = 'a'; switch ($_GET['c']) {"
            "case 1: $x = $_GET['a'];"
            "case 2: echo $x; }"
        )

    def test_default_case_still_joins(self):
        assert xss(
            "<?php $x = 'safe'; switch ($m) {"
            "case 1: $x = 'ok'; break;"
            "default: $x = $_GET['v']; } echo $x;"
        )
