"""Fault-tolerant pipeline tests (paper Section V.E robustness work).

Covers the three recovery layers — lexer repair, parser panic-mode
resynchronization, per-unit engine isolation — and the typed incident
taxonomy threaded through :class:`ToolReport` and the batch telemetry.
"""

import pytest

from repro.batch import BatchOptions, BatchScanner, ToolSpec
from repro.batch.diskcache import DiskModelCache
from repro.core import (
    Incident,
    IncidentSeverity,
    IncidentStage,
    PhpSafe,
    PhpSafeOptions,
)
from repro.core.model import PluginModel
from repro.php import PhpParseError, parse_source
from repro.php import ast_nodes as ast
from repro.php.lexer import Lexer
from repro.php.printer import print_file
from repro.plugin import Plugin
from tests.helpers import corrupt_cache_rows

BROKEN_MIDDLE = """<?php
echo $_GET['a'];
$x = ;
echo $_GET['b'];
"""


def analyze(source, **options):
    return PhpSafe(options=PhpSafeOptions(**options)).analyze_source(
        source, "demo.php"
    )


class TestParserRecovery:
    def test_findings_before_and_after_bad_statement(self):
        """The acceptance regression: one unparseable statement must not
        swallow the tainted ``echo`` on either side of it."""
        report = analyze(BROKEN_MIDDLE)
        lines = sorted(finding.line for finding in report.findings)
        assert lines == [2, 4]
        assert report.failed_files == []  # recovered, not skipped
        recovered = [i for i in report.incidents if i.recovered]
        assert len(recovered) == 1
        assert recovered[0].stage is IncidentStage.PARSE
        assert recovered[0].severity is IncidentSeverity.WARNING
        assert recovered[0].file == "demo.php"
        assert recovered[0].line == 3

    def test_strict_mode_reproduces_historical_behavior(self):
        report = analyze(BROKEN_MIDDLE, recover=False)
        assert report.findings == []
        assert report.failed_files == ["demo.php"]
        assert report.files_skipped == 1
        assert report.loc_skipped > 0
        (incident,) = report.incidents
        assert not incident.recovered
        assert incident.severity is IncidentSeverity.ERROR

    def test_error_stmt_carries_span(self):
        tree = parse_source(BROKEN_MIDDLE, recover=True)
        kinds = [type(stmt).__name__ for stmt in tree.statements]
        assert kinds == ["EchoStatement", "ErrorStmt", "EchoStatement"]
        error = tree.statements[1]
        assert error.line == 3
        assert error.tokens_skipped > 0
        assert "unexpected" in error.reason or error.reason

    def test_strict_parse_still_raises(self):
        with pytest.raises(PhpParseError):
            parse_source(BROKEN_MIDDLE)

    def test_recovery_inside_function_body(self):
        source = """<?php
function cb() {
    $x = ;
    echo $_POST['y'];
}
"""
        report = analyze(source)
        assert any(f.line == 4 for f in report.findings)
        assert any(i.recovered for i in report.incidents)

    def test_brace_left_for_caller(self):
        # the bad statement is the last one in the block: recovery must
        # stop at the closing brace so the enclosing if still parses
        source = "<?php\nif ($a) { $x = ; }\necho $_GET['q'];\n"
        report = analyze(source)
        assert any(f.line == 3 for f in report.findings)

    def test_printer_renders_error_stmt(self):
        tree = parse_source(BROKEN_MIDDLE, recover=True)
        rendered = print_file(tree)
        assert "parse error (recovered)" in rendered

    def test_error_stmt_is_statement(self):
        node = ast.ErrorStmt(line=3, reason="boom", end_line=3, tokens_skipped=2)
        assert isinstance(node, ast.Statement)


class TestLexerRecovery:
    def test_unterminated_single_quote(self):
        source = "<?php\necho $_GET['x'];\n$s = 'oops"
        report = analyze(source)
        assert any(f.line == 2 for f in report.findings)
        assert any(
            i.stage is IncidentStage.LEX and i.recovered for i in report.incidents
        )

    def test_unterminated_double_quote(self):
        report = analyze('<?php\necho $_GET["x"];\n$s = "oops')
        assert any(f.line == 2 for f in report.findings)
        assert any(i.stage is IncidentStage.LEX for i in report.incidents)

    def test_unterminated_heredoc(self):
        source = "<?php\necho $_GET['x'];\n$h = <<<EOT\nno terminator"
        report = analyze(source)
        assert any(f.line == 2 for f in report.findings)
        assert any(i.stage is IncidentStage.LEX for i in report.incidents)

    def test_strict_lexer_still_raises(self):
        from repro.php.errors import PhpLexError

        with pytest.raises(PhpLexError):
            Lexer("<?php $s = 'oops", "f.php").tokenize()

    def test_recovered_tokens_close_the_string(self):
        lexer = Lexer("<?php $s = 'oops", "f.php", recover=True)
        tokens = lexer.tokenize()
        values = [t.value for t in tokens]
        assert any("oops" in v for v in values)
        assert len(lexer.incidents) == 1


class TestEngineIsolation:
    def heavy_plugin(self):
        heavy_body = "\n".join("$a = 1;" for _ in range(800))
        return Plugin(
            name="p",
            files={
                "heavy.php": f"<?php\nfunction heavy() {{\n{heavy_body}\n}}\n",
                "vuln.php": "<?php function cb() { echo $_GET['q']; }\n",
            },
        )

    def test_unit_budget_isolates_heavy_function(self):
        """One budget-exhausting function must not stop the others."""
        options = PhpSafeOptions(unit_step_budget=300)
        report = PhpSafe(options=options).analyze(self.heavy_plugin())
        assert any(f.file == "vuln.php" for f in report.findings)
        faults = [i for i in report.incidents if "step budget" in i.reason]
        assert faults and all(i.recovered for i in faults)
        assert any(i.unit == "function heavy" for i in faults)
        # per-unit exhaustion is not a plugin-wide abort
        assert not any(
            i.severity is IncidentSeverity.FATAL for i in report.incidents
        )

    def test_file_deadline(self):
        source = "<?php\n" + "\n".join("$a = 1;" for _ in range(800))
        report = analyze(source, file_deadline=1e-9)
        assert any("deadline" in i.reason for i in report.incidents)
        assert all(i.recovered for i in report.incidents)

    def test_eval_depth_guard(self):
        # a left-deep 100-term concat tree forces ~100 nested _eval calls
        nested = "$x = " + " . ".join(["'a'"] * 100) + ";"
        plugin = Plugin(
            name="p",
            files={
                "deep.php": f"<?php\n{nested}\n",
                "vuln.php": "<?php echo $_GET['q'];\n",
            },
        )
        options = PhpSafeOptions(max_eval_depth=20)
        report = PhpSafe(options=options).analyze(plugin)
        # the deep unit degrades to a recovered incident; the other
        # file's finding survives
        assert any(f.file == "vuln.php" for f in report.findings)
        assert any(
            "depth limit" in i.reason and i.recovered for i in report.incidents
        )

    def test_global_budget_still_fatal(self):
        options = PhpSafeOptions(step_budget=50)
        report = PhpSafe(options=options).analyze(self.heavy_plugin())
        assert any(
            i.severity is IncidentSeverity.FATAL for i in report.incidents
        )
        assert any(f.file == "<plugin>" for f in report.failures)


class TestStrictMode:
    """``recover=False`` runs the same analysis units under the same
    limits; a unit fault fails the whole scan instead of degrading."""

    def many_functions_plugin(self):
        body = "\n".join(
            f"function f{index}() {{ $a = $_GET['x']; echo $a; }}"
            for index in range(300)
        )
        return Plugin(name="many", files={"many.php": f"<?php\n{body}\n"})

    def test_deadline_fails_the_job(self):
        # a thread-isolated service slot turns its job timeout into
        # file_deadline: a strict job must not outlive it and report ok
        from repro.batch.job import run_job

        options = PhpSafeOptions(recover=False, file_deadline=1e-9)
        record = run_job(PhpSafe(options=options), self.many_functions_plugin())
        assert record.outcome != "ok"
        assert record.report.findings == []

    def test_eval_depth_cap_raises(self):
        from repro.core.engine import UnitFault

        nested = "$x = " + " . ".join(["'a'"] * 100) + ";"
        plugin = Plugin(
            name="p",
            files={
                "deep.php": f"<?php\n{nested}\n",
                "vuln.php": "<?php echo $_GET['q'];\n",
            },
        )
        options = PhpSafeOptions(recover=False, max_eval_depth=20)
        with pytest.raises(UnitFault, match="depth limit"):
            PhpSafe(options=options).analyze(plugin)

    def test_step_budget_keeps_finished_units(self):
        # the uncalled function's unit completes before the file walk
        # exhausts the plugin budget: its findings are still reported
        heavy = "\n".join("$a = 1;" for _ in range(800))
        plugin = Plugin(
            name="p",
            files={
                "cb.php": "<?php\nfunction cb() { echo $_GET['a'];\n"
                "echo $_GET['b']; }\n",
                "heavy.php": f"<?php\n{heavy}\n",
            },
        )
        options = PhpSafeOptions(recover=False, step_budget=20)
        report = PhpSafe(options=options).analyze(plugin)
        assert sorted(f.line for f in report.findings) == [2, 3]
        fatal = [
            i for i in report.incidents if i.severity is IncidentSeverity.FATAL
        ]
        assert [(i.file, i.unit) for i in fatal] == [("heavy.php", "<main>")]
        assert any(f.file == "<plugin>" for f in report.failures)


class TestBudgetFailures:
    def test_budget_exhaustion_is_first_class(self):
        big = "<?php\n" + "$pad = 'x';\n" * 4000
        plugin = Plugin(
            name="p",
            files={
                "big.php": big,
                "vuln.php": "<?php echo $_GET['q'];\n",
            },
        )
        options = PhpSafeOptions(include_budget=1000)
        report = PhpSafe(options=options).analyze(plugin)
        assert any(f.file == "vuln.php" for f in report.findings)
        assert report.files_skipped == 1
        assert report.loc_skipped > 0
        assert 0 < report.coverage < 1
        assert any(
            i.stage is IncidentStage.MODEL and not i.recovered
            for i in report.incidents
        )
        model = PluginModel.build(plugin, include_budget=1000)
        assert "big.php" in model.budget_failures
        assert not model.parse_failures


class TestIncidentTaxonomy:
    def test_describe_and_to_dict(self):
        incident = Incident(
            stage=IncidentStage.PARSE,
            severity=IncidentSeverity.WARNING,
            file="a.php",
            reason="unexpected token",
            recovered=True,
            unit="<main>",
            line=3,
            end_line=5,
        )
        text = incident.describe()
        assert "parse/warning" in text
        assert "(recovered)" in text
        assert "a.php" in text and "unexpected token" in text
        data = incident.to_dict()
        assert data["stage"] == "parse"
        assert data["severity"] == "warning"
        assert data["recovered"] is True

    def test_report_json_includes_incidents(self):
        import json

        from repro.core.review import to_json

        report = analyze(BROKEN_MIDDLE)
        document = json.loads(to_json(report))
        assert document["incidents"]
        assert document["incidents"][0]["stage"] == "parse"
        assert document["files_skipped"] == 0
        assert document["coverage"] == 1.0

    def test_merged_reports_concatenate_incidents(self):
        first = analyze(BROKEN_MIDDLE)
        second = analyze(BROKEN_MIDDLE, recover=False)
        merged = first.merged(second)
        assert len(merged.incidents) == len(first.incidents) + len(
            second.incidents
        )
        assert merged.files_skipped == 1
        assert merged.loc_skipped == second.loc_skipped


class TestBatchTelemetry:
    def test_incidents_reach_telemetry(self, tmp_path):
        plugins = [
            Plugin(name="broken", files={"index.php": BROKEN_MIDDLE}),
            Plugin(name="clean", files={"index.php": "<?php $x = 1;"}),
        ]
        spec = ToolSpec.from_tool(PhpSafe())
        scanner = BatchScanner(spec, BatchOptions(jobs=1))
        result = scanner.scan(plugins)
        telemetry = result.telemetry
        stats = {s.plugin: s for s in telemetry.plugins}
        assert stats["broken"].incidents >= 1
        assert stats["broken"].recovered >= 1
        assert stats["clean"].incidents == 0
        document = telemetry.to_dict()
        assert document["schema"] == "repro.batch.telemetry/v8"
        assert document["incidents"]["total"] >= 1
        assert document["incidents"]["recovered"] >= 1
        assert "files_skipped" in document
        assert "corrupt" in document["cache"]
        row = stats["broken"].to_dict()
        assert row["incidents"] >= 1 and row["recovered"] >= 1
        assert "corrupt" in row["cache"]


class TestCorruptCache:
    def test_corrupt_slot_is_quarantined(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        plugin = Plugin(name="p", files={"index.php": "<?php echo $_GET['q'];"})

        warm = DiskModelCache(cache_dir)
        baseline = PhpSafe(cache=warm).analyze(plugin)
        assert warm.disk_len() >= 1
        assert corrupt_cache_rows(cache_dir) >= 1

        cold = DiskModelCache(cache_dir)  # fresh memory tier, rotten disk
        report = PhpSafe(cache=cold).analyze(plugin)
        assert cold.stats.corrupt >= 1
        assert cold.stats.disk_hits == 0
        # analysis falls back to a clean re-parse, results identical
        assert [f.key for f in report.findings] == [
            f.key for f in baseline.findings
        ]
        # the quarantined object was replaced by a clean rewrite
        assert DiskModelCache(cache_dir).disk_len() >= 1

    def test_corrupt_counter_in_stats(self, tmp_path):
        cache = DiskModelCache(str(tmp_path / "c"))
        assert cache.stats.corrupt == 0


class TestStrictEquivalence:
    def test_clean_source_identical_in_both_modes(self):
        source = """<?php
$m = $_GET['m'];
echo '<p>' . $m . '</p>';
$wpdb->query("D WHERE id = " . $_GET['id']);
function hook_cb() { echo $_POST['x']; }
"""
        recovered = analyze(source)
        strict = analyze(source, recover=False)
        assert [f.key for f in recovered.findings] == [
            f.key for f in strict.findings
        ]
        assert recovered.incidents == [] and strict.incidents == []
        assert recovered.failures == strict.failures
