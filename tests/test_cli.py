"""CLI tests (scan / compare / corpus / evaluate plumbing)."""

import json
import os

import pytest

from repro.cli import main


@pytest.fixture()
def vulnerable_file(tmp_path):
    path = tmp_path / "plugin.php"
    path.write_text("<?php echo $_GET['q'];\necho esc_html($_GET['ok']);\n")
    return str(path)


@pytest.fixture()
def plugin_dir(tmp_path):
    directory = tmp_path / "my-plugin"
    directory.mkdir()
    (directory / "main.php").write_text("<?php echo $_POST['x'];")
    (directory / "inc").mkdir()
    (directory / "inc" / "safe.php").write_text("<?php echo intval($_GET['n']);")
    return str(directory)


class TestScan:
    def test_scan_finds_vulnerability(self, vulnerable_file, capsys):
        code = main(["scan", vulnerable_file])
        out = capsys.readouterr().out
        assert code == 1  # findings -> nonzero exit
        assert "XSS" in out
        assert "1 finding(s)" in out

    def test_scan_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.php"
        path.write_text("<?php echo 'hi';")
        assert main(["scan", str(path)]) == 0

    def test_scan_directory(self, plugin_dir, capsys):
        main(["scan", plugin_dir])
        out = capsys.readouterr().out
        assert "main.php" in out

    def test_scan_with_rips_tool_reports_esc_html(self, vulnerable_file, capsys):
        main(["scan", vulnerable_file, "--tool", "rips"])
        out = capsys.readouterr().out
        assert "2 finding(s)" in out  # RIPS also flags the esc_html flow

    def test_scan_trace_output(self, vulnerable_file, capsys):
        main(["scan", vulnerable_file, "--trace"])
        out = capsys.readouterr().out
        assert "$_GET" in out

    def test_scan_no_oop_flag(self, tmp_path, capsys):
        path = tmp_path / "w.php"
        path.write_text("<?php $v = $wpdb->get_var('Q'); echo $v;")
        assert main(["scan", str(path)]) == 1
        assert main(["scan", str(path), "--no-oop"]) == 0


@pytest.fixture()
def corpus_dir(tmp_path):
    """A directory of plugin directories (corpus checkout layout)."""
    root = tmp_path / "plugins"
    for name, source in (
        ("alpha", "<?php echo $_GET['a'];"),
        ("beta", "<?php echo esc_html($_GET['b']);"),
        ("gamma", "<?php echo $_COOKIE['c'];"),
    ):
        (root / name).mkdir(parents=True)
        (root / name / "index.php").write_text(source)
    return str(root)


class TestBatchScan:
    def test_directory_of_plugins_scans_as_batch(self, corpus_dir, capsys):
        code = main(["scan", corpus_dir])
        out = capsys.readouterr().out
        assert code == 1
        assert "batch of 3 plugin(s)" in out
        assert "alpha" in out and "beta" in out and "gamma" in out

    def test_parallel_findings_match_serial(self, corpus_dir, capsys):
        main(["scan", corpus_dir, "--jobs", "1"])
        serial_out = capsys.readouterr().out
        main(["scan", corpus_dir, "--jobs", "2"])
        parallel_out = capsys.readouterr().out

        def findings(text):
            return sorted(
                line.strip() for line in text.splitlines() if " at " in line
            )

        assert findings(serial_out) == findings(parallel_out)
        assert findings(serial_out)  # the corpus does have findings

    def test_warm_cache_telemetry(self, corpus_dir, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        cold_path = str(tmp_path / "cold.json")
        warm_path = str(tmp_path / "warm.json")
        main(["scan", corpus_dir, "--cache-dir", cache_dir,
              "--telemetry", cold_path])
        main(["scan", corpus_dir, "--cache-dir", cache_dir,
              "--telemetry", warm_path])
        capsys.readouterr()
        with open(warm_path) as handle:
            warm = json.load(handle)
        assert warm["schema"] == "repro.batch.telemetry/v8"
        assert warm["cache"]["hit_rate"] > 0.9
        with open(cold_path) as handle:
            cold = json.load(handle)
        assert cold["findings"] == warm["findings"]

    def test_single_plugin_with_jobs_flag_uses_batch(self, plugin_dir, capsys):
        code = main(["scan", plugin_dir, "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "batch of 1 plugin(s)" in out


class TestCompare:
    def test_compare_lists_all_tools(self, vulnerable_file, capsys):
        assert main(["compare", vulnerable_file]) == 0
        out = capsys.readouterr().out
        assert "phpSAFE" in out and "RIPS" in out and "Pixy" in out

    def test_compare_verbose(self, vulnerable_file, capsys):
        main(["compare", vulnerable_file, "-v"])
        assert "echo" in capsys.readouterr().out

    def test_compare_json_is_machine_readable(self, vulnerable_file, capsys):
        assert main(["compare", vulnerable_file, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["plugins"] == 1
        tools = {entry["tool"]: entry for entry in document["tools"]}
        assert {"phpSAFE", "RIPS", "Pixy"} <= set(tools)
        phpsafe = tools["phpSAFE"]
        assert phpsafe["xss"] >= 1
        assert phpsafe["seconds"] >= 0
        (finding,) = [f for f in phpsafe["findings"] if f["kind"] == "xss"][:1]
        assert finding["file"] and finding["line"] >= 1 and finding["sink"]

    def test_compare_json_with_jobs_and_cache(self, plugin_dir, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["compare", plugin_dir, "--json", "--jobs", "2",
                "--cache-dir", cache_dir]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert cold["jobs"] == 2
        for cold_tool, warm_tool in zip(cold["tools"], warm["tools"]):
            assert cold_tool["findings"] == warm_tool["findings"]


class TestCorpusCommand:
    def test_corpus_generation_to_disk(self, tmp_path, capsys):
        outdir = str(tmp_path / "corpus")
        assert main(
            ["corpus", outdir, "--versions", "2012", "--scale", "0.02"]
        ) == 0
        version_dir = os.path.join(outdir, "2012")
        assert os.path.isdir(version_dir)
        manifest_path = os.path.join(version_dir, "ground-truth.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        vulnerable = [entry for entry in manifest if entry["vulnerable"]]
        assert len(vulnerable) == 394
        # the referenced files exist on disk
        sample = manifest[0]
        plugin_dirs = os.listdir(version_dir)
        assert any(sample["plugin"] in name for name in plugin_dirs)


class TestEvaluateCommand:
    def test_prints_every_paper_section(
        self, monkeypatch, corpus_2012, corpus_2014, evaluations, capsys
    ):
        # the session evaluation stands in for the run, so nothing is
        # computed twice; the command only renders it
        from repro import cli

        corpora = {"2012": corpus_2012, "2014": corpus_2014}
        monkeypatch.setattr(
            cli, "build_corpus", lambda version, scale: corpora[version]
        )
        monkeypatch.setattr(
            cli, "evaluate_both", lambda given, *args, **kwargs: evaluations
        )
        assert main(["evaluate", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        for header in (
            "TABLE I.",
            "FIG. 2.",
            "TABLE II.",
            "SECTION V.D",
            "TABLE III.",
            "SECTION V.E",
        ):
            assert header in out
        for line in (
            "union=394",
            "union=586",
            "232 of 586",
            "failed files=31",
            "errors=37",
        ):
            assert line in out


class TestParser:
    def test_unknown_tool_rejected(self, vulnerable_file):
        with pytest.raises(SystemExit):
            main(["scan", vulnerable_file, "--tool", "fortify"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "flag",
        [
            ["--tool", "rips"],
            ["--jobs", "2"],
            ["--cache-dir", "cache"],
            ["--timeout", "5"],
            ["--baseline", "prior.sarif"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_stream_rejects_options_it_cannot_honour(self, plugin_dir, tmp_path, flag):
        sink = tmp_path / "out.jsonl"
        with pytest.raises(SystemExit, match=flag[0]):
            main(["scan", plugin_dir, "--stream", str(sink), *flag])
        assert not sink.exists()


class TestReportCommand:
    def test_json_report(self, vulnerable_file, capsys):
        assert main(["report", vulnerable_file, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["tool"] == "phpSAFE"
        assert document["findings"]

    def test_html_report_to_file(self, vulnerable_file, tmp_path, capsys):
        out = str(tmp_path / "report.html")
        assert main(["report", vulnerable_file, "--format", "html", "--out", out]) == 0
        content = open(out).read()
        assert content.startswith("<!DOCTYPE html>")

    def test_text_report_default(self, vulnerable_file, capsys):
        main(["report", vulnerable_file])
        assert "fix:" in capsys.readouterr().out

    def test_sarif_report(self, vulnerable_file, capsys):
        assert main(["report", vulnerable_file, "--format", "sarif"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        (run,) = document["runs"]
        assert run["tool"]["driver"]["name"] == "phpSAFE"
        assert run["results"][0]["ruleId"] == "phpsafe/xss"


class TestConfirmCommand:
    def test_confirm_vulnerable(self, vulnerable_file, capsys):
        code = main(["confirm", vulnerable_file])
        out = capsys.readouterr().out
        assert code == 1
        assert "confirmed" in out

    def test_confirm_clean(self, tmp_path, capsys):
        path = tmp_path / "ok.php"
        path.write_text("<?php echo 'hi';")
        assert main(["confirm", str(path)]) == 0
        assert "no findings" in capsys.readouterr().out


class TestFixCommand:
    def test_fix_prints_verified_proposals(self, vulnerable_file, capsys):
        assert main(["fix", vulnerable_file]) == 0
        out = capsys.readouterr().out
        assert "[verified]" in out and "esc_html" in out

    def test_fix_writes_patched_plugin(self, plugin_dir, tmp_path, capsys):
        out = str(tmp_path / "patched")
        assert main(["fix", plugin_dir, "--out", out]) == 0
        import glob
        patched_files = glob.glob(os.path.join(out, "**", "*.php"), recursive=True)
        assert patched_files
        assert any("esc_html" in open(f).read() for f in patched_files)


class TestApproveCommand:
    def test_vulnerable_rejected(self, vulnerable_file, capsys):
        assert main(["approve", vulnerable_file]) == 1
        assert "REJECTED" in capsys.readouterr().out

    def test_lenient_policy_approves(self, vulnerable_file, capsys):
        assert main(["approve", vulnerable_file, "--max-xss", "5"]) == 0
        assert "APPROVED" in capsys.readouterr().out


class TestBaselineGate:
    def export_baseline(self, target, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.sarif")
        assert main(["report", target, "--format", "sarif", "--out", baseline]) == 0
        capsys.readouterr()  # drain
        return baseline

    def test_unchanged_scan_passes_fail_on_new(
        self, vulnerable_file, tmp_path, capsys
    ):
        baseline = self.export_baseline(vulnerable_file, tmp_path, capsys)
        code = main(
            ["scan", vulnerable_file, "--baseline", baseline, "--fail-on", "new"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 new" in out and "1 unchanged" in out

    def test_unchanged_scan_still_fails_on_any(
        self, vulnerable_file, tmp_path, capsys
    ):
        baseline = self.export_baseline(vulnerable_file, tmp_path, capsys)
        assert main(["scan", vulnerable_file, "--baseline", baseline]) == 1

    def test_new_finding_fails_fail_on_new(self, vulnerable_file, tmp_path, capsys):
        baseline = self.export_baseline(vulnerable_file, tmp_path, capsys)
        with open(vulnerable_file, "a") as handle:
            handle.write("echo $_COOKIE['fresh'];\n")
        code = main(
            ["scan", vulnerable_file, "--baseline", baseline, "--fail-on", "new"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "1 new" in out

    def test_fail_on_new_without_baseline_degenerates_to_any(
        self, vulnerable_file
    ):
        assert main(["scan", vulnerable_file, "--fail-on", "new"]) == 1

    def test_report_baseline_marks_states(self, vulnerable_file, tmp_path, capsys):
        baseline = self.export_baseline(vulnerable_file, tmp_path, capsys)
        assert main(["report", vulnerable_file, "--format", "sarif",
                     "--baseline", baseline]) == 0
        document = json.loads(capsys.readouterr().out)
        states = [
            result["baselineState"]
            for run in document["runs"]
            for result in run["results"]
        ]
        assert states == ["unchanged"]

    def test_report_baseline_requires_sarif(self, vulnerable_file, tmp_path, capsys):
        baseline = self.export_baseline(vulnerable_file, tmp_path, capsys)
        with pytest.raises(SystemExit):
            main(["report", vulnerable_file, "--baseline", baseline])

    def test_missing_baseline_file_is_an_error(self, vulnerable_file, tmp_path):
        with pytest.raises(SystemExit):
            main(["scan", vulnerable_file, "--baseline",
                  str(tmp_path / "missing.sarif"), "--fail-on", "new"])


class TestHistoryCommand:
    def test_record_diff_evolution_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "history.json")
        plugin = tmp_path / "demo"
        plugin.mkdir()
        source = plugin / "demo.php"
        source.write_text(
            "<?php\necho $_GET['m'];\n$wpdb->query('D' . $_GET['id']);\n"
        )
        assert main(["history", "record", str(plugin), "--store", store,
                     "--version", "1.0", "--date", "2012-11-01"]) == 0
        assert "recorded" in capsys.readouterr().out
        source.write_text(
            "<?php\necho esc_html($_GET['m']);\n$wpdb->query('D' . $_GET['id']);\n"
        )
        assert main(["history", "record", str(plugin), "--store", store,
                     "--version", "2.0", "--date", "2014-11-01"]) == 0
        out = capsys.readouterr().out
        assert "+0 new" in out and "-1 fixed" in out
        # diff of the archived pair: one fixed, nothing introduced -> 0
        assert main(["history", "diff", "demo", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "-1 fixed" in out and "  - xss" in out
        assert main(["history", "evolution", "demo", "--store", store]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and "1.0" in lines[0] and "2.0" in lines[1]

    def test_diff_flags_regression(self, tmp_path, capsys):
        store = str(tmp_path / "history.json")
        plugin = tmp_path / "p"
        plugin.mkdir()
        source = plugin / "p.php"
        source.write_text("<?php echo esc_html($_GET['m']);\n")
        main(["history", "record", str(plugin), "--store", store,
              "--version", "1.0", "--date", "2012-01-01"])
        source.write_text("<?php echo $_GET['m'];\n")
        main(["history", "record", str(plugin), "--store", store,
              "--version", "2.0", "--date", "2014-01-01"])
        capsys.readouterr()
        assert main(["history", "diff", "p", "--store", store]) == 1
        assert "+1 new" in capsys.readouterr().out

    def test_diff_requires_two_scans(self, tmp_path, capsys):
        store = str(tmp_path / "history.json")
        plugin = tmp_path / "solo"
        plugin.mkdir()
        (plugin / "p.php").write_text("<?php echo $_GET['m'];\n")
        main(["history", "record", str(plugin), "--store", store,
              "--version", "1.0", "--date", "2012-01-01"])
        capsys.readouterr()
        assert main(["history", "diff", "solo", "--store", store]) == 1
        assert "fewer than two" in capsys.readouterr().out

    def test_approve_with_history_blocks_regression(self, tmp_path, capsys):
        store = str(tmp_path / "history.json")
        plugin = tmp_path / "gate"
        plugin.mkdir()
        source = plugin / "p.php"
        source.write_text("<?php echo esc_html($_GET['m']);\n")
        main(["history", "record", str(plugin), "--store", store,
              "--version", "1.0", "--date", "2012-01-01"])
        capsys.readouterr()
        source.write_text("<?php echo $_GET['m'];\n")
        code = main(["approve", str(plugin), "--max-xss", "5", "--history", store])
        out = capsys.readouterr().out
        assert code == 1
        assert "new finding(s)" in out
