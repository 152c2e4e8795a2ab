"""Tests for diff-aware incremental rescans and SARIF baselines.

Covers the full chain: manifest planning and fallback triggers,
incremental-vs-cold finding parity, the ResultStore manifest/lineage
round-trip (including concurrent lineage appends), SARIF baseline
classification (new / unchanged / absent), and the service worker path
that wires them together.
"""

import dataclasses
import json
import multiprocessing
import threading

import pytest

from repro.core import ModelCache, PhpSafe
from repro.core.incremental import (
    MANIFEST_SCHEMA,
    RescanStats,
    plan_rescan,
    plugin_file_digests,
)
from repro.core.model import PluginModel
from repro.core.results import finding_signatures
from repro.perf import scoped
from repro.plugin import Plugin
from repro.service.sarif import (
    apply_baseline,
    new_result_count,
    to_sarif,
)
from repro.service.store import ResultStore, plugin_digest

# three decoupled roots: each echoes its own GET parameter, no shared
# globals/properties/statics, so a one-file change re-runs one root
FILE_A = "<?php\necho $_GET['a'];\n"
FILE_B = "<?php\necho $_GET['b'];\n"
FILE_C = "<?php\n$wpdb->query('D WHERE id=' . $_GET['c']);\n"


def three_file_plugin(name="tri", version="1.0"):
    return Plugin(
        name=name,
        version=version,
        files={"a.php": FILE_A, "b.php": FILE_B, "c.php": FILE_C},
    )


def mutate(plugin, path, extra):
    files = dict(plugin.files)
    files[path] = files[path] + extra
    return dataclasses.replace(plugin, files=files)


# ---------------------------------------------------------------------------
# PhpSafe.rescan: parity and reuse
# ---------------------------------------------------------------------------


class TestRescanParity:
    def test_zero_change_rescan_reuses_every_root(self):
        plugin = three_file_plugin()
        tool = PhpSafe(cache=ModelCache())
        report, manifest, _ = tool.rescan(plugin)
        again, _manifest2, stats = tool.rescan(plugin, manifest)
        assert stats.incremental
        assert stats.roots_reused == stats.roots_total
        assert stats.changed_files == []
        assert finding_signatures([again]) == finding_signatures([report])

    def test_one_file_change_reruns_one_root(self):
        plugin = three_file_plugin()
        tool = PhpSafe(cache=ModelCache())
        _report, manifest, _ = tool.rescan(plugin)
        updated = mutate(plugin, "b.php", "echo $_COOKIE['extra'];\n")
        warm, _manifest2, stats = tool.rescan(updated, manifest)
        cold = PhpSafe().analyze(updated)
        assert stats.incremental
        assert stats.changed_files == ["b.php"]
        assert stats.roots_reused == stats.roots_total - 1
        assert finding_signatures([warm]) == finding_signatures([cold])

    def test_fixed_file_drops_its_finding_only(self):
        plugin = three_file_plugin()
        tool = PhpSafe(cache=ModelCache())
        _report, manifest, _ = tool.rescan(plugin)
        files = dict(plugin.files)
        files["a.php"] = "<?php\necho esc_html($_GET['a']);\n"
        fixed = dataclasses.replace(plugin, files=files)
        warm, _manifest2, stats = tool.rescan(fixed, manifest)
        cold = PhpSafe().analyze(fixed)
        assert stats.incremental
        assert finding_signatures([warm]) == finding_signatures([cold])
        assert not any(f.file == "a.php" for f in warm.findings)
        assert any(f.file == "b.php" for f in warm.findings)

    def test_new_manifest_usable_for_next_rescan(self):
        plugin = three_file_plugin()
        tool = PhpSafe(cache=ModelCache())
        _r, manifest, _ = tool.rescan(plugin)
        v2 = mutate(plugin, "a.php", "echo $_GET['a2'];\n")
        _r2, manifest2, _ = tool.rescan(v2, manifest)
        v3 = mutate(v2, "c.php", "echo $_GET['c2'];\n")
        warm, _m3, stats = tool.rescan(v3, manifest2)
        cold = PhpSafe().analyze(v3)
        assert stats.incremental
        assert stats.changed_files == ["c.php"]
        assert finding_signatures([warm]) == finding_signatures([cold])

    def test_strict_mode_rescan_parity(self):
        from repro.core.phpsafe import PhpSafeOptions

        strict = PhpSafeOptions(recover=False)
        tool = PhpSafe(options=strict, cache=ModelCache())
        plugin = three_file_plugin()
        report, manifest, _ = tool.rescan(plugin)
        again, manifest2, stats = tool.rescan(plugin, manifest)
        assert stats.incremental
        assert stats.roots_reused == stats.roots_total
        assert finding_signatures([again]) == finding_signatures([report])
        updated = mutate(plugin, "b.php", "echo $_COOKIE['extra'];\n")
        warm, _m3, stats = tool.rescan(updated, manifest2)
        cold = PhpSafe(options=strict).analyze(updated)
        assert stats.incremental
        assert stats.roots_reused == stats.roots_total - 1
        assert finding_signatures([warm]) == finding_signatures([cold])

    def test_strict_rescan_ignores_recover_manifest(self):
        # the recovering parse reads findings out of a file the strict
        # parse rejects: its manifest must not carry them into a strict
        # rescan
        from repro.core.phpsafe import PhpSafeOptions

        plugin = Plugin(name="p", files={
            "main.php": "<?php echo $_GET['a'];\n",
            "broken.php": "<?php echo $_GET['b'];\nfunction ( {\n",
        })
        cache = ModelCache()
        recover = PhpSafe(options=PhpSafeOptions(recover=True), cache=cache)
        _report, manifest, _ = recover.rescan(plugin)
        strict = PhpSafeOptions(recover=False)
        warm, _m, stats = PhpSafe(options=strict, cache=cache).rescan(plugin, manifest)
        cold = PhpSafe(options=strict).analyze(plugin)
        assert stats.fallback_reason == "analyzer configuration changed"
        assert finding_signatures([warm]) == finding_signatures([cold])

    def test_include_budget_change_ignores_manifest(self, corpus_2014):
        # a tighter include budget drops files from the model, so a
        # manifest built under a looser one must not carry their
        # findings into the rescan
        from repro.core.phpsafe import PhpSafeOptions

        cache = ModelCache()
        loose = PhpSafe(options=PhpSafeOptions(include_budget=10**12), cache=cache)
        tight_options = PhpSafeOptions(include_budget=2_000)
        tight = PhpSafe(options=tight_options, cache=cache)
        for plugin in corpus_2014.plugins:
            _report, manifest, _ = loose.rescan(plugin)
            warm, _m, _stats = tight.rescan(plugin, manifest)
            cold = PhpSafe(options=tight_options, use_process_cache=False)
            assert finding_signatures([warm]) == finding_signatures(
                [cold.analyze(plugin)]
            ), plugin.name

    def test_coupled_roots_rerun_together(self):
        # writer.php taints a global that reader.php echoes: changing
        # the writer must re-run the reader too, and findings must
        # still match a cold scan
        plugin = Plugin(
            name="coupled",
            files={
                "reader.php": "<?php\nglobal $shared;\necho $shared;\n",
                "writer.php": "<?php\nglobal $shared;\n$shared = $_GET['w'];\n",
                "other.php": FILE_A,
            },
        )
        tool = PhpSafe(cache=ModelCache())
        _report, manifest, _ = tool.rescan(plugin)
        updated = mutate(plugin, "writer.php", "$shared = $_POST['w2'];\n")
        warm, _m2, stats = tool.rescan(updated, manifest)
        cold = PhpSafe().analyze(updated)
        assert finding_signatures([warm]) == finding_signatures([cold])
        if stats.incremental:
            # the untouched decoupled root is the only reusable one
            assert stats.roots_reused <= 1

    def test_summary_events_follow_the_root_that_installed_them(self):
        # main.php's unit summarizes A::show(), whose echo reads the
        # property writer.php taints; once the writer cleans it, the
        # echo's finding must go, though lib.php is reused
        lib = (
            "<?php\nclass A {\n"
            " function show() { echo '<p>' . $this->v . '</p>'; }\n}\n"
        )
        writer = "<?php\ninclude 'lib.php';\n$x = new A();\n$x->v = $_GET['q'];\n"
        plugin = Plugin(name="p", files={
            "lib.php": lib,
            "main.php": "<?php\ninclude 'lib.php';\n$a = new A();\n$a->show();\n",
            "writer.php": writer,
        })
        tool = PhpSafe(cache=ModelCache())
        report, manifest, _ = tool.rescan(plugin)
        assert [(f.file, f.line) for f in report.findings] == [("lib.php", 3)]
        files = dict(plugin.files)
        files["writer.php"] = writer.replace("$_GET['q']", "'clean'")
        updated = dataclasses.replace(plugin, files=files)
        warm, _m2, stats = tool.rescan(updated, manifest)
        cold = PhpSafe(use_process_cache=False).analyze(updated)
        assert stats.roots_reused == 1
        assert cold.findings == []
        assert finding_signatures([warm]) == finding_signatures([cold])

    def test_stats_to_dict_round_trip(self):
        stats = RescanStats(
            roots_total=3, roots_reused=2, changed_files=["b.php"]
        )
        raw = stats.to_dict()
        assert raw["incremental"] is True
        assert raw["roots_total"] == 3
        assert raw["roots_reused"] == 2
        assert raw["changed_files"] == ["b.php"]
        assert raw["fallback_reason"] == ""

    def test_rescan_perf_covers_the_model_build(self):
        # a rescan builds its model before it runs the engine; the
        # report's counters must include that lexing and parsing
        plugin = three_file_plugin(name="perf")
        tool = PhpSafe(cache=ModelCache())
        updated = mutate(plugin, "b.php", "echo $_COOKIE['extra'];\n")
        with scoped() as first:
            cold, manifest, _ = tool.rescan(plugin)
        with scoped() as second:
            warm, _manifest2, stats = tool.rescan(updated, manifest)
        assert stats.incremental
        for scope, report, parsed in ((first, cold, 3), (second, warm, 1)):
            assert report.perf["files_parsed"] == scope.delta["files_parsed"] == parsed
            assert report.perf["tokens_lexed"] == scope.delta["tokens_lexed"] > 0


def record_summary_lookups(tool):
    """Wrap ``tool.cache.lookup_summary``; the returned list collects
    the function key of every lookup (``summary2!<fp>!<key>!<digest>``)."""
    looked_up = []
    lookup = tool.cache.lookup_summary

    def recording(key):
        looked_up.append(key.split("!")[2])
        return lookup(key)

    tool.cache.lookup_summary = recording
    return looked_up


class TestOnDemandSummaries:
    """A rescan asks the summary cache only for the functions its live
    units reach, not for every function of the plugin."""

    def test_untouched_roots_functions_are_not_looked_up(self):
        # each root defines a function only it calls
        plugin = Plugin(name="own", files={
            "a.php": "<?php\nfunction fa($x) { echo $x; }\nfa($_GET['a']);\n",
            "b.php": "<?php\nfunction fb($x) { echo $x; }\nfb($_GET['b']);\n",
            "c.php": "<?php\nfunction fc($x) { echo $x; }\nfc($_GET['c']);\n",
            "d.php": "<?php\nfunction fd($x) { echo $x; }\n",
        })
        tool = PhpSafe(cache=ModelCache())
        _report, manifest, _ = tool.rescan(plugin)
        looked_up = record_summary_lookups(tool)
        updated = mutate(plugin, "b.php", "echo $_COOKIE['extra'];\n")
        warm, _manifest2, stats = tool.rescan(updated, manifest)
        assert stats.incremental
        assert stats.roots_reused == stats.roots_total - 1
        assert "fb" in looked_up
        assert not {"fa", "fc", "fd"} & set(looked_up)
        cold = PhpSafe(use_process_cache=False).analyze(updated)
        assert finding_signatures([warm]) == finding_signatures([cold])

    def test_reused_roots_function_called_by_live_unit_is_loaded(self):
        plugin = Plugin(name="lib", files={
            "main.php": "<?php\ninclude 'lib.php';\nshow($_GET['q']);\n",
            "lib.php": "<?php\nfunction show($m) { echo '<b>' . $m . '</b>'; }\n",
            "other.php": "<?php\nfunction lone($x) { echo $x; }\necho $_GET['o'];\n",
        })
        tool = PhpSafe(cache=ModelCache())
        _report, manifest, _ = tool.rescan(plugin)
        looked_up = record_summary_lookups(tool)
        updated = mutate(plugin, "main.php", "echo $_COOKIE['extra'];\n")
        warm, _manifest2, stats = tool.rescan(updated, manifest)
        assert stats.incremental
        assert stats.changed_files == ["main.php"]
        assert stats.roots_reused == 2
        assert looked_up == ["show"]
        assert warm.perf["summary_cache_hits"] == 1
        assert warm.perf["summaries_computed"] == 0
        cold = PhpSafe(use_process_cache=False).analyze(updated)
        assert finding_signatures([warm]) == finding_signatures([cold])

    CLASS_A = (
        "<?php\nclass A { function set() { $this->v = $_GET['q']; } }\n"
        "class B { function set() { $this->w = 1; } }\n"
    )
    MAIN_V1 = (
        "<?php\ninclude 'lib.php';\n$a = new A();\n$a->set();\n"
        "echo '<p>' . $a->v . '</p>';\n"
    )

    @pytest.mark.parametrize(
        "main_v2, echo_line",
        [
            # the edit drops the only call: A::set() becomes uncalled
            (
                "<?php\ninclude 'lib.php';\n$a = new A();\n"
                "echo '<p>' . $a->v . '</p>';\n",
                4,
            ),
            # the edit calls B::set() instead: A::set() is still called
            # by name, so a cold scan reaches it only in the late pass
            (
                "<?php\ninclude 'lib.php';\n$b = new B();\n$b->set();\n"
                "$a = new A();\necho '<p>' . $a->v . '</p>';\n",
                6,
            ),
        ],
        ids=["uncalled", "late-pass"],
    )
    @pytest.mark.parametrize("tier", ["memory", "disk"])
    def test_summary_left_behind_by_an_edited_root_still_applies(
        self, main_v2, echo_line, tier, tmp_path
    ):
        # v1 summarizes A::set() inside main.php's unit, so its property
        # write is on main.php's record, not on lib.php's; once the edit
        # stops reaching it, lib.php is still reused, yet a cold scan
        # runs A::set() on its own and its write taints the echo
        if tier == "memory":
            tool = PhpSafe(cache=ModelCache())
        else:
            tool = PhpSafe(cache_dir=str(tmp_path))
        v1 = Plugin(name="p", files={"lib.php": self.CLASS_A, "main.php": self.MAIN_V1})
        _report, manifest, _ = tool.rescan(v1)
        v2 = dataclasses.replace(
            v1, files={"lib.php": self.CLASS_A, "main.php": main_v2}
        )
        warm, manifest2, stats = tool.rescan(v2, manifest)
        cold = PhpSafe(use_process_cache=False).analyze(v2)
        assert [(f.file, f.line) for f in cold.findings] == [("main.php", echo_line)]
        assert stats.roots_reused == 1
        assert finding_signatures([warm]) == finding_signatures([cold])
        # the replay stays on main.php's record for the next edit
        v3 = mutate(v2, "main.php", "echo 'done';\n")
        warm3, _manifest3, stats3 = tool.rescan(v3, manifest2)
        cold3 = PhpSafe(use_process_cache=False).analyze(v3)
        assert stats3.roots_reused == 1
        assert finding_signatures([warm3]) == finding_signatures([cold3])

    def test_summary_that_cannot_be_replayed_falls_back(self):
        tool = PhpSafe(cache=ModelCache())
        v1 = Plugin(name="p", files={"lib.php": self.CLASS_A, "main.php": self.MAIN_V1})
        _report, manifest, _ = tool.rescan(v1)
        tool.cache.clear()
        v2 = dataclasses.replace(v1, files={
            "lib.php": self.CLASS_A,
            "main.php": self.MAIN_V1.replace("$a->set();\n", ""),
        })
        warm, _manifest2, stats = tool.rescan(v2, manifest)
        cold = PhpSafe(use_process_cache=False).analyze(v2)
        assert stats.fallback_reason == "summary a::set could not be replayed"
        assert finding_signatures([warm]) == finding_signatures([cold])

    def test_late_pass_miss_asks_the_cache_once(self):
        # r() is reachable only through its own recursion, so only the
        # late pass summarizes it: its lookup misses once, then the
        # body is computed without asking again
        plugin = Plugin(name="rec", files={
            "a.php": "<?php\nfunction r($x) { r($x); echo $x; }\necho $_GET['a'];\n",
        })
        tool = PhpSafe(cache=ModelCache())
        looked_up = record_summary_lookups(tool)
        report = tool.analyze(plugin)
        assert looked_up.count("r") == 1
        assert report.perf["summary_cache_misses"] == 1
        assert report.perf["summaries_computed"] == 1


# ---------------------------------------------------------------------------
# plan_rescan: fallback triggers
# ---------------------------------------------------------------------------


class TestRescanPlanning:
    def manifest_for(self, plugin):
        tool = PhpSafe()
        _report, manifest, _ = tool.rescan(plugin)
        fingerprint = manifest["fingerprint"]
        model = PluginModel.build(plugin, recover=True)
        return manifest, fingerprint, model

    def test_no_manifest_is_full(self):
        plugin = three_file_plugin()
        _m, fingerprint, model = self.manifest_for(plugin)
        plan = plan_rescan(None, fingerprint, plugin_file_digests(plugin), model)
        assert plan.full and plan.reason == "no prior manifest"

    def test_schema_mismatch_is_full(self):
        plugin = three_file_plugin()
        manifest, fingerprint, model = self.manifest_for(plugin)
        manifest["schema"] = "something/else"
        plan = plan_rescan(
            manifest, fingerprint, plugin_file_digests(plugin), model
        )
        assert plan.full and "schema" in plan.reason

    def test_fingerprint_change_is_full(self):
        plugin = three_file_plugin()
        manifest, _fingerprint, model = self.manifest_for(plugin)
        plan = plan_rescan(
            manifest, "other-config", plugin_file_digests(plugin), model
        )
        assert plan.full and "configuration" in plan.reason

    def test_file_add_is_full(self):
        plugin = three_file_plugin()
        manifest, fingerprint, model = self.manifest_for(plugin)
        grown = dataclasses.replace(
            plugin, files={**plugin.files, "d.php": "<?php echo 1;\n"}
        )
        plan = plan_rescan(
            manifest, fingerprint, plugin_file_digests(grown), model
        )
        assert plan.full and plan.reason == "file set changed"

    def test_file_remove_is_full(self):
        plugin = three_file_plugin()
        manifest, fingerprint, model = self.manifest_for(plugin)
        files = dict(plugin.files)
        del files["c.php"]
        shrunk = dataclasses.replace(plugin, files=files)
        plan = plan_rescan(
            manifest, fingerprint, plugin_file_digests(shrunk), model
        )
        assert plan.full and plan.reason == "file set changed"

    def test_incomplete_prior_scan_is_full(self):
        plugin = three_file_plugin()
        manifest, fingerprint, model = self.manifest_for(plugin)
        manifest["complete"] = False
        plan = plan_rescan(
            manifest, fingerprint, plugin_file_digests(plugin), model
        )
        assert plan.full and "incomplete" in plan.reason

    def test_unchanged_plugin_reuses_all_roots(self):
        plugin = three_file_plugin()
        manifest, fingerprint, model = self.manifest_for(plugin)
        plan = plan_rescan(
            manifest, fingerprint, plugin_file_digests(plugin), model
        )
        assert not plan.full
        assert plan.changed_files == frozenset()
        assert plan.reuse_roots == frozenset(manifest["roots"])

    def test_manifest_schema_tag(self):
        plugin = three_file_plugin()
        manifest, _f, _m = self.manifest_for(plugin)
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert set(manifest["files"]) == set(plugin.files)
        assert json.loads(json.dumps(manifest)) == manifest  # JSON-safe


# ---------------------------------------------------------------------------
# ResultStore: manifests, lineage, result keys
# ---------------------------------------------------------------------------


class TestManifestStore:
    def test_manifest_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        manifest = {"schema": MANIFEST_SCHEMA, "files": {"a.php": "d1"}}
        store.put_manifest("digest-1", "cfg", manifest)
        assert store.get_manifest("digest-1", "cfg") == manifest
        assert store.get_manifest("digest-1", "other-cfg") is None
        assert store.get_manifest("digest-2", "cfg") is None

    def test_lineage_order_and_dedupe(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.record_lineage("demo", "d1")
        store.record_lineage("demo", "d2")
        store.record_lineage("demo", "d1")  # resubmission moves to end
        assert store.lineage("demo") == ["d2", "d1"]
        assert store.lineage("unknown") == []

    def test_latest_manifest_walks_lineage(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.record_lineage("demo", "d1")
        store.record_lineage("demo", "d2")
        store.record_lineage("demo", "d3")
        store.put_manifest("d1", "cfg", {"from": "d1"})
        store.put_manifest("d2", "cfg", {"from": "d2"})
        # d3 has no manifest; the rescan of d3 must match d2
        assert store.latest_manifest("demo", "cfg", exclude_digest="d3") == {
            "from": "d2"
        }
        # rescanning d2 itself must not match its own manifest
        assert store.latest_manifest("demo", "cfg", exclude_digest="d2") == {
            "from": "d1"
        }
        assert store.latest_manifest("demo", "other-cfg") is None

    def test_result_key_hashes_empty_fingerprint(self, tmp_path):
        store = ResultStore(str(tmp_path))
        digest = plugin_digest(Plugin(name="x", files={"a.php": FILE_A}))
        # the key namespace must be uniform: an empty fingerprint is
        # hashed exactly like any other, never the raw digest
        assert store.result_key(digest, "") != digest
        assert store.result_key(digest, "") != store.result_key(digest, "cfg")

    def test_concurrent_lineage_appends_are_all_kept(self, tmp_path):
        # dispatcher threads and fleet node processes append to one
        # shared store; every append must survive the others
        root = str(tmp_path)
        store = ResultStore(root)
        threads = [
            threading.Thread(
                target=_append_lineage, args=(root, f"t{index}"), daemon=True
            )
            for index in range(8)
        ]
        # forked while the threads append: a child must not inherit a
        # held lock
        context = multiprocessing.get_context("fork")
        processes = [
            context.Process(
                target=_append_lineage, args=(root, f"p{index}"), daemon=True
            )
            for index in range(2)
        ]
        for worker in threads + processes:
            worker.start()
        for worker in threads + processes:
            worker.join(timeout=60)
        assert all(process.exitcode == 0 for process in processes)
        expected = {
            f"{prefix}{index}-{step}"
            for prefix, count in (("t", 8), ("p", 2))
            for index in range(count)
            for step in range(LINEAGE_APPENDS)
        }
        lineage = store.lineage("shared")
        assert len(lineage) == len(expected)
        assert set(lineage) == expected


LINEAGE_APPENDS = 10


def _append_lineage(root, prefix):
    store = ResultStore(root)
    for step in range(LINEAGE_APPENDS):
        store.record_lineage("shared", f"{prefix}-{step}")


# ---------------------------------------------------------------------------
# SARIF baselines
# ---------------------------------------------------------------------------


class TestSarifBaseline:
    def reports_for(self, source_by_file, name="base", version="1.0"):
        plugin = Plugin(name=name, version=version, files=dict(source_by_file))
        return [PhpSafe().analyze(plugin)]

    def test_unchanged_findings_classified_unchanged(self):
        reports = self.reports_for({"vuln.php": FILE_A})
        baseline = to_sarif(reports)
        document = to_sarif(reports)
        counts = apply_baseline(document, baseline)
        assert counts == {"new": 0, "unchanged": 1, "absent": 0}
        assert new_result_count(document) == 0
        states = [
            result["baselineState"]
            for run in document["runs"]
            for result in run["results"]
        ]
        assert states == ["unchanged"]

    def test_new_finding_classified_new(self):
        baseline = to_sarif(self.reports_for({"vuln.php": FILE_A}))
        document = to_sarif(
            self.reports_for({"vuln.php": FILE_A + "echo $_POST['n'];\n"})
        )
        counts = apply_baseline(document, baseline)
        assert counts["new"] == 1
        assert counts["unchanged"] == 1
        assert counts["absent"] == 0
        assert new_result_count(document) == 1

    def test_fixed_finding_classified_absent(self):
        baseline = to_sarif(
            self.reports_for({"vuln.php": FILE_A, "other.php": FILE_B})
        )
        document = to_sarif(
            self.reports_for(
                {"vuln.php": "<?php echo esc_html($_GET['a']);\n",
                 "other.php": FILE_B}
            )
        )
        counts = apply_baseline(document, baseline)
        assert counts == {"new": 0, "unchanged": 1, "absent": 1}
        # absent results are appended so reviewers see what went away
        states = sorted(
            result["baselineState"]
            for run in document["runs"]
            for result in run["results"]
        )
        assert states == ["absent", "unchanged"]
        assert new_result_count(document) == 0

    def test_baseline_matches_across_versions(self):
        # same finding, new plugin version: the version-qualified slug
        # inside the fingerprint must not break the match
        baseline = to_sarif(self.reports_for({"v.php": FILE_A}, version="1.0"))
        document = to_sarif(self.reports_for({"v.php": FILE_A}, version="2.0"))
        counts = apply_baseline(document, baseline)
        assert counts == {"new": 0, "unchanged": 1, "absent": 0}

    def test_empty_baseline_marks_everything_new(self):
        document = to_sarif(self.reports_for({"v.php": FILE_A}))
        counts = apply_baseline(document, {"runs": []})
        assert counts["new"] == 1
        assert counts["unchanged"] == 0
        assert new_result_count(document) == 1

    def test_result_without_state_counts_as_new(self):
        # fail-safe: a result the classifier never saw is gated as new
        document = to_sarif(self.reports_for({"v.php": FILE_A}))
        assert new_result_count(document) == 1


# ---------------------------------------------------------------------------
# Service: lineage-driven rescans end to end
# ---------------------------------------------------------------------------


class TestServiceRescan:
    def test_resubmission_rescans_incrementally(self, tmp_path):
        from repro.service import AnalysisService

        service = AnalysisService(
            data_dir=str(tmp_path / "svc"), jobs=1, isolation="thread"
        )
        service.start()
        try:
            v1 = three_file_plugin(name="lineage-demo", version="1.0")
            payload = {
                "name": v1.name,
                "version": v1.version,
                "files": dict(v1.files),
            }
            code, first = service.submit(payload)
            assert code in (200, 202)
            self.wait(service, first["id"])
            v2 = mutate(v1, "b.php", "echo $_COOKIE['extra'];\n")
            code, second = service.submit(
                {"name": v2.name, "version": "1.1", "files": dict(v2.files)}
            )
            assert code in (200, 202)
            self.wait(service, second["id"])
            _code, status = service.job_status(second["id"])
            rescan = status["result"]["rescan"]
            assert rescan["incremental"] is True
            assert rescan["changed_files"] == ["b.php"]
            assert rescan["roots_reused"] >= 1
            # the lineage now records both digests, newest last
            assert len(service.store.lineage("lineage-demo")) == 2
        finally:
            service.shutdown()

    @staticmethod
    def wait(service, job_id, timeout=60.0):
        import time

        deadline = time.time() + timeout
        while time.time() < deadline:
            _code, status = service.job_status(job_id)
            if status.get("state") in ("done", "failed"):
                assert status["state"] == "done", status
                return status
            time.sleep(0.02)
        pytest.fail("job did not finish in time")

    def test_sarif_baseline_endpoint(self, tmp_path):
        from repro.service import AnalysisService

        service = AnalysisService(
            data_dir=str(tmp_path / "svc"), jobs=1, isolation="thread"
        )
        service.start()
        try:
            v1 = three_file_plugin(name="base-demo", version="1.0")
            _c, first = service.submit(
                {"name": v1.name, "version": "1.0", "files": dict(v1.files)}
            )
            self.wait(service, first["id"])
            v2 = mutate(v1, "b.php", "echo $_COOKIE['extra'];\n")
            _c, second = service.submit(
                {"name": v2.name, "version": "1.1", "files": dict(v2.files)}
            )
            self.wait(service, second["id"])
            code, document = service.sarif_baseline(second["id"])
            assert code == 200
            baseline = document["properties"]["baseline"]
            assert baseline["new"] == 1
            assert baseline["absent"] == 0
            assert document["properties"]["newResults"] == 1
        finally:
            service.shutdown()
