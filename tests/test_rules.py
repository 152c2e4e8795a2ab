"""Rule-pack engine: loading, validation, compilation, invalidation."""

import copy
import json
import os
import pickle

import pytest

from repro.batch import ToolSpec
from repro.config import ALL_KINDS, VulnKind
from repro.core import PhpSafe, PhpSafeOptions
from repro.core.cache import ir_key, summary_key
from repro.plugin import Plugin
from repro.rules import (
    PROFILES,
    PackError,
    builtin_pack_dir,
    builtin_pack_names,
    compile_packs,
    load_pack,
    resolve_profile,
    validate_pack_data,
)
from repro.incidents import IncidentSeverity, IncidentStage
from repro.service.server import spec_fingerprint


def _write_pack(tmp_path, data, name="pack.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


MINIMAL = {
    "schema": 1,
    "name": "mini",
    "version": "1.0.0",
    "kinds": [{"value": "minikind", "title": "Mini", "description": "d"}],
    "sinks": [{"name": "readfile", "kind": "minikind", "args": [0]}],
}


class TestVulnKindRegistry:
    def test_builtins_iterate_in_order(self):
        assert [kind.value for kind in VulnKind] == ["xss", "sqli", "cmdi", "lfi"]
        assert len(VulnKind) == 4

    def test_interning_is_identity(self):
        assert VulnKind("xss") is VulnKind.XSS
        assert VulnKind(VulnKind.SQLI) is VulnKind.SQLI
        first = VulnKind("test-interned-kind")
        assert VulnKind("test-interned-kind") is first

    def test_pickle_round_trips_through_registry(self):
        kind = VulnKind("test-pickled-kind")
        assert pickle.loads(pickle.dumps(kind)) is kind
        assert pickle.loads(pickle.dumps(VulnKind.XSS)) is VulnKind.XSS

    def test_copy_returns_self(self):
        assert copy.copy(VulnKind.XSS) is VulnKind.XSS
        assert copy.deepcopy(VulnKind.LFI) is VulnKind.LFI

    def test_registered_lists_builtins_first(self):
        registered = VulnKind.registered()
        assert registered[:4] == tuple(VulnKind)
        assert all(not kind.builtin for kind in registered[4:])

    def test_later_registration_fills_but_never_overwrites_metadata(self):
        kind = VulnKind.register("test-meta-kind")
        assert kind.title == ""
        VulnKind.register("test-meta-kind", "Title", "Desc")
        assert kind.title == "Title"
        VulnKind.register("test-meta-kind", "Other", "Other")
        assert kind.title == "Title"
        assert kind.description == "Desc"

    def test_all_kinds_excludes_pack_kinds(self):
        VulnKind("test-excluded-kind")
        assert ALL_KINDS == frozenset(VulnKind)


class TestPackLoading:
    def test_builtin_packs_ship(self):
        assert set(builtin_pack_names()) == {
            "cmdi",
            "deserialization",
            "ssrf",
            "traversal",
        }

    def test_builtin_packs_load_with_content_hashes(self):
        for name in builtin_pack_names():
            pack = load_pack(name)
            assert pack.name == name
            assert len(pack.content_hash) == 16
            assert pack.pack_id == (pack.name, pack.version, pack.content_hash)

    def test_load_by_path(self, tmp_path):
        pack = load_pack(_write_pack(tmp_path, MINIMAL))
        assert pack.name == "mini"
        assert pack.sinks[0]["name"] == "readfile"

    def test_loader_fills_entry_defaults(self, tmp_path):
        document = dict(
            MINIMAL,
            sources=[{"name": "get_input"}],
            reverts=[{"name": "undo", "kinds": ["xss"]}],
        )
        pack = load_pack(_write_pack(tmp_path, document))
        assert pack.sources == (
            {
                "name": "get_input",
                "vector": "Function",
                "kinds": ("*",),
                "class": None,
                "superglobal": False,
                "description": "",
            },
        )
        assert pack.sinks[0]["args"] == (0,)
        assert pack.sinks[0]["class"] is None
        assert pack.reverts[0]["kinds"] == ("xss",)
        assert pack.kinds[0] == MINIMAL["kinds"][0]
        # the document is not rewritten: its hash is that of the bytes read
        assert load_pack(_write_pack(tmp_path, document)).content_hash == (
            pack.content_hash
        )

    def test_content_hash_tracks_bytes_not_semantics(self, tmp_path):
        first = load_pack(_write_pack(tmp_path, MINIMAL, "a.json"))
        reformatted = tmp_path / "b.json"
        reformatted.write_text(
            json.dumps(MINIMAL, indent=2), encoding="utf-8"
        )
        second = load_pack(str(reformatted))
        assert first.content_hash != second.content_hash

    def test_missing_file_is_a_typed_issue(self, tmp_path):
        with pytest.raises(PackError) as err:
            load_pack(str(tmp_path / "absent.json"))
        assert err.value.issues

    def test_unknown_builtin_name_is_a_typed_issue(self):
        with pytest.raises(PackError):
            load_pack("no-such-pack")


class TestPackValidation:
    def _issues(self, data):
        pack, issues = validate_pack_data(data, "<test>")
        assert pack is None
        return [issue.message for issue in issues]

    def test_valid_pack_has_no_issues(self):
        pack, issues = validate_pack_data(MINIMAL, "<test>")
        assert issues == []
        assert pack is not None

    def test_missing_version(self):
        data = {k: v for k, v in MINIMAL.items() if k != "version"}
        assert any("version" in m for m in self._issues(data))

    def test_bad_schema_version(self):
        assert any(
            "schema" in m for m in self._issues({**MINIMAL, "schema": 99})
        )

    def test_bad_name_slug(self):
        assert self._issues({**MINIMAL, "name": "Bad Name!"})

    def test_unknown_top_level_field(self):
        assert any(
            "unknown" in m.lower()
            for m in self._issues({**MINIMAL, "wat": []})
        )

    def test_dangling_kind_label(self):
        data = {
            **MINIMAL,
            "sinks": [{"name": "f", "kind": "undeclared", "args": [0]}],
        }
        assert any("dangling" in m for m in self._issues(data))

    def test_redeclaring_builtin_kind(self):
        data = {**MINIMAL, "kinds": [{"value": "xss"}]}
        assert self._issues(data)

    def test_negative_sink_arg(self):
        data = {
            **MINIMAL,
            "sinks": [{"name": "f", "kind": "minikind", "args": [-1]}],
        }
        assert self._issues(data)

    def test_empty_pack(self):
        data = {"schema": 1, "name": "empty", "version": "1"}
        assert any("no entries" in m.lower() for m in self._issues(data))

    def test_register_globals_must_be_boolean(self):
        assert any(
            "boolean" in m for m in self._issues({**MINIMAL, "register_globals": 1})
        )

    def test_instances_need_name_and_class(self):
        for instance in (
            {"name": "db"},
            {"class": "JDatabase"},
            {"name": "db", "class": 3},
        ):
            assert self._issues({**MINIMAL, "instances": [instance]})
        assert self._issues(
            {**MINIMAL, "instances": [{"name": "db", "class": "C", "var": "db"}]}
        )

    def test_malformed_json_never_raises_bare(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(PackError) as err:
            load_pack(str(path))
        incidents = err.value.to_incidents()
        assert incidents
        assert all(
            incident.stage is IncidentStage.RULES
            and incident.severity is IncidentSeverity.ERROR
            for incident in incidents
        )


class TestCompilation:
    def test_compiled_profile_merges_collisions(self):
        profile = resolve_profile("wordpress", tuple(builtin_pack_names()))
        # two packs sink file_get_contents: ssrf and traversal
        kinds = {
            sink.kind.value for sink in profile.function_sinks("file_get_contents")
        }
        assert kinds == {"ssrf", "traversal"}
        # basename was the builtin LFI filter; the traversal pack unions in
        spec = profile.function_filter("basename")
        assert {"lfi", "traversal"} <= {kind.value for kind in spec.kinds}

    def test_kind_universe_widens_only_with_pack_kinds(self):
        base = resolve_profile("wordpress")
        assert base.kind_universe() is ALL_KINDS
        packed = resolve_profile("wordpress", ("ssrf",))
        universe = packed.kind_universe()
        assert ALL_KINDS < universe
        assert VulnKind("ssrf") in universe

    def test_profile_name_records_packs(self):
        profile = resolve_profile("wordpress", ("ssrf",))
        assert profile.name == "wordpress+ssrf"
        assert [pack_id[0] for pack_id in profile.packs] == [
            "generic",
            "wordpress",
            "ssrf",
        ]

    def test_base_profiles_resolve_by_name(self):
        for name in ("wordpress", "drupal", "joomla", "generic", "pixy-2007"):
            profile = resolve_profile(name)
            assert profile.name == name
            assert [pack_id[0] for pack_id in profile.packs] == list(PROFILES[name])

    def test_instances_and_register_globals_compile(self, tmp_path):
        path = _write_pack(
            tmp_path,
            {
                "schema": 1,
                "name": "legacy",
                "version": "1.0.0",
                "register_globals": True,
                "instances": [{"name": "db", "class": "LegacyDb"}],
            },
        )
        profile = resolve_profile("generic", (path,))
        assert profile.register_globals
        assert profile.known_instance("db").class_name == "LegacyDb"
        assert not resolve_profile("generic").register_globals

    def test_star_expands_to_the_final_kind_universe(self):
        # no pack declares a kind: "*" is the ALL_KINDS object itself,
        # which TaintState.from_label's fast path recognizes by identity
        base = resolve_profile("wordpress")
        assert base.superglobal_source("_GET").kinds is ALL_KINDS
        assert base.function_filter("intval").kinds is ALL_KINDS
        # an ssrf pack widens every "*" entry of the profile's own packs
        packed = resolve_profile("wordpress", ("ssrf",))
        widened = packed.superglobal_source("_GET").kinds
        assert widened == packed.kind_universe() > ALL_KINDS
        assert packed.function_filter("intval").kinds is widened
        assert packed.function_filter("esc_html").kinds == frozenset({VulnKind.XSS})

    def test_unknown_base_profile_is_typed(self):
        with pytest.raises(PackError):
            resolve_profile("no-such-cms")

    def test_cms_profile_fingerprints_differ(self):
        fingerprints = {
            resolve_profile(name).fingerprint()
            for name in ("wordpress", "drupal", "joomla")
        }
        assert len(fingerprints) == 3

    def test_pack_free_fingerprint_is_unchanged_by_engine(self):
        # with no --rule-pack the compiled profile is memoized: the same
        # object, hence the same fingerprint, for every analyzer
        profile = resolve_profile("wordpress")
        assert resolve_profile("wordpress", ()) is profile
        assert PhpSafe().profile is profile
        # the packs' own entries compile to the same knowledge base
        recompiled = compile_packs(
            "wordpress",
            [
                load_pack(os.path.join(builtin_pack_dir(), "profiles", name + ".json"))
                for name in PROFILES["wordpress"]
            ],
        )
        assert recompiled.fingerprint() == profile.fingerprint()


class TestFingerprintInvalidation:
    V1 = {
        "schema": 1,
        "name": "inval",
        "version": "1.0.0",
        "kinds": [{"value": "invalkind"}],
        "sinks": [{"name": "readfile", "kind": "invalkind", "args": [0]}],
    }
    V2 = {
        "schema": 1,
        "name": "inval",
        "version": "1.0.0",
        "kinds": [{"value": "invalkind"}],
        "sinks": [
            {"name": "readfile", "kind": "invalkind", "args": [0]},
            {"name": "unlink", "kind": "invalkind", "args": [0]},
        ],
    }

    def test_pack_edit_shifts_profile_fingerprint_and_cache_keys(self, tmp_path):
        path = _write_pack(tmp_path, self.V1)
        before = resolve_profile("wordpress", (path,)).fingerprint()
        _write_pack(tmp_path, self.V2)
        after = resolve_profile("wordpress", (path,)).fingerprint()
        assert before != after
        # the per-tier cache keys embed the fingerprint, so one edited
        # sink misses the summary, IR, and disk tiers at once
        assert summary_key(before, "f", "d") != summary_key(after, "f", "d")
        assert ir_key(before, "a.php", "d") != ir_key(after, "a.php", "d")

    def test_summary_and_ir_fingerprints_shift(self, tmp_path):
        path = _write_pack(tmp_path, self.V1)
        options = PhpSafeOptions(rule_packs=(path,))
        tool_v1 = PhpSafe(options=options, use_process_cache=False)
        first = tool_v1.summary_fingerprint
        _write_pack(tmp_path, self.V2)
        tool_v2 = PhpSafe(options=options, use_process_cache=False)
        second = tool_v2.summary_fingerprint
        assert first != second

    def test_disk_cache_not_reused_across_pack_edits(self, tmp_path):
        pack_path = _write_pack(tmp_path, self.V1)
        cache_dir = str(tmp_path / "cache")
        options = PhpSafeOptions(rule_packs=(pack_path,))
        plugin = Plugin(
            name="p",
            files={
                "p.php": "<?php readfile($_GET['f']);\nunlink($_GET['g']);\n"
            },
        )
        first = PhpSafe(options=options, cache_dir=cache_dir).analyze(plugin)
        assert len(first.findings) == 1
        _write_pack(tmp_path, self.V2)
        second = PhpSafe(options=options, cache_dir=cache_dir).analyze(plugin)
        assert len(second.findings) == 2

    def test_service_fingerprint_tracks_pack_content(self, tmp_path):
        pack_path = _write_pack(tmp_path, self.V1)
        options = PhpSafeOptions(rule_packs=(pack_path,))
        spec = ToolSpec(name="phpsafe", options=options)
        before = spec_fingerprint(spec)
        # same path, same options object — only the file content changed;
        # a prior service result for the same plugin digest must not dedup
        _write_pack(tmp_path, self.V2)
        assert spec_fingerprint(spec) != before

    def test_service_fingerprint_tracks_baseline_profiles(self, monkeypatch):
        # RIPS and Pixy specs carry no options; their stored results must
        # still follow the packs their profiles compile from
        from repro.rules import compiler

        before = {
            name: spec_fingerprint(ToolSpec(name=name)) for name in ("rips", "pixy")
        }
        monkeypatch.setitem(compiler.PROFILES, "generic", ("pixy-2007",))
        monkeypatch.setitem(compiler.PROFILES, "pixy-2007", ("generic",))
        for name, fingerprint in before.items():
            assert spec_fingerprint(ToolSpec(name=name)) != fingerprint

    def test_service_fingerprint_differs_across_profiles(self):
        prints = {
            spec_fingerprint(
                ToolSpec(
                    name="phpsafe",
                    options=PhpSafeOptions(profile_name=name),
                )
            )
            for name in ("wordpress", "drupal", "joomla")
        }
        assert len(prints) == 3


class TestPackAnalysis:
    def _scan(self, source, packs=None):
        options = PhpSafeOptions(
            rule_packs=tuple(packs if packs is not None else builtin_pack_names())
        )
        tool = PhpSafe(options=options, use_process_cache=False)
        return tool.analyze(Plugin(name="t", files={"t.php": source}))

    def test_each_pack_detects_its_kind(self):
        cases = {
            "ssrf": "<?php wp_remote_get($_GET['u']);",
            "traversal": "<?php unlink($_GET['f']);",
            "deserialization": "<?php unserialize($_POST['b']);",
            "cmdi": "<?php mail('a@b.c', 's', 'm', '', $_GET['x']);",
        }
        for kind, source in cases.items():
            report = self._scan(source)
            assert {f.kind.value for f in report.findings} == {kind}, kind

    def test_propagation_narrows_through_user_function_summary(self):
        # add_query_arg propagates ssrf only: the summary of f carries
        # that narrowing to both call sites, so the echo stays clean
        source = (
            "<?php function f($u) { return add_query_arg('a', 'b', $u); }\n"
            "wp_remote_get(f($_GET['u']));\n"
            "echo f($_GET['u']);\n"
        )
        options = PhpSafeOptions(rule_packs=("ssrf",))
        plugin = Plugin(name="t", files={"t.php": source})
        report = PhpSafe(options=options, use_process_cache=False).analyze(plugin)
        assert {(f.kind.value, f.line) for f in report.findings} == {("ssrf", 2)}

    def test_pack_taint_flows_through_user_function_summaries(self):
        source = (
            "<?php function pick() { return $_GET['u']; }\n"
            "wp_remote_get(pick());\n"
        )
        report = self._scan(source, packs=("ssrf",))
        assert {f.kind.value for f in report.findings} == {"ssrf"}

    def test_builtin_kinds_unaffected_by_packs(self):
        source = "<?php echo $_GET['a'];"
        bare = PhpSafe(use_process_cache=False).analyze(
            Plugin(name="t", files={"t.php": source})
        )
        packed = self._scan(source)
        assert {f.kind.value for f in bare.findings} == {"xss"}
        assert {f.kind.value for f in packed.findings} == {"xss"}


class TestSarifFromRegistry:
    def test_pack_kind_rule_metadata_comes_from_the_pack(self):
        from repro.service.sarif import result_signatures, to_sarif

        options = PhpSafeOptions(rule_packs=("ssrf",))
        tool = PhpSafe(options=options, use_process_cache=False)
        plugin = Plugin(
            name="t", files={"t.php": "<?php wp_remote_get($_GET['u']);"}
        )
        report = tool.analyze(plugin)
        document = to_sarif(report)
        rules = document["runs"][0]["tool"]["driver"]["rules"]
        ssrf_rules = [rule for rule in rules if rule["id"] == "phpsafe/ssrf"]
        assert len(ssrf_rules) == 1
        assert ssrf_rules[0]["name"] == "ServerSideRequestForgery"
        assert "request" in ssrf_rules[0]["fullDescription"]["text"].lower()
        # partialFingerprints round-trip losslessly for pack kinds too
        signatures = result_signatures(document)
        assert signatures == {
            (f.plugin or report.plugin, f.kind.value, f.file, f.line, f.sink)
            for f in report.findings
        }

    def test_builtin_rules_use_registry_titles(self):
        from repro.service.sarif import to_sarif

        report = PhpSafe(use_process_cache=False).analyze(
            Plugin(name="t", files={"t.php": "<?php echo $_GET['a'];"})
        )
        rules = to_sarif(report)["runs"][0]["tool"]["driver"]["rules"]
        assert rules[0]["id"] == "phpsafe/xss"
        assert rules[0]["name"] == "CrossSiteScripting"


class TestRulesCli:
    def test_rules_list_ok(self, capsys):
        from repro.cli import main

        assert main(["rules", "list"]) == 0
        out = capsys.readouterr().out
        for name in builtin_pack_names():
            assert name in out

    def test_rules_validate_ok(self, capsys):
        from repro.cli import main

        assert main(["rules", "validate"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_rules_show(self, capsys):
        from repro.cli import main

        assert main(["rules", "show", "traversal"]) == 0
        out = capsys.readouterr().out
        assert "traversal" in out
        assert "basename" in out

    def test_rules_validate_invalid_pack_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "name": "bad",
                    "sinks": [{"name": "f", "kind": "nope"}],
                }
            ),
            encoding="utf-8",
        )
        assert main(["rules", "validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "dangling" in out

    def test_rules_validate_unparseable_has_no_traceback(self, tmp_path, capsys):
        from repro.cli import main

        broken = tmp_path / "broken.json"
        broken.write_text("{", encoding="utf-8")
        assert main(["rules", "validate", str(broken)]) == 1
        assert "Traceback" not in capsys.readouterr().out

    def test_scan_profile_and_rule_pack_flags(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "plugin"
        target.mkdir()
        (target / "a.php").write_text(
            "<?php readfile($_GET['f']);", encoding="utf-8"
        )
        code = main(
            ["scan", str(target), "--profile", "wordpress", "--rule-pack", "traversal"]
        )
        assert code == 1
        assert "TRAVERSAL" in capsys.readouterr().out
        # drupal profile has no traversal sink knowledge at all
        assert main(["scan", str(target), "--profile", "drupal"]) == 0

    def test_profile_flag_offers_phpsafe_profiles_only(self, tmp_path):
        from repro.cli import SCAN_PROFILES, main

        assert set(SCAN_PROFILES) < set(PROFILES)
        target = tmp_path / "p.php"
        target.write_text("<?php echo 1;", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["scan", str(target), "--profile", "pixy-2007"])
        assert main(["scan", str(target), "--profile", "generic"]) == 0

    def test_rule_pack_rejected_for_baseline_tools(self, tmp_path):
        from repro.cli import main

        target = tmp_path / "p.php"
        target.write_text("<?php echo 1;", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["scan", str(target), "--tool", "rips", "--rule-pack", "ssrf"])
