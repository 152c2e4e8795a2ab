"""One finding record: every JSON form of a :class:`Finding` decodes
through :func:`finding_from_dict` back to the finding it was made from.

The forms are the JSONL stream, the incremental manifest, the review /
service report document, ``compare --json`` and the history archive.
Records written before they shared one encoder (a manifest record with
no ``plugin`` key, a seven-key history entry) still decode and match.
"""

import dataclasses
import functools
import json
from types import SimpleNamespace

from repro.cli import _load_targets, main
from repro.config.vulnerability import InputVector, VulnKind
from repro.core import ModelCache, PhpSafe
from repro.core.engine import UnitFootprint
from repro.core.incremental import MANIFEST_SCHEMA, build_manifest, carried_findings
from repro.core.results import (
    Finding,
    JsonlFindingSink,
    ToolReport,
    finding_from_dict,
    finding_signatures,
    finding_to_dict,
    read_finding_stream,
)
from repro.core.review import report_document
from repro.history import HistoryStore, ScanRecord, diff_scans
from repro.plugin import Plugin

#: every field set, none at its default
FULL = Finding(
    kind=VulnKind.XSS,
    file="w.php",
    line=5,
    sink="echo",
    variable="$t",
    vectors=(InputVector.GET, InputVector.POST),
    trace=("$_GET [GET] at w.php:4", "$t assigned at w.php:5"),
    via_oop=True,
    markup_context="attribute",
    plugin="wid",
)

#: a constructor stores GET input in a property a method echoes: the
#: finding phpSAFE reports has a trace, a vector, ``via_oop`` and a
#: markup context
WIDGET = """<?php
class Widget {
    public $title;
    function __construct() { $this->title = $_GET['t']; }
    function render() { $t = $this->title; echo '<p>' . $t . '</p>'; }
}
$w = new Widget(); $w->render();
"""


def full_report():
    return ToolReport(tool="phpSAFE", plugin="wid", findings=[FULL])


def json_round_trip(document):
    return json.loads(json.dumps(document))


class TestEveryFormDecodes:
    def test_stream_record(self, tmp_path):
        path = str(tmp_path / "findings.jsonl")
        with JsonlFindingSink(path, tool="phpSAFE") as sink:
            sink.write_report(full_report())
        (record,) = [
            r for r in read_finding_stream(path) if r["record"] == "finding"
        ]
        assert finding_from_dict(record) == FULL

    def test_manifest_record(self):
        engine = SimpleNamespace(
            findings_by_unit=lambda: {"w.php": [FULL]},
            footprints={"w.php": UnitFootprint()},
            state_summary_roots={},
            aborted=False,
        )
        manifest = json_round_trip(build_manifest("fp", {"w.php": "d"}, engine))
        (record,) = manifest["roots"]["w.php"]["findings"]
        assert finding_from_dict(record) == FULL
        assert carried_findings(manifest, frozenset({"w.php"})) == [FULL]

    def test_report_document_entry(self):
        document = json_round_trip(report_document(full_report()))
        (entry,) = document["findings"]
        assert entry.pop("fix_hint")
        assert finding_from_dict(entry) == FULL

    def test_history_entry(self):
        scan = ScanRecord.from_report(full_report(), "1.0", "2026-01-01")
        (entry,) = json_round_trip(list(scan.findings))
        assert finding_from_dict(entry) == FULL

    def test_compare_json_entry(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        for name in ("wid", "wid2"):
            (corpus / name).mkdir(parents=True)
            (corpus / name / "w.php").write_text(WIDGET)
        assert main(["compare", str(corpus), "--json"]) == 0
        tools = json.loads(capsys.readouterr().out)["tools"]
        (phpsafe,) = [entry for entry in tools if entry["tool"] == "phpSAFE"]
        decoded = [finding_from_dict(entry) for entry in phpsafe["findings"]]
        reports = [PhpSafe().analyze(p) for p in _load_targets(str(corpus))]
        expected = functools.reduce(ToolReport.merged, reports).findings
        assert len(decoded) == len(expected) == 2
        assert set(decoded) == set(expected)
        for finding in decoded:
            assert finding.plugin and finding.trace and finding.vectors
            assert finding.via_oop and finding.markup_context == "html"


class TestOldRecordsDecode:
    def test_manifest_record_without_plugin(self):
        record = {
            "kind": "xss",
            "file": "w.php",
            "line": 5,
            "sink": "echo",
            "variable": "$t",
            "vectors": ["GET", "POST"],
            "trace": list(FULL.trace),
            "via_oop": True,
            "markup_context": "attribute",
        }
        manifest = {"schema": MANIFEST_SCHEMA, "roots": {"w.php": {"findings": [record]}}}
        assert carried_findings(manifest, frozenset({"w.php"})) == [
            dataclasses.replace(FULL, plugin="")
        ]

    def test_manifest_without_plugin_keys_still_plans_rescans(self):
        plugin = Plugin(
            name="tri",
            files={
                "a.php": "<?php\necho $_GET['a'];\n",
                "b.php": "<?php\necho $_GET['b'];\n",
                "w.php": WIDGET,
            },
        )
        tool = PhpSafe(cache=ModelCache())
        _report, manifest, _ = tool.rescan(plugin)
        assert manifest["schema"] == MANIFEST_SCHEMA == "repro.incremental.manifest/v2"
        old = json_round_trip(manifest)
        for root in old["roots"].values():
            for record in root["findings"]:
                del record["plugin"]
        files = dict(plugin.files)
        files["b.php"] += "echo $_COOKIE['extra'];\n"
        updated = dataclasses.replace(plugin, files=files)
        from_old, _, old_stats = tool.rescan(updated, old)
        from_new, _, _ = tool.rescan(updated, manifest)
        assert old_stats.incremental and old_stats.roots_reused == 2
        assert from_old.findings == from_new.findings
        assert finding_signatures([from_old]) == finding_signatures(
            [PhpSafe().analyze(updated)]
        )

    def test_seven_key_history_entry_loads_and_persists(self, tmp_path):
        legacy = {
            "kind": "xss",
            "file": "w.php",
            "line": 5,
            "sink": "echo",
            "variable": "$t",
            "vectors": ["GET", "POST"],
            "via_oop": True,
        }
        path = str(tmp_path / "history.json")
        archive = {
            "wid": [
                {
                    "plugin": "wid",
                    "version": "1.0",
                    "tool": "phpSAFE",
                    "scanned_at": "2025-01-01",
                    "loc": 7,
                    "files": 1,
                    "findings": [legacy],
                    "failed_files": [],
                }
            ]
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(archive, handle)
        store = HistoryStore(path)
        older = store.latest("wid")
        assert finding_from_dict(older.findings[0]) == dataclasses.replace(
            FULL, trace=(), markup_context="", plugin=""
        )
        newer = store.record(full_report(), version="1.1", scanned_at="2026-01-01")
        diff = diff_scans(older, newer)
        assert len(diff.persistent) == 1 and not diff.introduced and not diff.fixed
        store.save()
        reloaded = HistoryStore(path).diff_latest("wid")
        assert reloaded.persistent == [finding_to_dict(FULL)]
        assert not reloaded.introduced and not reloaded.fixed
