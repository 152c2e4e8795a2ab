"""Batch scanning subsystem: scheduler, isolation, telemetry, disk cache."""

import json
import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest

from repro.batch import (
    BatchOptions,
    BatchScanner,
    ToolSpec,
    scan_corpus,
)
from repro.batch.telemetry import SCHEMA
from repro.core import PhpSafe, PhpSafeOptions
from repro.core.results import ToolReport
from repro.core.review import to_json
from repro.core.tool import AnalyzerTool
from repro.corpus import build_corpus
from repro.evaluation.runner import run_tool
from repro.perf import FIELDS, derive
from repro.plugin import Plugin
from repro.service import AnalysisService


def small_plugins():
    return [
        Plugin(name="alpha", files={"index.php": "<?php echo $_GET['a'];"}),
        Plugin(
            name="beta",
            files={
                "index.php": "<?php echo $_GET['b'];",
                "lib.php": "<?php $x = 1;",
            },
        ),
        Plugin(
            name="gamma", files={"index.php": "<?php echo esc_html($_GET['c']);"}
        ),
    ]


def finding_keys(reports):
    return sorted((report.plugin, f.key) for report in reports for f in report.findings)


class CrashingTool(AnalyzerTool):
    """Dies hard (process exit, not an exception) on one plugin."""

    name = "crasher"

    def analyze(self, plugin: Plugin) -> ToolReport:
        if plugin.name == "beta":
            os._exit(13)
        report = ToolReport(tool=self.name, plugin=plugin.slug)
        report.files_analyzed = plugin.file_count
        return report


class LoggingCrasher(AnalyzerTool):
    """Appends each plugin it starts to the file named by
    ``$SCAN_LOG``, then dies hard on ``p1`` and takes a while on every
    other plugin, so a death overlaps the other worker's job."""

    name = "logger"

    def analyze(self, plugin: Plugin) -> ToolReport:
        with open(os.environ["SCAN_LOG"], "a") as log:
            log.write(plugin.name + "\n")
        if plugin.name == "p1":
            os._exit(13)
        time.sleep(0.2)
        return ToolReport(tool=self.name, plugin=plugin.slug)


class SleepyTool(AnalyzerTool):
    """Exceeds any reasonable deadline on one plugin."""

    name = "sleepy"

    def analyze(self, plugin: Plugin) -> ToolReport:
        if plugin.name == "beta":
            time.sleep(30)
        return ToolReport(tool=self.name, plugin=plugin.slug)


class TestParallelEqualsSerial:
    def test_small_batch(self):
        plugins = small_plugins()
        serial = [PhpSafe().analyze(plugin) for plugin in plugins]
        result = scan_corpus(plugins, jobs=2)
        assert finding_keys(result.reports) == finding_keys(serial)
        assert [report.plugin for report in result.reports] == [
            plugin.slug for plugin in plugins
        ]

    def test_corpus_smoke(self, corpus_2012):
        """Tier-1 smoke: the parallel path returns findings identical to
        the serial path over (a slice of) the generated corpus."""
        plugins = corpus_2012.plugins[:6]
        serial = [PhpSafe().analyze(plugin) for plugin in plugins]
        result = scan_corpus(plugins, jobs=2)
        assert finding_keys(result.reports) == finding_keys(serial)

    def test_jobs1_runs_same_pipeline(self):
        plugins = small_plugins()
        serial = scan_corpus(plugins, jobs=1)
        parallel = scan_corpus(plugins, jobs=2)
        assert finding_keys(serial.reports) == finding_keys(parallel.reports)
        assert serial.telemetry.jobs == 1


class RaisingTool(AnalyzerTool):
    name = "raiser"

    def analyze(self, plugin: Plugin) -> ToolReport:
        if plugin.name == "beta":
            raise RuntimeError("boom")
        return ToolReport(tool=self.name, plugin=plugin.slug)


#: every executor that runs a job: (scan path, isolation)
EXECUTORS = ("in-process", "batch-pool", "service-process", "service-thread")
#: a hard worker death is survivable only where the job has its own
#: process; the evaluation's serial run takes no deadline
JOB_CASES = [
    (executor, case)
    for executor in EXECUTORS
    for case in ("ok", "raising", "deadline")
] + [
    ("batch-pool", "dead"),
    ("service-process", "dead"),
    ("evaluation-serial", "ok"),
    ("evaluation-serial", "raising"),
]


def run_on(executor, tmp_path, plugins, spec=None, timeout=None):
    """Scan ``plugins`` on one executor.  Returns ``{slug: (outcome,
    report document)}`` and the executor's telemetry; the evaluation's
    serial run returns reports only, so its outcomes and telemetry are
    ``None``."""
    if executor == "evaluation-serial":
        reports, _seconds = run_tool((spec or ToolSpec()).build(), plugins)
        results = {
            report.plugin: (None, json.loads(to_json(report))) for report in reports
        }
        return results, None
    if executor in ("in-process", "batch-pool"):
        jobs = 1 if executor == "in-process" else 2
        result = scan_corpus(plugins, jobs=jobs, timeout=timeout, spec=spec)
        # no worker outlives the scan, whatever happened to its jobs
        assert multiprocessing.active_children() == []
        outcomes = [stats.outcome for stats in result.telemetry.plugins]
        results = {
            report.plugin: (outcome, json.loads(to_json(report)))
            for report, outcome in zip(result.reports, outcomes)
        }
        return results, result.telemetry
    service = AnalysisService(
        data_dir=str(tmp_path / "svc"),
        spec=spec,
        jobs=1,
        timeout=timeout,
        isolation=executor.split("-")[1],
    )
    service.start()
    try:
        ids = [
            service.submit({"name": plugin.name, "files": dict(plugin.files)})[1]["id"]
            for plugin in plugins
        ]
        deadline = time.time() + 60
        while time.time() < deadline:
            bodies = [service.job_status(job_id)[1] for job_id in ids]
            if all(body["state"] in ("done", "failed") for body in bodies):
                break
            time.sleep(0.02)
        else:
            raise AssertionError(f"jobs did not finish: {bodies}")
        results = {
            plugin.slug: (body["result"]["outcome"], body["result"]["report"])
            for plugin, body in zip(plugins, bodies)
        }
        return results, service.pool.telemetry
    finally:
        service.shutdown()


def plugin_failure(document):
    """The ``<plugin>`` failure of a failed job's report, checked fatal."""
    (failure,) = document["failures"]
    assert failure["file"] == "<plugin>" and not failure["completed"]
    assert any(i["severity"] == "fatal" for i in document["incidents"])
    return failure["reason"]


class TestJobExecutors:
    """One job routine behind every executor: the same outcome,
    failure report and telemetry for each case."""

    @pytest.mark.parametrize(
        "executor,case", JOB_CASES, ids=[f"{e}-{c}" for e, c in JOB_CASES]
    )
    def test_job(self, executor, case, tmp_path):
        plugins = small_plugins()
        spec, timeout = None, None
        if case == "raising":
            spec = ToolSpec(name="tests.test_batch:RaisingTool")
        elif case == "dead":
            spec = ToolSpec(name="tests.test_batch:CrashingTool")
        elif case == "deadline" and executor == "service-thread":
            # no SIGALRM off the main thread: the deadline degrades to
            # phpSAFE's per-unit wall clock, which only a long unit trips
            plugins[1] = Plugin(
                name="beta",
                files={"index.php": "<?php\n" + "$a = 1;\n" * 800},
            )
            timeout = 1e-9
        elif case == "deadline":
            spec, timeout = ToolSpec(name="tests.test_batch:SleepyTool"), 0.3
        results, telemetry = run_on(executor, tmp_path, plugins, spec, timeout)

        def reported(outcome):
            return outcome if telemetry is not None else None

        assert set(results) == {"alpha", "beta", "gamma"}
        outcome, beta = results["beta"]
        for slug in ("alpha", "gamma"):
            assert results[slug][0] == reported("ok")
            assert results[slug][1]["failures"] == []
        if case == "ok":
            assert outcome == reported("ok") and beta["failures"] == []
            assert [len(results[s][1]["findings"]) for s in sorted(results)] == [1, 1, 0]
        elif case == "raising":
            assert outcome == reported("error")
            assert "worker exception" in plugin_failure(beta)
            assert telemetry is None or telemetry.crashes == 1
        elif case == "deadline" and executor == "service-thread":
            assert outcome == "ok"
            assert any(
                "deadline" in incident["reason"] and incident["recovered"]
                for incident in beta["incidents"]
            )
        elif case == "deadline":
            assert outcome == "timeout"
            assert "deadline" in plugin_failure(beta)
            assert telemetry.timeouts == 1
        else:
            assert outcome == "crashed"
            assert "died" in plugin_failure(beta)
            # the innocent jobs completed on a fresh worker
            assert results["alpha"][1]["files_analyzed"] == 1
            assert results["gamma"][1]["files_analyzed"] == 1
            assert telemetry.crashes == 1
        if telemetry is not None:
            # one worker death is one restart
            assert telemetry.worker_restarts == (1 if case == "dead" else 0)


class TestWorkerDeath:
    def test_death_loses_only_its_own_job(self, tmp_path, monkeypatch):
        """A worker death costs the job that caused it and nothing
        else: every other plugin is analyzed exactly once."""
        log = tmp_path / "scans.log"
        monkeypatch.setenv("SCAN_LOG", str(log))
        plugins = [
            Plugin(name=f"p{index}", files={"index.php": "<?php 1;"})
            for index in range(6)
        ]
        spec = ToolSpec(name="tests.test_batch:LoggingCrasher")
        result = scan_corpus(plugins, jobs=2, spec=spec)
        outcomes = [stats.outcome for stats in result.telemetry.plugins]
        assert outcomes == ["ok", "crashed", "ok", "ok", "ok", "ok"]
        scanned = log.read_text().split()
        for plugin in plugins:
            if plugin.name != "p1":
                assert scanned.count(plugin.name) == 1, scanned
        assert result.telemetry.worker_restarts == 1
        assert multiprocessing.active_children() == []


class TestInProcessLeavesNoState:
    """``jobs=1`` runs the job routine in the caller's process, so it
    must leave that process as it found it."""

    def test_sigalrm_handler_restored(self):
        before = signal.getsignal(signal.SIGALRM)
        scan_corpus(small_plugins(), jobs=1)
        assert signal.getsignal(signal.SIGALRM) == before
        scan_corpus(small_plugins(), jobs=1, timeout=30)
        assert signal.getsignal(signal.SIGALRM) == before

    def test_no_module_global_holds_the_tool(self):
        scan_corpus(small_plugins(), jobs=1)
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name.startswith("repro.batch")
        ]
        for module in modules:
            held = [
                name
                for name, value in vars(module).items()
                if isinstance(value, AnalyzerTool)
            ]
            assert held == [], f"{module.__name__} keeps {held}"

    def test_runs_off_the_main_thread(self):
        outcome = {}

        def work():
            try:
                outcome["result"] = scan_corpus(small_plugins(), jobs=1)
            except Exception as error:  # reported by the assert below
                outcome["error"] = error

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(60)
        assert not thread.is_alive()
        assert "error" not in outcome, outcome.get("error")
        serial = [PhpSafe().analyze(plugin) for plugin in small_plugins()]
        assert finding_keys(outcome["result"].reports) == finding_keys(serial)


class TestPersistentCache:
    def test_warm_rerun_hit_rate(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        plugins = small_plugins()
        cold = scan_corpus(plugins, jobs=2, cache_dir=cache_dir)
        warm = scan_corpus(plugins, jobs=2, cache_dir=cache_dir)
        assert warm.telemetry.cache_hit_rate > 0.9
        assert warm.telemetry.cache["hits"] >= 4
        assert finding_keys(cold.reports) == finding_keys(warm.reports)

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        plugins = small_plugins()
        scan_corpus(plugins, jobs=1, cache_dir=cache_dir)
        warm = scan_corpus(plugins, jobs=2, cache_dir=cache_dir)
        assert warm.telemetry.cache_hit_rate > 0.9


def key_paths(value, prefix=""):
    """Dotted key paths of a JSON document in order (a list contributes
    its first item's paths under ``name[]``; ``perf`` counter names are
    not descended into)."""
    if isinstance(value, list):
        return key_paths(value[0], prefix + "[]") if value else []
    if not isinstance(value, dict) or prefix.endswith("perf"):
        return [prefix]
    paths = []
    for key, child in value.items():
        paths += key_paths(child, f"{prefix}.{key}" if prefix else key)
    return paths


#: the key tree of a batch ``--telemetry`` document
BATCH_TELEMETRY_KEYS = [
    "schema", "jobs", "wall_seconds", "analysis_seconds", "files", "loc",
    "findings", "files_per_second", "files_skipped",
    "cache.hits", "cache.misses", "cache.disk_hits", "cache.hit_rate",
    "cache.corrupt", "cache.summary_hits", "cache.summary_misses",
    "cache.summary_stale", "cache.summary_hit_rate",
    "perf",
    "rescan.roots_total", "rescan.roots_reused", "rescan.incremental_runs",
    "rescan.fallbacks",
    "incidents.worker_restarts", "incidents.timeouts", "incidents.crashes",
    "incidents.total", "incidents.recovered",
    "plugins[].plugin", "plugins[].seconds", "plugins[].files",
    "plugins[].loc", "plugins[].findings", "plugins[].failures",
    "plugins[].incidents", "plugins[].recovered", "plugins[].files_skipped",
    "plugins[].loc_skipped", "plugins[].files_per_second",
    "plugins[].cache.hits", "plugins[].cache.misses",
    "plugins[].cache.disk_hits", "plugins[].cache.corrupt",
    "plugins[].cache.summary_hits", "plugins[].cache.summary_misses",
    "plugins[].cache.summary_stale",
    "plugins[].perf", "plugins[].queued_seconds", "plugins[].outcome",
    "plugins[].rescan.roots_total", "plugins[].rescan.roots_reused",
    "plugins[].rescan.fallback",
    "process_cache.entries", "process_cache.max_entries",
    "process_cache.bytes", "process_cache.max_bytes",
    "process_cache.evictions", "process_cache.byte_evictions",
    "process_cache.oversized",
]


class TestTelemetry:
    def test_schema_and_write(self, tmp_path):
        plugins = small_plugins()
        result = scan_corpus(plugins, jobs=1)
        payload = result.telemetry.to_dict()
        assert payload["schema"] == SCHEMA
        for key in ("jobs", "wall_seconds", "files_per_second", "cache",
                    "incidents", "plugins"):
            assert key in payload
        assert len(payload["plugins"]) == len(plugins)
        assert payload["plugins"][0]["outcome"] == "ok"
        out = tmp_path / "telemetry.json"
        result.telemetry.write(str(out))
        assert json.loads(out.read_text())["schema"] == SCHEMA

    def test_document_key_tree_is_pinned(self, tmp_path):
        out = tmp_path / "telemetry.json"
        scan_corpus(small_plugins(), jobs=1).telemetry.write(str(out))
        assert key_paths(json.loads(out.read_text())) == BATCH_TELEMETRY_KEYS

    def test_run_rates_derive_from_summed_counters(self):
        """A run's rates are derived from its summed counters; a sum of
        the plugins' rates is not a rate."""
        plugins = [
            Plugin(name=f"rate{i}", files={"index.php": f"<?php echo $_GET['r{i}'];"})
            for i in range(3)
        ]
        document = scan_corpus(plugins, jobs=1).telemetry.to_dict()
        rows = [row["perf"] for row in document["plugins"]]
        summed = {name: sum(row.get(name, 0) for row in rows) for name in FIELDS}
        rates = derive(summed)
        assert {"tokens_per_second", "nodes_per_second"} <= set(rates)
        for name, value in rates.items():
            assert document["perf"][name] == pytest.approx(value, rel=1e-3)
        for name in ("tokens_per_second", "nodes_per_second"):
            assert document["perf"][name] < sum(row[name] for row in rows)

    def test_wall_time_and_throughput(self):
        result = scan_corpus(small_plugins(), jobs=1)
        assert result.telemetry.wall_seconds > 0
        assert result.telemetry.totals.files == 4
        assert result.telemetry.files_per_second > 0


class TestToolSpec:
    def test_from_tool_roundtrip(self):
        tool = PhpSafe()
        spec = ToolSpec.from_tool(tool)
        assert spec is not None
        rebuilt = spec.build()
        assert rebuilt.profile.name == tool.profile.name
        assert rebuilt.options == tool.options

    def test_from_tool_rejects_custom_profile(self):
        from repro.rules import resolve_profile

        custom = resolve_profile("generic")
        tool = PhpSafe(profile=custom)  # options still say wordpress
        assert ToolSpec.from_tool(tool) is None

    def test_baseline_specs(self):
        from repro.baselines import PixyLike, RipsLike

        assert ToolSpec.from_tool(RipsLike()).name == "rips"
        assert ToolSpec.from_tool(PixyLike()).name == "pixy"

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError):
            ToolSpec(name="nonesuch").build()


class TestMergedReport:
    def test_merged_report_keeps_cross_plugin_findings(self):
        plugins = [
            Plugin(name="one", files={"index.php": "<?php echo $_GET['x'];"}),
            Plugin(name="two", files={"index.php": "<?php echo $_GET['y'];"}),
        ]
        result = scan_corpus(plugins, jobs=1)
        merged = result.merged_report()
        # both plugins flag index.php:1 — provenance keeps them distinct
        assert len(merged.findings) == 2
        assert {finding.plugin for finding in merged.findings} == {"one", "two"}

    def test_empty_batch(self):
        result = BatchScanner(options=BatchOptions(jobs=1)).scan([])
        assert result.reports == []
        assert result.merged_report() is None
