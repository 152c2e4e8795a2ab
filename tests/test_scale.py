"""Tests for memory-bounded streaming evaluation and the stress tiers.

Covers the byte-bounded cache (whichever cap trips first), the
O(n) report-merge index, the process-cache occupancy telemetry, the
deterministic stress-corpus generator, the JSONL findings stream, and
streaming-vs-accumulating finding parity.
"""

import json

import pytest

from repro.batch import DiskModelCache
from repro.batch.streaming import DEFAULT_MAX_CACHE_BYTES, stream_scan
from repro.core import ModelCache, PhpSafe
from repro.core.cache import (
    MEMORY_TIER_MAX_BYTES,
    approx_object_bytes,
    content_key,
)
from repro.core.model import PluginModel
from repro.core.phpsafe import PhpSafeOptions, process_cache_occupancy
from repro.core.results import (
    Finding,
    JsonlFindingSink,
    ToolReport,
    finding_from_dict,
    finding_signatures,
    finding_to_dict,
    read_finding_stream,
    stream_signatures,
)
from repro.config.vulnerability import InputVector, VulnKind
from repro.corpus.generator import build_corpus
from repro.corpus.stress import (
    TIERS,
    StressTier,
    get_tier,
    iter_stress_plugins,
    stress_options,
    tier_summary,
)
from repro.perf import scoped
from repro.plugin import Plugin

SOURCE = "<?php echo $_GET['q'];"


def _php_file(lines: int, uid: str) -> str:
    body = "\n".join(f"$x{uid}_{i} = {i};" for i in range(lines))
    return f"<?php\n{body}\n"


# ---------------------------------------------------------------------------
# Satellite 1: byte-bounded ModelCache / DiskModelCache
# ---------------------------------------------------------------------------


class TestByteBoundedCache:
    def test_byte_cap_evicts_before_entry_cap(self):
        # entries are far under max_entries, but their estimated bytes
        # exceed max_bytes — the byte cap must drive eviction
        cache = ModelCache(max_entries=1000, max_bytes=200_000)
        for index in range(10):
            plugin = Plugin(
                name="p", files={f"f{index}.php": _php_file(60, str(index))}
            )
            PluginModel.build(plugin, cache=cache)
        assert len(cache) < 10
        assert cache.current_bytes <= 200_000
        assert cache.stats.byte_evictions > 0
        assert cache.stats.evictions >= cache.stats.byte_evictions

    def test_oversized_entry_never_retained(self):
        # a single entry bigger than the whole byte budget must not be
        # pinned in memory, and must not evict everything else to fit
        cache = ModelCache(max_entries=1000, max_bytes=100_000)
        small = Plugin(name="p", files={"small.php": SOURCE})
        PluginModel.build(small, cache=cache)
        resident = len(cache)
        big = Plugin(name="p", files={"big.php": _php_file(2000, "big")})
        PluginModel.build(big, cache=cache)
        assert cache.stats.oversized == 1
        assert len(cache) == resident  # the small entry survived
        assert cache.current_bytes <= 100_000
        # and the oversized model is simply recomputed on demand
        model = PluginModel.build(big, cache=cache)
        assert "big.php" in model.files

    def test_oversized_entry_still_persists_on_disk(self, tmp_path):
        cache = DiskModelCache(str(tmp_path), max_bytes=100_000)
        big = Plugin(name="p", files={"big.php": _php_file(2000, "big")})
        PluginModel.build(big, cache=cache)
        assert cache.stats.oversized >= 1
        assert len(cache) == 0
        assert cache.disk_len() == 1  # served persistently, never pinned
        with scoped() as perf:
            PluginModel.build(big, cache=cache)
        assert perf.delta["cache_disk_hits"] == 1

    def test_byte_accounting_survives_eviction_and_refresh(self):
        cache = ModelCache(max_entries=3, max_bytes=None)
        plugins = [
            Plugin(name="p", files={f"f{i}.php": _php_file(10, str(i))})
            for i in range(5)
        ]
        for plugin in plugins:
            PluginModel.build(plugin, cache=cache)
        for plugin in plugins:  # refresh path re-estimates sizes
            PluginModel.build(plugin, cache=cache)
        assert cache.current_bytes == sum(cache._sizes.values())
        cache.clear()
        assert cache.current_bytes == 0 and len(cache) == 0

    def test_spill_releases_bytes(self):
        cache = ModelCache(max_entries=100)
        plugin = Plugin(
            name="p",
            files={"a.php": _php_file(20, "a"), "b.php": _php_file(20, "b")},
        )
        PluginModel.build(plugin, cache=cache)
        before = cache.current_bytes
        assert before > 0
        keys = [
            content_key(path, source) for path, source in plugin.iter_files()
        ]
        released = cache.spill(keys)
        assert released == before
        assert cache.current_bytes == 0
        assert cache.spill(keys) == 0  # idempotent

    def test_occupancy_shape(self):
        cache = ModelCache(max_entries=7, max_bytes=1234)
        occupancy = cache.occupancy()
        assert occupancy == {
            "entries": 0,
            "max_entries": 7,
            "bytes": 0,
            "max_bytes": 1234,
            "evictions": 0,
            "byte_evictions": 0,
            "oversized": 0,
        }

    def test_approx_sizes_scale_with_content(self):
        plugin = Plugin(
            name="p",
            files={"a.php": _php_file(10, "a"), "b.php": _php_file(500, "b")},
        )
        model = PluginModel.build(plugin)
        small = approx_object_bytes(model.files["a.php"])
        large = approx_object_bytes(model.files["b.php"])
        assert large > 10 * small


# ---------------------------------------------------------------------------
# Satellite 2: O(n) merge after direct findings mutation
# ---------------------------------------------------------------------------


class TestMergeIndexStaleness:
    @staticmethod
    def _finding(index: int, plugin: str = "") -> Finding:
        return Finding(
            kind=VulnKind.XSS,
            file=f"f{index}.php",
            line=index + 1,
            sink="echo",
            plugin=plugin,
        )

    def test_direct_mutation_still_dedupes(self):
        report = ToolReport(tool="t", plugin="p")
        report.findings.append(self._finding(0))
        assert report.add_finding(self._finding(0)) is False
        assert report.add_finding(self._finding(1)) is True
        assert len(report.findings) == 2

    def test_10k_merge_rebuilds_index_once(self):
        # the quadratic case: findings that already contain dedup-key
        # duplicates make len(_seen_keys) != len(findings) forever, so
        # the pre-fix staleness check rebuilt the set on *every* insert
        report = ToolReport(tool="t", plugin="p")
        report.findings.append(self._finding(0))
        report.findings.append(self._finding(0))  # direct duplicate
        for index in range(10_000):
            report.add_finding(self._finding(index + 1))
        assert len(report.findings) == 10_002
        assert report._index_rebuilds == 1

    def test_10k_two_report_merge_is_linear(self):
        left = ToolReport(tool="t", plugin="left")
        right = ToolReport(tool="t", plugin="right")
        # direct bulk assignment, the documented fast-path batch usage
        left.findings = [self._finding(i, "left") for i in range(5_000)]
        right.findings = [self._finding(i, "right") for i in range(5_000)]
        merged = left.merged(right)
        assert len(merged.findings) == 10_000
        # one rebuild per staleness event, not one per insert
        assert merged._index_rebuilds <= 1


# ---------------------------------------------------------------------------
# Satellite 3: process-cache byte cap + occupancy telemetry
# ---------------------------------------------------------------------------


class TestProcessCacheOccupancy:
    def test_occupancy_without_forcing_creation(self, monkeypatch):
        import repro.core.phpsafe as phpsafe_module

        monkeypatch.setattr(phpsafe_module, "_PROCESS_CACHE", None)
        occupancy = process_cache_occupancy()
        assert occupancy["entries"] == 0 and occupancy["bytes"] == 0
        assert occupancy["max_bytes"] == MEMORY_TIER_MAX_BYTES
        assert phpsafe_module._PROCESS_CACHE is None  # not forced alive

    def test_process_cache_is_byte_capped(self, monkeypatch):
        import repro.core.phpsafe as phpsafe_module

        monkeypatch.setattr(phpsafe_module, "_PROCESS_CACHE", None)
        cache = phpsafe_module.process_cache()
        assert cache.max_bytes == MEMORY_TIER_MAX_BYTES
        PhpSafe().analyze(Plugin(name="p", files={"a.php": SOURCE}))
        occupancy = process_cache_occupancy()
        assert occupancy["entries"] > 0 and occupancy["bytes"] > 0

    def test_telemetry_document_reports_process_cache(self):
        from repro.batch.telemetry import SCHEMA, ScanTelemetry

        assert SCHEMA == "repro.batch.telemetry/v9"
        document = ScanTelemetry().to_dict()
        assert document["schema"] == SCHEMA
        assert set(document["process_cache"]) == {
            "entries",
            "max_entries",
            "bytes",
            "max_bytes",
            "evictions",
            "byte_evictions",
            "oversized",
        }

    def test_telemetry_honours_explicit_occupancy(self):
        from repro.batch.telemetry import ScanTelemetry

        telemetry = ScanTelemetry(process_cache={"entries": 42})
        assert telemetry.to_dict()["process_cache"] == {"entries": 42}


# ---------------------------------------------------------------------------
# Satellite 4a: stress-corpus generator
# ---------------------------------------------------------------------------

#: a miniature tier so generator tests stay fast; same shapes as the
#: real catalog
MINI = StressTier(
    name="scale-mini",
    tiny_plugins=3,
    tiny_loc=60,
    chain_plugins=2,
    chain_depth=5,
    chain_loc=30,
    huge_plugins=1,
    huge_loc=400,
    streaming_rss_mb=256,
)


class TestStressCorpus:
    def test_catalog_tiers(self):
        assert set(TIERS) == {"scale-smoke", "scale-quarter", "scale-1m"}
        assert TIERS["scale-1m"].target_loc >= 1_000_000
        for tier in TIERS.values():
            assert tier.expected_findings > 0
            assert tier.streaming_rss_mb > 0
        with pytest.raises(KeyError):
            get_tier("scale-nope")

    def test_deterministic_under_fixed_seed(self):
        first = {
            plugin.name: dict(plugin.files)
            for plugin in iter_stress_plugins(MINI, seed=7)
        }
        second = {
            plugin.name: dict(plugin.files)
            for plugin in iter_stress_plugins(MINI, seed=7)
        }
        assert first == second  # byte-identical

    def test_seed_changes_noise_not_flows(self):
        base = list(iter_stress_plugins(MINI, seed=0))
        other = list(iter_stress_plugins(MINI, seed=1))
        assert [p.name for p in base] == [p.name for p in other]
        tool = PhpSafe(options=stress_options(), use_process_cache=False)
        for left, right in zip(base, other):
            left_report = tool.analyze(left)
            right_report = tool.analyze(right)
            assert finding_signatures([left_report]) == finding_signatures(
                [right_report]
            )

    def test_shape_invariants(self):
        plugins = list(iter_stress_plugins(MINI))
        assert len(plugins) == MINI.plugin_count
        tiny = [p for p in plugins if p.name.startswith("stress-tiny")]
        chains = [p for p in plugins if p.name.startswith("stress-chain")]
        huge = [p for p in plugins if p.name.startswith("stress-huge")]
        assert (len(tiny), len(chains), len(huge)) == (3, 2, 1)
        for plugin in tiny:
            assert plugin.file_count == 1
            assert plugin.loc >= MINI.tiny_loc
        for plugin in chains:
            # main file plus one file per chain step
            assert plugin.file_count == MINI.chain_depth + 1
            steps = [p for p in plugin.files if p.startswith("steps/")]
            assert len(steps) == MINI.chain_depth
        for plugin in huge:
            assert plugin.file_count == 1
            assert plugin.loc >= MINI.huge_loc

    def test_generated_loc_tracks_target(self):
        summary = tier_summary(MINI)
        assert summary["plugins"] == MINI.plugin_count
        # padding overshoots by at most one fragment per file
        assert MINI.target_loc <= summary["loc"] <= MINI.target_loc * 1.2

    def test_expected_findings_reached(self):
        tool = PhpSafe(options=stress_options(), use_process_cache=False)
        found = sum(
            len(tool.analyze(plugin).findings)
            for plugin in iter_stress_plugins(MINI)
        )
        assert found == MINI.expected_findings


# ---------------------------------------------------------------------------
# Satellite 4b: JSONL findings stream
# ---------------------------------------------------------------------------


class TestFindingStream:
    def _report(self) -> ToolReport:
        report = ToolReport(tool="phpSAFE", plugin="demo@1.0")
        report.add_finding(
            Finding(
                kind=VulnKind.XSS,
                file="a.php",
                line=3,
                sink="echo",
                variable="$x",
                vectors=(InputVector.GET,),
                trace=("$_GET['q'] -> $x", "echo $x"),
                via_oop=True,
                markup_context="html",
            )
        )
        report.files_analyzed = 2
        report.loc_analyzed = 40
        report.seconds = 0.25
        return report

    def test_finding_roundtrip(self):
        finding = self._report().findings[0]
        assert finding_from_dict(finding_to_dict(finding)) == finding

    def test_sink_then_read_stream(self, tmp_path):
        path = str(tmp_path / "findings.jsonl")
        report = self._report()
        with JsonlFindingSink(path, tool="phpSAFE") as sink:
            assert sink.write_report(report) == 1
        header, finding, summary = read_finding_stream(path)
        assert [header["record"], finding["record"], summary["record"]] == [
            "header", "finding", "plugin",
        ]
        assert summary["loc_analyzed"] == 40
        assert finding_from_dict(finding).trace == report.findings[0].trace
        assert stream_signatures(path) == finding_signatures([report])

    def test_stream_stamps_plugin(self, tmp_path):
        # single-plugin reports carry unstamped findings; the sink must
        # stamp them like ToolReport.merged does, so signatures agree
        path = str(tmp_path / "findings.jsonl")
        report = ToolReport(tool="t", plugin="owner@1")
        report.add_finding(
            Finding(kind=VulnKind.SQLI, file="b.php", line=9, sink="query")
        )
        with JsonlFindingSink(path) as sink:
            sink.write_report(report)
        (signature,) = stream_signatures(path)
        assert signature[0] == "owner@1"


# ---------------------------------------------------------------------------
# Tentpole: streaming scan + parity
# ---------------------------------------------------------------------------


class TestStreamingScan:
    def test_stream_scan_mini_tier(self, tmp_path):
        sink = str(tmp_path / "findings.jsonl")
        summary = stream_scan(
            iter_stress_plugins(MINI),
            sink,
            options=stress_options(),
        )
        assert summary.plugins == MINI.plugin_count
        assert summary.findings == MINI.expected_findings
        assert summary.findings == len(stream_signatures(sink))
        assert summary.loc > 0 and summary.seconds > 0
        assert summary.spilled_bytes > 0  # eager per-plugin spill ran
        assert summary.peak_cache_bytes <= DEFAULT_MAX_CACHE_BYTES
        payload = json.loads(json.dumps(summary.to_dict()))
        assert payload["findings"] == MINI.expected_findings

    def test_stream_cache_stays_under_byte_cap(self, tmp_path):
        cap = 1_000_000
        summary = stream_scan(
            iter_stress_plugins(MINI),
            str(tmp_path / "findings.jsonl"),
            options=stress_options(),
            max_cache_bytes=cap,
        )
        assert summary.peak_cache_bytes <= cap
        assert summary.findings == MINI.expected_findings  # unaffected

    def test_file_models_carry_no_tokens_streaming_matches(self, tmp_path):
        plugins = list(iter_stress_plugins(MINI))[:3]
        cache = ModelCache()
        for _round in range(2):  # parsed, then served from the cache
            for plugin in plugins:
                model = PluginModel.build(plugin, cache=cache)
                assert model.files
                assert not any(hasattr(fm, "tokens") for fm in model.files.values())
        tool = PhpSafe(options=stress_options(), use_process_cache=False)
        accumulated = finding_signatures([tool.analyze(p) for p in plugins])
        sink = str(tmp_path / "stream.jsonl")
        stream_scan(iter(plugins), sink, options=stress_options())
        assert stream_signatures(sink) == accumulated

    def test_streaming_accumulating_parity_paper_corpus(self, tmp_path):
        # fast tier-1 parity on the paper corpus; the scale-smoke CI job
        # checks the streamed signatures at scale 0.25 against the golden
        # files, which tests/test_golden.py pins accumulating runs to
        corpus = build_corpus("2012", scale=0.05)
        tool = PhpSafe(options=PhpSafeOptions(), use_process_cache=False)
        accumulated = finding_signatures(
            [tool.analyze(plugin) for plugin in corpus.plugins]
        )
        sink = str(tmp_path / "stream.jsonl")
        stream_scan(iter(corpus.plugins), sink)
        assert stream_signatures(sink) == accumulated
        assert accumulated  # the corpus seeds real findings

    def test_streaming_parity_on_stress_shapes(self, tmp_path):
        plugins = list(iter_stress_plugins(MINI))
        tool = PhpSafe(options=stress_options(), use_process_cache=False)
        accumulated = finding_signatures(
            [tool.analyze(plugin) for plugin in plugins]
        )
        sink = str(tmp_path / "stream.jsonl")
        stream_scan(iter(plugins), sink, options=stress_options())
        assert stream_signatures(sink) == accumulated


    def test_raising_plugin_is_a_failure_record(self, tmp_path, monkeypatch):
        plugins = list(iter_stress_plugins(MINI))[:3]
        analyze = PhpSafe.analyze

        def raising_on_middle(tool, plugin):
            if plugin.slug == plugins[1].slug:
                raise RuntimeError("boom")
            return analyze(tool, plugin)

        monkeypatch.setattr(PhpSafe, "analyze", raising_on_middle)
        sink = str(tmp_path / "findings.jsonl")
        summary = stream_scan(
            iter(plugins), sink, options=stress_options()
        )
        records = [
            record for record in read_finding_stream(sink)
            if record["record"] == "plugin"
        ]
        assert [record["plugin"] for record in records] == [p.slug for p in plugins]
        failed, last = records[1], records[2]
        assert failed["failures"] == 1 and failed["files_analyzed"] == 0
        assert last["failures"] == 0 and last["files_analyzed"] > 0
        assert summary.plugins == 3 and summary.failures == 1


class TestBenchScaleGate:
    def test_check_scale_passes_on_good_document(self):
        from repro.benchscale import check_scale

        data = {
            "tiers": {
                "scale-smoke": {
                    "rss_bound_mb": 512,
                    "expected_findings": 240,
                    "streaming": {"peak_rss_mb": 200.0, "findings": 240},
                    "accumulating": {"peak_rss_mb": 600.0, "findings": 240},
                    "streaming_within_bound": True,
                    "accumulating_within_bound": False,
                }
            },
        }
        assert check_scale(data) == []

    def test_check_scale_fails_on_bound_breach_and_divergence(self):
        from repro.benchscale import check_scale

        data = {
            "tiers": {
                "scale-smoke": {
                    "rss_bound_mb": 512,
                    "expected_findings": 240,
                    "streaming": {"peak_rss_mb": 700.0, "findings": 239},
                    "accumulating": {"peak_rss_mb": 600.0, "findings": 240},
                    "streaming_within_bound": False,
                    "accumulating_within_bound": False,
                }
            },
        }
        failures = check_scale(data)
        assert len(failures) == 4
        assert check_scale({}) == ["no tiers benched"]

    def test_committed_bench_file_passes_the_gate(self):
        import os

        from repro.benchscale import check_scale

        path = os.path.join(os.path.dirname(__file__), "..", "BENCH_scale.json")
        with open(path, "r", encoding="utf-8") as handle:
            assert check_scale(json.load(handle)) == []

    def test_cli_accepts_bench_scale_and_stream_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["scan", "x", "--stream", "out.jsonl", "--max-cache-bytes", "1000"]
        )
        assert args.stream == "out.jsonl" and args.max_cache_bytes == 1000
