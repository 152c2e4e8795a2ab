"""Tests for the memory tier behind one-file rescans.

Covers token-free file models (including models pickled by stores
that still kept tokens), hashing each source once per rescan with
byte-identical cache keys, eviction of the versions an edit
supersedes, and a byte-bounded disk-cache memory tier that serves a
round-robin edit session without touching disk.
"""

import dataclasses

from repro.batch import DiskModelCache
from repro.core import PhpSafe
from repro.core import cache as cache_module
from repro.core import incremental as incremental_module
from repro.core import model as model_module
from repro.core.cache import MEMORY_TIER_MAX_BYTES, content_key, source_digest
from repro.core.model import PluginModel
from repro.core.results import finding_signatures
from repro.perf import scoped
from repro.php.lexer import Lexer
from repro.plugin import Plugin

LIB = (
    "<?php\n"
    "function lib_clean($v) { return esc_html($v); }\n"
    "function lib_raw($v) { return $v; }\n"
)


def edited_root(index: int) -> str:
    # every edit has the same length and line count, so a flat memory
    # tier means exactly equal byte estimates, not merely similar ones
    return (
        "<?php\n"
        "function page_render($v) { echo lib_raw($v); }\n"
        f"page_render($_GET['edit{index % 10}']);\n"
        f"echo lib_clean($_POST['other{index % 10}']);\n"
    )


def with_root(plugin: Plugin, index: int) -> Plugin:
    files = dict(plugin.files)
    files["page.php"] = edited_root(index)
    return dataclasses.replace(plugin, files=files)


def small_plugin(name: str = "edits") -> Plugin:
    return Plugin(name=name, files={"lib.php": LIB, "page.php": edited_root(0)})


def many_functions_plugin(name: str, functions: int) -> Plugin:
    body = "\n".join(
        f"function {name}_f{i}($a) {{ return $a . '{i}'; }}" for i in range(functions)
    )
    return Plugin(
        name=name,
        files={"funcs.php": f"<?php\n{body}\n", "page.php": edited_root(0)},
    )


class TestTokenFreeModels:
    def test_old_format_model_drops_tokens_on_load(self, tmp_path):
        plugin = small_plugin()
        cache_dir = str(tmp_path / "cache")
        cold = PhpSafe(use_process_cache=False).analyze(plugin)
        # write an old-format store: every persisted FileModel keeps its
        # token list, as models pickled before tokens were dropped did
        writer = DiskModelCache(cache_dir)
        fresh = PluginModel.build(plugin, recover=True)
        for path, file_model in fresh.files.items():
            file_model.tokens = Lexer(file_model.source, path).tokenize()
            writer.store(path, file_model.source, file_model, "recover")
        reader = DiskModelCache(cache_dir)
        with scoped() as perf:
            loaded = PluginModel.build(plugin, cache=reader, recover=True)
        assert perf.delta["cache_disk_hits"] == len(plugin.files)
        assert not any(hasattr(fm, "tokens") for fm in loaded.files.values())
        report = PhpSafe(cache=DiskModelCache(cache_dir)).analyze(plugin)
        assert finding_signatures([report]) == finding_signatures([cold])


class TestHashOnce:
    def test_model_key_from_known_digest_is_byte_identical(self):
        source = edited_root(3)
        digest = source_digest(source)
        for variant in ("", "recover"):
            assert content_key("page.php", source, variant, digest) == content_key(
                "page.php", source, variant
            )

    def test_rescan_hashes_each_file_once(self, monkeypatch):
        calls = []

        def counting(source):
            calls.append(source)
            return source_digest(source)

        for module in (cache_module, model_module, incremental_module):
            monkeypatch.setattr(module, "source_digest", counting)
        plugin = small_plugin()
        tool = PhpSafe(cache=cache_module.ModelCache())
        _report, manifest, _stats = tool.rescan(plugin)
        assert len(calls) == len(plugin.files)
        del calls[:]
        tool.rescan(with_root(plugin, 1), manifest)
        assert len(calls) == len(plugin.files)


class TestSupersededVersions:
    def test_repeated_edits_keep_memory_tier_flat(self, tmp_path):
        cache = DiskModelCache(str(tmp_path / "cache"))
        tool = PhpSafe(cache=cache)
        plugin = small_plugin()
        _report, manifest, _stats = tool.rescan(plugin)
        sizes = []
        for index in range(1, 7):
            plugin = with_root(plugin, index)
            report, manifest, stats = tool.rescan(plugin, manifest)
            assert stats.incremental and stats.changed_files == ["page.php"]
            cold = PhpSafe(use_process_cache=False).analyze(plugin)
            assert finding_signatures([report]) == finding_signatures([cold])
            sizes.append((len(cache), cache.current_bytes))
        assert len(set(sizes)) == 1, sizes
        # the superseded versions left memory, not the disk tier
        assert cache.disk_len() > len(cache)

    def test_digest_still_in_use_is_kept(self, tmp_path):
        cache = DiskModelCache(str(tmp_path / "cache"))
        tool = PhpSafe(cache=cache)
        # twin.php shares page.php's content, so the digest the edit
        # supersedes at page.php is still live at twin.php
        plugin = small_plugin()
        files = dict(plugin.files)
        files["twin.php"] = edited_root(0)
        plugin = dataclasses.replace(plugin, files=files)
        with scoped() as perf:
            _report, manifest, _stats = tool.rescan(plugin)
            _report, _manifest, stats = tool.rescan(with_root(plugin, 1), manifest)
        assert stats.changed_files == ["page.php"]
        assert content_key("twin.php", edited_root(0), "recover") in cache._slots
        assert perf.delta["cache_disk_hits"] == 0

    def test_round_robin_session_never_reads_disk(self, tmp_path):
        cache = DiskModelCache(str(tmp_path / "cache"))
        assert cache.max_entries is None
        assert cache.max_bytes == MEMORY_TIER_MAX_BYTES
        tool = PhpSafe(cache=cache)
        plugins = {}
        with scoped() as setup:
            for number in range(5):
                plugin = many_functions_plugin(f"p{number}", 900)
                _report, manifest, _stats = tool.rescan(plugin)
                plugins[plugin.name] = (plugin, manifest)
        # more live artifacts than the old 4096-entry memory tier held
        assert len(cache) > 4096
        with scoped() as session:
            for index in range(1, 3):
                for name in sorted(plugins):
                    plugin, manifest = plugins[name]
                    plugin = with_root(plugin, index)
                    _report, manifest, stats = tool.rescan(plugin, manifest)
                    assert stats.incremental and stats.roots_reused > 0
                    plugins[name] = (plugin, manifest)
        assert session.delta["cache_disk_hits"] == setup.delta["cache_disk_hits"] == 0
