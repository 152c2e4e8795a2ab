"""Tests for the incremental parse cache (memory LRU + disk tier)."""

from repro.batch import DiskModelCache
from repro.core import ModelCache, PhpSafe
from repro.core.cache import content_key
from repro.core.model import PluginModel
from repro.php.errors import PhpParseError
from repro.plugin import Plugin

SOURCE = "<?php echo $_GET['q'];"


class TestModelCache:
    def test_hit_after_store(self):
        cache = ModelCache()
        plugin = Plugin(name="p", files={"a.php": SOURCE})
        PluginModel.build(plugin, cache=cache)
        assert cache.stats.misses == 1
        PluginModel.build(plugin, cache=cache)
        assert cache.stats.hits == 1

    def test_cached_model_without_index_is_reparsed(self):
        # a model from a store that predates the parser-built index
        cache = ModelCache()
        source = "<?php function f() { g(); }"
        plugin = Plugin(name="p", files={"a.php": source})
        cached = PluginModel.build(plugin, cache=cache).files["a.php"]
        cached.index = None
        model = PluginModel.build(plugin, cache=cache)
        assert model.files["a.php"] is not cached
        assert "f" in model.functions and "g" in model.called_names

    def test_content_change_misses(self):
        cache = ModelCache()
        PluginModel.build(Plugin(name="p", files={"a.php": SOURCE}), cache=cache)
        PluginModel.build(
            Plugin(name="p", files={"a.php": SOURCE + " echo 1;"}), cache=cache
        )
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_same_content_different_path_misses(self):
        # includes resolve by path, so the key is path-sensitive
        cache = ModelCache()
        PluginModel.build(Plugin(name="p", files={"a.php": SOURCE}), cache=cache)
        PluginModel.build(Plugin(name="p", files={"b.php": SOURCE}), cache=cache)
        assert cache.stats.misses == 2

    def test_parse_failures_cached(self):
        cache = ModelCache()
        plugin = Plugin(name="p", files={"bad.php": "<?php $a = ;"})
        first = PluginModel.build(plugin, cache=cache)
        second = PluginModel.build(plugin, cache=cache)
        assert "bad.php" in first.parse_failures
        assert "bad.php" in second.parse_failures
        assert cache.stats.hits == 1

    def test_eviction_bounds_size(self):
        cache = ModelCache(max_entries=4)
        for index in range(10):
            plugin = Plugin(name="p", files={f"f{index}.php": SOURCE})
            PluginModel.build(plugin, cache=cache)
        assert len(cache) <= 4

    def test_clear(self):
        cache = ModelCache()
        PluginModel.build(Plugin(name="p", files={"a.php": SOURCE}), cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 0


class TestLruEviction:
    def test_capacity_is_exactly_max_entries(self):
        cache = ModelCache(max_entries=3)
        for index in range(3):
            cache.store(f"f{index}.php", SOURCE, object())
        # the cache holds max_entries entries, not max_entries - 1
        assert len(cache) == 3
        assert cache.stats.evictions == 0
        cache.store("f3.php", SOURCE, object())
        assert len(cache) == 3
        assert cache.stats.evictions == 1

    def test_hit_touches_entry(self):
        cache = ModelCache(max_entries=2)
        cache.store("a.php", SOURCE, object())
        cache.store("b.php", SOURCE, object())
        # touching `a` makes `b` the LRU victim of the next insert
        model, _error = cache.lookup("a.php", SOURCE)
        assert model is not None
        cache.store("c.php", SOURCE, object())
        assert cache.lookup("a.php", SOURCE)[0] is not None
        assert cache.lookup("b.php", SOURCE) == (None, None)

    def test_untouched_entry_evicted_fifo(self):
        cache = ModelCache(max_entries=2)
        cache.store("a.php", SOURCE, object())
        cache.store("b.php", SOURCE, object())
        cache.store("c.php", SOURCE, object())
        assert cache.lookup("a.php", SOURCE) == (None, None)
        assert cache.lookup("b.php", SOURCE)[0] is not None

    def test_failure_entries_share_the_budget_and_evict(self):
        cache = ModelCache(max_entries=2)
        cache.store_failure("bad.php", "x", PhpParseError("nope", "bad.php", 1))
        cache.store("a.php", SOURCE, object())
        cache.store("b.php", SOURCE, object())  # evicts the failure (LRU)
        assert len(cache) == 2
        assert cache.lookup("bad.php", "x") == (None, None)
        assert cache.lookup("a.php", SOURCE)[0] is not None

    def test_restore_refreshes_instead_of_evicting(self):
        cache = ModelCache(max_entries=2)
        cache.store("a.php", SOURCE, object())
        cache.store("b.php", SOURCE, object())
        cache.store("a.php", SOURCE, object())  # refresh, not a new entry
        assert len(cache) == 2
        assert cache.stats.evictions == 0


class TestDiskModelCache:
    def test_disk_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        plugin = Plugin(name="p", files={"a.php": SOURCE})
        first = DiskModelCache(cache_dir)
        PluginModel.build(plugin, cache=first)
        assert first.disk_len() == 1
        # a fresh process would construct a new cache over the same dir
        second = DiskModelCache(cache_dir)
        model = PluginModel.build(plugin, cache=second)
        assert second.stats.hits == 1
        assert second.stats.disk_hits == 1
        assert second.stats.misses == 0
        assert "a.php" in model.files

    def test_failure_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        plugin = Plugin(name="p", files={"bad.php": "<?php $a = ;"})
        PluginModel.build(plugin, cache=DiskModelCache(cache_dir))
        second = DiskModelCache(cache_dir)
        model = PluginModel.build(plugin, cache=second)
        assert "bad.php" in model.parse_failures
        error = model.parse_failures["bad.php"]
        assert error.filename == "bad.php"  # structured fields survive pickling
        assert second.stats.disk_hits == 1

    def test_memory_eviction_keeps_disk_object(self, tmp_path):
        cache = DiskModelCache(str(tmp_path / "cache"), max_entries=1)
        cache.store("a.php", SOURCE, {"model": "a"})
        cache.store("b.php", SOURCE, {"model": "b"})  # evicts `a` from memory
        assert len(cache) == 1
        model, _error = cache.lookup("a.php", SOURCE)  # served from disk
        assert model == {"model": "a"}
        assert cache.stats.disk_hits == 1

    def test_corrupted_object_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cache = DiskModelCache(cache_dir)
        cache.store("a.php", SOURCE, {"model": "a"})
        path = cache._object_path(content_key("a.php", SOURCE))
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        fresh = DiskModelCache(cache_dir)
        assert fresh.lookup("a.php", SOURCE) == (None, None)
        assert fresh.stats.misses == 1

    def test_clear_drops_disk_tier(self, tmp_path):
        cache = DiskModelCache(str(tmp_path / "cache"))
        cache.store("a.php", SOURCE, {"model": "a"})
        cache.clear()
        assert cache.disk_len() == 0
        assert DiskModelCache(str(tmp_path / "cache")).lookup("a.php", SOURCE) == (
            None,
            None,
        )

    def test_analysis_through_disk_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        plugin = Plugin(name="p", files={"a.php": SOURCE})
        plain = PhpSafe().analyze(plugin)
        warm = PhpSafe(cache_dir=cache_dir).analyze(plugin)
        rerun = PhpSafe(cache_dir=cache_dir).analyze(plugin)
        keys = lambda report: sorted(f.key for f in report.findings)
        assert keys(plain) == keys(warm) == keys(rerun)


class TestCachedAnalysis:
    def test_same_findings_with_and_without_cache(self):
        plugin = Plugin(
            name="p",
            files={
                "a.php": "<?php echo $_GET['x']; echo esc_html($_GET['y']);",
                "b.php": "<?php function hook() { echo $_POST['z']; }",
            },
        )
        plain = PhpSafe().analyze(plugin)
        cache = ModelCache()
        cached_tool = PhpSafe(cache=cache)
        first = cached_tool.analyze(plugin)
        second = cached_tool.analyze(plugin)  # fully from cache
        keys = lambda report: sorted(f.key for f in report.findings)
        assert keys(plain) == keys(first) == keys(second)
        assert cache.stats.hits >= 2

    def test_cache_shared_across_tools(self):
        cache = ModelCache()
        plugin = Plugin(name="p", files={"a.php": SOURCE})
        PhpSafe(cache=cache).analyze(plugin)
        PhpSafe(cache=cache).analyze(plugin)
        assert cache.stats.hit_rate >= 0.5
