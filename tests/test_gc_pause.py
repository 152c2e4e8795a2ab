"""The cyclic garbage collector is paused for each analysis.

``collector_paused`` (``repro.core.tool``) keeps the collector off while
an analysis runs, which is safe only because an analysis creates no
reference cycles: reference counting then frees everything the
collector would.  ``TestNoCycles`` pins that invariant over the paper
corpus, a stress tier and a cached rescan; ``TestPause`` pins the
pause itself (off inside, the caller's state restored after, nesting,
failures, deadlines and overlapping threads).
"""

from __future__ import annotations

import gc
import signal
import threading
from collections import Counter

import pytest

from repro.baselines import PixyLike, RipsLike
from repro.batch.job import run_job
from repro.core import PhpSafe
from repro.core.cache import ModelCache
from repro.core.ir import IRTaintEngine
from repro.core.tool import collector_paused
from repro.corpus.stress import StressTier, materialize, stress_options

from tests.test_rescan_memory import small_plugin, with_root

TOOLS = (
    lambda: PhpSafe(use_process_cache=False),
    RipsLike,
    PixyLike,
)

#: perfbench's tiny stress tier: every shape, chain and huge included
TINY_STRESS = StressTier(
    name="gc-tiny", tiny_plugins=4, tiny_loc=60, chain_plugins=1,
    chain_depth=4, chain_loc=30, huge_plugins=1, huge_loc=600,
    streaming_rss_mb=256,
)


@pytest.fixture
def collector_enabled():
    """Run the test with the collector on and put the caller's state back."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


class CycleCheck:
    """Fails when code run since the last check left cyclic garbage, and
    names the garbage's types.  Call :meth:`start` in the test body:
    pytest may release an earlier failure's traceback, itself cyclic,
    after fixtures are set up."""

    def start(self) -> None:
        gc.collect()

    def __call__(self, label: str) -> None:
        # keep what this collection finds, so it can be named
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            found = gc.collect()
            kinds = Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            del gc.garbage[:]
        assert found == 0, (
            f"{label} left {found} objects of cyclic garbage: "
            f"{kinds.most_common(8)}"
        )


@pytest.fixture
def cycle_check():
    """A :class:`CycleCheck`, with the collector off for the test."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield CycleCheck()
    finally:
        if was_enabled:
            gc.enable()


class TestNoCycles:
    """An analysis creates no reference cycles, so pausing the collector
    for it frees no less memory."""

    def test_paper_corpus_all_tools(self, corpus_2012, corpus_2014, cycle_check):
        tools = [make_tool() for make_tool in TOOLS]
        cycle_check.start()
        for corpus in (corpus_2012, corpus_2014):
            for plugin in corpus.plugins:
                for tool in tools:
                    tool.analyze(plugin)
                    cycle_check(f"{tool.name} on {plugin.slug}")

    def test_stress_tier(self, cycle_check):
        plugins = materialize(TINY_STRESS, seed=1)
        assert any(p.name.startswith("stress-chain-") for p in plugins)
        assert any(p.name.startswith("stress-huge-") for p in plugins)
        tool = PhpSafe(options=stress_options(), use_process_cache=False)
        cycle_check.start()
        for plugin in plugins:
            tool.analyze(plugin)
            cycle_check(f"phpSAFE on {plugin.name}")

    def test_cached_rescan_edit(self, cycle_check):
        tool = PhpSafe(cache=ModelCache())
        plugin, edited = small_plugin(), with_root(small_plugin(), 1)
        cycle_check.start()
        _report, manifest, _stats = tool.rescan(plugin)
        cycle_check("the first rescan")
        _report, _manifest, stats = tool.rescan(edited, manifest)
        cycle_check("a one-file rescan edit")
        assert stats.incremental and stats.roots_reused > 0


def watch_stage(monkeypatch, during=None):
    """Record ``gc.isenabled()`` inside the taint stage of every
    analysis, then run ``during`` (if given) before the real stage."""
    seen = []
    real_run = IRTaintEngine.run

    def run(engine):
        seen.append(gc.isenabled())
        if during is not None:
            during()
        return real_run(engine)

    monkeypatch.setattr(IRTaintEngine, "run", run)
    return seen


@pytest.mark.usefixtures("collector_enabled")
class TestPause:
    @pytest.mark.parametrize("make_tool", TOOLS, ids=["phpSAFE", "RIPS", "Pixy"])
    def test_off_inside_on_after(self, monkeypatch, make_tool):
        seen = watch_stage(monkeypatch)
        make_tool().analyze(small_plugin())
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_rescan_and_analyze_source(self, monkeypatch):
        seen = watch_stage(monkeypatch)
        tool = PhpSafe(cache=ModelCache())
        _report, manifest, _stats = tool.rescan(small_plugin())
        tool.rescan(with_root(small_plugin(), 1), manifest)
        tool.analyze_source("<?php echo $_GET['q'];")
        assert len(seen) >= 3 and not any(seen)
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self, monkeypatch):
        seen = watch_stage(monkeypatch)
        gc.disable()
        PhpSafe(use_process_cache=False).analyze(small_plugin())
        assert seen == [False]
        assert not gc.isenabled()

    def test_raising_analysis_restores(self, monkeypatch):
        def boom():
            raise RuntimeError("boom")

        watch_stage(monkeypatch, during=boom)
        with pytest.raises(RuntimeError, match="boom"):
            PhpSafe(use_process_cache=False).analyze(small_plugin())
        assert gc.isenabled()
        record = run_job(PhpSafe(use_process_cache=False), small_plugin())
        assert record.outcome == "error"
        assert gc.isenabled()

    def test_tripped_deadline_restores(self, monkeypatch):
        # the deadline's own signal, delivered from inside the analysis
        seen = watch_stage(monkeypatch, during=lambda: signal.raise_signal(signal.SIGALRM))
        tool = PhpSafe(cache=ModelCache())
        record = run_job(tool, small_plugin(), timeout=60, rescan=True)
        assert record.outcome == "timeout"
        assert seen == [False]
        assert gc.isenabled()

    def test_nested_entry(self):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_overlapping_threads(self, monkeypatch):
        """The collector stays off until the last of two overlapping
        analyses leaves, then comes back on."""
        inside = threading.Barrier(2, timeout=30)
        release_b = threading.Event()

        def during():
            inside.wait()
            if threading.current_thread().name == "b":
                assert release_b.wait(timeout=30)

        seen = watch_stage(monkeypatch, during=during)
        errors = []

        def analyze(name):
            try:
                PhpSafe(use_process_cache=False).analyze(small_plugin(name))
            except BaseException as error:  # surfaced by the main thread
                errors.append(error)

        threads = {
            name: threading.Thread(target=analyze, args=(name,), name=name)
            for name in ("a", "b")
        }
        for thread in threads.values():
            thread.start()
        try:
            threads["a"].join(timeout=60)
            assert not threads["a"].is_alive()
            # b is still inside its analysis: the pause holds
            assert not gc.isenabled()
        finally:
            release_b.set()
            threads["b"].join(timeout=60)
        assert not threads["b"].is_alive()
        assert not errors
        assert seen == [False, False]
        assert gc.isenabled()
