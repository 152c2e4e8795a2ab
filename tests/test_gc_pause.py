"""The cyclic garbage collector is paused for each analysis.

``collector_paused`` (``repro.core.tool``) keeps the collector off while
an analysis runs, which is safe only because an analysis creates no
reference cycles: reference counting then frees everything the
collector would.  ``TestNoCycles`` pins that invariant over the paper
corpus, a stress tier and a cached rescan; ``TestPause`` pins the
pause itself (off inside, the caller's state restored after, nesting,
failures, deadlines and overlapping threads).  ``TestFreeze`` pins the
bounded ``gc.freeze()`` at the last exit, and ``TestOneSwitch`` that no
other module switches the collector.
"""

from __future__ import annotations

import ast
import gc
import signal
import threading
import weakref
from collections import Counter
from pathlib import Path

import pytest

from repro.baselines import PixyLike, RipsLike
from repro.batch.job import run_job
from repro.core import PhpSafe
from repro.core import tool as tool_module
from repro.core.cache import ModelCache
from repro.core.ir import IRTaintEngine
from repro.core.tool import collector_paused
from repro.corpus.stress import StressTier, iter_stress_plugins, stress_options
from repro.perf import counters

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
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class CycleCheck:
    """Fails when code run since the last check left cyclic garbage, and
    names the garbage's types.  Call :meth:`start` in the test body:
    pytest may release an earlier failure's traceback, itself cyclic,
    after fixtures are set up."""

    def start(self) -> None:
        gc.collect()

    def __call__(self, label: str) -> None:
        # a frozen object is skipped by the collection below, so a
        # freeze here would hide the cycles this check looks for
        assert gc.get_freeze_count() == 0, f"{label} froze objects"
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
    """A :class:`CycleCheck`, with the collector off for the test and
    nothing frozen: with the collector off no analysis exit freezes, so
    every object the test makes stays in the collector's walk."""
    was_enabled = gc.isenabled()
    gc.disable()
    gc.unfreeze()
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
        plugins = list(iter_stress_plugins(TINY_STRESS, seed=1))
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
        seen = overlap(monkeypatch, between=lambda: not gc.isenabled())
        assert seen == [False, False]
        assert gc.isenabled()


def overlap(monkeypatch, between):
    """Run two overlapping analyses in threads ``a`` and ``b``; once
    ``a`` has left and ``b`` is still inside, ``between()`` must hold.
    Returns what :func:`watch_stage` saw."""
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
        # b is still inside its analysis
        assert between()
    finally:
        release_b.set()
        threads["b"].join(timeout=60)
    assert not threads["b"].is_alive()
    assert not errors
    return seen


def is_frozen(obj) -> bool:
    """Whether ``obj`` is in the permanent generation ``gc.freeze()``
    fills: tracked, yet in none of the three the collector walks."""
    return gc.is_tracked(obj) and not any(
        other is obj for other in gc.get_objects()
    )


class Cycle:
    """A tracked object that can point at itself."""


@pytest.fixture
def fresh_freeze(monkeypatch, collector_enabled):
    """Nothing frozen and no full collection run yet, so the next exit
    runs one; the frozen set and the bound are put back afterwards, so
    no test depends on the order the tests run in."""
    was_frozen = gc.get_freeze_count() > 0
    gc.unfreeze()
    monkeypatch.setattr(tool_module, "_frozen_population", 0)
    monkeypatch.setattr(tool_module, "_outside_allocations", 0)
    # (set to itself only so that teardown puts it back)
    monkeypatch.setattr(tool_module, "_exit_mark", tool_module._exit_mark)
    yield
    gc.unfreeze()
    gc.collect()
    if was_frozen:
        gc.freeze()


@pytest.mark.usefixtures("fresh_freeze")
class TestFreeze:
    """The last exit freezes what outlives the analysis; a full
    collection runs first once enough was allocated outside analyses."""

    def test_survivors_frozen_collector_on(self):
        tool = PhpSafe(cache=ModelCache())
        tool.analyze(small_plugin())
        assert gc.isenabled()
        assert gc.get_freeze_count() > 0
        assert tool_module._frozen_population > 0
        # the long-lived memory tier leaves the collector's walk
        assert is_frozen(tool.cache)

    def test_caller_disabled_freezes_and_unfreezes_nothing(self):
        kept = Cycle()
        gc.freeze()
        passes = counters.gc_full_passes
        gc.disable()
        # no full collection has run, so an exit that settled would run one
        report = PhpSafe(use_process_cache=False).analyze(small_plugin())
        assert not gc.isenabled()
        assert is_frozen(kept)
        assert not is_frozen(report)
        assert counters.gc_full_passes == passes

    def test_nested_exit_freezes_nothing(self):
        with collector_paused():
            PhpSafe(use_process_cache=False).analyze_source("<?php echo $_GET['q'];")
            assert gc.get_freeze_count() == 0
        assert gc.get_freeze_count() > 0

    def test_overlapping_threads_freeze_at_last_exit(self, monkeypatch):
        overlap(monkeypatch, between=lambda: gc.get_freeze_count() == 0)
        assert gc.get_freeze_count() > 0
        assert gc.isenabled()

    def test_cycle_made_between_analyses_collected_once_bound_trips(self, monkeypatch):
        tool = PhpSafe(use_process_cache=False)
        tool.analyze(small_plugin())
        passes, seconds = counters.gc_full_passes, counters.gc_full_seconds
        cycle = Cycle()
        cycle.me = cycle
        sentinel = weakref.finalize(cycle, lambda: None)
        del cycle
        tool.analyze(small_plugin())
        gc.collect()
        # frozen with the rest: even a full collection skips it
        assert sentinel.alive
        assert counters.gc_full_passes == passes
        # drive the bound: a small frozen population, and more net
        # allocations than that made outside analyses
        monkeypatch.setattr(tool_module, "_frozen_population", 1_000)
        filler = [[] for _ in range(1_000)]
        tool.analyze(small_plugin())
        assert not sentinel.alive
        assert counters.gc_full_passes == passes + 1
        assert counters.gc_full_seconds > seconds
        del filler

    def test_full_pass_lands_in_job_perf(self):
        record = run_job(PhpSafe(use_process_cache=False), small_plugin())
        assert record.report.perf["gc_full_passes"] == 1
        assert record.report.perf["gc_full_seconds"] > 0
        assert record.stats().perf["gc_full_passes"] == 1
        # the bound is far from reached now
        record = run_job(PhpSafe(use_process_cache=False), small_plugin())
        assert record.report.perf["gc_full_passes"] == 0
        assert gc.get_freeze_count() > 0


#: the collector functions only ``core/tool.py`` may call
SWITCHES = {"disable", "freeze", "unfreeze", "collect"}


def collector_switches(path: Path):
    """``(line, name)`` of every collector switch ``path`` calls."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "gc")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            found += [(node.lineno, a.name) for a in node.names if a.name in SWITCHES]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in SWITCHES
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append((node.lineno, node.attr))
    return found


class TestOneSwitch:
    """``collector_paused`` is the only place that switches the
    collector (DESIGN §4.3c)."""

    SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

    def test_only_tool_switches_the_collector(self):
        offenders = {
            str(path.relative_to(self.SRC)): found
            for path in sorted(self.SRC.rglob("*.py"))
            if path != self.SRC / "core" / "tool.py"
            and (found := collector_switches(path))
        }
        assert offenders == {}

    def test_guard_sees_the_switches(self):
        assert {name for _line, name in collector_switches(self.SRC / "core" / "tool.py")} == SWITCHES
