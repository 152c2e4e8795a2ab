"""Tests for the persistent function-summary cache.

The summary tier stores per-function analysis results keyed by the
knowledge-base/options fingerprint, the function key, and the content
digest of the defining file, with dependency validation against every
file the summary was computed from.  These tests pin down the
invalidation contract: reuse only when it cannot change the findings.
"""

import dataclasses

import pytest

from repro.batch.job import run_job
from repro.batch.telemetry import ScanTelemetry
from repro.core import ModelCache, PhpSafe
from repro.core.phpsafe import PhpSafeOptions
from repro.core.results import finding_signatures
from repro.difftest import SLICES
from repro.difftest.slices import pack_enabled_phpsafe
from repro.plugin import Plugin

MAIN = "<?php include 'lib.php'; page($_GET['q']);"
LIB = "<?php function page($m) { echo '<b>' . $m . '</b>'; }"


def keys(report):
    return sorted(finding.key for finding in report.findings)


def summary_keys(cache):
    """The keys of the summaries ``cache`` holds in memory."""
    return [key for key in cache._slots if key.startswith("summary2!")]


def scan(files, cache=None, options=None, profile=None):
    tool = PhpSafe(profile=profile, options=options, cache=cache)
    return tool.analyze(Plugin(name="p", files=dict(files)))


class TestSummaryRoundTrip:
    def test_second_run_reuses_summaries(self):
        cache = ModelCache()
        files = {"main.php": MAIN, "lib.php": LIB}
        first = scan(files, cache=cache)
        assert summary_keys(cache)
        second = scan(files, cache=cache)
        assert second.perf["summary_cache_hits"] >= 1
        assert keys(first) == keys(second)

    def test_findings_identical_with_and_without_cache(self):
        files = {"main.php": MAIN, "lib.php": LIB}
        uncached = scan(files)
        cache = ModelCache()
        scan(files, cache=cache)  # populate
        warm = scan(files, cache=cache)
        assert keys(warm) == keys(uncached)

    def test_disk_cache_survives_tool_instances(self, tmp_path):
        files = {"main.php": MAIN, "lib.php": LIB}
        first_tool = PhpSafe(cache_dir=str(tmp_path))
        first = first_tool.analyze(Plugin(name="p", files=dict(files)))
        # a fresh tool + fresh memory cache over the same directory:
        # summaries must come back from the disk tier
        second_tool = PhpSafe(cache_dir=str(tmp_path))
        second = second_tool.analyze(Plugin(name="p", files=dict(files)))
        perf = second.perf
        assert perf["summary_cache_hits"] >= 1
        # the memory tier started empty: every artifact found came off disk
        assert perf["cache_disk_hits"] >= (
            perf["parse_cache_hits"] + perf["ir_cache_hits"] + perf["summary_cache_hits"]
        )
        assert keys(first) == keys(second)


class TestSummaryInvalidation:
    def test_defining_file_change_invalidates(self):
        cache = ModelCache()
        scan({"main.php": MAIN, "lib.php": LIB}, cache=cache)
        # page() now sanitizes: the stale summary must not resurrect
        # the XSS finding
        safe_lib = "<?php function page($m) { echo htmlentities($m); }"
        warm = scan({"main.php": MAIN, "lib.php": safe_lib}, cache=cache)
        uncached = scan({"main.php": MAIN, "lib.php": safe_lib})
        assert keys(warm) == keys(uncached)

    def test_callee_file_change_invalidates_caller_summary(self):
        cache = ModelCache()
        main = "<?php include 'a.php'; include 'b.php'; outer($_GET['q']);"
        outer = "<?php function outer($m) { inner($m); }"
        inner_safe = "<?php function inner($m) { echo htmlentities($m); }"
        baseline = scan(
            {"main.php": main, "a.php": outer, "b.php": inner_safe}, cache=cache
        )
        assert keys(baseline) == []
        # outer()'s own file is unchanged, but its callee now echoes
        # unsanitized — the dependency digest must catch it
        inner_bad = "<?php function inner($m) { echo $m; }"
        warm = scan(
            {"main.php": main, "a.php": outer, "b.php": inner_bad}, cache=cache
        )
        uncached = scan({"main.php": main, "a.php": outer, "b.php": inner_bad})
        assert warm.perf["summary_cache_stale"] >= 1
        assert keys(warm) == keys(uncached) != []

    def test_stale_summary_is_counted_once(self):
        # outer()'s summary is found but its callee's file changed: one
        # stale lookup, and not a hit, in the job's perf and its
        # telemetry row alike
        tool = PhpSafe(cache=ModelCache())
        main = "<?php include 'a.php'; include 'b.php'; outer($_GET['q']);"
        outer = "<?php function outer($m) { inner($m); }"
        inner_safe = "<?php function inner($m) { echo htmlentities($m); }"
        inner_bad = "<?php function inner($m) { echo $m; }"
        files = {"main.php": main, "a.php": outer, "b.php": inner_safe}
        run_job(tool, Plugin(name="p", files=files))
        record = run_job(tool, Plugin(name="p", files={**files, "b.php": inner_bad}))
        perf = record.report.perf
        assert (perf["summary_cache_hits"], perf["summary_cache_stale"]) == (0, 1)
        telemetry = ScanTelemetry()
        telemetry.record(record.stats())
        for cache in (record.stats().to_dict()["cache"], telemetry.to_dict()["cache"]):
            assert (cache["summary_hits"], cache["summary_stale"]) == (0, 1)
        assert telemetry.summary_hit_rate == 0.0

    def test_newly_defined_function_invalidates(self):
        cache = ModelCache()
        main = "<?php include 'go.php'; go($_GET['q']);"
        go = "<?php function go($m) { mystery($m); }"
        scan({"main.php": main, "go.php": go}, cache=cache)
        # mystery() springs into existence in a *new* file: go.php's
        # digest is unchanged, so only the unresolved-lookup record can
        # invalidate the summary
        mystery = "<?php function mystery($m) { echo $m; }"
        warm = scan(
            {"main.php": main, "go.php": go, "m.php": mystery}, cache=cache
        )
        uncached = scan({"main.php": main, "go.php": go, "m.php": mystery})
        assert keys(warm) == keys(uncached) != []


class TestFingerprintSeparation:
    def test_profile_change_misses(self):
        cache = ModelCache()
        files = {"main.php": MAIN, "lib.php": LIB}
        scan(files, cache=cache, options=PhpSafeOptions(profile_name="wordpress"))
        second = scan(files, cache=cache, options=PhpSafeOptions(profile_name="generic"))
        assert second.perf["summary_cache_hits"] == 0
        assert second.perf["summary_cache_stale"] == 0

    def test_oop_option_change_misses(self):
        cache = ModelCache()
        files = {"main.php": MAIN, "lib.php": LIB}
        scan(files, cache=cache, options=PhpSafeOptions(oop=True))
        second = scan(files, cache=cache, options=PhpSafeOptions(oop=False))
        assert second.perf["summary_cache_hits"] == 0
        assert second.perf["summary_cache_stale"] == 0

    def test_recover_mode_change_hits(self):
        """Strict and recovering scans compute summaries and lowered IR
        through one unit loop, so a strict scan reuses both tiers from
        recovering scans of the same plugins."""
        cache = ModelCache()
        plugins = [
            {"main.php": MAIN, "lib.php": LIB},
            {"a.php": "<?php include 'b.php'; show($_POST['x']);",
             "b.php": "<?php function show($v) { print $v; }"},
        ]
        recovered = [
            scan(files, cache=cache, options=PhpSafeOptions(recover=True))
            for files in plugins
        ]
        for files, prior in zip(plugins, recovered):
            strict = scan(files, cache=cache, options=PhpSafeOptions(recover=False))
            assert strict.perf["summary_cache_hits"] >= 1
            assert strict.perf["ir_cache_hits"] >= 1
            assert strict.perf["ir_cache_misses"] == 0
            assert keys(strict) == keys(prior) != []

    def test_same_options_fresh_tool_hits(self):
        cache = ModelCache()
        files = {"main.php": MAIN, "lib.php": LIB}
        scan(files, cache=cache, options=PhpSafeOptions())
        second = scan(files, cache=cache, options=PhpSafeOptions())
        assert second.perf["summary_cache_hits"] >= 1


class TestPersistenceExclusions:
    def test_globals_reading_summary_not_persisted(self):
        cache = ModelCache()
        files = {
            "main.php": (
                "<?php include 'lib.php'; $cfg = $_GET['c'];"
                " render(); echo 'done';"
            ),
            "lib.php": (
                "<?php function render() { global $cfg; echo $cfg; }"
            ),
        }
        first = scan(files, cache=cache)
        # render()'s result depends on global state at call time, which
        # the cache key cannot capture — it must never be persisted
        assert all("render" not in key for key in summary_keys(cache))
        second = scan(files, cache=cache)
        assert keys(first) == keys(second)


class TestUnreachedSummaries:
    """A cached summary takes part in a scan only when the scan reaches
    its function, exactly as a computed one would."""

    CLASS_A = (
        "<?php class A { function set() { $this->v = $_GET['q']; }"
        " function show() { echo '<p>' . $this->v . '</p>'; } }"
    )
    MAIN_V1 = (
        "<?php include 'a.php';\n$a = new A();\n$a->set();\n"
        "echo '<p>' . $a->v . '</p>';\n"
    )
    MAIN_V2 = (
        "<?php include 'a.php';\n$a = new A();\n"
        "echo '<p>' . $a->v . '</p>';\n"
    )

    @pytest.mark.parametrize("tier", ["memory", "disk"])
    def test_uncalled_method_writes_nothing_when_uncalled_is_off(
        self, tier, tmp_path
    ):
        # with analyze_uncalled off, A::set() is reached only through
        # v1's call; v2 drops the call, so set()'s cached property
        # write must not taint the echo of $a->v
        options = PhpSafeOptions(analyze_uncalled=False)
        if tier == "memory":
            tool = PhpSafe(options=options, cache=ModelCache())
        else:
            tool = PhpSafe(options=options, cache_dir=str(tmp_path))
        v1 = Plugin(name="p", files={"a.php": self.CLASS_A, "main.php": self.MAIN_V1})
        v2 = Plugin(name="p", files={"a.php": self.CLASS_A, "main.php": self.MAIN_V2})
        assert keys(tool.analyze(v1)) != []
        assert summary_keys(tool.cache)
        warm = tool.analyze(v2)
        cold = PhpSafe(options=options, use_process_cache=False).analyze(v2)
        assert keys(cold) == []
        assert keys(warm) == keys(cold)


#: a second value for every ``PhpSafeOptions`` field, grouped by role
SECOND_VALUES = {
    "result": {
        "profile_name": "generic",
        "rule_packs": ("ssrf",),
        "oop": False,
        "analyze_uncalled": False,
        "include_budget": 2_000,
    },
    "parse": {"recover": False},
    "cost": {
        "use_summaries": False,
        "file_deadline": 3600.0,
        "step_budget": 40_000_000,
        "unit_step_budget": 40_000_000,
        "max_eval_depth": 700,
    },
}


def roles():
    return {
        item.name: item.metadata.get("role")
        for item in dataclasses.fields(PhpSafeOptions)
    }


class TestOptionRoles:
    """Every cache key derives from the roles the option fields declare,
    so a field without a role, or a role that is wrong, fails here."""

    def test_every_field_has_exactly_one_role(self):
        assert {
            name: role for role, group in SECOND_VALUES.items() for name in group
        } == roles()

    def test_result_fields_and_only_they_change_the_summary_key(self):
        base = PhpSafe(use_process_cache=False).summary_fingerprint
        for role, group in SECOND_VALUES.items():
            for name, value in group.items():
                options = PhpSafeOptions(**{name: value})
                tool = PhpSafe(options=options, use_process_cache=False)
                assert (tool.summary_fingerprint != base) is (role == "result"), name

    def test_options_record_is_frozen_and_hashable(self):
        options = PhpSafeOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.oop = False  # type: ignore[misc]
        assert hash(options) == hash(PhpSafeOptions())

    def test_cost_fields_leave_slice_signatures_identical(self):
        """No summaries and every budget raised: a cost field that
        changed results while staying out of the summary key shows up
        as a slice whose signatures move."""
        base = pack_enabled_phpsafe().options
        costly = dataclasses.replace(base, **SECOND_VALUES["cost"])
        for piece in SLICES:
            plugin = Plugin(name=f"slice-{piece.name}", files={"slice.php": piece.code})
            expected = PhpSafe(options=base, use_process_cache=False).analyze(plugin)
            actual = PhpSafe(options=costly, use_process_cache=False).analyze(plugin)
            assert finding_signatures([actual]) == finding_signatures(
                [expected]
            ), piece.name
