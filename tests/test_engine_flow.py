"""Engine behaviour: control flow — branches joined, loops, includes."""

import random

from repro.config.vulnerability import InputVector, VulnKind
from repro.core.engine import Scope
from repro.core.oop import join_class_names
from repro.core.taint import ConcreteSource, TaintState, VariableRecord

from tests.helpers import analyze, findings_of


def xss(source):
    return [f for f in findings_of(source) if f.kind is VulnKind.XSS]


class TestBranchJoin:
    def test_taint_in_one_branch_survives_join(self):
        source = "<?php $x = 'safe'; if ($c) { $x = $_GET['a']; } echo $x;"
        assert xss(source)

    def test_clean_assignment_in_branch_does_not_kill(self):
        # "the analysis takes into account all possible paths" — the
        # untainted else-path must not erase the tainted then-path
        source = (
            "<?php $x = $_GET['a'];"
            "if ($c) { $x = 'safe'; } echo $x;"
        )
        assert xss(source)

    def test_clean_on_both_paths_is_clean(self):
        source = (
            "<?php $x = $_GET['a'];"
            "if ($c) { $x = 'safe'; } else { $x = 'also'; } echo $x;"
        )
        assert not xss(source)

    def test_elseif_branches_joined(self):
        source = (
            "<?php $x = 'safe';"
            "if ($a) { $x = 1; } elseif ($b) { $x = $_COOKIE['c']; } echo $x;"
        )
        assert xss(source)

    def test_switch_cases_joined(self):
        source = (
            "<?php $x = 'safe'; switch ($m) {"
            "case 1: $x = 'ok'; break;"
            "case 2: $x = $_GET['v']; break; } echo $x;"
        )
        assert xss(source)

    def test_ternary_branches_joined(self):
        assert xss("<?php $x = $c ? 'safe' : $_GET['a']; echo $x;")

    def test_short_ternary(self):
        assert xss("<?php $x = $_GET['a'] ?: 'fallback'; echo $x;")

    def test_try_catch_joined(self):
        source = (
            "<?php $x = 'safe';"
            "try { $x = $_GET['a']; } catch (Exception $e) { $x = 'e'; } echo $x;"
        )
        assert xss(source)

    def test_condition_itself_evaluated(self):
        # assignment inside a condition still happens
        assert xss("<?php if ($x = $_GET['a']) { } echo $x;")


def _tainted(line):
    return TaintState.from_label(
        ConcreteSource(InputVector.GET, "_GET", "t.php", line)
    )


def _full_join(receiver, *branches):
    """Reference: join every name of every scope, untouched or not."""
    scopes = (receiver, *branches)
    names = set(receiver.records)
    for branch in branches:
        names.update(branch.records)
    joined = {}
    for name in names:
        variants = [scope.records[name] for scope in scopes if name in scope.records]
        if all(record is variants[0] for record in variants):
            joined[name] = variants[0]
            continue
        taint = variants[0].taint
        for record in variants[1:]:
            taint = taint.joined(record.taint)
        class_name = join_class_names(record.class_name or "" for record in variants)
        joined[name] = variants[-1].updated(taint=taint, class_name=class_name or None)
    return joined


def _branch_join(pre, *edits, exhaustive=True):
    """The engine's branch join: each edit runs on a copy of ``pre``;
    a non-exhaustive statement also joins the untouched pre-state."""
    outcomes = []
    for edit in edits:
        snapshot = pre.copy()
        edit(snapshot)
        outcomes.append(snapshot)
    if not exhaustive:
        outcomes.append(pre.copy())
    expected = _full_join(outcomes[0], *outcomes[1:])
    outcomes[0].join_from(*outcomes[1:])
    return outcomes[0].records, expected


def _same_records(actual, expected):
    assert set(actual) == set(expected)
    for name, record in expected.items():
        assert actual[name].__dict__ == record.__dict__, name


class TestScopeJoin:
    """``Scope.join_from`` joins only the names some branch rebound."""

    def _pre(self):
        pre = Scope()
        pre.set(VariableRecord(name="a", taint=_tainted(1)))
        pre.set(VariableRecord(name="b", class_name="Widget"))
        pre.set(VariableRecord(name="c"))
        return pre

    def test_all_branches_untouched_keep_the_record_objects(self):
        pre = self._pre()
        records, expected = _branch_join(pre, lambda s: None, lambda s: None)
        _same_records(records, expected)
        for name, record in pre.records.items():
            assert records[name] is record

    def test_branch_that_unsets_a_name(self):
        pre = self._pre()

        def unset(scope):
            del scope.records["a"]

        records, expected = _branch_join(pre, unset, lambda s: None)
        _same_records(records, expected)
        # the path that kept `a` still carries its taint
        assert records["a"] is pre.records["a"]

    def test_branch_that_adds_a_name(self):
        pre = self._pre()

        def add(scope):
            scope.set(VariableRecord(name="d", taint=_tainted(2)))

        records, expected = _branch_join(pre, lambda s: None, add)
        _same_records(records, expected)
        assert records["d"].taint is _tainted(2)

    def test_rebound_names_are_joined(self):
        pre = self._pre()

        def clean_a(scope):
            scope.set(scope.get("a").updated(taint=TaintState.clean()))

        def retype_b(scope):
            scope.set(scope.get("b").updated(class_name="Other"))

        records, expected = _branch_join(pre, clean_a, retype_b)
        _same_records(records, expected)
        assert records["a"].taint is _tainted(1)  # tainted on the retype_b path

    def test_non_exhaustive_if_joins_the_pre_state(self):
        pre = self._pre()

        def clean_a(scope):
            scope.set(scope.get("a").updated(taint=TaintState.clean()))

        records, expected = _branch_join(pre, clean_a, exhaustive=False)
        _same_records(records, expected)
        assert records["a"].taint is _tainted(1)
        records, expected = _branch_join(pre, clean_a, clean_a)
        _same_records(records, expected)
        assert records["a"].taint is TaintState.clean()

    def test_matches_the_full_join_on_random_edits(self):
        rng = random.Random(7)
        names = ["a", "b", "c", "d", "e"]
        states = [TaintState.clean(), _tainted(1), _tainted(2)]
        classes = [None, "Widget", "Other"]

        def random_edit(scope):
            for _ in range(rng.randint(0, 3)):
                name = rng.choice(names)
                action = rng.random()
                if action < 0.2:
                    scope.records.pop(name, None)
                elif name in scope.records and action < 0.6:
                    scope.set(scope.get(name).updated(taint=rng.choice(states)))
                else:
                    scope.set(
                        VariableRecord(
                            name=name,
                            taint=rng.choice(states),
                            class_name=rng.choice(classes),
                        )
                    )

        for _ in range(300):
            pre = Scope()
            random_edit(pre)
            edits = [random_edit for _ in range(rng.randint(1, 4))]
            records, expected = _branch_join(
                pre, *edits, exhaustive=rng.random() < 0.5
            )
            _same_records(records, expected)


class TestLoops:
    def test_while_body_analyzed(self):
        assert xss("<?php while ($c) { echo $_GET['x']; }")

    def test_loop_carried_taint(self):
        # taint flows $a -> $b across iterations (needs two passes)
        source = "<?php $a = $_GET['x']; while ($c) { echo $b; $b = $a; }"
        assert xss(source)

    def test_accumulator_pattern(self):
        source = "<?php $out = ''; foreach ($ks as $k) { $out .= $_GET['v']; } echo $out;"
        assert xss(source)

    def test_for_loop_update_evaluated(self):
        assert xss("<?php for ($i = 0; $i < 3; $i = $_GET['n']) { } echo $i;")

    def test_do_while(self):
        assert xss("<?php do { echo $_POST['x']; } while ($c);")

    def test_foreach_value_inherits_subject_taint(self):
        source = "<?php $rows = mysql_fetch_array($r); foreach ($rows as $v) { echo $v; }"
        assert xss(source)

    def test_foreach_key_inherits_subject_taint(self):
        source = "<?php $data = $_POST['all']; foreach ($data as $k => $v) { echo $k; }"
        assert xss(source)

    def test_foreach_over_clean_is_clean(self):
        assert not xss("<?php foreach (array(1, 2) as $v) { echo $v; }")


class TestIncludes:
    def test_include_inlines_target_file(self):
        from repro.core import PhpSafe
        from repro.plugin import Plugin

        plugin = Plugin(
            name="p",
            files={
                "main.php": "<?php $id = $_GET['id']; include 'show.php';",
                "show.php": "<?php echo $id;",
            },
        )
        report = PhpSafe().analyze(plugin)
        # the sink fires when show.php is inlined with $id tainted
        assert any(f.file == "show.php" for f in report.findings)

    def test_include_cycle_terminates(self):
        from repro.core import PhpSafe
        from repro.plugin import Plugin

        plugin = Plugin(
            name="p",
            files={
                "a.php": "<?php include 'b.php'; echo $_GET['x'];",
                "b.php": "<?php include 'a.php';",
            },
        )
        report = PhpSafe().analyze(plugin)
        assert report.findings  # terminated and still found the flow

    def test_dirname_file_idiom_resolves(self):
        from repro.core import PhpSafe
        from repro.plugin import Plugin

        plugin = Plugin(
            name="p",
            files={
                "admin/panel.php": (
                    "<?php $v = $_GET['v'];"
                    "require_once(dirname(__FILE__) . '/../inc/render.php');"
                ),
                "inc/render.php": "<?php echo $v;",
            },
        )
        report = PhpSafe().analyze(plugin)
        assert any(f.file == "inc/render.php" for f in report.findings)


class TestGlobals:
    def test_global_statement_links_scopes(self):
        source = (
            "<?php $cfg = $_GET['c'];"
            "function show() { global $cfg; echo $cfg; } show();"
        )
        assert xss(source)

    def test_global_write_visible_at_main(self):
        source = (
            "<?php function init() { global $v; $v = $_POST['x']; }"
            "init(); echo $v;"
        )
        assert xss(source)

    def test_local_does_not_leak_to_global(self):
        source = (
            "<?php function f() { $loc = $_GET['x']; } f(); echo $loc;"
        )
        assert not xss(source)


class TestRobustness:
    def test_parse_failure_recorded_not_raised(self):
        report = analyze("<?php $a = ;")
        assert report.failures
        assert not report.findings

    def test_other_files_still_analyzed_after_failure(self):
        from repro.core import PhpSafe
        from repro.plugin import Plugin

        plugin = Plugin(
            name="p",
            files={"bad.php": "<?php $a = ;", "good.php": "<?php echo $_GET['x'];"},
        )
        report = PhpSafe().analyze(plugin)
        assert report.findings
        # default mode recovers bad.php (recorded incident, no skip)
        assert report.failed_files == []
        assert any(
            incident.file == "bad.php" and incident.recovered
            for incident in report.incidents
        )

    def test_other_files_still_analyzed_after_failure_strict(self):
        from repro.core import PhpSafe, PhpSafeOptions
        from repro.plugin import Plugin

        plugin = Plugin(
            name="p",
            files={"bad.php": "<?php $a = ;", "good.php": "<?php echo $_GET['x'];"},
        )
        report = PhpSafe(options=PhpSafeOptions(recover=False)).analyze(plugin)
        assert report.findings
        assert report.failed_files == ["bad.php"]

    def test_include_budget_failure(self):
        from repro.core import PhpSafe, PhpSafeOptions
        from repro.plugin import Plugin

        big = "<?php\n" + "\n".join(
            f"function pad_{i}() {{ return '{'x' * 100}'; }}" for i in range(300)
        )
        plugin = Plugin(
            name="p",
            files={
                "huge/lib.php": big,
                "panel.php": "<?php include 'huge/lib.php'; echo $_GET['x'];",
            },
        )
        options = PhpSafeOptions(include_budget=10_000)
        report = PhpSafe(options=options).analyze(plugin)
        assert "panel.php" in report.failed_files
        # the flow inside the failed file is missed (paper Section V.E)
        assert not any(f.file == "panel.php" for f in report.findings)
