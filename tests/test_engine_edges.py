"""Engine edge cases: unusual but legal PHP the analyzers must survive."""

from repro.config.vulnerability import VulnKind
from repro.core import PhpSafe

from tests.helpers import analyze, findings_of


def xss(source, tool=None):
    return [f for f in findings_of(source, tool) if f.kind is VulnKind.XSS]


class TestStringForms:
    def test_heredoc_flow(self):
        source = (
            "<?php $q = $_GET['q'];\n"
            "echo <<<EOT\nresult: $q done\nEOT;\n"
        )
        assert xss(source)

    def test_nowdoc_is_clean(self):
        source = "<?php $q = $_GET['q'];\necho <<<'EOT'\nliteral $q\nEOT;\n"
        assert not xss(source)

    def test_complex_interpolation_flow(self):
        source = "<?php $row = mysql_fetch_object($r); echo \"v: {$row->title}\";"
        assert xss(source)

    def test_escaped_dollar_clean(self):
        assert not xss('<?php echo "cost: \\$100";')

    def test_concat_of_many_pieces(self):
        parts = " . ".join(["'x'"] * 30 + ["$_GET['q']"] + ["'y'"] * 30)
        assert xss(f"<?php echo {parts};")


class TestAlternativeSyntax:
    def test_alt_if_taint_joined(self):
        source = (
            "<?php $x = 'safe';\n"
            "if ($c):\n  $x = $_GET['a'];\nendif;\n"
            "echo $x;"
        )
        assert xss(source)

    def test_alt_foreach(self):
        source = (
            "<?php $rows = mysql_fetch_array($r);\n"
            "foreach ($rows as $v):\n  echo $v;\nendforeach;\n"
        )
        assert xss(source)

    def test_template_style_mixing(self):
        source = (
            "<?php if (isset($_GET['name'])): ?>\n"
            "<h1>Hi</h1>\n"
            "<?php echo $_GET['name']; endif; ?>"
        )
        assert xss(source)


class TestScopes:
    def test_static_local_variable(self):
        source = (
            "<?php function counter() { static $n = 0; $n++; echo $n; } counter();"
        )
        assert not findings_of(source)

    def test_function_redefinition_first_wins(self):
        source = (
            "<?php function f($v) { echo $v; }\n"
            "if ($c) { function f($v) { } }\n"
            "f($_GET['x']);"
        )
        assert xss(source)  # first definition is used, it echoes

    def test_variable_variable_does_not_crash(self):
        analyze("<?php $name = 'x'; $$name = $_GET['v']; echo $x;")

    def test_nested_function_declarations(self):
        source = (
            "<?php function outer() { function inner() { echo $_GET['x']; } }"
        )
        assert xss(source)  # inner is collected by the model walker


class TestObjects:
    def test_chained_calls_on_unknown(self):
        assert not findings_of("<?php echo $a->b()->c()->d();")

    def test_new_inside_expression(self):
        source = (
            "<?php class W { public function raw() { return $_GET['r']; } }\n"
            "echo (new W())->raw();"
        )
        # parenthesized-new call form; engine must not crash and should
        # ideally resolve it
        analyze(source)

    def test_property_of_property(self):
        source = (
            "<?php $row = mysql_fetch_object($r); echo $row->meta->title;"
        )
        assert xss(source)  # container taint propagates through chains

    def test_dynamic_property_name(self):
        analyze("<?php $o = new stdClass(); echo $o->{$_GET['p']};")

    def test_clone_preserves_taint_path(self):
        source = (
            "<?php class W { public $d;"
            " public function fill() { $this->d = $_GET['x']; }"
            " public function show() { echo $this->d; } }"
            "$a = new W(); $a->fill(); $b = clone $a; $b->show();"
        )
        assert xss(source)


class TestExpressions:
    def test_assignment_inside_call(self):
        assert xss("<?php echo htmlentities($x = $_GET['a']) . $x;")

    def test_list_assignment_taints_targets(self):
        source = "<?php list($a, $b) = mysql_fetch_array($r); echo $b;"
        assert xss(source)

    def test_nested_ternaries(self):
        source = "<?php echo $a ? 'x' : ($b ? $_GET['v'] : 'y');"
        assert xss(source)

    def test_error_suppression_preserves_taint(self):
        assert xss("<?php echo @$_GET['x'];")

    def test_logical_result_is_clean(self):
        assert not findings_of("<?php echo ($_GET['a'] && true);")

    def test_instanceof_is_clean(self):
        assert not findings_of("<?php echo $_GET['a'] instanceof Widget;")

    def test_string_offset_access(self):
        assert xss("<?php $s = $_GET['x']; echo $s{0};")


class TestResilience:
    def test_deeply_nested_branches(self):
        source = "<?php $x = $_GET['a'];" + "".join(
            f"if ($c{i}) {{" for i in range(15)
        ) + "echo $x;" + "}" * 15
        assert xss(source)

    def test_many_functions(self):
        chunks = [
            f"function f{i}($v) {{ return f{i+1}($v); }}" for i in range(30)
        ]
        chunks.append("function f30($v) { echo $v; }")
        chunks.append("f0($_GET['deep']);")
        assert xss("<?php " + "\n".join(chunks))

    def test_step_budget_aborts_gracefully(self):
        from repro.core import PhpSafeOptions

        options = PhpSafeOptions(step_budget=50)
        report = analyze("<?php " + "echo 'x';" * 100, PhpSafe(options=options))
        assert any("budget" in failure.reason for failure in report.failures)

    def test_empty_file(self):
        assert not findings_of("<?php")

    def test_html_only_file(self):
        assert not findings_of("<html><body>static</body></html>")

    def test_unicode_content(self):
        assert xss("<?php echo 'héllo ' . $_GET['möp'];")
