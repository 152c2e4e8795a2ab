"""Unit tests for the PHP parser."""

import pytest

from repro.php import PhpParseError, parse_source
from repro.php import ast_nodes as ast
from repro.php.parser import unescape_double_quoted, unescape_single_quoted


def parse(source):
    return parse_source("<?php\n" + source).statements


def parse_expr(source):
    statements = parse(source + ";")
    assert isinstance(statements[0], ast.ExpressionStatement)
    return statements[0].expr


class TestStatements:
    def test_echo_multiple(self):
        (stmt,) = parse("echo $a, $b;")
        assert isinstance(stmt, ast.EchoStatement)
        assert len(stmt.exprs) == 2

    def test_short_echo_tag(self):
        tree = parse_source("<?= $x ?>")
        assert isinstance(tree.statements[0], ast.EchoStatement)

    def test_inline_html(self):
        tree = parse_source("<div>x</div>")
        assert isinstance(tree.statements[0], ast.InlineHTML)
        assert tree.statements[0].text == "<div>x</div>"

    def test_if_elseif_else(self):
        (stmt,) = parse("if ($a) { $x = 1; } elseif ($b) { $x = 2; } else { $x = 3; }")
        assert isinstance(stmt, ast.IfStatement)
        assert len(stmt.elseifs) == 1
        assert stmt.otherwise is not None

    def test_else_if_two_words(self):
        (stmt,) = parse("if ($a) {} else if ($b) {}")
        assert len(stmt.elseifs) == 1

    def test_alternative_if_syntax(self):
        (stmt,) = parse("if ($a):\n $x = 1;\nelse:\n $x = 2;\nendif;")
        assert isinstance(stmt, ast.IfStatement)
        assert stmt.otherwise is not None

    def test_while_and_do_while(self):
        stmts = parse("while ($a) { $a--; } do { $b++; } while ($b < 3);")
        assert isinstance(stmts[0], ast.WhileStatement)
        assert isinstance(stmts[1], ast.DoWhileStatement)

    def test_alternative_while(self):
        (stmt,) = parse("while ($a):\n $a--;\nendwhile;")
        assert isinstance(stmt, ast.WhileStatement)
        assert len(stmt.body) == 1

    def test_for(self):
        (stmt,) = parse("for ($i = 0; $i < 3; $i++) { echo $i; }")
        assert isinstance(stmt, ast.ForStatement)
        assert len(stmt.init) == len(stmt.cond) == len(stmt.update) == 1

    def test_foreach_value(self):
        (stmt,) = parse("foreach ($rows as $row) { echo $row; }")
        assert isinstance(stmt, ast.ForeachStatement)
        assert stmt.key_var is None
        assert isinstance(stmt.value_var, ast.Variable)

    def test_foreach_key_value_by_ref(self):
        (stmt,) = parse("foreach ($rows as $k => &$v) { $v = 1; }")
        assert stmt.key_var.name == "k"
        assert stmt.by_ref

    def test_switch(self):
        (stmt,) = parse(
            "switch ($a) { case 1: echo 'a'; break; default: echo 'b'; }"
        )
        assert isinstance(stmt, ast.SwitchStatement)
        assert len(stmt.cases) == 2
        assert stmt.cases[1].test is None

    def test_alternative_switch(self):
        (stmt,) = parse("switch ($a):\ncase 1:\n echo 'x';\nendswitch;")
        assert len(stmt.cases) == 1

    def test_return_with_and_without_value(self):
        stmts = parse("function f() { return; } function g() { return 1; }")
        assert stmts[0].body[0].expr is None
        assert isinstance(stmts[1].body[0].expr, ast.Literal)

    def test_global(self):
        (stmt,) = parse("global $wpdb, $post;")
        assert stmt.names == ["wpdb", "post"]

    def test_static_vars(self):
        (stmt,) = parse("static $count = 0, $other;")
        assert isinstance(stmt, ast.StaticVarStatement)
        assert stmt.vars[0][0] == "count"
        assert stmt.vars[1][1] is None

    def test_unset(self):
        (stmt,) = parse("unset($a, $b[1]);")
        assert isinstance(stmt, ast.UnsetStatement)
        assert len(stmt.vars) == 2

    def test_try_catch_finally(self):
        (stmt,) = parse(
            "try { f(); } catch (Exception $e) { g(); } finally { h(); }"
        )
        assert isinstance(stmt, ast.TryStatement)
        assert stmt.catches[0].class_name == "Exception"
        assert stmt.catches[0].var_name == "e"
        assert stmt.finally_body is not None

    def test_throw(self):
        (stmt,) = parse("throw new Exception('x');")
        assert isinstance(stmt, ast.ThrowStatement)

    def test_break_continue_levels(self):
        stmts = parse("while (1) { break 2; continue; }")
        body = stmts[0].body
        assert body[0].level == 2
        assert body[1].level == 1

    def test_namespace_and_use(self):
        stmts = parse("namespace My\\Plugin;\nuse Other\\Thing as T;")
        assert isinstance(stmts[0], ast.NamespaceStatement)
        assert stmts[0].name == "My\\Plugin"
        assert stmts[1].alias == "T"

    def test_const_statement(self):
        (stmt,) = parse("const VERSION = '1.0', BUILD = 2;")
        assert len(stmt.consts) == 2

    def test_close_tag_terminates_statement(self):
        tree = parse_source("<?php $a = 1 ?>")
        assert isinstance(tree.statements[0], ast.ExpressionStatement)

    def test_missing_semicolon_raises(self):
        with pytest.raises(PhpParseError):
            parse("$a = 1 $b = 2;")


class TestFunctionsAndClasses:
    def test_function_declaration(self):
        (decl,) = parse("function handle($a, &$b, $c = 5) { return $a; }")
        assert isinstance(decl, ast.FunctionDecl)
        assert [p.name for p in decl.params] == ["a", "b", "c"]
        assert decl.params[1].by_ref
        assert isinstance(decl.params[2].default, ast.Literal)

    def test_function_by_ref_return(self):
        (decl,) = parse("function &get_ref() { return $x; }")
        assert decl.by_ref

    def test_type_hints(self):
        (decl,) = parse("function f(array $a, Widget $w) {}")
        assert decl.params[0].type_hint == "array"
        assert decl.params[1].type_hint == "Widget"

    def test_class_with_members(self):
        (decl,) = parse(
            """class Widget extends Base implements Renderable {
                const LIMIT = 10;
                public $name = 'x';
                private static $cache;
                public function render() { echo $this->name; }
                protected static function boot() {}
                var $legacy;
            }"""
        )
        assert isinstance(decl, ast.ClassDecl)
        assert decl.parent == "Base"
        assert decl.interfaces == ["Renderable"]
        assert decl.constants[0].name == "LIMIT"
        assert [p.name for p in decl.properties] == ["name", "cache", "legacy"]
        assert decl.properties[1].static and decl.properties[1].visibility == "private"
        assert decl.properties[2].visibility == "public"  # var == public
        assert [m.name for m in decl.methods] == ["render", "boot"]
        assert decl.methods[1].static

    def test_abstract_class_and_method(self):
        (decl,) = parse("abstract class A { abstract public function f(); }")
        assert decl.is_abstract
        assert decl.methods[0].abstract
        assert decl.methods[0].body is None

    def test_interface(self):
        (decl,) = parse("interface I { public function f(); }")
        assert decl.kind == "interface"

    def test_trait_and_use(self):
        stmts = parse("trait T { public function t() {} } class C { use T; }")
        assert stmts[0].kind == "trait"
        assert stmts[1].uses == ["T"]

    def test_method_call_with_keyword_name(self):
        # `list` is a keyword; PHP allows it after `->`
        expr = parse_expr("$obj->list()")
        assert isinstance(expr, ast.MethodCall)
        assert expr.method == "list"


class TestExpressions:
    def test_assignment_chain_right_assoc(self):
        expr = parse_expr("$a = $b = 1")
        assert isinstance(expr, ast.Assignment)
        assert isinstance(expr.value, ast.Assignment)

    def test_compound_assignment(self):
        expr = parse_expr("$a .= $b")
        assert expr.op == ".="

    def test_assign_by_reference(self):
        expr = parse_expr("$a =& $b")
        assert expr.by_ref

    def test_concat_precedence(self):
        expr = parse_expr("'a' . $b . 'c'")
        assert isinstance(expr, ast.Binary) and expr.op == "."
        assert isinstance(expr.left, ast.Binary)  # left-assoc

    def test_arithmetic_precedence(self):
        expr = parse_expr("1 + 2 * 3")
        assert expr.op == "+"
        assert isinstance(expr.right, ast.Binary) and expr.right.op == "*"

    def test_logical_operators(self):
        expr = parse_expr("$a && $b || $c")
        assert expr.op == "||"

    def test_low_precedence_and(self):
        expr = parse_expr("$a = $b and $c")
        # `and` binds looser than `=`
        assert isinstance(expr, ast.Binary) and expr.op == "and"
        assert isinstance(expr.left, ast.Assignment)

    def test_ternary(self):
        expr = parse_expr("$a ? 'y' : 'n'")
        assert isinstance(expr, ast.Ternary)

    def test_short_ternary(self):
        expr = parse_expr("$a ?: 'n'")
        assert expr.if_true is None

    def test_function_call(self):
        expr = parse_expr("htmlentities($x, 2)")
        assert isinstance(expr, ast.FunctionCall)
        assert expr.name == "htmlentities"
        assert len(expr.args) == 2

    def test_dynamic_call(self):
        expr = parse_expr("$fn($x)")
        assert isinstance(expr, ast.FunctionCall)
        assert isinstance(expr.name, ast.Variable)

    def test_method_call(self):
        expr = parse_expr("$wpdb->get_results($sql)")
        assert isinstance(expr, ast.MethodCall)
        assert expr.method == "get_results"

    def test_chained_method_calls(self):
        expr = parse_expr("$a->b()->c()")
        assert isinstance(expr, ast.MethodCall)
        assert isinstance(expr.object, ast.MethodCall)

    def test_property_access(self):
        expr = parse_expr("$row->sml_name")
        assert isinstance(expr, ast.PropertyAccess)
        assert expr.name == "sml_name"

    def test_static_call_and_property(self):
        call = parse_expr("Widget::make($x)")
        assert isinstance(call, ast.StaticCall)
        prop = parse_expr("Widget::$shared")
        assert isinstance(prop, ast.StaticPropertyAccess)

    def test_class_constant(self):
        expr = parse_expr("Widget::LIMIT")
        assert isinstance(expr, ast.ClassConstAccess)

    def test_new_with_args(self):
        expr = parse_expr("new Widget($a)")
        assert isinstance(expr, ast.New)
        assert expr.class_name == "Widget"

    def test_new_then_method(self):
        expr = parse_expr("new Widget()")
        assert isinstance(expr, ast.New)

    def test_array_literal_long_and_short(self):
        long = parse_expr("array(1, 'k' => 2)")
        short = parse_expr("[1, 'k' => 2]")
        for expr in (long, short):
            assert isinstance(expr, ast.ArrayLiteral)
            assert expr.items[1].key is not None

    def test_array_access_nested(self):
        expr = parse_expr("$a['x'][0]")
        assert isinstance(expr, ast.ArrayAccess)
        assert isinstance(expr.array, ast.ArrayAccess)

    def test_array_append_target(self):
        expr = parse_expr("$a[] = 1")
        assert isinstance(expr.target, ast.ArrayAccess)
        assert expr.target.index is None

    def test_superglobal_access(self):
        expr = parse_expr("$_GET['id']")
        assert expr.array.name == "_GET"

    def test_isset_empty_list(self):
        assert isinstance(parse_expr("isset($a, $b)"), ast.IssetExpr)
        assert isinstance(parse_expr("empty($a)"), ast.EmptyExpr)
        expr = parse_expr("list($a, , $b) = $arr")
        assert isinstance(expr.target, ast.ListExpr)
        assert expr.target.targets[1] is None

    def test_casts(self):
        expr = parse_expr("(int)$_GET['n']")
        assert isinstance(expr, ast.Cast) and expr.to == "int"

    def test_error_suppression(self):
        expr = parse_expr("@file('x')")
        assert isinstance(expr, ast.Unary) and expr.op == "@"

    def test_inc_dec(self):
        pre = parse_expr("++$i")
        post = parse_expr("$i++")
        assert pre.prefix and not post.prefix

    def test_include_require(self):
        expr = parse_expr("require_once dirname(__FILE__) . '/inc.php'")
        assert isinstance(expr, ast.IncludeExpr)
        assert expr.kind == "require_once"

    def test_print_and_exit(self):
        assert isinstance(parse_expr("print $x"), ast.PrintExpr)
        assert isinstance(parse_expr("exit('bye')"), ast.ExitExpr)
        assert isinstance(parse_expr("die()"), ast.ExitExpr)

    def test_closure_with_use(self):
        expr = parse_expr("function ($a) use (&$b) { return $a; }")
        assert isinstance(expr, ast.Closure)
        assert expr.uses[0].by_ref

    def test_instanceof(self):
        expr = parse_expr("$a instanceof Widget")
        assert isinstance(expr, ast.InstanceofExpr)

    def test_clone(self):
        assert isinstance(parse_expr("clone $obj"), ast.Clone)

    def test_interpolated_string_parts(self):
        expr = parse_expr('"Hello $name, {$obj->title}!"')
        assert isinstance(expr, ast.InterpolatedString)
        kinds = [type(p).__name__ for p in expr.parts]
        assert "Variable" in kinds and "PropertyAccess" in kinds

    def test_heredoc_expression(self):
        tree = parse_source('<?php $sql = <<<EOT\nSELECT $x\nEOT;\n')
        assign = tree.statements[0].expr
        assert isinstance(assign.value, ast.InterpolatedString)

    def test_string_literal_unescaping(self):
        expr = parse_expr("'it\\'s'")
        assert expr.value == "it's"
        expr = parse_expr('"tab\\there"')
        assert expr.value == "tab\there"

    def test_line_numbers_on_nodes(self):
        tree = parse_source("<?php\n\n$a = 1;\necho $a;\n")
        assert tree.statements[0].line == 3
        assert tree.statements[1].line == 4


def shape(node):
    """Compact prefix form of an expression tree, for precedence checks."""
    if isinstance(node, ast.Variable):
        return "$" + node.name
    if isinstance(node, ast.Literal):
        return repr(node.value)
    if isinstance(node, ast.ConstFetch):
        return node.name
    if isinstance(node, ast.Binary):
        return f"({node.op} {shape(node.left)} {shape(node.right)})"
    if isinstance(node, ast.Assignment):
        op = "=&" if node.by_ref else node.op
        return f"({op} {shape(node.target)} {shape(node.value)})"
    if isinstance(node, ast.Ternary):
        if_true = "_" if node.if_true is None else shape(node.if_true)
        return f"(? {shape(node.cond)} {if_true} {shape(node.if_false)})"
    if isinstance(node, ast.Unary):
        return f"({node.op} {shape(node.operand)})"
    if isinstance(node, ast.Cast):
        return f"(({node.to}) {shape(node.operand)})"
    if isinstance(node, ast.InstanceofExpr):
        class_name = node.class_name
        if not isinstance(class_name, str):
            class_name = shape(class_name)
        return f"(instanceof {shape(node.expr)} {class_name})"
    if isinstance(node, ast.ArrayAccess):
        return f"{shape(node.array)}[{shape(node.index)}]"
    if isinstance(node, ast.PropertyAccess):
        return f"{shape(node.object)}->{node.name}"
    if isinstance(node, ast.MethodCall):
        return f"{shape(node.object)}->{node.method}()"
    if isinstance(node, ast.New):
        return f"(new {node.class_name})"
    raise AssertionError(f"no shape for {type(node).__name__}")


class TestPrecedence:
    """Operator binding of the expression loop, PHP 5 rules."""

    @pytest.mark.parametrize(
        "source,expected",
        [
            # `and`/`or`/`xor` bind looser than `=`, ranked and > xor > or
            ("$a = $b and $c = $d", "(and (= $a $b) (= $c $d))"),
            ("$a or $b and $c", "(or $a (and $b $c))"),
            ("$a xor $b and $c", "(xor $a (and $b $c))"),
            ("$a or $b xor $c", "(or $a (xor $b $c))"),
            ("$a and $b or $c xor $d", "(or (and $a $b) (xor $c $d))"),
            ("$a or $b or $c", "(or (or $a $b) $c)"),
            ("$a = $b ?: $c", "(= $a (? $b _ $c))"),
            # nested ternaries group to the left (PHP 5)
            ("$a ? $b : $c ? $d : $e", "(? (? $a $b $c) $d $e)"),
            ("$a ?: $b ?: $c", "(? (? $a _ $b) _ $c)"),
            ("$a ? $b ? $c : $d : $e", "(? $a (? $b $c $d) $e)"),
            ("$a ? $b : $c ?? $d", "(? $a $b (?? $c $d))"),
            ("$a ? $b = 1 : $c = 2", "(? $a (= $b 1) (= $c 2))"),
            ("$a ? $b : $c = $d ? $e : $f", "(? $a $b (= $c (? $d $e $f)))"),
            # `??` is right-associative and looser than `||`
            ("$a ?? $b ?? $c", "(?? $a (?? $b $c))"),
            ("$a ?? $b || $c", "(?? $a (|| $b $c))"),
            ("$a ** $b ** $c", "(** $a (** $b $c))"),
            ("$a - $b - $c", "(- (- $a $b) $c)"),
            ("$a . $b + $c", "(+ (. $a $b) $c)"),
            ("$a == $b < $c", "(== $a (< $b $c))"),
            # `!` binds looser than `instanceof`; other prefix operators
            # and casts take a bare operand
            ("!$a instanceof B", "(! (instanceof $a B))"),
            ("!$a instanceof B && $c", "(&& (! (instanceof $a B)) $c)"),
            ("!$a . $b", "(. (! $a) $b)"),
            ("(int) $a . $b", "(. ((int) $a) $b)"),
            ("@$x['k'] . 'y'", "(. (@ $x['k']) 'y')"),
            ("-$a ** 2", "(** (- $a) 2)"),
            ("!$a = $b", "(= (! $a) $b)"),
            ("$a + $b = $c", "(= (+ $a $b) $c)"),
            ("$a =& $b . $c", "(=& $a (. $b $c))"),
            ("$a .= $b . $c", "(.= $a (. $b $c))"),
            ("$a ??= $b ?? $c", "(??= $a (?? $b $c))"),
            ("$a = $b += 1", "(= $a (+= $b 1))"),
            ("$a instanceof $b && $c", "(&& (instanceof $a $b) $c)"),
            ("new A . $b", "(. (new A) $b)"),
            ("(new A)->p", "(new A)->p"),
            ("new A()->m()", "(new A)->m()"),
        ],
    )
    def test_binding(self, source, expected):
        assert shape(parse_expr(source)) == expected

    def test_print_takes_a_whole_expression(self):
        expr = parse_expr("print $a and $b")
        assert isinstance(expr, ast.PrintExpr)
        assert shape(expr.expr) == "(and $a $b)"


class TestEscapes:
    @pytest.mark.parametrize(
        "raw,value",
        [
            ("'it\\'s'", "it's"),
            ("'C:\\path'", "C:\\path"),  # an unknown escape keeps its backslash
            ("'a\\\\b'", "a\\b"),
            ("'plain text'", "plain text"),
            ("''", ""),
        ],
    )
    def test_single_quoted(self, raw, value):
        assert unescape_single_quoted(raw) == value

    @pytest.mark.parametrize(
        "body,value",
        [
            ("\\$x", "$x"),
            ("\\t", "\t"),
            ("a\\nb\\r\\v\\f\\e", "a\nb\r\v\f\x1b"),
            ('say \\"hi\\"', 'say "hi"'),
            ("a\\\\b", "a\\b"),
            ("\\q\\", "\\q\\"),  # unknown escape and a trailing backslash stay
            ("plain text", "plain text"),
        ],
    )
    def test_double_quoted(self, body, value):
        assert unescape_double_quoted(body) == value

    @pytest.mark.parametrize(
        "body,value",
        [
            ("\\012", "\n"),
            ("\\0", "\0"),
            ("\\08", "\x008"),  # 8 is not an octal digit
            ("\\1234", "S4"),  # at most three octal digits
            ("\\101\\102", "AB"),
            ("\\400", "\0"),  # past \377 PHP keeps the low byte
            ("\\x41", "A"),
            ("\\x4a1", "J1"),  # at most two hex digits
            ("\\xA", "\n"),
            ("\\xg", "\\xg"),  # no hex digit: stays literal
            ("\\\\012", "\\012"),  # an escaped backslash is not an octal escape
        ],
    )
    def test_double_quoted_octal_and_hex(self, body, value):
        assert unescape_double_quoted(body) == value

    def test_escapes_reach_literals(self):
        assert parse_expr('"\\x41\\102\\n"').value == "AB\n"
        (part,) = parse_expr('"\\101$x"').parts[:1]
        assert part.value == "A"


class TestParserErrors:
    def test_unclosed_brace(self):
        with pytest.raises(PhpParseError):
            parse("function f() { $a = 1;")

    def test_unexpected_token(self):
        with pytest.raises(PhpParseError):
            parse("$a = ;")

    def test_error_carries_location(self):
        try:
            parse_source("<?php\n$a = ;", filename="bad.php")
        except PhpParseError as error:
            assert error.filename == "bad.php"
            assert error.line == 2
        else:  # pragma: no cover
            raise AssertionError("expected PhpParseError")
