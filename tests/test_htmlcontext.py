"""Tests for markup-context analysis (context-sensitive XSS)."""

import random
import re

import pytest

from repro.core import PhpSafe
from repro.php.htmlcontext import MarkupContext, context_at_end, sanitizer_for


class TestStateMachine:
    @pytest.mark.parametrize(
        "markup,expected",
        [
            ("", MarkupContext.HTML_TEXT),
            ("<p>Hello ", MarkupContext.HTML_TEXT),
            ("<div><span>x</span>", MarkupContext.HTML_TEXT),
            ('<input value="', MarkupContext.ATTRIBUTE),
            ("<input value='", MarkupContext.ATTRIBUTE),
            ('<a href="', MarkupContext.URL_ATTRIBUTE),
            ('<img src="', MarkupContext.URL_ATTRIBUTE),
            ('<form action="', MarkupContext.URL_ATTRIBUTE),
            ("<b class=", MarkupContext.ATTRIBUTE_UNQUOTED),
            ("<script>var a = ", MarkupContext.SCRIPT),
            ("<script type='text/javascript'>f(", MarkupContext.SCRIPT),
            ("<style>.x { color: ", MarkupContext.STYLE),
            ("<!-- note ", MarkupContext.COMMENT),
            ("<div ", MarkupContext.TAG),
            ('<div id="a" ', MarkupContext.TAG),
            ('<div onclick="go(', MarkupContext.SCRIPT),  # event handler
        ],
    )
    def test_context_detection(self, markup, expected):
        assert context_at_end(markup) is expected

    def test_closed_contexts_return_to_text(self):
        assert context_at_end('<input value="x">') is MarkupContext.HTML_TEXT
        assert context_at_end("<script>f();</script>") is MarkupContext.HTML_TEXT
        assert context_at_end("<!-- c -->") is MarkupContext.HTML_TEXT

    def test_attribute_closes_back_to_tag(self):
        assert context_at_end('<a href="x" title="') is MarkupContext.ATTRIBUTE

    def test_script_not_fooled_by_less_than(self):
        assert context_at_end("<script>if (a < b) {") is MarkupContext.SCRIPT

    def test_sanitizer_recommendations(self):
        assert sanitizer_for("<p>") == "esc_html"
        assert sanitizer_for('<input value="') == "esc_attr"
        assert sanitizer_for('<a href="') == "esc_url"
        assert sanitizer_for("<script>x(") == "esc_js"


class TestJumpScan:
    """States the scanner leaves by jumping to the next state change."""

    @pytest.mark.parametrize(
        "markup,expected",
        [
            # raw text closes on `</script` / `</style` in any case
            ("<script>f();</SCRIPT>", MarkupContext.HTML_TEXT),
            ("<script>f();</SCRIPT ", MarkupContext.TAG),
            ("<STYLE>p {}</Style><b>", MarkupContext.HTML_TEXT),
            ("<script>x = '</scrip", MarkupContext.SCRIPT),
            ("<script>x</\u017fcript>", MarkupContext.SCRIPT),  # long s is no `s`
            # a self-closing tag opens no raw-text element
            ("<script/>", MarkupContext.HTML_TEXT),
            ("<script src='a.js' />", MarkupContext.HTML_TEXT),
            ("<script src='a.js'>", MarkupContext.SCRIPT),
            # an unquoted event handler is a script context
            ("<a onclick=", MarkupContext.SCRIPT),
            ("<a onclick=go(", MarkupContext.SCRIPT),
            ("<a onclick=go() ", MarkupContext.TAG),
            ("<a title=x>", MarkupContext.HTML_TEXT),
            # `<` and `>` inside a comment change nothing until `-->`
            ("<!-- <script> <a href=", MarkupContext.COMMENT),
            ("<!-- <script> --><p>", MarkupContext.HTML_TEXT),
            # `=` and `>` inside a quoted value change nothing until the quote
            ('<a title="a=b>c" href=', MarkupContext.ATTRIBUTE_UNQUOTED),
            ('<a title="a=b>c" href="', MarkupContext.URL_ATTRIBUTE),
            ("<a title='x=\"y' onclick='", MarkupContext.SCRIPT),
            # the attribute name is the one left of the last `=`
            ("<a data-x = '", MarkupContext.ATTRIBUTE),
            ("<a x=y  href = '", MarkupContext.URL_ATTRIBUTE),
        ],
    )
    def test_context(self, markup, expected):
        assert context_at_end(markup) is expected

    def test_long_text_before_the_tag(self):
        markup = "<p class='c' id=x>" + "text " * 20000 + "<a href='"
        assert context_at_end(markup) is MarkupContext.URL_ATTRIBUTE


def reference_context(markup):
    """The state machine stepped one character at a time: the reference
    the jump-scanning :func:`context_at_end` must agree with."""
    state = MarkupContext.HTML_TEXT
    index = 0
    quote = None
    current_attr = ""
    raw_element = ""
    while index < len(markup):
        char = markup[index]
        if state is MarkupContext.COMMENT:
            if markup.startswith("-->", index):
                state = MarkupContext.HTML_TEXT
                index += 3
            else:
                index += 1
        elif state in (MarkupContext.SCRIPT, MarkupContext.STYLE):
            closer = f"</{raw_element}"
            if markup[index:index + len(closer)].lower() == closer:
                state = MarkupContext.TAG
                raw_element = ""
                index += len(closer)
            else:
                index += 1
        elif state is MarkupContext.HTML_TEXT:
            if markup.startswith("<!--", index):
                state = MarkupContext.COMMENT
                index += 4
                continue
            if char == "<":
                state = MarkupContext.TAG
                current_attr = ""
                match = re.match(r"</?\s*([a-zA-Z][a-zA-Z0-9]*)", markup[index:])
                raw_element = match.group(1).lower() if match else ""
            index += 1
        elif state is MarkupContext.TAG:
            if char == ">":
                if raw_element in ("script", "style") and not markup[
                    :index
                ].rstrip().endswith("/"):
                    state = (
                        MarkupContext.SCRIPT
                        if raw_element == "script"
                        else MarkupContext.STYLE
                    )
                else:
                    state = MarkupContext.HTML_TEXT
                    raw_element = ""
                index += 1
            elif char == "=":
                left = re.search(r"([a-zA-Z_:][\w:.-]*)\s*$", markup[:index])
                current_attr = left.group(1).lower() if left else ""
                rest = markup[index + 1:]
                stripped = rest.lstrip()
                offset = len(rest) - len(stripped)
                if stripped[:1] in ("'", '"'):
                    quote = stripped[0]
                    state = (
                        MarkupContext.URL_ATTRIBUTE
                        if current_attr in ("href", "src", "action", "formaction", "data")
                        else MarkupContext.ATTRIBUTE
                    )
                    index += 2 + offset
                else:
                    state = MarkupContext.ATTRIBUTE_UNQUOTED
                    index += 1 + offset
            else:
                index += 1
        elif state in (MarkupContext.ATTRIBUTE, MarkupContext.URL_ATTRIBUTE):
            if char == quote:
                state = MarkupContext.TAG
                current_attr = ""
            index += 1
        else:  # ATTRIBUTE_UNQUOTED
            if char in " \t\n>":
                state = MarkupContext.HTML_TEXT if char == ">" else MarkupContext.TAG
                current_attr = ""
            index += 1
    if state in (MarkupContext.ATTRIBUTE, MarkupContext.ATTRIBUTE_UNQUOTED):
        if current_attr.startswith("on"):
            return MarkupContext.SCRIPT
    return state


class TestAgainstReference:
    PIECES = (
        "<", ">", "=", "'", '"', " ", "\t", "\n", "\r", "/", "-", "-->", "<!--",
        "a", "on", "onclick", "href", "src", "title", "data-x", ":", ".", "1",
        "script", "SCRIPT", "style", "</script", "</SCRIPT", "</sTyLe", "<script",
        "<style", "<a", "<div", "\u212a", "\u0130", "\u017f", "\x0b",
    )

    def test_random_markup_matches_the_reference(self):
        rng = random.Random(11)
        for _ in range(5000):
            markup = "".join(rng.choice(self.PIECES) for _ in range(rng.randint(0, 30)))
            assert context_at_end(markup) is reference_context(markup), repr(markup)


class TestEngineIntegration:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("<?php echo '<p>' . $_GET['a'] . '</p>';", "html"),
            ("<?php echo '<input value=\"' . $_GET['a'] . '\">';", "attribute"),
            ("<?php echo '<a href=\"' . $_GET['a'] . '\">';", "url"),
            ("<?php echo '<script>v(' . $_GET['a'] . ')</script>';", "script"),
            ("<?php echo $_GET['a'];", "html"),
        ],
    )
    def test_findings_carry_context(self, source, expected):
        finding = PhpSafe().analyze_source(source).findings[0]
        assert finding.markup_context == expected

    def test_interpolated_string_context(self):
        source = '<?php $u = $_GET[\'u\']; echo "<a href=\\"$u\\">";'
        finding = PhpSafe().analyze_source(source).findings[0]
        assert finding.markup_context == "url"

    def test_context_through_variable_prefix(self):
        # prefix built in a variable: the engine only sees the sink
        # expression, so the context falls back to the default
        source = "<?php $p = '<b>'; echo $p . $_GET['a'];"
        finding = PhpSafe().analyze_source(source).findings[0]
        assert finding.markup_context in ("html", "")

    def test_non_xss_findings_have_no_context(self):
        source = "<?php mysql_query('Q' . $_GET['a']);"
        finding = PhpSafe().analyze_source(source).findings[0]
        assert finding.markup_context == ""

    def test_fix_hint_uses_context(self):
        from repro.core.review import fix_hint

        finding = PhpSafe().analyze_source(
            "<?php echo '<a href=\"' . $_GET['u'] . '\">';"
        ).findings[0]
        assert "esc_url()" in fix_hint(finding)

    def test_autofix_uses_context_sanitizer(self):
        from repro.core.autofix import apply_fixes
        from repro.plugin import Plugin

        plugin = Plugin(
            name="t",
            files={"t.php": "<?php echo '<input value=\"' . $_GET['v'] . '\">';"},
        )
        report = PhpSafe().analyze(plugin)
        patched, _proposals = apply_fixes(plugin, report.findings)
        assert "esc_attr(" in patched.files["t.php"]
        assert not PhpSafe().analyze(patched).findings
