"""Unit tests for the PHP lexer (token_get_all equivalent)."""

import pytest

from repro.php import PhpLexError, tokenize, tokenize_significant
from repro.php.lexer import Lexer, count_loc
from repro.php.tokens import TokenType


def types(source):
    return [token.type for token in tokenize_significant(source)]


def values(source):
    return [token.value for token in tokenize_significant(source)]


class TestHtmlAndTags:
    def test_pure_html(self):
        tokens = tokenize("<b>hello</b>")
        assert [t.type for t in tokens] == [TokenType.INLINE_HTML]
        assert tokens[0].value == "<b>hello</b>"

    def test_open_close_tags(self):
        tokens = tokenize("<p><?php $x; ?></p>")
        kinds = [t.type for t in tokens]
        assert kinds == [
            TokenType.INLINE_HTML,
            TokenType.OPEN_TAG,
            TokenType.WHITESPACE,
            TokenType.VARIABLE,
            TokenType.CHAR,
            TokenType.WHITESPACE,
            TokenType.CLOSE_TAG,
            TokenType.INLINE_HTML,
        ]

    def test_short_echo_tag(self):
        tokens = tokenize("<?= $x ?>")
        assert tokens[0].type is TokenType.OPEN_TAG_WITH_ECHO

    def test_html_between_php_blocks(self):
        tokens = tokenize("<?php $a; ?>mid<?php $b;")
        html = [t for t in tokens if t.type is TokenType.INLINE_HTML]
        assert len(html) == 1 and html[0].value == "mid"


class TestVariablesAndIdentifiers:
    def test_variable_token(self):
        tokens = tokenize_significant("<?php $_POST;")
        assert tokens[1].type is TokenType.VARIABLE
        assert tokens[1].value == "$_POST"

    def test_keywords_case_insensitive(self):
        assert TokenType.IF in types("<?php IF (1) {}")
        assert TokenType.FUNCTION in types("<?php Function f() {}")

    def test_identifier(self):
        tokens = tokenize_significant("<?php htmlentities($x);")
        assert tokens[1].type is TokenType.STRING
        assert tokens[1].value == "htmlentities"

    def test_variable_variable(self):
        kinds = types("<?php $$name;")
        assert kinds[1:3] == [TokenType.CHAR, TokenType.VARIABLE]


class TestLineNumbers:
    def test_lines_tracked_through_whitespace(self):
        source = "<?php\n$a;\n\n$b;"
        tokens = [t for t in tokenize_significant(source) if t.type is TokenType.VARIABLE]
        assert [t.line for t in tokens] == [2, 4]

    def test_lines_tracked_through_strings(self):
        source = "<?php\n$a = 'x\ny';\n$b;"
        last = [t for t in tokenize_significant(source) if t.value == "$b"][0]
        assert last.line == 4  # the string literal spans lines 2-3

    def test_lines_tracked_through_comments(self):
        source = "<?php\n/* a\nb\nc */\n$z;"
        token = [t for t in tokenize_significant(source) if t.value == "$z"][0]
        assert token.line == 5


class TestComments:
    def test_line_comment_slash(self):
        assert TokenType.COMMENT in [t.type for t in tokenize("<?php // hi\n$a;")]

    def test_line_comment_hash(self):
        assert TokenType.COMMENT in [t.type for t in tokenize("<?php # hi\n$a;")]

    def test_line_comment_stops_at_close_tag(self):
        tokens = tokenize("<?php // note ?>after")
        kinds = [t.type for t in tokens]
        assert TokenType.CLOSE_TAG in kinds
        assert TokenType.INLINE_HTML in kinds

    def test_block_comment(self):
        tokens = tokenize("<?php /* x */ $a;")
        comment = [t for t in tokens if t.type is TokenType.COMMENT][0]
        assert comment.value == "/* x */"

    def test_doc_comment(self):
        tokens = tokenize("<?php /** doc */ $a;")
        assert any(t.type is TokenType.DOC_COMMENT for t in tokens)

    def test_unterminated_block_comment_runs_to_eof(self):
        # PHP warns and makes the rest of the file one comment
        source = "<?php $a = 1; /* open\n$b = $_GET[1]; echo $b;"
        tokens = tokenize(source)
        assert [(t.type, t.value, t.line) for t in tokens[-3:]] == [
            (TokenType.CHAR, ";", 1),
            (TokenType.WHITESPACE, " ", 1),
            (TokenType.COMMENT, "/* open\n$b = $_GET[1]; echo $b;", 1),
        ]
        assert values(source + "\n") == ["<?php", "$a", "=", "1", ";"]
        lexer = Lexer(source)
        lexer.tokenize()
        assert lexer.line == 2
        assert tokenize("<?php /** open")[-1].type is TokenType.DOC_COMMENT

    def test_unterminated_block_comment_is_no_parse_failure(self):
        from repro.core import PhpSafe

        source = "<?php $a = 1; /* open\n$b = $_GET[1]; echo $b;"
        report = PhpSafe().analyze_source(source)
        assert report.failures == [] and report.findings == []

    def test_significant_strips_trivia(self):
        kinds = types("<?php /* c */ $a; // t")
        assert TokenType.COMMENT not in kinds
        assert TokenType.WHITESPACE not in kinds


class TestNumbers:
    @pytest.mark.parametrize(
        "literal,type_",
        [
            ("42", TokenType.LNUMBER),
            ("0x1F", TokenType.LNUMBER),
            ("0b101", TokenType.LNUMBER),
            ("3.14", TokenType.DNUMBER),
            (".5", TokenType.DNUMBER),
            ("1e10", TokenType.DNUMBER),
            ("2.5e-3", TokenType.DNUMBER),
        ],
    )
    def test_number_forms(self, literal, type_):
        tokens = tokenize_significant(f"<?php $x = {literal};")
        assert tokens[3].type is type_
        assert tokens[3].value == literal


class TestStrings:
    def test_single_quoted(self):
        tokens = tokenize_significant("<?php 'a\\'b';")
        assert tokens[1].type is TokenType.CONSTANT_ENCAPSED_STRING
        assert tokens[1].value == "'a\\'b'"

    def test_double_quoted_constant(self):
        tokens = tokenize_significant('<?php "plain";')
        assert tokens[1].type is TokenType.CONSTANT_ENCAPSED_STRING

    def test_double_quoted_interpolation(self):
        kinds = types('<?php "a $x b";')
        assert TokenType.ENCAPSED_AND_WHITESPACE in kinds
        assert TokenType.VARIABLE in kinds

    def test_complex_interpolation(self):
        kinds = types('<?php "{$obj->prop}";')
        assert TokenType.CURLY_OPEN in kinds
        assert TokenType.OBJECT_OPERATOR in kinds

    def test_simple_array_interpolation(self):
        vals = values('<?php "x $arr[3] y";')
        assert "$arr" in vals and "3" in vals

    def test_simple_property_interpolation(self):
        kinds = types('<?php "v $row->name!";')
        assert TokenType.OBJECT_OPERATOR in kinds

    def test_escaped_dollar_not_interpolated(self):
        tokens = tokenize_significant('<?php "a \\$x";')
        assert tokens[1].type is TokenType.CONSTANT_ENCAPSED_STRING

    def test_unterminated_string_raises(self):
        with pytest.raises(PhpLexError):
            tokenize("<?php 'oops")

    def test_unterminated_double_raises(self):
        with pytest.raises(PhpLexError):
            tokenize('<?php "oops')


class TestHeredoc:
    def test_heredoc_tokens(self):
        source = "<?php $q = <<<EOT\nline $x more\nEOT;\n"
        kinds = types(source)
        assert TokenType.START_HEREDOC in kinds
        assert TokenType.END_HEREDOC in kinds
        assert TokenType.VARIABLE in kinds

    def test_nowdoc_no_interpolation(self):
        source = "<?php $q = <<<'EOT'\nraw $x\nEOT;\n"
        tokens = tokenize_significant(source)
        body = [t for t in tokens if t.type is TokenType.ENCAPSED_AND_WHITESPACE]
        assert body and "$x" in body[0].value
        assert not any(t.type is TokenType.VARIABLE and t.value == "$x" for t in tokens)

    def test_unterminated_heredoc_raises(self):
        with pytest.raises(PhpLexError):
            tokenize("<?php $q = <<<EOT\nno end\n")


class TestOperatorsAndCasts:
    def test_object_operator(self):
        assert TokenType.OBJECT_OPERATOR in types("<?php $a->b;")

    def test_double_colon(self):
        assert TokenType.DOUBLE_COLON in types("<?php A::b();")

    def test_compound_assignments(self):
        assert TokenType.CONCAT_EQUAL in types("<?php $a .= 'x';")
        assert TokenType.PLUS_EQUAL in types("<?php $a += 1;")

    def test_comparison_operators(self):
        kinds = types("<?php 1 === 2; 1 !== 2; 1 <> 2;")
        assert TokenType.IS_IDENTICAL in kinds
        assert TokenType.IS_NOT_IDENTICAL in kinds
        assert kinds.count(TokenType.IS_NOT_EQUAL) == 1

    @pytest.mark.parametrize(
        "cast,type_",
        [
            ("(int)", TokenType.INT_CAST),
            ("( integer )", TokenType.INT_CAST),
            ("(bool)", TokenType.BOOL_CAST),
            ("(string)", TokenType.STRING_CAST),
            ("(array)", TokenType.ARRAY_CAST),
        ],
    )
    def test_casts(self, cast, type_):
        assert type_ in types(f"<?php $a = {cast}$b;")

    def test_paren_not_cast(self):
        kinds = types("<?php $a = (foo)($b);")
        assert TokenType.INT_CAST not in kinds
        assert kinds.count(TokenType.CHAR) >= 4  # parens survive

    def test_tabs_pad_a_cast(self):
        tokens = tokenize_significant("<?php $a = (\tint \t)$b;")
        casts = [t.value for t in tokens if t.type is TokenType.INT_CAST]
        assert casts == ["(\tint \t)"]

    def test_newline_inside_parens_is_not_a_cast(self):
        # PHP's scanner pads a cast with spaces and tabs only
        tokens = tokenize_significant("<?php $a = (\nint\n) $b;\necho $c;")
        assert [(t.name, t.value, t.line) for t in tokens[1:]] == [
            ("T_VARIABLE", "$a", 1),
            ("CHAR", "=", 1),
            ("CHAR", "(", 1),
            ("T_STRING", "int", 2),
            ("CHAR", ")", 3),
            ("T_VARIABLE", "$b", 3),
            ("CHAR", ";", 3),
            ("T_ECHO", "echo", 4),
            ("T_VARIABLE", "$c", 4),
            ("CHAR", ";", 4),
        ]


class TestLocCounter:
    def test_counts_code_lines_only(self):
        source = "<?php\n// comment\n\n$a = 1;\n/* block\n   more */\n$b = 2;\n"
        assert count_loc(source) == 3  # <?php, $a, $b

    def test_empty_source(self):
        assert count_loc("") == 0

    def test_star_continuation_lines_skipped(self):
        source = "<?php\n/**\n * doc\n */\n$a;\n"
        assert count_loc(source) == 2
