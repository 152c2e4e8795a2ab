"""Unit tests for the token taxonomy."""

import pickle

from repro.php.lexer import tokenize_significant
from repro.php.tokens import CASTS, KEYWORDS, OPERATORS, TRIVIA, Token, TokenType


class TestToken:
    def test_repr_matches_paper_triple(self):
        token = Token(TokenType.VARIABLE, "$_POST", 11)
        assert repr(token) == "[T_VARIABLE, '$_POST', 11]"

    def test_name_is_php_identifier(self):
        assert Token(TokenType.GLOBAL, "global", 1).name == "T_GLOBAL"
        assert Token(TokenType.OBJECT_OPERATOR, "->", 2).name == "T_OBJECT_OPERATOR"

    def test_is_char(self):
        semi = Token(TokenType.CHAR, ";", 1)
        assert semi.is_char(";")
        assert not semi.is_char("{")
        assert not Token(TokenType.VARIABLE, ";", 1).is_char(";")

    def test_tokens_are_immutable(self):
        token = Token(TokenType.STRING, "foo", 1)
        try:
            token.value = "bar"
        except AttributeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("Token should be frozen")

    def test_pickle_round_trip(self):
        token = Token(TokenType.VARIABLE, "$_GET", 7)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(token, protocol))
            assert copy == token and type(copy) is Token
            assert repr(copy) == "[T_VARIABLE, '$_GET', 7]"

    def test_equal_tokens_hash_equal(self):
        a = Token(TokenType.STRING, "foo", 3)
        b = Token(TokenType.STRING, "".join(["f", "oo"]), 3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Token(TokenType.STRING, "foo", 4)
        assert a != Token(TokenType.VARIABLE, "foo", 3)

    def test_lexer_tokens_are_tokens(self):
        token = tokenize_significant("<?php $x;")[1]
        assert type(token) is Token
        assert token == Token(TokenType.VARIABLE, "$x", 1)
        assert (token.name, token.type, token.value, token.line) == (
            "T_VARIABLE", TokenType.VARIABLE, "$x", 1
        )
        assert tokenize_significant("<?php $x;")[2].is_char(";")


class TestKeywordTable:
    def test_paper_dispatch_keywords_present(self):
        # every construct Section III.C dispatches on has a keyword
        for keyword in (
            "global", "return", "if", "else", "elseif", "switch",
            "for", "while", "do", "foreach", "unset", "echo",
        ):
            assert keyword in KEYWORDS

    def test_oop_keywords_present(self):
        for keyword in ("class", "new", "extends", "public", "private", "static"):
            assert keyword in KEYWORDS

    def test_die_aliases_exit(self):
        assert KEYWORDS["die"] is TokenType.EXIT
        assert KEYWORDS["exit"] is TokenType.EXIT

    def test_keywords_lowercase(self):
        assert all(keyword == keyword.lower() for keyword in KEYWORDS)


class TestOperatorTable:
    def test_longest_first_scanning_order(self):
        lengths = [len(spelling) for spelling, _type in OPERATORS]
        assert lengths == sorted(lengths, reverse=True)

    def test_object_and_scope_operators(self):
        table = dict(OPERATORS)
        assert table["->"] is TokenType.OBJECT_OPERATOR
        assert table["::"] is TokenType.DOUBLE_COLON
        assert table["=>"] is TokenType.DOUBLE_ARROW

    def test_no_duplicate_spellings(self):
        spellings = [spelling for spelling, _type in OPERATORS]
        assert len(spellings) == len(set(spellings))


class TestCastTable:
    def test_aliases(self):
        assert CASTS["int"] is CASTS["integer"]
        assert CASTS["bool"] is CASTS["boolean"]
        assert CASTS["float"] is CASTS["double"] is CASTS["real"]


class TestTrivia:
    def test_trivia_covers_comments_and_whitespace(self):
        assert TokenType.WHITESPACE in TRIVIA
        assert TokenType.COMMENT in TRIVIA
        assert TokenType.DOC_COMMENT in TRIVIA
        assert TokenType.VARIABLE not in TRIVIA
