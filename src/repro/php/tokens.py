"""PHP token taxonomy.

phpSAFE's model-construction stage is built on the output of PHP's
``token_get_all`` function (paper, Section III.B): each token is either a
``(token id, value, line)`` triple or a bare one-character string carrying
code semantics (``;``, ``{``, ``=`` ...).  This module reproduces that
taxonomy in Python: :class:`TokenType` mirrors the ``T_*`` identifiers the
paper names explicitly (``T_VARIABLE``, ``T_GLOBAL``, ``T_RETURN``,
``T_IF``, ``T_OBJECT_OPERATOR``, ``T_DOUBLE_COLON`` ...) and
:class:`Token` is the triple.

Single-character punctuation is represented as a :class:`Token` whose type
is :attr:`TokenType.CHAR` and whose value is the character itself, which
keeps the stream homogeneous while preserving PHP's "bare string" tokens.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenType(enum.Enum):
    """Token identifiers mirroring PHP's ``T_*`` constants.

    The subset implemented covers every construct the phpSAFE analysis
    stage dispatches on (paper Section III.C) plus the rest of the PHP 5
    language surface needed to lex real plugin code.

    Members are singletons, so identity hashing is correct — and it
    runs in the C slot instead of ``Enum.__hash__``, which matters for
    the token-type dispatch dicts on the lexer/parser hot path.
    """

    __hash__ = object.__hash__

    # ---- structure ----------------------------------------------------
    INLINE_HTML = "T_INLINE_HTML"
    OPEN_TAG = "T_OPEN_TAG"
    OPEN_TAG_WITH_ECHO = "T_OPEN_TAG_WITH_ECHO"
    CLOSE_TAG = "T_CLOSE_TAG"
    WHITESPACE = "T_WHITESPACE"
    COMMENT = "T_COMMENT"
    DOC_COMMENT = "T_DOC_COMMENT"

    # ---- literals & identifiers ---------------------------------------
    VARIABLE = "T_VARIABLE"
    STRING = "T_STRING"  # identifiers: function/class/const names
    LNUMBER = "T_LNUMBER"
    DNUMBER = "T_DNUMBER"
    CONSTANT_ENCAPSED_STRING = "T_CONSTANT_ENCAPSED_STRING"
    ENCAPSED_AND_WHITESPACE = "T_ENCAPSED_AND_WHITESPACE"
    START_HEREDOC = "T_START_HEREDOC"
    END_HEREDOC = "T_END_HEREDOC"
    CURLY_OPEN = "T_CURLY_OPEN"  # {$  inside double-quoted strings
    DOLLAR_OPEN_CURLY_BRACES = "T_DOLLAR_OPEN_CURLY_BRACES"  # ${ inside strings
    NUM_STRING = "T_NUM_STRING"

    # ---- keywords ------------------------------------------------------
    ABSTRACT = "T_ABSTRACT"
    ARRAY = "T_ARRAY"
    AS = "T_AS"
    BREAK = "T_BREAK"
    CASE = "T_CASE"
    CATCH = "T_CATCH"
    CLASS = "T_CLASS"
    CLONE = "T_CLONE"
    CONST = "T_CONST"
    CONTINUE = "T_CONTINUE"
    DECLARE = "T_DECLARE"
    DEFAULT = "T_DEFAULT"
    DO = "T_DO"
    ECHO = "T_ECHO"
    ELSE = "T_ELSE"
    ELSEIF = "T_ELSEIF"
    EMPTY = "T_EMPTY"
    ENDDECLARE = "T_ENDDECLARE"
    ENDFOR = "T_ENDFOR"
    ENDFOREACH = "T_ENDFOREACH"
    ENDIF = "T_ENDIF"
    ENDSWITCH = "T_ENDSWITCH"
    ENDWHILE = "T_ENDWHILE"
    EXIT = "T_EXIT"
    EXTENDS = "T_EXTENDS"
    FINAL = "T_FINAL"
    FOR = "T_FOR"
    FOREACH = "T_FOREACH"
    FUNCTION = "T_FUNCTION"
    GLOBAL = "T_GLOBAL"
    GOTO = "T_GOTO"
    IF = "T_IF"
    IMPLEMENTS = "T_IMPLEMENTS"
    INCLUDE = "T_INCLUDE"
    INCLUDE_ONCE = "T_INCLUDE_ONCE"
    INSTANCEOF = "T_INSTANCEOF"
    INTERFACE = "T_INTERFACE"
    ISSET = "T_ISSET"
    LIST = "T_LIST"
    LOGICAL_AND = "T_LOGICAL_AND"  # and
    LOGICAL_OR = "T_LOGICAL_OR"  # or
    LOGICAL_XOR = "T_LOGICAL_XOR"  # xor
    NAMESPACE = "T_NAMESPACE"
    NEW = "T_NEW"
    PRINT = "T_PRINT"
    PRIVATE = "T_PRIVATE"
    PROTECTED = "T_PROTECTED"
    PUBLIC = "T_PUBLIC"
    REQUIRE = "T_REQUIRE"
    REQUIRE_ONCE = "T_REQUIRE_ONCE"
    RETURN = "T_RETURN"
    STATIC = "T_STATIC"
    SWITCH = "T_SWITCH"
    THROW = "T_THROW"
    TRAIT = "T_TRAIT"
    TRY = "T_TRY"
    UNSET = "T_UNSET"
    USE = "T_USE"
    VAR = "T_VAR"
    WHILE = "T_WHILE"

    # ---- operators -----------------------------------------------------
    AND_EQUAL = "T_AND_EQUAL"  # &=
    BOOLEAN_AND = "T_BOOLEAN_AND"  # &&
    BOOLEAN_OR = "T_BOOLEAN_OR"  # ||
    COALESCE = "T_COALESCE"  # ??
    COALESCE_EQUAL = "T_COALESCE_EQUAL"  # ??=
    CONCAT_EQUAL = "T_CONCAT_EQUAL"  # .=
    DEC = "T_DEC"  # --
    DIV_EQUAL = "T_DIV_EQUAL"  # /=
    DOUBLE_ARROW = "T_DOUBLE_ARROW"  # =>
    DOUBLE_COLON = "T_DOUBLE_COLON"  # ::
    INC = "T_INC"  # ++
    IS_EQUAL = "T_IS_EQUAL"  # ==
    IS_GREATER_OR_EQUAL = "T_IS_GREATER_OR_EQUAL"  # >=
    IS_IDENTICAL = "T_IS_IDENTICAL"  # ===
    IS_NOT_EQUAL = "T_IS_NOT_EQUAL"  # != or <>
    IS_NOT_IDENTICAL = "T_IS_NOT_IDENTICAL"  # !==
    IS_SMALLER_OR_EQUAL = "T_IS_SMALLER_OR_EQUAL"  # <=
    MINUS_EQUAL = "T_MINUS_EQUAL"  # -=
    MOD_EQUAL = "T_MOD_EQUAL"  # %=
    MUL_EQUAL = "T_MUL_EQUAL"  # *=
    OBJECT_OPERATOR = "T_OBJECT_OPERATOR"  # ->
    OR_EQUAL = "T_OR_EQUAL"  # |=
    PLUS_EQUAL = "T_PLUS_EQUAL"  # +=
    POW = "T_POW"  # **
    SL = "T_SL"  # <<
    SL_EQUAL = "T_SL_EQUAL"  # <<=
    SR = "T_SR"  # >>
    SR_EQUAL = "T_SR_EQUAL"  # >>=
    XOR_EQUAL = "T_XOR_EQUAL"  # ^=

    # ---- casts ----------------------------------------------------------
    ARRAY_CAST = "T_ARRAY_CAST"
    BOOL_CAST = "T_BOOL_CAST"
    DOUBLE_CAST = "T_DOUBLE_CAST"
    INT_CAST = "T_INT_CAST"
    OBJECT_CAST = "T_OBJECT_CAST"
    STRING_CAST = "T_STRING_CAST"
    UNSET_CAST = "T_UNSET_CAST"

    # ---- misc ------------------------------------------------------------
    FILE = "T_FILE"
    LINE = "T_LINE"
    DIR = "T_DIR"
    FUNC_C = "T_FUNC_C"
    CLASS_C = "T_CLASS_C"
    METHOD_C = "T_METHOD_C"
    NS_SEPARATOR = "T_NS_SEPARATOR"  # \
    ELLIPSIS = "T_ELLIPSIS"  # ...
    HALT_COMPILER = "T_HALT_COMPILER"

    # bare one-character token ("code semantics" strings in the paper)
    CHAR = "CHAR"

    # end of stream sentinel (not a PHP token)
    EOF = "EOF"


#: Mapping from PHP keyword spelling (lower-cased) to its token type.
KEYWORDS = {
    "abstract": TokenType.ABSTRACT,
    "and": TokenType.LOGICAL_AND,
    "array": TokenType.ARRAY,
    "as": TokenType.AS,
    "break": TokenType.BREAK,
    "case": TokenType.CASE,
    "catch": TokenType.CATCH,
    "class": TokenType.CLASS,
    "clone": TokenType.CLONE,
    "const": TokenType.CONST,
    "continue": TokenType.CONTINUE,
    "declare": TokenType.DECLARE,
    "default": TokenType.DEFAULT,
    "die": TokenType.EXIT,
    "do": TokenType.DO,
    "echo": TokenType.ECHO,
    "else": TokenType.ELSE,
    "elseif": TokenType.ELSEIF,
    "empty": TokenType.EMPTY,
    "enddeclare": TokenType.ENDDECLARE,
    "endfor": TokenType.ENDFOR,
    "endforeach": TokenType.ENDFOREACH,
    "endif": TokenType.ENDIF,
    "endswitch": TokenType.ENDSWITCH,
    "endwhile": TokenType.ENDWHILE,
    "exit": TokenType.EXIT,
    "extends": TokenType.EXTENDS,
    "final": TokenType.FINAL,
    "for": TokenType.FOR,
    "foreach": TokenType.FOREACH,
    "function": TokenType.FUNCTION,
    "global": TokenType.GLOBAL,
    "goto": TokenType.GOTO,
    "if": TokenType.IF,
    "implements": TokenType.IMPLEMENTS,
    "include": TokenType.INCLUDE,
    "include_once": TokenType.INCLUDE_ONCE,
    "instanceof": TokenType.INSTANCEOF,
    "interface": TokenType.INTERFACE,
    "isset": TokenType.ISSET,
    "list": TokenType.LIST,
    "namespace": TokenType.NAMESPACE,
    "new": TokenType.NEW,
    "or": TokenType.LOGICAL_OR,
    "print": TokenType.PRINT,
    "private": TokenType.PRIVATE,
    "protected": TokenType.PROTECTED,
    "public": TokenType.PUBLIC,
    "require": TokenType.REQUIRE,
    "require_once": TokenType.REQUIRE_ONCE,
    "return": TokenType.RETURN,
    "static": TokenType.STATIC,
    "switch": TokenType.SWITCH,
    "throw": TokenType.THROW,
    "trait": TokenType.TRAIT,
    "try": TokenType.TRY,
    "unset": TokenType.UNSET,
    "use": TokenType.USE,
    "var": TokenType.VAR,
    "while": TokenType.WHILE,
    "xor": TokenType.LOGICAL_XOR,
    "__file__": TokenType.FILE,
    "__line__": TokenType.LINE,
    "__dir__": TokenType.DIR,
    "__function__": TokenType.FUNC_C,
    "__class__": TokenType.CLASS_C,
    "__method__": TokenType.METHOD_C,
    "__halt_compiler": TokenType.HALT_COMPILER,
}

#: Multi-character operators, longest first so the lexer can scan greedily.
OPERATORS = [
    ("<<=", TokenType.SL_EQUAL),
    (">>=", TokenType.SR_EQUAL),
    ("===", TokenType.IS_IDENTICAL),
    ("!==", TokenType.IS_NOT_IDENTICAL),
    ("...", TokenType.ELLIPSIS),
    ("??=", TokenType.COALESCE_EQUAL),
    ("**", TokenType.POW),
    ("??", TokenType.COALESCE),
    ("==", TokenType.IS_EQUAL),
    ("!=", TokenType.IS_NOT_EQUAL),
    ("<>", TokenType.IS_NOT_EQUAL),
    ("<=", TokenType.IS_SMALLER_OR_EQUAL),
    (">=", TokenType.IS_GREATER_OR_EQUAL),
    ("&&", TokenType.BOOLEAN_AND),
    ("||", TokenType.BOOLEAN_OR),
    ("->", TokenType.OBJECT_OPERATOR),
    ("=>", TokenType.DOUBLE_ARROW),
    ("::", TokenType.DOUBLE_COLON),
    ("++", TokenType.INC),
    ("--", TokenType.DEC),
    ("+=", TokenType.PLUS_EQUAL),
    ("-=", TokenType.MINUS_EQUAL),
    ("*=", TokenType.MUL_EQUAL),
    ("/=", TokenType.DIV_EQUAL),
    (".=", TokenType.CONCAT_EQUAL),
    ("%=", TokenType.MOD_EQUAL),
    ("&=", TokenType.AND_EQUAL),
    ("|=", TokenType.OR_EQUAL),
    ("^=", TokenType.XOR_EQUAL),
    ("<<", TokenType.SL),
    (">>", TokenType.SR),
]

#: Cast spellings recognized inside ``( ... )`` — e.g. ``(int)$x``.
CASTS = {
    "int": TokenType.INT_CAST,
    "integer": TokenType.INT_CAST,
    "bool": TokenType.BOOL_CAST,
    "boolean": TokenType.BOOL_CAST,
    "float": TokenType.DOUBLE_CAST,
    "double": TokenType.DOUBLE_CAST,
    "real": TokenType.DOUBLE_CAST,
    "string": TokenType.STRING_CAST,
    "array": TokenType.ARRAY_CAST,
    "object": TokenType.OBJECT_CAST,
    "unset": TokenType.UNSET_CAST,
}


class Token(NamedTuple):
    """One lexical token: the paper's ``[id, value, line]`` triple.

    A named tuple, so a token is immutable, hashable, comparable and
    picklable by construction, and the lexer can build one entirely in
    C with ``tuple.__new__(Token, (type, value, line))``: calling
    ``Token(...)`` runs a Python ``__new__`` frame, and token streams
    are the analyzer's highest-volume allocation.
    """

    type: TokenType
    value: str
    line: int

    def is_char(self, char: str) -> bool:
        """True when this is the bare one-character token ``char``."""
        return self.type is TokenType.CHAR and self.value == char

    @property
    def name(self) -> str:
        """The PHP ``token_name``-style identifier (e.g. ``T_VARIABLE``)."""
        return self.type.value

    def __repr__(self) -> str:  # compact, mirrors the paper's example
        return f"[{self.name}, {self.value!r}, {self.line}]"


#: Token types that carry no program semantics and are dropped when the
#: model-construction stage "cleans the AST by removing comments and extra
#: whitespaces" (paper Section III.B).
TRIVIA = frozenset(
    {
        TokenType.WHITESPACE,
        TokenType.COMMENT,
        TokenType.DOC_COMMENT,
    }
)
