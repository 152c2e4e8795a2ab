"""A PHP lexer equivalent to ``token_get_all``.

phpSAFE's model construction (paper Section III.B) starts from the token
stream PHP's ``token_get_all`` produces.  This module reimplements that
scanner in Python: it understands inline HTML versus ``<?php`` regions,
single- and double-quoted strings with ``$var`` / ``{$expr}``
interpolation, heredoc/nowdoc, line and block comments, casts, and the
full PHP 5 operator set.

The scanner is single-pass over the source string: every match is
anchored at ``self.pos`` (``pattern.match(source, pos)`` /
``source.startswith(lit, pos)``) so no intermediate slices are built,
and PHP-mode scanning dispatches through a table keyed on the current
character instead of a conditional ladder.  Identifier and variable
spellings are interned — plugin code repeats the same names thousands
of times, and interning makes the later ``==`` checks in the parser
and engine pointer comparisons.  Each :class:`Token` is built in C
(``tuple.__new__``), so no Python frame runs per token.

The public entry points are :func:`tokenize` (returns every token,
including whitespace and comments — mirroring ``token_get_all``) and
:func:`tokenize_significant` (comments and whitespace stripped, which is
what the analyzer consumes after the paper's "clean the AST" step).
"""

from __future__ import annotations

import re
import time
from sys import intern
from typing import Iterator, List, Optional

from ..incidents import Incident, IncidentSeverity, IncidentStage
from ..perf import counters
from .errors import PhpLexError
from .tokens import CASTS, KEYWORDS, OPERATORS, Token, TokenType

_IDENT_START = re.compile(r"[A-Za-z_\x80-\xff]")
_IDENT_FULL = re.compile(r"[A-Za-z_\x80-\xff][A-Za-z0-9_\x80-\xff]*")
_VARIABLE = re.compile(r"\$[A-Za-z_\x80-\xff][A-Za-z0-9_\x80-\xff]*")
_WHITESPACE = re.compile(r"[ \t\r\n]+")
_LINE_COMMENT = re.compile(r"(?:#|//).*?(?=\?>|\n|$)", re.DOTALL)
_HEX = re.compile(r"0[xX][0-9a-fA-F]+")
_BIN = re.compile(r"0[bB][01]+")
_FLOAT = re.compile(r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+")
_INT = re.compile(r"\d+")
_CAST = re.compile(r"\([ \t]*([A-Za-z]+)[ \t]*\)")
_OPEN_TAG = re.compile(r"<\?(php\b|=)?", re.IGNORECASE)
_HEREDOC_START = re.compile(r"<<<[ \t]*(['\"]?)([A-Za-z_][A-Za-z0-9_]*)\1\r?\n")
_INTERP_INDEX = re.compile(r"\$[A-Za-z_][A-Za-z0-9_]*|\d+|[A-Za-z_][A-Za-z0-9_]*")
_INTERP_PROP = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: ``_new(Token, (type, value, line))`` builds a token in C, without the
#: Python ``__new__`` frame that calling ``Token(...)`` runs
_new = tuple.__new__

#: identifier characters, used to build the dispatch table below
_IDENT_CHARS = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
    + "".join(chr(c) for c in range(0x80, 0x100))
)

#: multi-character operators grouped by first character, longest first
#: (inherits the ordering of :data:`OPERATORS`)
_OPERATORS_BY_FIRST = {}
for _spelling, _type in OPERATORS:
    _OPERATORS_BY_FIRST.setdefault(_spelling[0], []).append((_spelling, _type))
del _spelling, _type

#: spelling -> token type for the master-regex operator branch
_OPERATOR_TYPES = dict(OPERATORS)

#: One alternation that matches the overwhelmingly common PHP-mode
#: tokens in a single C-level regex step: an optional leading
#: whitespace run (group 1 — fused into the token match so a
#: ``ws token`` pair costs one scanner step, not two) followed by
#: variables, identifiers, numbers, single-quoted and constant
#: double-quoted strings, comments, casts, the close tag, multi-char
#: operators and safe single-char tokens.  Constructs that need
#: stateful handling — interpolated/unterminated strings, backtick,
#: ``<`` (heredoc and the ``<``-family operators),
#: ``$``-variable-variables, ``\`` — are deliberately absent so they
#: fall through to the dispatch-table slow path (whitespace directly
#: before such a construct falls through with it, which is why the
#: whitespace dispatch handler still exists).  Alternative order is
#: semantic: comments before the ``/`` operators, numbers before
#: ``.``/``.=``, multi-char operators before single chars, the cast
#: alternative before a bare ``(``, and the close tag before a bare
#: ``?``.
_MASTER = re.compile(
    r"([ \t\r\n]+)?"  # 1: optional whitespace run before the token
    r"(?:(\$[A-Za-z_\x80-\xff][A-Za-z0-9_\x80-\xff]*)"  # 2: variable
    r"|([A-Za-z_\x80-\xff][A-Za-z0-9_\x80-\xff]*)"  # 3: identifier/keyword
    r"|(0[xX][0-9a-fA-F]+|0[bB][01]+)"  # 4: hex/bin integer
    r"|((?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"  # 5: float
    r"|(\d+)"  # 6: decimal integer
    r"|('(?:[^'\\]|\\[\s\S])*')"  # 7: single-quoted string
    # 8: double-quoted string with no interpolation ($var / ${ / {$)
    r'|("(?:[^"\\${]|\\[\s\S]|\$(?![A-Za-z_\x80-\xff{])|\{(?!\$))*")'
    r"|(/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)"  # 9: block comment
    r"|((?://|\#)(?:[^\n?]|\?(?!>))*)"  # 10: line comment (stops at ?>)
    # 11: cast — the parenthesized spelling is the token value; like
    # PHP's scanner, only spaces and tabs may pad the type name
    r"|\([ \t]*((?i:int|integer|bool|boolean|float|double|real|string"
    r"|array|object|unset))[ \t]*\)"
    r"|(\?>)"  # 12: close tag
    r"|(>>=|===|!==|\.\.\.|\?\?=|\*\*|\?\?|==|!=|>=|&&|\|\||->|=>|::"
    r"|\+\+|--|\+=|-=|\*=|/=|\.=|%=|&=|\|=|\^=|>>)"  # 13: multi-char operator
    r"|([;,{}()\[\]=+\-*%!&|^~:@>?./]))"  # 14: bare single-char token
)


class Lexer:
    """Streaming PHP scanner over a single source string.

    The scanner is a small state machine: it starts in HTML mode, enters
    PHP mode at ``<?php`` / ``<?=``, and within PHP mode pushes into
    string-interpolation sub-modes for double-quoted strings and heredocs.
    """

    def __init__(
        self,
        source: str,
        filename: str = "<string>",
        recover: bool = False,
        significant: bool = False,
    ) -> None:
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.tokens: List[Token] = []
        #: with ``recover=True``, unterminated strings/heredocs are
        #: closed at EOF instead of raising, and each repair is recorded
        #: here as a recovered lex incident (paper Section V.E)
        self.recover = recover
        #: with ``significant=True``, whitespace and comments advance the
        #: scanner without ever constructing their Token objects — the
        #: paper's "clean the AST" step fused into the scan itself
        self.significant = significant
        self.incidents: List[Incident] = []

    def _record_recovery(self, reason: str, line: int) -> None:
        self.incidents.append(
            Incident(
                stage=IncidentStage.LEX,
                severity=IncidentSeverity.WARNING,
                file=self.filename,
                reason=reason,
                recovered=True,
                line=line,
                end_line=self.line,
            )
        )

    # -- helpers ---------------------------------------------------------

    def _emit(self, type_: TokenType, value: str, line: Optional[int] = None) -> None:
        if line is None:
            line = self.line
        self.tokens.append(_new(Token, (type_, value, line)))

    def _advance(self, text: str) -> None:
        """Consume ``text`` (already known to be at ``self.pos``)."""
        self.pos += len(text)
        self.line += text.count("\n")

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    # -- top level ---------------------------------------------------------

    def tokenize(self) -> List[Token]:
        """Scan the whole source and return the token list."""
        start = time.perf_counter()
        source = self.source
        while self.pos < len(source):
            match = _OPEN_TAG.search(source, self.pos)
            if match is None:
                html = source[self.pos :]
                self._emit(TokenType.INLINE_HTML, html)
                self._advance(html)
                break
            if match.start() > self.pos:
                html = source[self.pos : match.start()]
                self._emit(TokenType.INLINE_HTML, html)
                self._advance(html)
            tag = match.group(0)
            if tag.lower() == "<?=":
                self._emit(TokenType.OPEN_TAG_WITH_ECHO, tag)
            else:
                self._emit(TokenType.OPEN_TAG, tag)
            self._advance(tag)
            self._lex_php()
        counters.lex_seconds += time.perf_counter() - start
        counters.tokens_lexed += len(self.tokens)
        return self.tokens

    # -- PHP mode ----------------------------------------------------------

    def _lex_php(self) -> None:
        """Scan PHP code until ``?>`` or end of input.

        The hot path is one C-level :data:`_MASTER` regex match per
        token; only stateful constructs (strings, comments, heredocs,
        casts) fall through to the per-character dispatch table.
        """
        source = self.source
        size = len(source)
        dispatch_get = _DISPATCH.get
        append = self.tokens.append
        significant = self.significant
        keywords_get = KEYWORDS.get
        operator_types = _OPERATOR_TYPES
        new = _new
        token_cls = Token
        string_type = TokenType.STRING
        char_type = TokenType.CHAR
        variable_type = TokenType.VARIABLE
        ws_type = TokenType.WHITESPACE
        # pos/line live in locals across the hot loop; the slow-path
        # handlers read and write the instance attributes, so the loop
        # syncs before and reloads after every fallback call
        pos = self.pos
        line = self.line
        while pos < size:
            # Pattern.scanner (stable CPython API since 2.x) anchors
            # each match at the previous match's end entirely in C, and
            # iter() drives it from C too, so the loop never re-passes
            # (source, pos) and only calls ``end()`` when the scanner
            # stops at a slow-path construct
            match = None
            for match in iter(_MASTER.scanner(source, pos).match, None):
                index = match.lastindex
                ws = match[1]
                if ws is not None:
                    if not significant:
                        append(new(token_cls, (ws_type, ws, line)))
                    line += ws.count("\n")
                if index == 3:  # identifier / keyword
                    text = match[3]
                    type_ = keywords_get(text)
                    if type_ is None:
                        if not text.islower():
                            type_ = keywords_get(text.lower())
                        if type_ is None:
                            type_ = string_type
                    append(new(token_cls, (type_, intern(text), line)))
                elif index == 14:  # bare single-char token
                    append(new(token_cls, (char_type, match[14], line)))
                elif index == 2:  # variable
                    text = intern(match[2])
                    append(new(token_cls, (variable_type, text, line)))
                elif index == 13:  # multi-char operator
                    text = match[13]
                    append(new(token_cls, (operator_types[text], text, line)))
                elif index == 7 or index == 8:  # quoted string, no interpolation
                    text = match[index]
                    type_ = TokenType.CONSTANT_ENCAPSED_STRING
                    append(new(token_cls, (type_, text, line)))
                    line += text.count("\n")
                elif index == 9:  # block comment
                    text = match[9]
                    if not significant:
                        type_ = (
                            TokenType.DOC_COMMENT
                            if text.startswith("/**") and len(text) > 4
                            else TokenType.COMMENT
                        )
                        append(new(token_cls, (type_, text, line)))
                    line += text.count("\n")
                elif index == 10:  # line comment
                    if not significant:
                        text = match[10]
                        append(new(token_cls, (TokenType.COMMENT, text, line)))
                elif index == 11:  # cast — token value is the full spelling
                    start = match.start() if ws is None else match.end(1)
                    text = source[start : match.end()]
                    append(new(token_cls, (CASTS[match[11].lower()], text, line)))
                elif index == 12:  # ?> close tag (swallows one trailing newline)
                    pos = match.end()
                    if pos < size and source[pos] == "\n":
                        append(new(token_cls, (TokenType.CLOSE_TAG, "?>\n", line)))
                        pos += 1
                        line += 1
                    else:
                        append(new(token_cls, (TokenType.CLOSE_TAG, "?>", line)))
                    self.pos = pos
                    self.line = line
                    return
                elif index == 5:  # float
                    append(new(token_cls, (TokenType.DNUMBER, match[5], line)))
                else:  # 4 or 6: integer
                    text = match[index]
                    append(new(token_cls, (TokenType.LNUMBER, text, line)))
            if match is not None:
                pos = match.end()
            if pos >= size:
                break
            # the scanner stopped mid-input: a stateful construct (or
            # whitespace directly before one) sits at ``pos``
            self.pos = pos
            self.line = line
            char = source[pos]
            handler = dispatch_get(char)
            if handler is not None:
                handler(self)
            else:
                self._lex_operator_or_char(char)
            pos = self.pos
            line = self.line
        self.pos = pos
        self.line = line

    def _lex_operator_or_char(self, char: str) -> None:
        """Multi-character operator at ``pos``, else a bare CHAR token."""
        group = _OPERATORS_BY_FIRST.get(char)
        if group is not None:
            source, pos = self.source, self.pos
            for spelling, type_ in group:
                if source.startswith(spelling, pos):
                    self._emit(type_, spelling)
                    self.pos = pos + len(spelling)
                    return
        # bare one-character token ("code semantics" per the paper)
        self._emit(TokenType.CHAR, char)
        self.pos += 1

    def _match_operator(self) -> Optional[Token]:
        group = _OPERATORS_BY_FIRST.get(self.source[self.pos])
        if group is not None:
            for spelling, type_ in group:
                if self.source.startswith(spelling, self.pos):
                    self._emit(type_, spelling)
                    self.pos += len(spelling)
                    return self.tokens[-1]
        return None

    # -- dispatch handlers --------------------------------------------------

    def _lex_whitespace(self) -> None:
        match = _WHITESPACE.match(self.source, self.pos)
        assert match is not None
        text = match.group(0)
        if not self.significant:
            self._emit(TokenType.WHITESPACE, text)
        self.pos = match.end()
        self.line += text.count("\n")

    def _lex_slash(self) -> None:
        source, pos = self.source, self.pos
        if source.startswith("/*", pos):
            self._lex_block_comment()
        elif source.startswith("//", pos):
            self._lex_line_comment()
        else:
            self._lex_operator_or_char("/")

    def _lex_dollar(self) -> None:
        nxt = self._peek(1)
        if nxt and _IDENT_START.match(nxt):
            self._lex_variable()
        else:
            self._lex_operator_or_char("$")

    def _lex_lt(self) -> None:
        if self.source.startswith("<<<", self.pos) and self._lex_heredoc():
            return
        self._lex_operator_or_char("<")

    def _lex_dot(self) -> None:
        if self._peek(1).isdigit():
            self._lex_number()
        else:
            self._lex_operator_or_char(".")

    def _lex_open_paren(self) -> None:
        cast = _CAST.match(self.source, self.pos)
        if cast is not None and cast.group(1).lower() in CASTS:
            self._emit(CASTS[cast.group(1).lower()], cast.group(0))
            self._advance(cast.group(0))
        else:
            self._emit(TokenType.CHAR, "(")
            self.pos += 1

    def _lex_backslash(self) -> None:
        self._emit(TokenType.NS_SEPARATOR, "\\")
        self.pos += 1

    # -- comments -----------------------------------------------------------

    def _lex_block_comment(self) -> None:
        end = self.source.find("*/", self.pos + 2)
        if end == -1:
            text = self.source[self.pos :]
        else:
            text = self.source[self.pos : end + 2]
        if not self.significant:
            type_ = (
                TokenType.DOC_COMMENT
                if text.startswith("/**") and len(text) > 4
                else TokenType.COMMENT
            )
            self._emit(type_, text)
        self.pos += len(text)
        self.line += text.count("\n")

    def _lex_line_comment(self) -> None:
        # a line comment ends at newline or at ?> (which stays in the stream)
        match = _LINE_COMMENT.match(self.source, self.pos)
        assert match is not None
        text = match.group(0)
        # note: ".*?" is greedy-enough here because comments cannot span lines
        newline_index = text.find("\n")
        if newline_index != -1:  # pragma: no cover - regex stops at newline
            text = text[:newline_index]
        if not self.significant:
            self._emit(TokenType.COMMENT, text)
        self.pos += len(text)

    # -- simple tokens ------------------------------------------------------

    def _lex_variable(self) -> None:
        match = _VARIABLE.match(self.source, self.pos)
        assert match is not None
        text = intern(match.group(0))
        self._emit(TokenType.VARIABLE, text)
        self.pos = match.end()

    def _lex_number(self) -> None:
        source, pos = self.source, self.pos
        for pattern, type_ in (
            (_HEX, TokenType.LNUMBER),
            (_BIN, TokenType.LNUMBER),
            (_FLOAT, TokenType.DNUMBER),
            (_INT, TokenType.LNUMBER),
        ):
            match = pattern.match(source, pos)
            if match is not None:
                self._emit(type_, match.group(0))
                self.pos = match.end()
                return
        raise PhpLexError(f"cannot scan number at line {self.line}", self.filename, self.line)

    def _lex_identifier(self) -> None:
        match = _IDENT_FULL.match(self.source, self.pos)
        assert match is not None
        word = match.group(0)
        type_ = KEYWORDS.get(word)
        if type_ is None:
            if not word.islower():
                type_ = KEYWORDS.get(word.lower())
            if type_ is None:
                type_ = TokenType.STRING
        self._emit(type_, intern(word))
        self.pos = match.end()

    # -- strings --------------------------------------------------------------

    def _lex_single_quoted(self) -> None:
        start_line = self.line
        source = self.source
        size = len(source)
        index = self.pos + 1
        terminated = False
        while index < size:
            char = source[index]
            if char == "\\":
                index += 2
                continue
            if char == "'":
                terminated = True
                break
            index += 1
        if not terminated or index >= size:
            if not self.recover:
                raise PhpLexError(
                    "unterminated single-quoted string", self.filename, start_line
                )
            # panic-mode repair: close the string at EOF and keep going
            text = source[self.pos :]
            self._emit(TokenType.CONSTANT_ENCAPSED_STRING, text + "'", start_line)
            self._advance(text)
            self._record_recovery("unterminated single-quoted string", start_line)
            return
        text = source[self.pos : index + 1]
        self._emit(TokenType.CONSTANT_ENCAPSED_STRING, text, start_line)
        self._advance(text)

    def _lex_backtick(self) -> None:
        """Shell-exec strings: lexed like double-quoted with ` delimiters."""
        self._emit(TokenType.CHAR, "`")
        self._advance("`")
        self._lex_interpolated_body(terminator="`")
        if self._peek() == "`":
            self._emit(TokenType.CHAR, "`")
            self._advance("`")

    def _lex_double_quoted(self) -> None:
        """Double-quoted string, constant or interpolated.

        PHP emits a plain ``T_CONSTANT_ENCAPSED_STRING`` when the string
        holds no interpolation; otherwise it emits ``"`` as a bare token
        followed by the encapsed parts.
        """
        start_line = self.line
        body, has_interpolation, terminated = self._scan_dq_body(self.pos + 1)
        if not terminated and not self.recover:
            raise PhpLexError(
                "unterminated double-quoted string", self.filename, start_line
            )
        if not has_interpolation:
            if not terminated:
                # panic-mode repair: close the string at EOF
                text = self.source[self.pos :]
                self._emit(TokenType.CONSTANT_ENCAPSED_STRING, text + '"', start_line)
                self._advance(text)
                self._record_recovery("unterminated double-quoted string", start_line)
                return
            text = self.source[self.pos : self.pos + 1 + len(body) + 1]
            self._emit(TokenType.CONSTANT_ENCAPSED_STRING, text, start_line)
            self._advance(text)
            return
        self._emit(TokenType.CHAR, '"')
        self._advance('"')
        self._lex_interpolated_body(terminator='"')
        if self._peek() != '"':
            if not self.recover:
                raise PhpLexError(
                    "unterminated double-quoted string", self.filename, start_line
                )
            # panic-mode repair: synthesize the closing quote at EOF
            self._emit(TokenType.CHAR, '"')
            self._record_recovery("unterminated double-quoted string", start_line)
            return
        self._emit(TokenType.CHAR, '"')
        self._advance('"')

    def _scan_dq_body(self, start: int) -> tuple:
        """Scan ahead from ``start`` to the closing quote.

        Returns ``(raw body, has_interpolation, terminated)``; an
        unterminated string scans to EOF with ``terminated=False``.
        """
        source = self.source
        size = len(source)
        index = start
        has_interpolation = False
        while index < size:
            char = source[index]
            if char == "\\":
                index += 2
                continue
            if char == '"':
                return source[start:index], has_interpolation, True
            if char == "$" and index + 1 < size:
                nxt = source[index + 1]
                if nxt == "{" or _IDENT_START.match(nxt):
                    has_interpolation = True
            if char == "{" and index + 1 < size and source[index + 1] == "$":
                has_interpolation = True
            index += 1
        return source[start:], has_interpolation, False

    def _lex_interpolated_body(self, terminator: str, heredoc_label: str = "") -> None:
        """Scan the inside of an interpolated string.

        Emits ``T_ENCAPSED_AND_WHITESPACE`` for literal runs and the
        interpolation tokens PHP produces for ``$var``, ``$var[i]``,
        ``$var->prop`` (simple syntax) and ``{$expr}`` / ``${name}``
        (complex syntax).  Stops *before* the terminator.
        """
        source = self.source
        size = len(source)
        literal_start = self.pos
        literal_line = self.line
        end_pattern = _heredoc_end_pattern(heredoc_label) if heredoc_label else None

        def flush() -> None:
            nonlocal literal_start, literal_line
            if self.pos > literal_start:
                text = source[literal_start:self.pos]
                self._emit(TokenType.ENCAPSED_AND_WHITESPACE, text, literal_line)
            literal_start = self.pos
            literal_line = self.line

        while self.pos < size:
            char = source[self.pos]
            if end_pattern is not None:
                if self._at_heredoc_end(end_pattern):
                    flush()
                    return
            elif char == terminator:
                flush()
                return

            if char == "\\" and end_pattern is None:
                self.pos += 2
                continue
            if char == "\n":
                self.pos += 1
                self.line += 1
                continue
            if char == "$":
                nxt = self._peek(1)
                if nxt and _IDENT_START.match(nxt):
                    flush()
                    self._lex_variable()
                    self._lex_simple_interp_suffix()
                    literal_start = self.pos
                    literal_line = self.line
                    continue
                if nxt == "{":
                    flush()
                    self._emit(TokenType.DOLLAR_OPEN_CURLY_BRACES, "${")
                    self._advance("${")
                    self._lex_complex_interp()
                    literal_start = self.pos
                    literal_line = self.line
                    continue
            if char == "{" and self._peek(1) == "$":
                flush()
                self._emit(TokenType.CURLY_OPEN, "{")
                self._advance("{")
                self._lex_complex_interp()
                literal_start = self.pos
                literal_line = self.line
                continue
            self.pos += 1
        flush()

    def _lex_simple_interp_suffix(self) -> None:
        """``$var[index]`` and ``$var->prop`` simple interpolation syntax."""
        if self._peek() == "[":
            self._emit(TokenType.CHAR, "[")
            self._advance("[")
            match = _INTERP_INDEX.match(self.source, self.pos)
            if match is not None:
                text = match.group(0)
                if text.startswith("$"):
                    self._emit(TokenType.VARIABLE, intern(text))
                elif text.isdigit():
                    self._emit(TokenType.NUM_STRING, text)
                else:
                    self._emit(TokenType.STRING, intern(text))
                self._advance(text)
            if self._peek() == "]":
                self._emit(TokenType.CHAR, "]")
                self._advance("]")
        elif self.source.startswith("->", self.pos) and _IDENT_START.match(
            self._peek(2) or ""
        ):
            self._emit(TokenType.OBJECT_OPERATOR, "->")
            self._advance("->")
            match = _INTERP_PROP.match(self.source, self.pos)
            assert match is not None
            self._emit(TokenType.STRING, intern(match.group(0)))
            self._advance(match.group(0))

    def _lex_complex_interp(self) -> None:
        """Lex regular PHP tokens until the matching ``}``."""
        depth = 1
        while self.pos < len(self.source) and depth > 0:
            char = self.source[self.pos]
            if char == "{":
                depth += 1
                self._emit(TokenType.CHAR, "{")
                self._advance("{")
                continue
            if char == "}":
                depth -= 1
                self._emit(TokenType.CHAR, "}")
                self._advance("}")
                continue
            before = self.pos
            self._lex_php_single()
            if self.pos == before:  # safety against infinite loops
                raise PhpLexError(
                    "stuck while lexing string interpolation", self.filename, self.line
                )

    def _lex_php_single(self) -> None:
        """Lex exactly one PHP-mode token (used inside ``{$...}``)."""
        char = self._peek()
        if char in " \t\r\n":
            self._lex_whitespace()
        elif char == "$" and _IDENT_START.match(self._peek(1) or ""):
            self._lex_variable()
        elif char == "'":
            self._lex_single_quoted()
        elif char == '"':
            self._lex_double_quoted()
        elif char.isdigit():
            self._lex_number()
        elif _IDENT_START.match(char):
            self._lex_identifier()
        elif self._match_operator() is not None:
            pass
        else:
            self._emit(TokenType.CHAR, char)
            self._advance(char)

    # -- heredoc ---------------------------------------------------------------

    def _at_heredoc_end(self, pattern: "re.Pattern") -> bool:
        """True when the current line starts the heredoc terminator."""
        if self.pos != 0 and self.source[self.pos - 1] != "\n":
            return False
        return pattern.match(self.source, self.pos) is not None

    def _lex_heredoc(self) -> bool:
        match = _HEREDOC_START.match(self.source, self.pos)
        if match is None:
            return False
        opener = match.group(0)
        quote = match.group(1)
        label = match.group(2)
        start_line = self.line
        self._emit(TokenType.START_HEREDOC, opener.rstrip("\r\n"), start_line)
        self._advance(opener)
        if quote == "'":
            # nowdoc: no interpolation, scan straight to the terminator
            end_pattern = _heredoc_end_pattern(label)
            source = self.source
            size = len(source)
            literal_start = self.pos
            literal_line = self.line
            while self.pos < size and not self._at_heredoc_end(end_pattern):
                if source[self.pos] == "\n":
                    self.line += 1
                self.pos += 1
            if self.pos > literal_start:
                self._emit(
                    TokenType.ENCAPSED_AND_WHITESPACE,
                    source[literal_start:self.pos],
                    literal_line,
                )
        else:
            self._lex_interpolated_body(terminator="", heredoc_label=label)
        end = re.match(rf"[ \t]*{re.escape(label)}", self.source[self.pos :])
        if end is None:
            if not self.recover:
                raise PhpLexError(
                    f"unterminated heredoc <<<{label}", self.filename, start_line
                )
            # panic-mode repair: close the heredoc at EOF
            self._emit(TokenType.END_HEREDOC, "")
            self._record_recovery(f"unterminated heredoc <<<{label}", start_line)
            return True
        self._emit(TokenType.END_HEREDOC, end.group(0))
        self._advance(end.group(0))
        return True


#: per-label cache of compiled heredoc-terminator patterns
_HEREDOC_END_CACHE = {}


def _heredoc_end_pattern(label: str) -> "re.Pattern":
    pattern = _HEREDOC_END_CACHE.get(label)
    if pattern is None:
        pattern = re.compile(rf"[ \t]*{re.escape(label)}(?![A-Za-z0-9_])")
        if len(_HEREDOC_END_CACHE) < 256:  # bound pathological label churn
            _HEREDOC_END_CACHE[label] = pattern
    return pattern


#: PHP-mode dispatch table: first character -> handler.  Characters not
#: present fall through to operator-or-CHAR handling.
_DISPATCH = {}
for _char in " \t\r\n":
    _DISPATCH[_char] = Lexer._lex_whitespace
for _char in "0123456789":
    _DISPATCH[_char] = Lexer._lex_number
for _char in _IDENT_CHARS:
    _DISPATCH[_char] = Lexer._lex_identifier
_DISPATCH["/"] = Lexer._lex_slash
_DISPATCH["#"] = Lexer._lex_line_comment
_DISPATCH["$"] = Lexer._lex_dollar
_DISPATCH["'"] = Lexer._lex_single_quoted
_DISPATCH['"'] = Lexer._lex_double_quoted
_DISPATCH["`"] = Lexer._lex_backtick
_DISPATCH["<"] = Lexer._lex_lt
_DISPATCH["."] = Lexer._lex_dot
_DISPATCH["("] = Lexer._lex_open_paren
_DISPATCH["\\"] = Lexer._lex_backslash
del _char


def tokenize(
    source: str, filename: str = "<string>", recover: bool = False
) -> List[Token]:
    """Tokenize PHP source, mirroring ``token_get_all`` output."""
    return Lexer(source, filename, recover=recover).tokenize()


def tokenize_significant(
    source: str, filename: str = "<string>", recover: bool = False
) -> List[Token]:
    """Tokenize and drop whitespace/comments (the paper's cleaning step).

    Trivia tokens are never constructed at all: the lexer runs in
    significant mode, where whitespace/comment handlers advance the
    scanner without allocating.
    """
    return Lexer(source, filename, recover=recover, significant=True).tokenize()


def iter_lines_of_code(source: str) -> Iterator[str]:
    """Yield non-blank, non-comment-only physical lines (LOC counting).

    Table III of the paper reports per-KLOC analysis cost; this helper
    provides the LOC measure used by the evaluation harness.
    """
    in_block_comment = False
    for raw_line in source.splitlines():
        line = raw_line.strip()
        if in_block_comment:
            if "*/" in line:
                in_block_comment = False
                line = line.split("*/", 1)[1].strip()
            else:
                continue
        if not line:
            continue
        if line.startswith("/*"):
            if "*/" not in line:
                in_block_comment = True
            continue
        if line.startswith("//") or line.startswith("#") or line.startswith("*"):
            continue
        yield raw_line

def count_loc(source: str) -> int:
    """Count effective lines of code in ``source``."""
    return sum(1 for _ in iter_lines_of_code(source))
