"""Recursive-descent parser from PHP tokens to the AST of :mod:`ast_nodes`.

The parser consumes the *significant* token stream (whitespace and
comments already dropped — the paper's model-construction cleaning step)
and produces a :class:`~repro.php.ast_nodes.PhpFile`.

It covers the PHP 5 subset real WordPress plugins are written in:
procedural code, full OOP (classes, interfaces, traits, properties,
methods, static members, inheritance), both brace and alternative
(``if: ... endif;``) statement syntaxes, string interpolation, heredocs,
closures, and ``include``/``require``.
"""

from __future__ import annotations

import re
from typing import List, Optional, Union

from ..incidents import Incident, IncidentSeverity, IncidentStage
from . import ast_nodes as ast
from .errors import PhpParseError
from .lexer import tokenize_significant
from .tokens import KEYWORDS, OPERATORS, Token, TokenType

#: statement-starting keywords the panic-mode recovery resynchronizes on
#: (in addition to ``;`` and ``}`` statement boundaries)
_SYNC_TOKENS = frozenset(
    {
        TokenType.IF,
        TokenType.WHILE,
        TokenType.DO,
        TokenType.FOR,
        TokenType.FOREACH,
        TokenType.SWITCH,
        TokenType.RETURN,
        TokenType.GLOBAL,
        TokenType.ECHO,
        TokenType.FUNCTION,
        TokenType.CLASS,
        TokenType.INTERFACE,
        TokenType.TRAIT,
        TokenType.TRY,
        TokenType.THROW,
        TokenType.NAMESPACE,
        TokenType.UNSET,
        TokenType.BREAK,
        TokenType.CONTINUE,
        TokenType.OPEN_TAG,
        TokenType.OPEN_TAG_WITH_ECHO,
        TokenType.CLOSE_TAG,
        TokenType.INLINE_HTML,
    }
)

# Infix operators of the binding-power loop in ``Parser._parse_expression``.
# A higher power binds tighter (PHP manual order).  Two PHP 5 rules shape
# the low end: `and` > `xor` > `or` all bind looser than `=`, and the
# right side of `=`, `op=` and the middle arm of `?:` are parsed at
# assignment power, so each holds a full assignment.  Nested `?:` groups
# to the left: the last arm stops at the next `?` (but still takes an
# assignment).  `!` sits between `instanceof` and `*`.
_BINARY_POWER = {
    op: power
    for power, ops in (
        (1, "or"),
        (2, "xor"),
        (3, "and"),
        (7, "??"),
        (8, "||"),
        (9, "&&"),
        (10, "|"),
        (11, "^"),
        (12, "&"),
        (13, "== != === !=="),
        (14, "< <= > >="),
        (15, "<< >>"),
        (16, "+ - ."),
        (17, "* / %"),
        (20, "**"),
    )
    for op in ops.split()
}
_RIGHT_ASSOC = {"**", "??"}
_ASSIGN_POWER, _TERNARY_POWER, _INSTANCEOF_POWER = 4, 5, 19

# infix kinds: what the loop builds once it consumed the operator
_BINARY, _ASSIGN, _TERNARY, _INSTANCEOF = range(4)

#: spelling -> (power, power of the right operand, kind)
_INFIX = {
    op: (power, power if op in _RIGHT_ASSOC else power + 1, _BINARY)
    for op, power in _BINARY_POWER.items()
}
_INFIX.update(
    (op, (_ASSIGN_POWER, _ASSIGN_POWER, _ASSIGN))
    for op in "= += -= *= /= .= %= &= |= ^= <<= >>= ??=".split()
)
_INFIX["?"] = (_TERNARY_POWER, _ASSIGN_POWER, _TERNARY)
_INFIX["instanceof"] = (_INSTANCEOF_POWER, 0, _INSTANCEOF)

#: the loop's lookup table by token kind (see ``Parser.kinds``), valued
#: (power, right power, kind, spelling): one-character operators are
#: keyed by their text, the rest by token type (``<>`` is spelled ``!=``)
_INFIX_KINDS = {op: (*entry, op) for op, entry in _INFIX.items() if len(op) == 1}
_INFIX_KINDS.update(
    (type_, (*_INFIX[op], op))
    for op, type_ in (*OPERATORS, *KEYWORDS.items())
    if op in _INFIX
)

#: kinds that end a ``{ ... }`` statement list (``case``/``default``/
#: ``endswitch`` end a switch arm, which is parsed as one)
_BLOCK_CLOSERS = frozenset(
    {"}", TokenType.EOF, TokenType.CASE, TokenType.DEFAULT, TokenType.ENDSWITCH}
)

_CAST_NAMES = {
    TokenType.INT_CAST: "int",
    TokenType.BOOL_CAST: "bool",
    TokenType.DOUBLE_CAST: "float",
    TokenType.STRING_CAST: "string",
    TokenType.ARRAY_CAST: "array",
    TokenType.OBJECT_CAST: "object",
    TokenType.UNSET_CAST: "unset",
}

_INCLUDE_KINDS = {
    TokenType.INCLUDE: "include",
    TokenType.INCLUDE_ONCE: "include_once",
    TokenType.REQUIRE: "require",
    TokenType.REQUIRE_ONCE: "require_once",
}

# Prefix forms of `_parse_unary`: one-character operators, and the
# token types that introduce one.  Anything else is a primary with its
# postfix operators.
_UNARY_CHARS = frozenset("!-+~@")
_UNARY_KINDS = _UNARY_CHARS | frozenset(_CAST_NAMES) | frozenset(_INCLUDE_KINDS) | {
    TokenType.INC,
    TokenType.DEC,
    TokenType.PRINT,
    TokenType.THROW,
    TokenType.NEW,
    TokenType.CLONE,
    TokenType.EXIT,
}

#: token types that make up a (namespace-qualified) name
_NAME_PARTS = frozenset({TokenType.STRING, TokenType.ARRAY, TokenType.STATIC})

#: name-like primaries besides a plain identifier: ``\\qualified`` and
#: the magic constants
_MAGIC_NAMES = frozenset(
    {
        TokenType.NS_SEPARATOR,
        TokenType.FILE,
        TokenType.LINE,
        TokenType.DIR,
        TokenType.FUNC_C,
        TokenType.CLASS_C,
        TokenType.METHOD_C,
    }
)

#: nodes a ``(`` (call) or ``{`` (string offset) may follow
_CALLABLE_NODES = (ast.Variable, ast.ArrayAccess, ast.PropertyAccess)

#: kinds that can continue a primary in `_parse_postfix_operators`
_POSTFIX_KINDS = frozenset(
    {
        "[",
        "(",
        "{",
        TokenType.OBJECT_OPERATOR,
        TokenType.DOUBLE_COLON,
        TokenType.INC,
        TokenType.DEC,
    }
)

_DOUBLE_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "v": "\v",
    "f": "\f",
    "e": "\x1b",
    "\\": "\\",
    "$": "$",
    '"': '"',
}

# PHP's double-quoted escapes; any other backslash stays literal
_DOUBLE_ESCAPE = re.compile(r'\\([0-7]{1,3}|x[0-9A-Fa-f]{1,2}|[ntrvfe\\$"])')
_SINGLE_ESCAPE = re.compile(r"\\([\\'])")


def _decode_double_escape(match: "re.Match[str]") -> str:
    sequence = match.group(1)
    if sequence[0] == "x":
        return chr(int(sequence[1:], 16))
    if sequence[0] in "01234567":
        # PHP keeps the low byte of an octal escape past \377
        return chr(int(sequence, 8) & 0xFF)
    return _DOUBLE_ESCAPES[sequence]


def unescape_single_quoted(raw: str) -> str:
    """Decode the contents of a single-quoted PHP string literal."""
    body = raw[1:-1]
    if "\\" not in body:
        return body
    return _SINGLE_ESCAPE.sub(r"\1", body)


def unescape_double_quoted(body: str) -> str:
    """Decode escape sequences of a double-quoted PHP string body:
    ``\\n``-style letters, ``\\$``, ``\\"``, ``\\\\``, octal
    ``\\[0-7]{1,3}`` and hex ``\\x[0-9A-Fa-f]{1,2}``."""
    if "\\" not in body:
        return body
    return _DOUBLE_ESCAPE.sub(_decode_double_escape, body)


class Parser:
    """One-pass recursive-descent parser.

    Statements dispatch on their first token (``_STATEMENT_DISPATCH``;
    anything else is an expression statement); expressions are one
    binding-power loop (``_parse_expression``).

    Dispatch and lookahead read :attr:`kinds`, not the tokens: a
    token's *kind* is its spelling for a bare CHAR token and its
    :class:`TokenType` otherwise, so ``kinds[pos] == ";"`` and
    ``kinds[pos] is TokenType.IF`` are one list index each.  The token
    primitives (``_at``, ``_accept``, ``_expect``) take a kind.

    While it builds the tree the parser also records the model stage's
    :class:`~repro.php.ast_nodes.FileIndex` (:attr:`index`).
    """

    def __init__(
        self, tokens: List[Token], filename: str = "<string>", recover: bool = False
    ) -> None:
        # an EOF sentinel closes the stream so every ``tokens[pos]``
        # access in the hot path is a plain list index with no bounds
        # check or Token construction
        if not tokens or tokens[-1].type is not TokenType.EOF:
            tokens = list(tokens)
            tokens.append(Token(TokenType.EOF, "", tokens[-1].line if tokens else 0))
        self.tokens = tokens
        self.kinds = [
            token.value if token.type is TokenType.CHAR else token.type
            for token in tokens
        ]
        self.filename = filename
        self.pos = 0
        #: with ``recover=True``, a :class:`PhpParseError` inside a
        #: statement triggers panic-mode resynchronization instead of
        #: aborting the file: the parser skips to the next statement
        #: boundary, emits an :class:`~repro.php.ast_nodes.ErrorStmt`,
        #: and records the incident here
        self.recover = recover
        self.incidents: List[Incident] = []
        #: the index of the tree :meth:`parse_file` returns; its name
        #: sets are filled when the parse ends
        self.index = ast.FileIndex()
        self._called_names: List[str] = []
        self._called_methods: List[str] = []
        #: every list a node is recorded in, for recover-mode rollback
        self._records = (
            self.index.functions,
            self.index.classes,
            self.index.includes,
            self._called_names,
            self._called_methods,
        )

    # -- token plumbing ----------------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _peek_kind(self, offset: int) -> object:
        index = self.pos + offset
        kinds = self.kinds
        return kinds[index] if index < len(kinds) else kinds[-1]

    def _next(self) -> Token:
        pos = self.pos
        if self.kinds[pos] is not TokenType.EOF:
            self.pos = pos + 1
        return self.tokens[pos]

    def _at(self, kind: object) -> bool:
        return self.kinds[self.pos] == kind

    def _accept(self, kind: object) -> Optional[Token]:
        pos = self.pos
        if self.kinds[pos] == kind:
            self.pos = pos + 1
            return self.tokens[pos]
        return None

    def _expect(self, kind: object) -> Token:
        pos = self.pos
        token = self.tokens[pos]
        if self.kinds[pos] != kind:
            expected = repr(kind) if kind.__class__ is str else kind.value
            raise PhpParseError(
                f"expected {expected}, found {token.name} {token.value!r}",
                self.filename,
                token.line,
            )
        self.pos = pos + 1
        return token

    def _error(self, message: str) -> PhpParseError:
        return PhpParseError(message, self.filename, self.tokens[self.pos].line)

    # -- entry point ----------------------------------------------------------

    def parse_file(self) -> ast.PhpFile:
        statements: List[ast.Statement] = []
        while not self._at(TokenType.EOF):
            statement = self._parse_statement_recovering()
            if statement is not None:
                statements.append(statement)
        self.index.called_names.update(self._called_names)
        self.index.called_methods.update(self._called_methods)
        return ast.PhpFile(line=1, filename=self.filename, statements=statements)

    def _parse_statement_recovering(self) -> Optional[ast.Statement]:
        """Parse one statement; in recover mode, resync on parse errors
        and drop the index records of the discarded statement."""
        if not self.recover:
            return self._parse_statement()
        start = self.pos
        marks = tuple(map(len, self._records))
        try:
            return self._parse_statement()
        except PhpParseError as error:
            for records, mark in zip(self._records, marks):
                del records[mark:]
            return self._recover_statement(start, error)

    def _recover_statement(self, start: int, error: PhpParseError) -> ast.ErrorStmt:
        """Panic-mode recovery: skip to the next statement boundary.

        Discards tokens from the failed statement until a ``;`` (consumed),
        a ``}`` closing the enclosing block (left for the caller), or the
        next statement-starting keyword, balancing any brackets opened
        along the way.  Emits an :class:`~repro.php.ast_nodes.ErrorStmt`
        covering the skipped span and records a recovered parse incident.
        """
        start_token = self.tokens[start] if start < len(self.tokens) else self._peek()
        if self.pos <= start:
            self.pos = start
            self._next()  # guarantee forward progress on the very first token
        depth = 0
        while not self._at(TokenType.EOF):
            kind = self.kinds[self.pos]
            if kind == "{" or kind == "(" or kind == "[":
                depth += 1
            elif kind == ")" or kind == "]":
                if depth > 0:
                    depth -= 1
            elif kind == "}":
                if depth == 0:
                    break  # the enclosing block's closer: leave it
                depth -= 1
            elif depth == 0:
                if kind == ";":
                    self._next()  # the boundary belongs to the bad statement
                    break
                if kind in _SYNC_TOKENS:
                    break
            self._next()
        end_line = (
            self.tokens[self.pos - 1].line
            if 0 < self.pos <= len(self.tokens)
            else start_token.line
        )
        self.incidents.append(
            Incident(
                stage=IncidentStage.PARSE,
                severity=IncidentSeverity.WARNING,
                file=self.filename,
                reason=error.message,
                recovered=True,
                line=start_token.line,
                end_line=end_line,
            )
        )
        return ast.ErrorStmt(
            line=start_token.line,
            reason=error.message,
            end_line=end_line,
            tokens_skipped=self.pos - start,
        )

    # -- statements -------------------------------------------------------------

    def _parse_statement(self) -> Optional[ast.Statement]:
        handler = self._STATEMENT_DISPATCH.get(self.kinds[self.pos])
        if handler is None:
            return self._parse_expression_statement()
        return handler(self)

    def _parse_expression_statement(self) -> ast.ExpressionStatement:
        line = self.tokens[self.pos].line
        expr = self._parse_expression()
        self._end_statement()
        return ast.ExpressionStatement(line=line, expr=expr)

    def _skip_token(self) -> None:
        """Open/close tags and the empty statement ``;`` build no node."""
        self.pos += 1

    def _parse_inline_html(self) -> ast.InlineHTML:
        token = self._next()
        return ast.InlineHTML(line=token.line, text=token.value)

    def _parse_block(self) -> ast.Block:
        line = self._next().line
        body = self._parse_block_statements()
        self._expect("}")
        return ast.Block(line=line, statements=body)

    def _parse_return(self) -> ast.ReturnStatement:
        line = self._next().line
        expr = None
        if not self._at(";") and not self._at(TokenType.CLOSE_TAG):
            expr = self._parse_expression()
        self._end_statement()
        return ast.ReturnStatement(line=line, expr=expr)

    def _parse_throw(self) -> ast.ThrowStatement:
        line = self._next().line
        expr = self._parse_expression()
        self._end_statement()
        return ast.ThrowStatement(line=line, expr=expr)

    def _parse_goto(self) -> ast.GotoStatement:
        line = self._next().line
        label = self._expect(TokenType.STRING).value
        self._end_statement()
        return ast.GotoStatement(line=line, label=label)

    def _parse_name_statement(self) -> ast.Statement:
        """``label:`` or an expression statement opening with a name."""
        if self._peek_kind(1) == ":" and self._peek_kind(2) != ":":
            token = self._next()
            self._next()
            return ast.LabelStatement(line=token.line, name=token.value)
        return self._parse_expression_statement()

    def _end_statement(self) -> None:
        """Consume the terminating ``;`` (a ``?>`` also terminates)."""
        kind = self.kinds[self.pos]
        if kind == ";":
            self.pos += 1
            return
        if kind is TokenType.CLOSE_TAG or kind is TokenType.EOF:
            return
        raise self._error(
            f"expected ';', found {self._peek().name} {self._peek().value!r}"
        )

    def _parse_block_statements(self) -> List[ast.Statement]:
        """Parse statements up to the ``}`` closing a block (a switch
        arm also ends at ``case``/``default``/``endswitch``)."""
        kinds = self.kinds
        statements: List[ast.Statement] = []
        while kinds[self.pos] not in _BLOCK_CLOSERS:
            statement = self._parse_statement_recovering()
            if statement is not None:
                statements.append(statement)
        return statements

    def _parse_body(self, *end_keywords: TokenType) -> List[ast.Statement]:
        """Parse a statement body: ``{...}``, ``: ... endX;`` or single stmt."""
        if self._accept("{"):
            body = self._parse_block_statements()
            self._expect("}")
            return body
        if self._accept(":"):
            body: List[ast.Statement] = []
            stop = {*end_keywords, TokenType.ELSE, TokenType.ELSEIF, TokenType.EOF}
            while self.kinds[self.pos] not in stop:
                statement = self._parse_statement_recovering()
                if statement is not None:
                    body.append(statement)
            return body
        statement = self._parse_statement()
        return [statement] if statement is not None else []

    # -- control flow --------------------------------------------------------

    def _parse_echo(self) -> ast.EchoStatement:
        """``echo a, b;`` (also ``<?= a ?>``, whose open tag echoes)."""
        line = self._next().line
        exprs = [self._parse_expression()]
        while self._accept(","):
            exprs.append(self._parse_expression())
        self._end_statement()
        return ast.EchoStatement(line=line, exprs=exprs)

    def _parse_paren_expression(self) -> ast.Expr:
        self._expect("(")
        expr = self._parse_expression()
        self._expect(")")
        return expr

    def _parse_if(self) -> ast.IfStatement:
        line = self._expect(TokenType.IF).line
        cond = self._parse_paren_expression()
        alternative = self._at(":")
        then = self._parse_body(TokenType.ENDIF)
        elseifs: List[ast.ElseIfClause] = []
        otherwise: Optional[List[ast.Statement]] = None
        while True:
            if self._at(TokenType.ELSEIF):
                clause_line = self._next().line
                clause_cond = self._parse_paren_expression()
                clause_body = self._parse_body(TokenType.ENDIF)
                elseifs.append(
                    ast.ElseIfClause(line=clause_line, cond=clause_cond, body=clause_body)
                )
                continue
            if self._at(TokenType.ELSE) and self._peek_kind(1) is TokenType.IF:
                # `else if` treated as elseif with a nested parse
                clause_line = self._next().line
                self._next()
                clause_cond = self._parse_paren_expression()
                clause_body = self._parse_body(TokenType.ENDIF)
                elseifs.append(
                    ast.ElseIfClause(line=clause_line, cond=clause_cond, body=clause_body)
                )
                continue
            if self._at(TokenType.ELSE):
                self._next()
                otherwise = self._parse_body(TokenType.ENDIF)
            break
        if alternative:
            self._expect(TokenType.ENDIF)
            self._end_statement()
        return ast.IfStatement(
            line=line, cond=cond, then=then, elseifs=elseifs, otherwise=otherwise
        )

    def _parse_while(self) -> ast.WhileStatement:
        line = self._expect(TokenType.WHILE).line
        cond = self._parse_paren_expression()
        alternative = self._at(":")
        body = self._parse_body(TokenType.ENDWHILE)
        if alternative:
            self._expect(TokenType.ENDWHILE)
            self._end_statement()
        return ast.WhileStatement(line=line, cond=cond, body=body)

    def _parse_do_while(self) -> ast.DoWhileStatement:
        line = self._expect(TokenType.DO).line
        body = self._parse_body()
        self._expect(TokenType.WHILE)
        cond = self._parse_paren_expression()
        self._end_statement()
        return ast.DoWhileStatement(line=line, body=body, cond=cond)

    def _parse_expr_list_until(self, *closers: str) -> List[ast.Expr]:
        exprs: List[ast.Expr] = []
        if any(self._at(closer) for closer in closers):
            return exprs
        exprs.append(self._parse_expression())
        while self._accept(","):
            exprs.append(self._parse_expression())
        return exprs

    def _parse_for(self) -> ast.ForStatement:
        line = self._expect(TokenType.FOR).line
        self._expect("(")
        init = self._parse_expr_list_until(";")
        self._expect(";")
        cond = self._parse_expr_list_until(";")
        self._expect(";")
        update = self._parse_expr_list_until(")")
        self._expect(")")
        alternative = self._at(":")
        body = self._parse_body(TokenType.ENDFOR)
        if alternative:
            self._expect(TokenType.ENDFOR)
            self._end_statement()
        return ast.ForStatement(line=line, init=init, cond=cond, update=update, body=body)

    def _parse_foreach(self) -> ast.ForeachStatement:
        line = self._expect(TokenType.FOREACH).line
        self._expect("(")
        subject = self._parse_expression()
        self._expect(TokenType.AS)
        by_ref = self._accept("&") is not None
        first = self._parse_expression()
        key_var: Optional[ast.Expr] = None
        value_var = first
        if self._accept(TokenType.DOUBLE_ARROW):
            key_var = first
            by_ref = self._accept("&") is not None
            value_var = self._parse_expression()
        self._expect(")")
        alternative = self._at(":")
        body = self._parse_body(TokenType.ENDFOREACH)
        if alternative:
            self._expect(TokenType.ENDFOREACH)
            self._end_statement()
        return ast.ForeachStatement(
            line=line,
            subject=subject,
            key_var=key_var,
            value_var=value_var,
            by_ref=by_ref,
            body=body,
        )

    def _parse_switch(self) -> ast.SwitchStatement:
        line = self._expect(TokenType.SWITCH).line
        subject = self._parse_paren_expression()
        alternative = False
        if self._accept("{"):
            pass
        elif self._accept(":"):
            alternative = True
        else:
            raise self._error("expected '{' or ':' after switch (...)")
        cases: List[ast.SwitchCase] = []
        while not self._at(TokenType.EOF):
            if self._at("}") or self._at(TokenType.ENDSWITCH):
                break
            if self._accept(";"):
                continue
            token = self._peek()
            if token.type is TokenType.CASE:
                self._next()
                test: Optional[ast.Expr] = self._parse_expression()
            elif token.type is TokenType.DEFAULT:
                self._next()
                test = None
            else:
                raise self._error(f"expected case/default, found {token.name}")
            if not self._accept(":"):
                self._accept(";")
            body = self._parse_block_statements()
            cases.append(ast.SwitchCase(line=token.line, test=test, body=body))
        if alternative:
            self._expect(TokenType.ENDSWITCH)
            self._end_statement()
        else:
            self._expect("}")
        return ast.SwitchStatement(line=line, subject=subject, cases=cases)

    def _parse_break_continue(self) -> ast.Statement:
        token = self._next()
        cls = ast.BreakStatement if token.type is TokenType.BREAK else ast.ContinueStatement
        level = 1
        if self._at(TokenType.LNUMBER):
            level = int(self._next().value, 0)
        self._end_statement()
        return cls(line=token.line, level=level)

    def _parse_global(self) -> ast.GlobalStatement:
        line = self._expect(TokenType.GLOBAL).line
        names = [self._expect(TokenType.VARIABLE).value[1:]]
        while self._accept(","):
            names.append(self._expect(TokenType.VARIABLE).value[1:])
        self._end_statement()
        return ast.GlobalStatement(line=line, names=names)

    def _parse_static_vars(self) -> ast.Statement:
        """``static $a = 1, $b;``, else an expression opening with
        ``static`` (``static::x()``, a static closure)."""
        if self._peek_kind(1) is not TokenType.VARIABLE:
            return self._parse_expression_statement()
        line = self._expect(TokenType.STATIC).line
        vars_: List = []
        while True:
            name = self._expect(TokenType.VARIABLE).value[1:]
            default = None
            if self._accept("="):
                default = self._parse_expression()
            vars_.append((name, default))
            if not self._accept(","):
                break
        self._end_statement()
        return ast.StaticVarStatement(line=line, vars=vars_)

    def _parse_unset(self) -> ast.UnsetStatement:
        line = self._expect(TokenType.UNSET).line
        self._expect("(")
        vars_ = self._parse_expr_list_until(")")
        self._expect(")")
        self._end_statement()
        return ast.UnsetStatement(line=line, vars=vars_)

    def _parse_try(self) -> ast.TryStatement:
        line = self._expect(TokenType.TRY).line
        self._expect("{")
        body = self._parse_block_statements()
        self._expect("}")
        catches: List[ast.CatchClause] = []
        finally_body: Optional[List[ast.Statement]] = None
        while self._at(TokenType.CATCH):
            catch_line = self._next().line
            self._expect("(")
            class_name = self._parse_qualified_name()
            var_token = self._accept(TokenType.VARIABLE)
            var_name = var_token.value[1:] if var_token else ""
            self._expect(")")
            self._expect("{")
            catch_body = self._parse_block_statements()
            self._expect("}")
            catches.append(
                ast.CatchClause(
                    line=catch_line, class_name=class_name, var_name=var_name, body=catch_body
                )
            )
        if self._at(TokenType.STRING) and self._peek().value.lower() == "finally":
            self._next()
            self._expect("{")
            finally_body = self._parse_block_statements()
            self._expect("}")
        return ast.TryStatement(
            line=line, body=body, catches=catches, finally_body=finally_body
        )

    # -- declarations -----------------------------------------------------------

    def _parse_function_statement(self) -> ast.Statement:
        """``function name(...)``, else an expression statement opening
        with a closure."""
        offset = 1
        if self._peek_kind(offset) == "&":
            offset += 1
        if self._peek_kind(offset) is TokenType.STRING:
            return self._parse_function_declaration()
        return self._parse_expression_statement()

    def _parse_qualified_name(self) -> str:
        """Parse a possibly namespace-qualified name into one string."""
        parts: List[str] = []
        self._accept(TokenType.NS_SEPARATOR)
        while self.kinds[self.pos] in _NAME_PARTS:
            parts.append(self._next().value)
            if not self._accept(TokenType.NS_SEPARATOR):
                break
        if not parts:
            raise self._error(f"expected name, found {self._peek().name}")
        return "\\".join(parts)

    def _parse_params(self) -> List[ast.Param]:
        self._expect("(")
        params: List[ast.Param] = []
        while not self._at(")") and not self._at(TokenType.EOF):
            line = self._peek().line
            type_hint: Optional[str] = None
            if self._at(TokenType.STRING) or self._at(TokenType.NS_SEPARATOR):
                type_hint = self._parse_qualified_name()
            elif self._at(TokenType.ARRAY):
                type_hint = self._next().value
            by_ref = self._accept("&") is not None
            self._accept(TokenType.ELLIPSIS)
            name = self._expect(TokenType.VARIABLE).value[1:]
            default = None
            if self._accept("="):
                default = self._parse_expression()
            params.append(
                ast.Param(
                    line=line, name=name, default=default, by_ref=by_ref, type_hint=type_hint
                )
            )
            if not self._accept(","):
                break
        self._expect(")")
        return params

    def _parse_function_declaration(self) -> ast.FunctionDecl:
        # the index lists declarations in preorder: reserve this one's
        # place ahead of the declarations nested in its body
        functions = self.index.functions
        slot = len(functions)
        functions.append(None)
        line = self._expect(TokenType.FUNCTION).line
        by_ref = self._accept("&") is not None
        name = self._expect(TokenType.STRING).value
        params = self._parse_params()
        self._expect("{")
        body = self._parse_block_statements()
        self._expect("}")
        functions[slot] = decl = ast.FunctionDecl(
            line=line, name=name, params=params, body=body, by_ref=by_ref
        )
        return decl

    def _parse_class_declaration(self) -> ast.ClassDecl:
        is_abstract = False
        is_final = False
        while True:
            if self._accept(TokenType.ABSTRACT):
                is_abstract = True
            elif self._accept(TokenType.FINAL):
                is_final = True
            else:
                break
        token = self._peek()
        if token.type is TokenType.CLASS:
            kind = "class"
        elif token.type is TokenType.INTERFACE:
            kind = "interface"
        elif token.type is TokenType.TRAIT:
            kind = "trait"
        else:
            raise self._error(f"expected class/interface/trait, found {token.name}")
        line = self._next().line
        name = self._expect(TokenType.STRING).value
        parent: Optional[str] = None
        interfaces: List[str] = []
        if self._accept(TokenType.EXTENDS):
            parent = self._parse_qualified_name()
            # interfaces may extend several parents; keep the first, record rest
            while self._accept(","):
                interfaces.append(self._parse_qualified_name())
        if self._accept(TokenType.IMPLEMENTS):
            interfaces.append(self._parse_qualified_name())
            while self._accept(","):
                interfaces.append(self._parse_qualified_name())
        self._expect("{")
        decl = ast.ClassDecl(
            line=line,
            name=name,
            parent=parent,
            interfaces=interfaces,
            kind=kind,
            is_abstract=is_abstract,
            is_final=is_final,
        )
        self.index.classes.append(decl)  # before its members: preorder
        while not self._at("}") and not self._at(TokenType.EOF):
            self._parse_class_member(decl)
        self._expect("}")
        return decl

    def _parse_class_member(self, decl: ast.ClassDecl) -> None:  # noqa: C901
        if self._accept(";"):
            return
        if self._at(TokenType.USE):
            self._next()
            decl.uses.append(self._parse_qualified_name())
            while self._accept(","):
                decl.uses.append(self._parse_qualified_name())
            if self._accept("{"):
                while not self._accept("}") and not self._at(TokenType.EOF):
                    self._next()
            else:
                self._end_statement()
            return
        if self._at(TokenType.CONST):
            self._next()
            while True:
                const_line = self._peek().line
                const_name = self._expect(TokenType.STRING).value
                self._expect("=")
                value = self._parse_expression()
                decl.constants.append(
                    ast.ClassConstDecl(line=const_line, name=const_name, value=value)
                )
                if not self._accept(","):
                    break
            self._end_statement()
            return

        visibility = "public"
        static = False
        abstract = False
        final = False
        while True:
            token = self._peek()
            if token.type in (TokenType.PUBLIC, TokenType.VAR):
                visibility = "public"
                self._next()
            elif token.type is TokenType.PROTECTED:
                visibility = "protected"
                self._next()
            elif token.type is TokenType.PRIVATE:
                visibility = "private"
                self._next()
            elif token.type is TokenType.STATIC:
                static = True
                self._next()
            elif token.type is TokenType.ABSTRACT:
                abstract = True
                self._next()
            elif token.type is TokenType.FINAL:
                final = True
                self._next()
            else:
                break

        if self._at(TokenType.FUNCTION):
            line = self._next().line
            by_ref = self._accept("&") is not None
            name_token = self._peek()
            if name_token.type is TokenType.STRING or name_token.type.value.startswith("T_"):
                name = self._next().value
            else:
                raise self._error("expected method name")
            params = self._parse_params()
            body: Optional[List[ast.Statement]] = None
            if self._accept("{"):
                body = self._parse_block_statements()
                self._expect("}")
            else:
                self._end_statement()
            decl.methods.append(
                ast.MethodDecl(
                    line=line,
                    name=name,
                    params=params,
                    body=body,
                    visibility=visibility,
                    static=static,
                    abstract=abstract,
                    final=final,
                    by_ref=by_ref,
                )
            )
            return

        if self._at(TokenType.VARIABLE):
            while True:
                line = self._peek().line
                name = self._expect(TokenType.VARIABLE).value[1:]
                default = None
                if self._accept("="):
                    default = self._parse_expression()
                decl.properties.append(
                    ast.PropertyDecl(
                        line=line,
                        name=name,
                        default=default,
                        visibility=visibility,
                        static=static,
                    )
                )
                if not self._accept(","):
                    break
            self._end_statement()
            return

        raise self._error(f"unexpected token in class body: {self._peek().name}")

    def _parse_namespace(self) -> ast.NamespaceStatement:
        line = self._expect(TokenType.NAMESPACE).line
        name = ""
        if self._at(TokenType.STRING):
            name = self._parse_qualified_name()
        if self._accept("{"):
            body = self._parse_block_statements()
            self._expect("}")
            return ast.NamespaceStatement(line=line, name=name, body=body)
        self._end_statement()
        return ast.NamespaceStatement(line=line, name=name, body=None)

    def _parse_use(self) -> ast.UseStatement:
        line = self._expect(TokenType.USE).line
        name = self._parse_qualified_name()
        alias = None
        if self._accept(TokenType.AS):
            alias = self._expect(TokenType.STRING).value
        while self._accept(","):
            self._parse_qualified_name()
            if self._accept(TokenType.AS):
                self._expect(TokenType.STRING)
        self._end_statement()
        return ast.UseStatement(line=line, name=name, alias=alias)

    def _parse_const(self) -> ast.ConstStatement:
        line = self._expect(TokenType.CONST).line
        consts: List = []
        while True:
            name = self._expect(TokenType.STRING).value
            self._expect("=")
            value = self._parse_expression()
            consts.append((name, value))
            if not self._accept(","):
                break
        self._end_statement()
        return ast.ConstStatement(line=line, consts=consts)

    def _parse_declare(self) -> ast.DeclareStatement:
        line = self._expect(TokenType.DECLARE).line
        self._expect("(")
        directives: List = []
        while not self._at(")"):
            name = self._expect(TokenType.STRING).value
            self._expect("=")
            value = self._parse_expression()
            directives.append((name, value))
            if not self._accept(","):
                break
        self._expect(")")
        body: Optional[List[ast.Statement]] = None
        if self._accept("{"):
            body = self._parse_block_statements()
            self._expect("}")
        else:
            self._accept(";")
        return ast.DeclareStatement(line=line, directives=directives, body=body)

    # -- expressions ---------------------------------------------------------------

    def _parse_expression(
        self, min_power: int = 0, assign_ok: bool = False
    ) -> ast.Expr:
        """One binding-power (Pratt) loop for every infix form.

        Parse a prefix operand, then keep folding infix operators into
        it while the next one binds at least ``min_power`` (see
        ``_INFIX``): binaries recurse for their right operand at its
        right power, ``=``/``op=`` and the middle arm of ``?:`` at
        assignment power.  The last arm of ``?:`` stops at any operator
        looser than ``??`` except an assignment (``assign_ok``).
        """
        left = self._parse_unary()
        kinds = self.kinds
        while True:
            entry = _INFIX_KINDS.get(kinds[self.pos])
            if entry is None:
                return left
            if entry[0] < min_power and not (assign_ok and entry[2] == _ASSIGN):
                return left
            _power, right_power, kind, op = entry
            line = self.tokens[self.pos].line
            self.pos += 1
            if kind == _BINARY:
                right = self._parse_expression(right_power)
                left = ast.Binary(line=line, op=op, left=left, right=right)
            elif kind == _ASSIGN:
                by_ref = op == "=" and self._accept("&") is not None
                value = self._parse_expression(right_power)
                left = ast.Assignment(
                    line=line, target=left, value=value, op=op, by_ref=by_ref
                )
            elif kind == _TERNARY:
                if_true = None
                if not self._accept(":"):
                    if_true = self._parse_expression(right_power)
                    self._expect(":")
                if_false = self._parse_expression(_TERNARY_POWER + 1, assign_ok=True)
                left = ast.Ternary(
                    line=line, cond=left, if_true=if_true, if_false=if_false
                )
            else:  # instanceof: a class name or a dynamic operand
                class_name: Union[str, ast.Expr]
                if self._at(TokenType.STRING) or self._at(TokenType.NS_SEPARATOR):
                    class_name = self._parse_qualified_name()
                else:
                    class_name = self._parse_unary()
                left = ast.InstanceofExpr(line=line, expr=left, class_name=class_name)

    def _parse_unary(self) -> ast.Expr:
        kind = self.kinds[self.pos]
        if kind not in _UNARY_KINDS:
            return self._parse_postfix_operators(self._parse_primary())
        line = self.tokens[self.pos].line
        if kind in _UNARY_CHARS:
            self.pos += 1
            if kind == "!":
                # `!` binds looser than `instanceof` and `**`
                operand = self._parse_expression(_INSTANCEOF_POWER)
            else:
                operand = self._parse_unary()
            return ast.Unary(line=line, op=kind, operand=operand)
        if kind in _CAST_NAMES:
            self.pos += 1
            operand = self._parse_unary()
            return ast.Cast(line=line, to=_CAST_NAMES[kind], operand=operand)
        if kind is TokenType.INC or kind is TokenType.DEC:
            op = self._next().value
            target = self._parse_unary()
            return ast.IncDec(line=line, op=op, target=target, prefix=True)
        if kind in _INCLUDE_KINDS:
            self.pos += 1
            includes = self.index.includes  # preorder slot, as for functions
            slot = len(includes)
            includes.append(None)
            path = self._parse_expression()
            includes[slot] = node = ast.IncludeExpr(
                line=line, kind=_INCLUDE_KINDS[kind], path=path
            )
            return node
        if kind is TokenType.PRINT:
            self.pos += 1
            expr = self._parse_expression()
            return ast.PrintExpr(line=line, expr=expr)
        if kind is TokenType.THROW:
            self.pos += 1
            expr = self._parse_expression()
            return ast.Unary(line=line, op="throw", operand=expr)
        if kind is TokenType.NEW:
            return self._parse_new()
        if kind is TokenType.CLONE:
            self.pos += 1
            expr = self._parse_unary()
            return ast.Clone(line=line, expr=expr)
        # exit / die
        self.pos += 1
        expr = None
        if self._accept("("):
            if not self._at(")"):
                expr = self._parse_expression()
            self._expect(")")
        return ast.ExitExpr(line=line, expr=expr)

    def _parse_new(self) -> ast.Expr:
        line = self._expect(TokenType.NEW).line
        class_name: Union[str, ast.Expr]
        kind = self.kinds[self.pos]
        if kind is TokenType.STRING or kind is TokenType.NS_SEPARATOR or kind is (
            TokenType.STATIC
        ):
            class_name = self._parse_qualified_name()
            # constructors count as called
            self._called_methods.append("__construct")
            self._called_names.append(class_name.lower())
        elif kind is TokenType.VARIABLE:
            class_name = self._parse_postfix()
        else:
            raise self._error("expected class name after new")
        args: List[ast.Expr] = []
        if self._at("("):
            args = self._parse_call_args()
        node: ast.Expr = ast.New(line=line, class_name=class_name, args=args)
        return self._parse_postfix_operators(node)

    def _parse_call_args(self) -> List[ast.Expr]:
        self._expect("(")
        args: List[ast.Expr] = []
        kinds = self.kinds
        while kinds[self.pos] != ")" and kinds[self.pos] is not TokenType.EOF:
            self._accept("&")  # call-time pass-by-reference (PHP4 style)
            self._accept(TokenType.ELLIPSIS)
            args.append(self._parse_expression())
            if not self._accept(","):
                break
        self._expect(")")
        return args

    def _parse_postfix(self) -> ast.Expr:
        node = self._parse_primary()
        return self._parse_postfix_operators(node)

    def _parse_postfix_operators(self, node: ast.Expr) -> ast.Expr:  # noqa: C901
        kinds = self.kinds
        while True:
            kind = kinds[self.pos]
            if kind not in _POSTFIX_KINDS:
                return node
            line = self.tokens[self.pos].line
            if kind == "[":
                self.pos += 1
                index: Optional[ast.Expr] = None
                if not self._at("]"):
                    index = self._parse_expression()
                self._expect("]")
                node = ast.ArrayAccess(line=line, array=node, index=index)
            elif kind == "(" or kind == "{":
                if not isinstance(node, _CALLABLE_NODES):
                    return node
                if kind == "(":
                    args = self._parse_call_args()
                    node = ast.FunctionCall(line=line, name=node, args=args)
                else:
                    # string offset access $str{0} (PHP5) — treat as array access
                    self.pos += 1
                    index = self._parse_expression()
                    self._expect("}")
                    node = ast.ArrayAccess(line=line, array=node, index=index)
            elif kind is TokenType.OBJECT_OPERATOR:
                self.pos += 1
                name = self._parse_member_name()
                if self._at("("):
                    args = self._parse_call_args()
                    node = ast.MethodCall(
                        line=line, object=node, method=name, args=args
                    )
                    if name.__class__ is str:
                        self._called_methods.append(name.lower())
                else:
                    node = ast.PropertyAccess(line=line, object=node, name=name)
            elif kind is TokenType.DOUBLE_COLON:
                class_name = self._static_class_name(node)
                self.pos += 1
                if self._at(TokenType.VARIABLE):
                    prop = self._next().value[1:]
                    if self._at("("):
                        args = self._parse_call_args()
                        node = ast.StaticCall(
                            line=line,
                            class_name=class_name,
                            method=ast.Variable(line=line, name=prop),
                            args=args,
                        )
                    else:
                        node = ast.StaticPropertyAccess(
                            line=line, class_name=class_name, name=prop
                        )
                elif self._accept(TokenType.CLASS):
                    node = ast.ClassConstAccess(
                        line=line, class_name=class_name, name="class"
                    )
                else:
                    member = self._parse_member_name()
                    if self._at("("):
                        args = self._parse_call_args()
                        node = ast.StaticCall(
                            line=line, class_name=class_name, method=member, args=args
                        )
                        if member.__class__ is str:
                            self._called_methods.append(member.lower())
                    elif member.__class__ is str:
                        node = ast.ClassConstAccess(
                            line=line, class_name=class_name, name=member
                        )
                    else:
                        raise self._error("dynamic class constant access")
            else:  # ++ / --
                op = self._next().value
                node = ast.IncDec(line=line, op=op, target=node, prefix=False)

    def _parse_member_name(self) -> Union[str, ast.Expr]:
        token = self._peek()
        if token.type is TokenType.STRING or (
            token.type.value.startswith("T_") and token.value.isidentifier()
        ):
            self._next()
            return token.value
        if token.type is TokenType.VARIABLE:
            self._next()
            return ast.Variable(line=token.line, name=token.value[1:])
        if self._accept("{"):
            expr = self._parse_expression()
            self._expect("}")
            return expr
        raise self._error(f"expected member name, found {token.name}")

    def _static_class_name(self, node: ast.Expr) -> str:
        if isinstance(node, ast.ConstFetch):
            return node.name
        if isinstance(node, ast.Variable):
            return "$" + node.name
        raise self._error("expected class name before '::'")

    def _parse_primary(self) -> ast.Expr:  # noqa: C901
        kind = self.kinds[self.pos]
        token = self.tokens[self.pos]

        if kind is TokenType.VARIABLE:
            self.pos += 1
            return ast.Variable(line=token.line, name=token.value[1:])
        if kind is TokenType.STRING:
            name = self._parse_qualified_name()
            if self._at("("):
                return self._parse_named_call(token.line, name)
            return ast.ConstFetch(line=token.line, name=name)
        if kind is TokenType.CONSTANT_ENCAPSED_STRING:
            self.pos += 1
            raw = token.value
            if raw.startswith("'"):
                value: object = unescape_single_quoted(raw)
            else:
                value = unescape_double_quoted(raw[1:-1])
            return ast.Literal(line=token.line, value=value, raw=raw)
        if kind == "(":
            self.pos += 1
            expr = self._parse_expression()
            self._expect(")")
            return expr
        if kind == "[":
            self.pos += 1
            return self._parse_array_items(token.line, "]")
        if kind == '"':
            return self._parse_interpolated('"')
        if kind == "$":
            self.pos += 1
            if self._accept("{"):
                expr = self._parse_expression()
                self._expect("}")
                return ast.VariableVariable(line=token.line, expr=expr)
            inner = self._parse_primary()
            return ast.VariableVariable(line=token.line, expr=inner)
        if kind == "`":
            node = self._parse_interpolated("`")
            return ast.ShellExec(line=node.line, parts=node.parts)
        if kind == "&":
            # reference in expression position: &$var — transparent for taint
            self.pos += 1
            return self._parse_postfix()
        if kind is TokenType.LNUMBER:
            self.pos += 1
            try:
                value = int(token.value, 0)
            except ValueError:
                value = int(token.value)
            return ast.Literal(line=token.line, value=value, raw=token.value)
        if kind is TokenType.DNUMBER:
            self.pos += 1
            return ast.Literal(line=token.line, value=float(token.value), raw=token.value)
        if kind is TokenType.START_HEREDOC:
            return self._parse_heredoc()
        if kind is TokenType.ARRAY and self._peek_kind(1) == "(":
            self.pos += 1
            return self._parse_array_literal(token.line, ")")
        if kind is TokenType.ISSET:
            self.pos += 1
            self._expect("(")
            vars_ = self._parse_expr_list_until(")")
            self._expect(")")
            return ast.IssetExpr(line=token.line, vars=vars_)
        if kind is TokenType.EMPTY:
            self.pos += 1
            self._expect("(")
            expr = self._parse_expression()
            self._expect(")")
            return ast.EmptyExpr(line=token.line, expr=expr)
        if kind is TokenType.LIST:
            self.pos += 1
            self._expect("(")
            targets: List[Optional[ast.Expr]] = []
            while not self._at(")"):
                if self._at(","):
                    targets.append(None)
                else:
                    targets.append(self._parse_expression())
                if not self._accept(","):
                    break
            self._expect(")")
            return ast.ListExpr(line=token.line, targets=targets)
        if kind is TokenType.FUNCTION:
            return self._parse_closure(static=False)
        if kind is TokenType.STATIC and self._peek_kind(1) is TokenType.FUNCTION:
            self.pos += 1
            return self._parse_closure(static=True)
        if kind is TokenType.STATIC and self._peek_kind(1) is TokenType.DOUBLE_COLON:
            self.pos += 1
            return ast.ConstFetch(line=token.line, name="static")
        if kind in _MAGIC_NAMES:
            if kind is TokenType.NS_SEPARATOR:
                name = self._parse_qualified_name()
            else:
                name = self._next().value
            if self._at("("):
                return self._parse_named_call(token.line, name)
            return ast.ConstFetch(line=token.line, name=name)

        raise self._error(f"unexpected token {token.name} {token.value!r}")

    def _parse_named_call(self, line: int, name: str) -> ast.FunctionCall:
        """``name(...)``: a call the index records as called by name."""
        args = self._parse_call_args()
        self._called_names.append(name.lower())
        return ast.FunctionCall(line=line, name=name, args=args)

    def _parse_array_literal(self, line: int, closer: str) -> ast.ArrayLiteral:
        self._expect("(")
        return self._parse_array_items(line, closer)

    def _parse_array_items(self, line: int, closer: str) -> ast.ArrayLiteral:
        items: List[ast.ArrayItem] = []
        while not self._at(closer) and not self._at(TokenType.EOF):
            item_line = self._peek().line
            by_ref = self._accept("&") is not None
            first = self._parse_expression()
            if self._accept(TokenType.DOUBLE_ARROW):
                value_by_ref = self._accept("&") is not None
                value = self._parse_expression()
                items.append(
                    ast.ArrayItem(line=item_line, key=first, value=value, by_ref=value_by_ref)
                )
            else:
                items.append(ast.ArrayItem(line=item_line, key=None, value=first, by_ref=by_ref))
            if not self._accept(","):
                break
        self._expect(closer)
        return ast.ArrayLiteral(line=line, items=items)

    def _parse_closure(self, static: bool) -> ast.Closure:
        line = self._expect(TokenType.FUNCTION).line
        by_ref = self._accept("&") is not None
        params = self._parse_params()
        uses: List[ast.ClosureUse] = []
        if self._at(TokenType.USE):
            self._next()
            self._expect("(")
            while not self._at(")"):
                use_line = self._peek().line
                use_by_ref = self._accept("&") is not None
                use_name = self._expect(TokenType.VARIABLE).value[1:]
                uses.append(ast.ClosureUse(line=use_line, name=use_name, by_ref=use_by_ref))
                if not self._accept(","):
                    break
            self._expect(")")
        self._expect("{")
        body = self._parse_block_statements()
        self._expect("}")
        return ast.Closure(
            line=line, params=params, uses=uses, body=body, static=static, by_ref=by_ref
        )

    def _parse_interpolated(self, delimiter: str) -> ast.InterpolatedString:
        line = self._expect(delimiter).line
        parts = self._parse_interpolation_parts(lambda: self._at(delimiter))
        self._expect(delimiter)
        return ast.InterpolatedString(line=line, parts=parts)

    def _parse_heredoc(self) -> ast.InterpolatedString:
        line = self._expect(TokenType.START_HEREDOC).line
        parts = self._parse_interpolation_parts(lambda: self._at(TokenType.END_HEREDOC))
        self._expect(TokenType.END_HEREDOC)
        return ast.InterpolatedString(line=line, parts=parts)

    def _parse_interpolation_parts(self, at_end) -> List[ast.Expr]:
        parts: List[ast.Expr] = []
        while not at_end() and not self._at(TokenType.EOF):
            token = self._peek()
            if token.type is TokenType.ENCAPSED_AND_WHITESPACE:
                self._next()
                parts.append(
                    ast.Literal(
                        line=token.line,
                        value=unescape_double_quoted(token.value),
                        raw=token.value,
                    )
                )
                continue
            if token.type is TokenType.VARIABLE:
                self._next()
                node: ast.Expr = ast.Variable(line=token.line, name=token.value[1:])
                # simple interpolation suffixes: [index] and ->prop
                if self._at("["):
                    self._next()
                    index_token = self._next()
                    index: Optional[ast.Expr]
                    if index_token.type is TokenType.VARIABLE:
                        index = ast.Variable(
                            line=index_token.line, name=index_token.value[1:]
                        )
                    elif index_token.type is TokenType.NUM_STRING:
                        index = ast.Literal(
                            line=index_token.line,
                            value=int(index_token.value),
                            raw=index_token.value,
                        )
                    else:
                        index = ast.Literal(
                            line=index_token.line,
                            value=index_token.value,
                            raw=index_token.value,
                        )
                    self._expect("]")
                    node = ast.ArrayAccess(line=token.line, array=node, index=index)
                elif self._at(TokenType.OBJECT_OPERATOR):
                    self._next()
                    prop = self._expect(TokenType.STRING).value
                    node = ast.PropertyAccess(line=token.line, object=node, name=prop)
                parts.append(node)
                continue
            if token.type is TokenType.CURLY_OPEN:
                self._next()
                expr = self._parse_expression()
                self._expect("}")
                parts.append(expr)
                continue
            if token.type is TokenType.DOLLAR_OPEN_CURLY_BRACES:
                self._next()
                expr = self._parse_expression()
                self._expect("}")
                parts.append(ast.VariableVariable(line=token.line, expr=expr))
                continue
            raise self._error(
                f"unexpected token in string interpolation: {token.name}"
            )
        return parts


Parser._STATEMENT_DISPATCH = {
    TokenType.OPEN_TAG: Parser._skip_token,
    TokenType.CLOSE_TAG: Parser._skip_token,
    TokenType.OPEN_TAG_WITH_ECHO: Parser._parse_echo,
    TokenType.ECHO: Parser._parse_echo,
    TokenType.INLINE_HTML: Parser._parse_inline_html,
    ";": Parser._skip_token,
    "{": Parser._parse_block,
    TokenType.IF: Parser._parse_if,
    TokenType.WHILE: Parser._parse_while,
    TokenType.DO: Parser._parse_do_while,
    TokenType.FOR: Parser._parse_for,
    TokenType.FOREACH: Parser._parse_foreach,
    TokenType.SWITCH: Parser._parse_switch,
    TokenType.BREAK: Parser._parse_break_continue,
    TokenType.CONTINUE: Parser._parse_break_continue,
    TokenType.RETURN: Parser._parse_return,
    TokenType.GLOBAL: Parser._parse_global,
    TokenType.STATIC: Parser._parse_static_vars,
    TokenType.UNSET: Parser._parse_unset,
    TokenType.THROW: Parser._parse_throw,
    TokenType.TRY: Parser._parse_try,
    TokenType.FUNCTION: Parser._parse_function_statement,
    TokenType.ABSTRACT: Parser._parse_class_declaration,
    TokenType.FINAL: Parser._parse_class_declaration,
    TokenType.CLASS: Parser._parse_class_declaration,
    TokenType.INTERFACE: Parser._parse_class_declaration,
    TokenType.TRAIT: Parser._parse_class_declaration,
    TokenType.NAMESPACE: Parser._parse_namespace,
    TokenType.USE: Parser._parse_use,
    TokenType.CONST: Parser._parse_const,
    TokenType.DECLARE: Parser._parse_declare,
    TokenType.GOTO: Parser._parse_goto,
    TokenType.STRING: Parser._parse_name_statement,
}


def parse_source(
    source: str, filename: str = "<string>", recover: bool = False
) -> ast.PhpFile:
    """Lex and parse PHP source into a :class:`PhpFile` AST."""
    tokens = tokenize_significant(source, filename, recover=recover)
    return Parser(tokens, filename, recover=recover).parse_file()
