"""AST node definitions for the PHP subset the analyzers work on.

The phpSAFE analysis stage (paper Section III.C) dispatches on code
constructs: variable uses, assignments, function/method calls, returns,
conditionals and loops, ``unset``, ``global``, includes, echo/print
output, and — for the OOP support of Section III.E — classes, methods,
properties, ``new``, ``->`` and ``::``.  Every one of those constructs is
a distinct node type here.

Nodes are plain mutable dataclasses with a ``line`` attribute (PHP token
line numbers flow through the parser into findings, which is how the
tool reports "the entry point of the vulnerability in the source code").
Every node class is slotted (ASTs are the analyzer's second-highest
allocation volume after tokens), so traversal helpers enumerate fields
via the per-class ``__node_fields__`` tuple instead of ``vars()``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


def _add_slots(cls):
    """Rebuild a dataclass with ``__slots__`` (``slots=True`` needs 3.10).

    Mirrors CPython's own ``dataclasses._add_slots``: copy the class
    namespace, declare the class's *own* fields as slots, drop the field
    defaults (they live in ``__init__`` closures) plus ``__dict__`` /
    ``__weakref__`` descriptors, and re-create the type.
    """
    field_names = tuple(f.name for f in dataclasses.fields(cls))
    inherited = set()
    for base in cls.__mro__[1:]:
        inherited.update(getattr(base, "__slots__", ()))
    namespace = dict(cls.__dict__)
    namespace["__slots__"] = tuple(n for n in field_names if n not in inherited)
    for name in field_names:
        namespace.pop(name, None)
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    qualname = getattr(cls, "__qualname__", None)
    rebuilt = type(cls)(cls.__name__, cls.__bases__, namespace)
    if qualname is not None:
        rebuilt.__qualname__ = qualname
    return rebuilt


#: annotations that can never hold (or contain) an AST node; fields so
#: typed are skipped by :func:`walk`
_SCALAR_ANNOTATIONS = {
    "int", "str", "bool", "float", "object",
    "Optional[str]", "Optional[int]", "List[str]",
}


def node(cls):
    """Class decorator for AST nodes: slotted dataclass + field tables."""
    cls = _add_slots(dataclass(cls))
    all_fields = dataclasses.fields(cls)
    cls.__node_fields__ = tuple(f.name for f in all_fields)
    cls.__walk_fields__ = tuple(
        f.name for f in all_fields if str(f.type) not in _SCALAR_ANNOTATIONS
    )
    return cls


@node
class Node:
    """Base class: every node knows its source line."""

    line: int = 0


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@node
class Expr(Node):
    """Base class for expressions."""


@node
class Variable(Expr):
    """``$name`` — name stored without the ``$``."""

    name: str = ""


@node
class VariableVariable(Expr):
    """``$$expr`` — variable-variable indirection."""

    expr: Optional[Expr] = None


@node
class Literal(Expr):
    """Scalar literal; ``value`` is the decoded Python value."""

    value: object = None
    raw: str = ""


@node
class InterpolatedString(Expr):
    """Double-quoted/heredoc string with embedded expressions.

    ``parts`` interleaves :class:`Literal` (the constant runs) with
    arbitrary expressions.  The paper treats a tainted variable being
    "merged with HTML code" as an XSS-relevant event; interpolation is
    one of the two merge forms (the other is ``.`` concatenation).
    """

    parts: List[Expr] = field(default_factory=list)


@node
class ShellExec(Expr):
    """Backtick operator — ``` `cmd $arg` ```."""

    parts: List[Expr] = field(default_factory=list)


@node
class ArrayItem(Node):
    """One ``key => value`` element of an array literal."""

    key: Optional[Expr] = None
    value: Optional[Expr] = None
    by_ref: bool = False


@node
class ArrayLiteral(Expr):
    """``array(...)`` or ``[...]``."""

    items: List[ArrayItem] = field(default_factory=list)


@node
class ArrayAccess(Expr):
    """``$arr[$index]`` (index may be ``None`` for ``$arr[] = ...``)."""

    array: Optional[Expr] = None
    index: Optional[Expr] = None


@node
class PropertyAccess(Expr):
    """``$obj->prop`` — the T_OBJECT_OPERATOR path of Section III.E."""

    object: Optional[Expr] = None
    name: Union[str, Expr, None] = None


@node
class StaticPropertyAccess(Expr):
    """``ClassName::$prop`` — the T_DOUBLE_COLON path."""

    class_name: str = ""
    name: str = ""


@node
class ClassConstAccess(Expr):
    """``ClassName::CONST``."""

    class_name: str = ""
    name: str = ""


@node
class ConstFetch(Expr):
    """Bare identifier used as a constant (``true``, ``PHP_EOL``, ...)."""

    name: str = ""


@node
class FunctionCall(Expr):
    """``name(args...)``; ``name`` is a string or an expression for
    dynamic calls (``$fn(...)``)."""

    name: Union[str, Expr, None] = None
    args: List[Expr] = field(default_factory=list)


@node
class MethodCall(Expr):
    """``$obj->method(args...)``."""

    object: Optional[Expr] = None
    method: Union[str, Expr, None] = None
    args: List[Expr] = field(default_factory=list)


@node
class StaticCall(Expr):
    """``ClassName::method(args...)`` (also ``parent::``/``self::``)."""

    class_name: str = ""
    method: Union[str, Expr, None] = None
    args: List[Expr] = field(default_factory=list)


@node
class New(Expr):
    """``new ClassName(args...)`` — parsed as a constructor call."""

    class_name: Union[str, Expr, None] = None
    args: List[Expr] = field(default_factory=list)


@node
class Clone(Expr):
    """``clone $obj``."""

    expr: Optional[Expr] = None


@node
class Assignment(Expr):
    """``target op value`` where op is ``=``, ``.=``, ``+=`` ... or ``=&``.

    Compound ops keep the target's previous value in the dependency set
    (``$x .= $y`` leaves ``$x`` depending on both its old value and
    ``$y``), which the engine models by rewriting to ``$x = $x . $y``.
    """

    target: Optional[Expr] = None
    value: Optional[Expr] = None
    op: str = "="
    by_ref: bool = False


@node
class Binary(Expr):
    """Binary operation, including ``.`` concatenation."""

    op: str = ""
    left: Optional[Expr] = None
    right: Optional[Expr] = None


@node
class Unary(Expr):
    """Prefix unary operation (``!``, ``-``, ``+``, ``~``, ``@``)."""

    op: str = ""
    operand: Optional[Expr] = None


@node
class Ternary(Expr):
    """``cond ? a : b`` (``a`` may be None for the short form ``?:``)."""

    cond: Optional[Expr] = None
    if_true: Optional[Expr] = None
    if_false: Optional[Expr] = None


@node
class Cast(Expr):
    """``(int)$x`` etc.; ``to`` is the lower-cased target type name."""

    to: str = ""
    operand: Optional[Expr] = None


@node
class IncDec(Expr):
    """``++$x``, ``$x--`` ..."""

    op: str = "++"
    target: Optional[Expr] = None
    prefix: bool = True


@node
class IssetExpr(Expr):
    """``isset($a, $b)``."""

    vars: List[Expr] = field(default_factory=list)


@node
class EmptyExpr(Expr):
    """``empty($x)``."""

    expr: Optional[Expr] = None


@node
class ListExpr(Expr):
    """``list($a, , $b)`` assignment target."""

    targets: List[Optional[Expr]] = field(default_factory=list)


@node
class Param(Node):
    """A function/method parameter."""

    name: str = ""
    default: Optional[Expr] = None
    by_ref: bool = False
    type_hint: Optional[str] = None


@node
class ClosureUse(Node):
    """One entry of a closure ``use (...)`` clause."""

    name: str = ""
    by_ref: bool = False


@node
class Closure(Expr):
    """Anonymous function."""

    params: List[Param] = field(default_factory=list)
    uses: List[ClosureUse] = field(default_factory=list)
    body: List["Statement"] = field(default_factory=list)
    static: bool = False
    by_ref: bool = False


@node
class IncludeExpr(Expr):
    """``include/include_once/require/require_once path-expr``."""

    kind: str = "include"
    path: Optional[Expr] = None


@node
class ExitExpr(Expr):
    """``exit``/``die`` with optional status expression."""

    expr: Optional[Expr] = None


@node
class PrintExpr(Expr):
    """``print expr`` — an expression in PHP, an XSS sink for us."""

    expr: Optional[Expr] = None


@node
class InstanceofExpr(Expr):
    """``$x instanceof ClassName``."""

    expr: Optional[Expr] = None
    class_name: Union[str, Expr, None] = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@node
class Statement(Node):
    """Base class for statements."""


@node
class ErrorStmt(Statement):
    """A region the parser skipped during panic-mode recovery.

    When parsing with ``recover=True``, an unparseable statement is
    replaced by this node instead of aborting the file: the parser
    resynchronizes at the next statement boundary and records the span
    it had to skip.  The engine treats it as a no-op; the printer emits
    a comment.  ``reason`` is the original :class:`PhpParseError`
    message, ``line``/``end_line`` the skipped source span, and
    ``tokens_skipped`` the number of tokens discarded.
    """

    reason: str = ""
    end_line: int = 0
    tokens_skipped: int = 0


@node
class ExpressionStatement(Statement):
    """An expression evaluated for its side effects."""

    expr: Optional[Expr] = None


@node
class EchoStatement(Statement):
    """``echo expr, expr;`` and ``<?= expr ?>`` — the canonical XSS sink."""

    exprs: List[Expr] = field(default_factory=list)


@node
class InlineHTML(Statement):
    """Literal HTML outside ``<?php ?>``."""

    text: str = ""


@node
class Block(Statement):
    """``{ ... }``."""

    statements: List[Statement] = field(default_factory=list)


@node
class ElseIfClause(Node):
    cond: Optional[Expr] = None
    body: List[Statement] = field(default_factory=list)


@node
class IfStatement(Statement):
    """``if/elseif/else`` — branches are *joined*, not chosen (the paper's
    context-sensitive analysis considers all conditional paths)."""

    cond: Optional[Expr] = None
    then: List[Statement] = field(default_factory=list)
    elseifs: List[ElseIfClause] = field(default_factory=list)
    otherwise: Optional[List[Statement]] = None


@node
class WhileStatement(Statement):
    cond: Optional[Expr] = None
    body: List[Statement] = field(default_factory=list)


@node
class DoWhileStatement(Statement):
    body: List[Statement] = field(default_factory=list)
    cond: Optional[Expr] = None


@node
class ForStatement(Statement):
    init: List[Expr] = field(default_factory=list)
    cond: List[Expr] = field(default_factory=list)
    update: List[Expr] = field(default_factory=list)
    body: List[Statement] = field(default_factory=list)


@node
class ForeachStatement(Statement):
    """``foreach ($arr as $k => $v)``: $k/$v inherit $arr's taint."""

    subject: Optional[Expr] = None
    key_var: Optional[Expr] = None
    value_var: Optional[Expr] = None
    by_ref: bool = False
    body: List[Statement] = field(default_factory=list)


@node
class SwitchCase(Node):
    """One ``case expr:`` (``test is None`` for ``default:``)."""

    test: Optional[Expr] = None
    body: List[Statement] = field(default_factory=list)


@node
class SwitchStatement(Statement):
    subject: Optional[Expr] = None
    cases: List[SwitchCase] = field(default_factory=list)


@node
class BreakStatement(Statement):
    level: int = 1


@node
class ContinueStatement(Statement):
    level: int = 1


@node
class ReturnStatement(Statement):
    """``return expr`` — the engine binds a function-named pseudo-variable
    to the returned expression (the paper's T_RETURN handling)."""

    expr: Optional[Expr] = None


@node
class GlobalStatement(Statement):
    """``global $a, $b`` — links locals to the global scope."""

    names: List[str] = field(default_factory=list)


@node
class StaticVarStatement(Statement):
    """``static $x = 0;`` inside a function."""

    vars: List[Tuple[str, Optional[Expr]]] = field(default_factory=list)


@node
class UnsetStatement(Statement):
    """``unset($x)`` — T_UNSET: the variable becomes untainted."""

    vars: List[Expr] = field(default_factory=list)


@node
class ThrowStatement(Statement):
    expr: Optional[Expr] = None


@node
class CatchClause(Node):
    class_name: str = ""
    var_name: str = ""
    body: List[Statement] = field(default_factory=list)


@node
class TryStatement(Statement):
    body: List[Statement] = field(default_factory=list)
    catches: List[CatchClause] = field(default_factory=list)
    finally_body: Optional[List[Statement]] = None


@node
class FunctionDecl(Statement):
    """A user-defined function (paper: parsed once, summarized)."""

    name: str = ""
    params: List[Param] = field(default_factory=list)
    body: List[Statement] = field(default_factory=list)
    by_ref: bool = False
    doc_comment: Optional[str] = None


@node
class PropertyDecl(Node):
    """One declared property of a class."""

    name: str = ""
    default: Optional[Expr] = None
    visibility: str = "public"
    static: bool = False


@node
class ClassConstDecl(Node):
    name: str = ""
    value: Optional[Expr] = None


@node
class MethodDecl(Node):
    """A class method: a function plus OOP modifiers."""

    name: str = ""
    params: List[Param] = field(default_factory=list)
    body: Optional[List[Statement]] = None  # None for abstract methods
    visibility: str = "public"
    static: bool = False
    abstract: bool = False
    final: bool = False
    by_ref: bool = False


@node
class ClassDecl(Statement):
    """``class``, ``interface`` or ``trait`` declaration."""

    name: str = ""
    parent: Optional[str] = None
    interfaces: List[str] = field(default_factory=list)
    kind: str = "class"  # class | interface | trait
    is_abstract: bool = False
    is_final: bool = False
    constants: List[ClassConstDecl] = field(default_factory=list)
    properties: List[PropertyDecl] = field(default_factory=list)
    methods: List[MethodDecl] = field(default_factory=list)
    uses: List[str] = field(default_factory=list)  # trait use


@node
class NamespaceStatement(Statement):
    name: str = ""
    body: Optional[List[Statement]] = None


@node
class UseStatement(Statement):
    """Top-level ``use Foo\\Bar as Baz;`` import."""

    name: str = ""
    alias: Optional[str] = None


@node
class DeclareStatement(Statement):
    directives: List[Tuple[str, Expr]] = field(default_factory=list)
    body: Optional[List[Statement]] = None


@node
class GotoStatement(Statement):
    label: str = ""


@node
class LabelStatement(Statement):
    name: str = ""


@node
class ConstStatement(Statement):
    """Top-level ``const NAME = value;``."""

    consts: List[Tuple[str, Expr]] = field(default_factory=list)


@node
class PhpFile(Node):
    """A parsed PHP file: the root of the AST."""

    filename: str = "<string>"
    statements: List[Statement] = field(default_factory=list)


def walk(node: object):
    """Yield ``node`` and every AST node reachable from it, depth-first
    preorder (document order — consumers use first-definition-wins).

    Generic traversal used by the model-construction stage to collect
    user-defined functions, called functions and includes without each
    consumer writing its own recursion.  Children are enumerated through
    the per-class ``__walk_fields__`` table (nodes are slotted, so there
    is no ``vars()``), which also skips statically scalar fields.  The
    traversal is an explicit stack, not recursive generators: ``yield
    from`` chains cost one frame resume per ancestor per node, which
    dominated model construction on large files.
    """
    stack = [node]
    pop = stack.pop
    while stack:
        current = pop()
        if isinstance(current, Node):
            yield current
            children = None
            for name in current.__walk_fields__:
                value = getattr(current, name)
                if isinstance(value, Node) or value.__class__ in (list, tuple):
                    if children is None:
                        children = [value]
                    else:
                        children.append(value)
            if children:
                stack.extend(reversed(children))
        elif isinstance(current, (list, tuple)):
            stack.extend(reversed(current))


class FileIndex:
    """Index of the nodes the model-construction stage needs.

    The parser records it while it builds the tree
    (:attr:`repro.php.parser.Parser.index`), so no stage walks the tree
    for these nodes.  The lists hold the nodes in document order, which
    is :func:`walk`'s preorder except inside a class body (walked as
    constants, properties, methods); a recover-mode parse drops the
    records of every statement it discards.  The index is pickle-safe (it holds
    references into the same tree) and is stored on the cached
    ``FileModel``.
    """

    __slots__ = (
        "called_names",
        "called_methods",
        "functions",
        "classes",
        "includes",
    )

    def __init__(self) -> None:
        #: lower-cased names of statically-named function calls (``New``
        #: class names included — constructors count as called)
        self.called_names = set()
        #: lower-cased names of statically-named method/static calls
        self.called_methods = set()
        #: every FunctionDecl, document order (first-definition-wins)
        self.functions: List[FunctionDecl] = []
        #: every ClassDecl, document order
        self.classes: List[ClassDecl] = []
        #: every IncludeExpr, document order
        self.includes: List[IncludeExpr] = []


def iter_bodies(tree: "PhpFile"):
    """Enumerate the executable statement lists of a file in document
    order: the top-level body first, then every function and method body
    (abstract methods have no body; closures are excluded because the
    engine never executes them).

    The order is deterministic for a given tree, which lets per-file
    compilation artifacts (the lowered taint IR) be cached positionally
    and rebound to a freshly parsed or unpickled tree.

    Declarations are located with a dedicated statement-structure
    traversal rather than the generic :func:`walk`: function and class
    declarations are statements, so the traversal never needs to enter
    expression subtrees, which is where most nodes live.  (The one
    exception — a declaration nested inside a closure body — is not
    enumerated here; consumers lower such stray bodies on demand.)
    """
    bodies = [tree.statements]
    _collect_bodies(tree.statements, bodies)
    return bodies


def _collect_bodies(statements, out) -> None:
    """Append nested function/method bodies of ``statements`` to ``out``
    in document order (see :func:`iter_bodies`)."""
    for node in statements:
        cls = node.__class__
        if cls is IfStatement:
            _collect_bodies(node.then, out)
            for clause in node.elseifs:
                _collect_bodies(clause.body, out)
            if node.otherwise:
                _collect_bodies(node.otherwise, out)
        elif (
            cls is WhileStatement
            or cls is DoWhileStatement
            or cls is ForStatement
            or cls is ForeachStatement
        ):
            _collect_bodies(node.body, out)
        elif cls is SwitchStatement:
            for case in node.cases:
                _collect_bodies(case.body, out)
        elif cls is TryStatement:
            _collect_bodies(node.body, out)
            for catch in node.catches:
                _collect_bodies(catch.body, out)
            if node.finally_body:
                _collect_bodies(node.finally_body, out)
        elif cls is Block:
            _collect_bodies(node.statements, out)
        elif cls is FunctionDecl:
            out.append(node.body)
            _collect_bodies(node.body, out)
        elif cls is ClassDecl:
            for method in node.methods:
                if method.body is not None:
                    out.append(method.body)
                    _collect_bodies(method.body, out)
        elif (cls is NamespaceStatement or cls is DeclareStatement) and node.body:
            _collect_bodies(node.body, out)
