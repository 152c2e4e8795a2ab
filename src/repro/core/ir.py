"""Taint IR: one-time lowering of AST bodies to a linear instruction
form, and the executor that runs the taint fixed-point over it.

The fixed-point visits every body several times (branch snapshots, two
loop passes, summary re-analysis), and what each visit would otherwise
recompute — ``isinstance`` dispatch, knowledge-base dict probes
(``function_sinks`` & co. per call site), f-string trace construction
(``"$x assigned at file:line"`` per assignment) — is invariant per
*syntax site*.  So this module lowers each body once into flat tuples of
integer-opcode instructions with every invariant pre-resolved:

* profile lookups (superglobal/function sources, filters, reverts,
  sinks, known instances) are resolved at lowering time; call sites
  carry the spec (or its pre-built :class:`TaintState`) inline,
* trace strings, name hints, and markup contexts are pre-formatted
  (sound because a body always executes with ``_current_file`` equal to
  its defining file — see :class:`IRTaintEngine`),
* the unknown-call policy and passthrough/clean builtin classification
  collapse to a single pre-computed join-or-clean flag,
* statement/expression dispatch becomes one integer index into a
  handler table instead of an ``isinstance`` ladder,
* assignment targets, ``static`` defaults and ``global`` names are
  lowered too, so execution never goes back to the AST.

:class:`IRTaintEngine` is the only executor: phpSAFE and the RIPS and
Pixy baselines all run on it.  Every statement and every expression
costs one step tick, the unit the step budgets and deadlines count in;
the golden files under ``tests/golden/`` pin per-plugin step counts
along with the finding signatures.

Lowered programs are pickle-safe (tuples of ints, strings, interned
taint states, spec dataclasses, and AST node references) and are cached
in the content-addressed disk store keyed by file digest + analyzer
fingerprint, so rule or option changes invalidate them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config.vulnerability import InputVector, VulnKind
from ..perf import counters
from ..php import ast_nodes as ast
from ..php.ast_nodes import iter_bodies
from ..php.htmlcontext import context_at_end
from ..php.printer import print_expr
from .cache import ir_key
from .engine import (
    CLEAN_FUNCTIONS,
    MAX_TRACE,
    PASSTHROUGH_FUNCTIONS,
    BudgetExceeded,
    PhpSafeOptions,
    Scope,
    SinkEvent,
    TaintEngine,
    UnitFault,
    Value,
)
from .taint import ConcreteSource, TaintState, VariableRecord

#: bump when the instruction encoding changes; part of cache validity
#: (2: E_CALL carries a sink *tuple* and a trailing propagation spec;
#: 3: assignment/foreach targets, ``static`` and ``global`` lowered,
#: E_LOCAL carries the register_globals source line, not its state)
IR_VERSION = 3

# -- statement opcodes -------------------------------------------------------
S_EXPR = 0
S_ECHO = 1
S_IF = 2
S_WHILE = 3
S_DOWHILE = 4
S_FOREACH = 5
S_SWITCH = 6
S_RETURN = 7
S_GLOBAL = 8
S_STATIC = 9
S_UNSET = 10
S_THROW = 11
S_TRY = 12
S_BLOCK = 13
S_NOP = 14
S_FOR = 15

# -- expression opcodes ------------------------------------------------------
E_NONE = 0
E_CLEAN = 1
E_LOCAL = 2
E_SUPERGLOBAL = 3
E_VARVAR = 4
E_INTERP = 5
E_SHELL = 6
E_ARRAYLIT = 7
E_INDEX = 8
E_PROP = 9
E_SPROP = 10
E_ASSIGN_VAR = 11
E_ASSIGN = 12
E_BINARY = 13
E_UNARY = 14
E_TERNARY = 15
E_CAST = 16
E_INCDEC = 17
E_LIST = 18
E_CALL = 19
E_CALL_DYN = 20
E_METHOD = 21
E_SCALL = 22
E_NEW = 23
E_CLONE = 24
E_INCLUDE = 25
E_EXIT = 26
E_PRINT = 27

# -- assignment-target opcodes (E_ASSIGN, E_LIST items, foreach) -----------
T_VAR = 0
T_ELEM = 1
T_PROP = 2
T_SPROP = 3
T_LIST = 4

#: shared singleton instructions (the most common lowered forms)
_NOP_INSTR = (S_NOP,)
_NONE_INSTR = (E_NONE,)
_CLEAN_INSTR = (E_CLEAN,)


@dataclass
class IRProgram:
    """All lowered bodies of one file, in :func:`iter_bodies` order."""

    version: int
    file: str
    codes: Tuple[Tuple[tuple, ...], ...]


def _collect_literals(node: Optional[ast.Expr], parts: List[str]) -> bool:
    """Append ``node``'s literals to ``parts`` in output order; False at
    the first dynamic part."""
    if node is None:
        return False
    if isinstance(node, ast.Literal):
        parts.append(str(node.value) if node.value is not None else "")
        return True
    if isinstance(node, ast.Binary) and node.op == ".":
        return _collect_literals(node.left, parts) and _collect_literals(
            node.right, parts
        )
    if isinstance(node, ast.InterpolatedString):
        for part in node.parts:
            if not _collect_literals(part, parts):
                return False
        return True
    return False


def _literal_prefix(expr: Optional[ast.Expr]) -> str:
    """Concatenated literal markup before the first dynamic part."""
    parts: List[str] = []
    _collect_literals(expr, parts)
    return "".join(parts)


def _describe_expr(expr: Optional[ast.Expr]) -> str:
    if expr is None:
        return ""
    try:
        text = print_expr(expr)
    except TypeError:
        return type(expr).__name__
    return text if len(text) <= 60 else text[:57] + "..."


class _Lowerer:
    """Compiles statement lists into instruction tuples.

    One instance per (file, analyzer configuration): everything baked
    into the instructions — trace strings, source labels, profile specs,
    the unknown-call policy — is either file-scoped or covered by the
    analyzer fingerprint the IR cache is keyed under.  The baselines'
    envelope settings (construct kinds, unknown-call policy) are not in
    that fingerprint: only the baselines change them, and they run
    without an IR store.
    """

    def __init__(self, engine: TaintEngine, file: str) -> None:
        self.profile = engine.profile
        self.file = file
        self.oop = engine.options.oop
        self.construct_kinds = engine.construct_kinds
        self.unknown_call_policy = engine.unknown_call_policy

    # -- statements --------------------------------------------------------
    #
    # Statement and expression lowering dispatch on ``type(node)`` through
    # class-keyed tables (built after the class body) instead of
    # isinstance ladders: lowering runs once per body but over every
    # node, so dispatch cost is the bulk of cold-lowering time.

    def lower_block(self, statements: Sequence[ast.Statement]) -> Tuple[tuple, ...]:
        dispatch = self._STMT_DISPATCH
        return tuple(
            handler(self, stmt)
            if (handler := dispatch.get(stmt.__class__)) is not None
            # InlineHTML, ErrorStmt, declarations, break/continue/use/
            # const/goto/label and anything unknown: a ticked no-op
            else _NOP_INSTR
            for stmt in statements
        )

    def _lower_expr_stmt(self, node: ast.ExpressionStatement) -> tuple:
        return (S_EXPR, self.lower_expr(node.expr))

    def _lower_echo(self, node: ast.EchoStatement) -> tuple:
        return (
            S_ECHO,
            tuple(
                (self.lower_expr(expr), self._xss_pre(expr, "echo"))
                for expr in node.exprs
            ),
        )

    def _lower_block_stmt(self, node: ast.Block) -> tuple:
        return (S_BLOCK, self.lower_block(node.statements))

    def _lower_if(self, node: ast.IfStatement) -> tuple:
        branches = [self.lower_block(node.then)]
        extra_conds = []
        for clause in node.elseifs:
            extra_conds.append(self.lower_expr(clause.cond))
            branches.append(self.lower_block(clause.body))
        if node.otherwise is not None:
            branches.append(self.lower_block(node.otherwise))
        return (
            S_IF,
            self.lower_expr(node.cond),
            tuple(extra_conds),
            tuple(branches),
            node.otherwise is not None,
        )

    def _lower_while(self, node: ast.WhileStatement) -> tuple:
        return (S_WHILE, self.lower_expr(node.cond), self.lower_block(node.body))

    def _lower_dowhile(self, node: ast.DoWhileStatement) -> tuple:
        return (S_DOWHILE, self.lower_block(node.body), self.lower_expr(node.cond))

    def _lower_for(self, node: ast.ForStatement) -> tuple:
        # init/cond exprs are bare evals (no statement tick); each
        # update expr runs as an expression statement appended to the
        # loop body (one statement tick + the expr per pass)
        body = self.lower_block(node.body) + tuple(
            (S_EXPR, self.lower_expr(expr)) for expr in node.update
        )
        inits = tuple(self.lower_expr(e) for e in node.init)
        conds = tuple(self.lower_expr(e) for e in node.cond)
        return (S_FOR, inits, conds, body)

    def _lower_foreach(self, node: ast.ForeachStatement) -> tuple:
        # a plain variable target is bound as-is (no assignment trace
        # step, no alias write-through); any other target is an
        # ordinary assignment of the subject's value
        targets = []
        for target in (node.key_var, node.value_var):
            if isinstance(target, ast.Variable):
                targets.append(target.name)
            elif target is not None:
                lowered = self.lower_target(target, node.line)
                if lowered is not None:
                    targets.append(lowered)
        return (
            S_FOREACH,
            self.lower_expr(node.subject),
            tuple(targets),
            self.lower_block(node.body),
            node.line,
        )

    def _lower_switch(self, node: ast.SwitchStatement) -> tuple:
        has_default = any(case.test is None for case in node.cases)
        bodies = [self.lower_block(case.body) for case in node.cases]
        suffixes = tuple(
            tuple(instr for body in bodies[i:] for instr in body)
            for i in range(len(bodies))
        )
        return (S_SWITCH, self.lower_expr(node.subject), suffixes, has_default)

    def _lower_return(self, node: ast.ReturnStatement) -> tuple:
        return (
            S_RETURN,
            self.lower_expr(node.expr) if node.expr is not None else None,
        )

    def _lower_global(self, node: ast.GlobalStatement) -> tuple:
        return (S_GLOBAL, tuple(node.names), node.line)

    def _lower_static(self, node: ast.StaticVarStatement) -> tuple:
        defaults = tuple(
            (name, self.lower_expr(default) if default is not None else None)
            for name, default in node.vars
        )
        return (S_STATIC, defaults, node.line)

    def _lower_unset(self, node: ast.UnsetStatement) -> tuple:
        names = tuple(
            var.name for var in node.vars if isinstance(var, ast.Variable)
        )
        return (S_UNSET, names, node.line)

    def _lower_throw(self, node: ast.ThrowStatement) -> tuple:
        return (S_THROW, self.lower_expr(node.expr))

    def _lower_try(self, node: ast.TryStatement) -> tuple:
        branches = tuple(
            [self.lower_block(node.body)]
            + [self.lower_block(catch.body) for catch in node.catches]
        )
        finally_code = (
            self.lower_block(node.finally_body)
            if node.finally_body is not None
            else None
        )
        return (S_TRY, branches, finally_code)

    def _lower_namespace(self, node) -> tuple:
        if node.body is not None:
            return (S_BLOCK, self.lower_block(node.body))
        return _NOP_INSTR

    # -- expressions -------------------------------------------------------

    def lower_expr(self, node: Optional[ast.Expr]) -> tuple:
        if node is None:
            return _NONE_INSTR
        handler = self._EXPR_DISPATCH.get(node.__class__)
        if handler is None:
            return _CLEAN_INSTR  # literals, constants, closures, unknown
        return handler(self, node)

    def _lower_varvar(self, node: ast.VariableVariable) -> tuple:
        return (E_VARVAR, self.lower_expr(node.expr))

    def _lower_interp(self, node: ast.InterpolatedString) -> tuple:
        return (E_INTERP, tuple(self.lower_expr(part) for part in node.parts))

    def _lower_shell(self, node: ast.ShellExec) -> tuple:
        emit_pre = None
        if VulnKind.CMDI in self.construct_kinds:
            emit_pre = (self.file, node.line)
        return (
            E_SHELL,
            tuple(self.lower_expr(part) for part in node.parts),
            emit_pre,
        )

    def _lower_arraylit(self, node: ast.ArrayLiteral) -> tuple:
        codes: List[tuple] = []
        for item in node.items:
            if item.key is not None:
                codes.append(self.lower_expr(item.key))
            codes.append(self.lower_expr(item.value))
        return (E_ARRAYLIT, tuple(codes))

    def _lower_index(self, node: ast.ArrayAccess) -> tuple:
        return (
            E_INDEX,
            self.lower_expr(node.array),
            self.lower_expr(node.index) if node.index is not None else None,
        )

    def _lower_prop(self, node: ast.PropertyAccess) -> tuple:
        prop = node.name if isinstance(node.name, str) else ""
        dyn = None
        if not isinstance(node.name, str) and node.name is not None:
            dyn = self.lower_expr(node.name)
        return (E_PROP, self.lower_expr(node.object), prop, dyn, f"->{prop}")

    def _lower_sprop(self, node: ast.StaticPropertyAccess) -> tuple:
        return (E_SPROP, node.class_name, node.name)

    def _lower_binary(self, node: ast.Binary) -> tuple:
        if node.op == ".":
            mode = 1
        elif node.op == "??":
            mode = 2
        else:
            mode = 0
        return (
            E_BINARY,
            self.lower_expr(node.left),
            self.lower_expr(node.right),
            mode,
        )

    def _lower_unary(self, node: ast.Unary) -> tuple:
        return (
            E_UNARY,
            self.lower_expr(node.operand),
            node.op not in ("!", "-", "+", "~"),
        )

    def _lower_ternary(self, node: ast.Ternary) -> tuple:
        return (
            E_TERNARY,
            self.lower_expr(node.cond),
            self.lower_expr(node.if_true) if node.if_true is not None else None,
            self.lower_expr(node.if_false),
        )

    def _lower_cast(self, node: ast.Cast) -> tuple:
        return (
            E_CAST,
            self.lower_expr(node.operand),
            node.to not in ("int", "float", "bool", "unset"),
        )

    def _lower_incdec(self, node: ast.IncDec) -> tuple:
        return (E_INCDEC, self.lower_expr(node.target))

    def _lower_list(self, node: ast.ListExpr) -> tuple:
        return (
            E_LIST,
            tuple(
                self.lower_expr(target)
                for target in node.targets
                if target is not None
            ),
        )

    def _lower_method_call(self, node: ast.MethodCall) -> tuple:
        method = node.method if isinstance(node.method, str) else None
        if not self.oop:
            method = None
        return (
            E_METHOD,
            node,
            self.lower_expr(node.object),
            tuple(self.lower_expr(arg) for arg in node.args),
            method,
        )

    def _lower_static_call(self, node: ast.StaticCall) -> tuple:
        return (
            E_SCALL,
            node,
            tuple(self.lower_expr(arg) for arg in node.args),
        )

    def _lower_new(self, node: ast.New) -> tuple:
        return (
            E_NEW,
            node,
            tuple(self.lower_expr(arg) for arg in node.args),
        )

    def _lower_clone(self, node: ast.Clone) -> tuple:
        return (E_CLONE, self.lower_expr(node.expr))

    def _lower_include(self, node: ast.IncludeExpr) -> tuple:
        return (E_INCLUDE, node, self.lower_expr(node.path))

    def _lower_exit(self, node: ast.ExitExpr) -> tuple:
        if node.expr is None:
            return (E_EXIT, None, None)
        return (E_EXIT, self.lower_expr(node.expr), self._xss_pre(node.expr, "exit"))

    def _lower_print(self, node: ast.PrintExpr) -> tuple:
        return (E_PRINT, self.lower_expr(node.expr), self._xss_pre(node.expr, "print"))

    # -- site pre-computation ----------------------------------------------

    def _xss_pre(self, expr: Optional[ast.Expr], sink: str) -> tuple:
        """(sink, file, line, markup context, fallback variable name) of
        an echo/print/exit output site.

        The markup context at the injection point (element text,
        attribute, script block, URL ...) is derived from the literal
        markup emitted before the first dynamic part — RIPS's
        context-sensitive string analysis (paper Section II)."""
        context = context_at_end(_literal_prefix(expr))
        return (
            sink,
            self.file,
            expr.line if expr is not None else 0,
            context.value,
            _describe_expr(expr),
        )

    def _lower_variable(self, node: ast.Variable) -> tuple:
        name = node.name
        source = self.profile.superglobal_source(name)
        if source is not None:
            label = ConcreteSource(
                vector=source.vector,
                name=f"${name}",
                file=self.file,
                line=node.line,
            )
            return (
                E_SUPERGLOBAL,
                TaintState.from_label(label, source.kinds),
                (f"${name} read at {self.file}:{node.line}",),
                f"${name}",
            )
        instance_class = ""
        if self.oop:
            instance = self.profile.known_instance(name)
            if instance is not None:
                instance_class = instance.class_name
        # register_globals: the line an unbound global read becomes a
        # source at; the label is built only on such a read, because a
        # pre-built state per variable site costs more than it saves
        rg_line = node.line if self.profile.register_globals else None
        return (E_LOCAL, name, f"${name}", instance_class, rg_line)

    def _lower_assignment(self, node: ast.Assignment) -> tuple:
        value_code = self.lower_expr(node.value)
        if node.op == "=":
            mode = 0
            read_code = None
        elif node.op in (".=", "??="):
            mode = 1
            read_code = self.lower_expr(node.target)
        else:
            mode = 2
            read_code = self.lower_expr(node.target)
        if isinstance(node.target, ast.Variable):
            link = None
            if (
                node.op == "="
                and node.by_ref
                and isinstance(node.value, ast.Variable)
            ):
                link = node.value.name
            name = node.target.name
            return (
                E_ASSIGN_VAR,
                value_code,
                name,
                f"${name} assigned at {self.file}:{node.line}",
                link,
                read_code,
                mode,
                self.file,
                node.line,
            )
        return (
            E_ASSIGN,
            value_code,
            self.lower_target(node.target, node.line),
            mode,
            read_code,
        )

    def lower_target(self, node: Optional[ast.Expr], line: int) -> Optional[tuple]:
        """Lower one assignment target; ``None`` for targets a write
        cannot reach (call results, variable-variables, ...)."""
        if isinstance(node, ast.Variable):
            trace_step = f"${node.name} assigned at {self.file}:{line}"
            return (T_VAR, node.name, trace_step, self.file, line)
        if isinstance(node, ast.ArrayAccess):
            base = node.array
            while isinstance(base, ast.ArrayAccess):
                base = base.array
            if isinstance(base, ast.Variable):
                # an element write taints the whole container
                return (T_ELEM, base.name, self.file, line)
            if isinstance(base, ast.PropertyAccess):
                return self.lower_target(base, line)
            return None
        if isinstance(node, ast.PropertyAccess):
            # the container variable an untyped-object write taints
            container = None
            if isinstance(node.object, ast.Variable):
                container = node.object.name
            return (
                T_PROP,
                self.lower_expr(node.object),
                node.name if isinstance(node.name, str) else "",
                container,
                self.file,
                line,
            )
        if isinstance(node, ast.StaticPropertyAccess):
            return (T_SPROP, node.class_name, node.name)
        if isinstance(node, ast.ListExpr):
            lowered = (self.lower_target(target, line) for target in node.targets)
            return (T_LIST, tuple(code for code in lowered if code is not None))
        return None

    def _lower_function_call(self, node: ast.FunctionCall) -> tuple:
        if not isinstance(node.name, str):
            return (
                E_CALL_DYN,
                self.lower_expr(node.name),
                tuple(self.lower_expr(arg) for arg in node.args),
            )
        name = node.name
        lowered = name.lower()
        arg_codes = tuple(self.lower_expr(arg) for arg in node.args)

        sinks = self.profile.function_sinks(lowered)
        if sinks and lowered in ("echo", "print", "exit"):
            sinks = ()

        filter_pre = None
        filter_spec = self.profile.function_filter(lowered)
        if filter_spec is not None:
            filter_pre = (
                tuple(sorted(filter_spec.kinds, key=lambda kind: kind.value)),
                (f"filtered by {name}()",),
            )

        revert_pre = None
        revert_spec = self.profile.revert(lowered)
        if revert_spec is not None:
            revert_pre = (
                tuple(sorted(revert_spec.kinds, key=lambda kind: kind.value)),
                (f"reverted by {name}()",),
            )

        source_pre = None
        source = self.profile.function_source(lowered)
        if source is not None:
            label = ConcreteSource(
                vector=source.vector,
                name=f"{name}()",
                file=self.file,
                line=node.line,
            )
            source_pre = (
                TaintState.from_label(label, source.kinds),
                (f"{name}() read at {self.file}:{node.line}",),
            )

        if lowered in PASSTHROUGH_FUNCTIONS:
            final_join = True
        elif lowered in CLEAN_FUNCTIONS:
            final_join = False
        else:
            final_join = self.unknown_call_policy == "propagate"

        return (
            E_CALL,
            node,
            arg_codes,
            lowered,
            name,
            sinks,
            filter_pre,
            revert_pre,
            source_pre,
            final_join,
            self.profile.function_propagation(lowered),
        )


# Lowering dispatch tables, keyed by node class (built after the class
# so entries are plain functions: ``handler(self, node)``).  Classes
# absent from the statement table lower to a ticked no-op; classes
# absent from the expression table lower to a clean value.
_Lowerer._STMT_DISPATCH = {
    ast.ExpressionStatement: _Lowerer._lower_expr_stmt,
    ast.EchoStatement: _Lowerer._lower_echo,
    ast.Block: _Lowerer._lower_block_stmt,
    ast.IfStatement: _Lowerer._lower_if,
    ast.WhileStatement: _Lowerer._lower_while,
    ast.DoWhileStatement: _Lowerer._lower_dowhile,
    ast.ForStatement: _Lowerer._lower_for,
    ast.ForeachStatement: _Lowerer._lower_foreach,
    ast.SwitchStatement: _Lowerer._lower_switch,
    ast.ReturnStatement: _Lowerer._lower_return,
    ast.GlobalStatement: _Lowerer._lower_global,
    ast.StaticVarStatement: _Lowerer._lower_static,
    ast.UnsetStatement: _Lowerer._lower_unset,
    ast.ThrowStatement: _Lowerer._lower_throw,
    ast.TryStatement: _Lowerer._lower_try,
    ast.NamespaceStatement: _Lowerer._lower_namespace,
    ast.DeclareStatement: _Lowerer._lower_namespace,
}

_Lowerer._EXPR_DISPATCH = {
    ast.Variable: _Lowerer._lower_variable,
    ast.VariableVariable: _Lowerer._lower_varvar,
    ast.InterpolatedString: _Lowerer._lower_interp,
    ast.ShellExec: _Lowerer._lower_shell,
    ast.ArrayLiteral: _Lowerer._lower_arraylit,
    ast.ArrayAccess: _Lowerer._lower_index,
    ast.PropertyAccess: _Lowerer._lower_prop,
    ast.StaticPropertyAccess: _Lowerer._lower_sprop,
    ast.Assignment: _Lowerer._lower_assignment,
    ast.Binary: _Lowerer._lower_binary,
    ast.Unary: _Lowerer._lower_unary,
    ast.Ternary: _Lowerer._lower_ternary,
    ast.Cast: _Lowerer._lower_cast,
    ast.IncDec: _Lowerer._lower_incdec,
    ast.ListExpr: _Lowerer._lower_list,
    ast.FunctionCall: _Lowerer._lower_function_call,
    ast.MethodCall: _Lowerer._lower_method_call,
    ast.StaticCall: _Lowerer._lower_static_call,
    ast.New: _Lowerer._lower_new,
    ast.Clone: _Lowerer._lower_clone,
    ast.IncludeExpr: _Lowerer._lower_include,
    ast.ExitExpr: _Lowerer._lower_exit,
    ast.PrintExpr: _Lowerer._lower_print,
    # Literal, ClassConstAccess, ConstFetch, IssetExpr, EmptyExpr,
    # InstanceofExpr, Closure: absent -> _CLEAN_INSTR fallback
}


class IRTaintEngine(TaintEngine):
    """The taint executor: runs every statement list as lowered IR.

    Every entry into a statement list — top-level file walks, function
    summaries, inlined includes — goes through :meth:`_exec_block`,
    which looks up (or builds) the lowered code for that exact ``list``
    object and runs it through the instruction loop.  The semantics
    shared across statements (summaries, method dispatch, include
    resolution, sinks, property stores) live in :class:`TaintEngine`.

    Soundness of pre-computation rests on one invariant of the engine:
    **a body always executes with ``_current_file`` equal to its
    defining file** (``run`` sets it per file walk,
    ``_summarize`` sets it to ``info.file``, ``_include`` pushes and
    pops it).  Every pre-formatted trace/label/site string relies on it.
    """

    def __init__(
        self,
        model,
        profile,
        options: Optional[PhpSafeOptions] = None,
        ir_store=None,
        ir_fingerprint: str = "",
        **engine_args,
    ) -> None:
        super().__init__(model, profile, options, **engine_args)
        self._ir_store = ir_store
        self._ir_fingerprint = ir_fingerprint
        #: id(statement list) -> lowered instruction tuple
        self._ir_codes: Dict[int, Tuple[tuple, ...]] = {}
        #: pins keeping memoized bodies (and their programs) alive so
        #: the ids above can never be recycled by the allocator
        self._ir_pins: List[object] = []
        self._lowered_files: set = set()
        # hot-loop invariants hoisted out of the instruction loop
        self._budget = self.options.step_budget
        self._depth_cap = self.options.max_eval_depth
        self._oop = self.options.oop

    # -- lowering / memoization --------------------------------------------

    def _exec_block(self, statements: Sequence[ast.Statement], scope: Scope) -> None:
        code = self._ir_codes.get(id(statements))
        if code is None:
            code = self._lower_for(statements)
        self._exec_code(code, scope)

    def _lower_for(self, statements: Sequence[ast.Statement]) -> Tuple[tuple, ...]:
        path = self._current_file
        if path not in self._lowered_files:
            self._lower_file(path)
            code = self._ir_codes.get(id(statements))
            if code is not None:
                return code
        # a body outside any known file program (synthetic statement
        # lists, `<unknown>` contexts): lower it standalone and pin it
        start = time.perf_counter()
        lowerer = _Lowerer(self, path)
        code = lowerer.lower_block(statements)
        counters.ir_lower_seconds += time.perf_counter() - start
        counters.ir_bodies_lowered += 1
        self._ir_codes[id(statements)] = code
        self._ir_pins.append(statements)
        return code

    def _lower_file(self, path: str) -> None:
        self._lowered_files.add(path)
        file_model = self.model.files.get(path)
        if file_model is None:
            return
        bodies = list(iter_bodies(file_model.tree))
        program: Optional[IRProgram] = None
        key = ""
        digest = getattr(file_model, "digest", "")
        if self._ir_store is not None and digest and self._ir_fingerprint:
            key = ir_key(self._ir_fingerprint, path, digest)
            cached = self._ir_store.lookup_ir(key)
            if (
                isinstance(cached, IRProgram)
                and cached.version == IR_VERSION
                and len(cached.codes) == len(bodies)
            ):
                program = cached
                counters.ir_cache_hits += 1
            else:
                counters.ir_cache_misses += 1
        if program is None:
            start = time.perf_counter()
            lowerer = _Lowerer(self, path)
            codes = tuple(lowerer.lower_block(body) for body in bodies)
            counters.ir_lower_seconds += time.perf_counter() - start
            counters.ir_bodies_lowered += len(bodies)
            program = IRProgram(version=IR_VERSION, file=path, codes=codes)
            if key and self._ir_store is not None:
                self._ir_store.store_ir(key, program)
        for body, code in zip(bodies, program.codes):
            self._ir_codes[id(body)] = code
        self._ir_pins.append((file_model, program))

    # -- instruction loop --------------------------------------------------

    def _exec_code(self, code: Tuple[tuple, ...], scope: Scope) -> None:
        """Execute one lowered statement list.

        Per statement: depth increment + cap check, then the step tick
        (plugin budget, unit budget, deadline every 256 steps), then
        dispatch.  There is no try/finally around the depth bookkeeping
        — every exception that can unwind from here (``BudgetExceeded``,
        ``UnitFault``, ``RecursionError``) lands in ``_run_unit``,
        whose ``finally`` resets ``_depth`` to 0.
        """
        table = self._ST
        for instr in code:
            depth = self._depth + 1
            self._depth = depth
            if depth > self._depth_cap:
                raise UnitFault(
                    f"evaluation depth limit ({self._depth_cap}) exceeded"
                )
            steps = self._steps + 1
            self._steps = steps
            if steps > self._budget:
                raise BudgetExceeded()
            if self._unit_limit is not None and steps > self._unit_limit:
                raise UnitFault("unit step budget exhausted")
            if (
                self._deadline_at is not None
                and (steps & 0xFF) == 0
                and time.monotonic() > self._deadline_at
            ):
                raise UnitFault("unit wall-clock deadline exceeded")
            op = instr[0]
            if op == 0:  # S_EXPR — the hot case
                self._eval_code(instr[1], scope)
            else:
                table[op](self, instr, scope)
            self._depth = depth - 1

    def _eval_code(self, code: tuple, scope: Scope) -> Value:
        """Evaluate one lowered expression: depth and step bookkeeping
        as in :meth:`_exec_code`, then dispatch on the opcode."""
        depth = self._depth + 1
        self._depth = depth
        if depth > self._depth_cap:
            raise UnitFault(f"evaluation depth limit ({self._depth_cap}) exceeded")
        steps = self._steps + 1
        self._steps = steps
        if steps > self._budget:
            raise BudgetExceeded()
        if self._unit_limit is not None and steps > self._unit_limit:
            raise UnitFault("unit step budget exhausted")
        if (
            self._deadline_at is not None
            and (steps & 0xFF) == 0
            and time.monotonic() > self._deadline_at
        ):
            raise UnitFault("unit wall-clock deadline exceeded")
        op = code[0]
        if op == 2:  # E_LOCAL — the hottest opcode
            value = self._ex_local(code, scope)
        elif op == 1 or op == 0:  # E_CLEAN / E_NONE
            value = Value()
        elif op == 3:  # E_SUPERGLOBAL
            value = Value(taint=code[1], trace=code[2], name_hint=code[3])
        else:
            value = self._EX[op](self, code, scope)
        self._depth = depth - 1
        return value

    # -- statement handlers ------------------------------------------------

    def _st_echo(self, instr: tuple, scope: Scope) -> None:
        for code, pre in instr[1]:
            self._check_xss(code, pre, scope)

    def _st_if(self, instr: tuple, scope: Scope) -> None:
        self._eval_code(instr[1], scope)
        for cond in instr[2]:
            self._eval_code(cond, scope)
        self._exec_code_branches(instr[3], scope, instr[4])

    def _st_while(self, instr: tuple, scope: Scope) -> None:
        self._eval_code(instr[1], scope)
        self._exec_code_loop(instr[2], scope)

    def _st_dowhile(self, instr: tuple, scope: Scope) -> None:
        self._exec_code_loop(instr[1], scope)
        self._eval_code(instr[2], scope)

    def _st_for(self, instr: tuple, scope: Scope) -> None:
        for init in instr[1]:
            self._eval_code(init, scope)
        for cond in instr[2]:
            self._eval_code(cond, scope)
        self._exec_code_loop(instr[3], scope)

    def _st_foreach(self, instr: tuple, scope: Scope) -> None:
        subject = self._eval_code(instr[1], scope)
        for target in instr[2]:
            if target.__class__ is str:
                # element values of a tainted container stay tainted but
                # their class is unknown
                scope.records[target] = VariableRecord(
                    name=target,
                    file=self._current_file,
                    line=instr[4],
                    taint=subject.taint,
                    class_name=None,
                    trace=subject.trace,
                )
            else:
                self._assign_to(target, subject, scope)
        self._exec_code_loop(instr[3], scope)

    def _st_switch(self, instr: tuple, scope: Scope) -> None:
        self._eval_code(instr[1], scope)
        self._exec_code_branches(instr[2], scope, instr[3])

    def _st_return(self, instr: tuple, scope: Scope) -> None:
        code = instr[1]
        if not self._summary_stack:
            if code is not None:
                self._eval_code(code, scope)
            return
        summary = self._summary_stack[-1]
        if code is None:
            return
        value = self._eval_code(code, scope)
        summary.return_taint = summary.return_taint.joined(value.taint)
        summary.return_class = summary.return_class or value.class_name

    def _st_global(self, instr: tuple, scope: Scope) -> None:
        """Bind names to the global scope; known CMS instances (e.g.
        ``global $wpdb``) get their class from the profile."""
        frame = self._summary_stack[-1] if self._summary_stack else None
        if frame is not None:
            # the summary observes run-order-dependent global state, so
            # it cannot be reused across runs
            frame.uses_globals = True
        for name in instr[1]:
            if frame is not None:
                frame.global_reads.add(name)
            if self.track and self._unit_fp is not None:
                self._unit_fp.reads.add(name)
            record = self.globals.get(name)
            if record is None:
                class_name = None
                if self._oop:
                    instance = self.profile.known_instance(name)
                    if instance is not None:
                        class_name = instance.class_name
                record = VariableRecord(
                    name=name,
                    file=self._current_file,
                    line=instr[2],
                    class_name=class_name,
                )
                self.globals.set(record)
                if class_name and frame is not None:
                    # materializing a known CMS instance binding is a
                    # class-bearing write other units can observe
                    frame.global_writes.add(name)
            scope.set(record)
            scope.global_aliases.add(name)

    def _st_static(self, instr: tuple, scope: Scope) -> None:
        """``static $s`` keeps its value across calls: one taint slot per
        (function, variable) lives in the engine, every activation joins
        the stored taint into its binding, and writes join back through
        :meth:`_write_variable` — so taint stored by one call is observed
        by the next (reached via the two-pass scheme in ``_summarize``)."""
        if self._summary_stack:
            frame = self._summary_stack[-1]
            frame.uses_statics = True
            owner = frame.key
            frame.static_tokens.add(f"static:{owner}")
        else:
            owner = f"<main>:{self._current_file}"
        if self.track and self._unit_fp is not None:
            self._unit_fp.statics.add(f"static:{owner}")
        slots = self._static_store.setdefault(owner, {})
        for name, default in instr[1]:
            value = self._eval_code(default, scope) if default is not None else Value()
            taint = value.taint
            prior = slots.get(name)
            if prior is not None:
                taint = taint.joined(prior)
            slots[name] = taint
            scope.set(
                VariableRecord(
                    name=name, file=self._current_file, line=instr[2], taint=taint
                )
            )
            scope.static_names.add(name)
            scope.static_slots = slots

    def _st_unset(self, instr: tuple, scope: Scope) -> None:
        file = self._current_file
        line = instr[2]
        for name in instr[1]:
            scope.records[name] = VariableRecord(name=name, file=file, line=line)

    def _st_throw(self, instr: tuple, scope: Scope) -> None:
        self._eval_code(instr[1], scope)

    def _st_try(self, instr: tuple, scope: Scope) -> None:
        self._exec_code_branches(instr[1], scope, False)
        if instr[2] is not None:
            self._exec_code(instr[2], scope)

    def _st_block(self, instr: tuple, scope: Scope) -> None:
        self._exec_code(instr[1], scope)

    def _st_nop(self, instr: tuple, scope: Scope) -> None:
        pass

    def _exec_code_branches(
        self,
        branch_codes: Tuple[Tuple[tuple, ...], ...],
        scope: Scope,
        exhaustive: bool,
    ) -> None:
        """Execute each branch from the pre-state and join the outcomes
        ("the analysis takes into account all possible paths").

        ``exhaustive`` means the branches cover every path (an ``if``
        with ``else``, a ``switch`` with ``default``): the pre-state is
        then not a possible outcome and a variable cleaned on every
        branch really is clean afterwards.
        """
        outcomes: List[Scope] = []
        for code in branch_codes:
            snapshot = scope.copy()
            self._exec_code(code, snapshot)
            outcomes.append(snapshot)
        if not exhaustive:
            outcomes.append(scope.copy())
        if outcomes:
            joined = outcomes[0]
            joined.join_from(*outcomes[1:])
            scope.records = joined.records

    def _exec_code_loop(self, body: Tuple[tuple, ...], scope: Scope) -> None:
        """Two joined passes propagate loop-carried taint."""
        snapshot = scope.copy()
        self._exec_code(body, snapshot)
        self._exec_code(body, snapshot)
        scope.join_from(snapshot)

    # -- expression handlers -----------------------------------------------

    def _ex_local(self, code: tuple, scope: Scope) -> Value:
        name = code[1]
        if self.track:
            fp = self._unit_fp
            if fp is not None and scope.is_global_image:
                fp.reads.add(name)
        record = scope.records.get(name)
        if record is None:
            if self._oop:
                instance_class = code[3]
                if instance_class:
                    return Value(class_name=instance_class, name_hint=code[2])
            rg_line = code[4]
            if rg_line is not None and scope is self.globals:
                # Pixy-era model: uninitialized globals are attacker-set
                label = ConcreteSource(
                    vector=InputVector.GET,
                    name=f"register_globals:{code[2]}",
                    file=self._current_file,
                    line=rg_line,
                )
                return Value(
                    taint=TaintState.from_label(label, self._kind_universe),
                    trace=(f"uninitialized {code[2]} at {self._current_file}:{rg_line}",),
                    name_hint=code[2],
                )
            return Value(name_hint=code[2])
        class_name = record.class_name or ""
        if not class_name and self._oop and code[3]:
            class_name = code[3]
        return Value(
            taint=record.taint,
            class_name=class_name,
            trace=record.trace,
            name_hint=code[2],
        )

    def _ex_varvar(self, code: tuple, scope: Scope) -> Value:
        self._eval_code(code[1], scope)
        return Value()

    def _ex_interp(self, code: tuple, scope: Scope) -> Value:
        value = Value()
        for part in code[1]:
            value = value.joined(self._eval_code(part, scope))
        value.class_name = ""
        return value

    def _ex_shell(self, code: tuple, scope: Scope) -> Value:
        value = Value()
        for part in code[1]:
            value = value.joined(self._eval_code(part, scope))
        pre = code[2]
        if pre is not None and value.taint.active.get(VulnKind.CMDI):
            self._emit(
                SinkEvent(
                    kind=VulnKind.CMDI,
                    sink="`...`",
                    file=pre[0],
                    line=pre[1],
                    variable=value.name_hint,
                    taint=value.taint,
                    trace=value.trace,
                )
            )
        return value

    def _ex_arraylit(self, code: tuple, scope: Scope) -> Value:
        value = Value()
        for item in code[1]:
            value = value.joined(self._eval_code(item, scope))
        value.class_name = ""
        return value

    def _ex_index(self, code: tuple, scope: Scope) -> Value:
        container = self._eval_code(code[1], scope)
        if code[2] is not None:
            self._eval_code(code[2], scope)
        hint = container.name_hint + "[...]" if container.name_hint else ""
        return Value(taint=container.taint, trace=container.trace, name_hint=hint)

    def _ex_prop(self, code: tuple, scope: Scope) -> Value:
        obj = self._eval_code(code[1], scope)
        if code[3] is not None:
            self._eval_code(code[3], scope)
        prop = code[2]
        hint = obj.name_hint + code[4] if obj.name_hint else code[4]
        if self._oop and obj.class_name and prop:
            self._note_prop_read(obj.class_name, prop)
            return Value(
                taint=self.class_props.read(obj.class_name, prop),
                trace=obj.trace,
                name_hint=hint,
            )
        return Value(taint=obj.taint, trace=obj.trace, name_hint=hint)

    def _ex_sprop(self, code: tuple, scope: Scope) -> Value:
        if self._oop:
            self._note_prop_read(code[1], code[2])
            return Value(taint=self.class_props.read(code[1], code[2]))
        return Value()

    def _ex_assign_var(self, code: tuple, scope: Scope) -> Value:
        value = self._eval_code(code[1], scope)
        mode = code[6]
        if mode == 0:
            if code[4] is not None:
                self._link_reference(code[2], code[4], scope)
            result = value
        elif mode == 1:
            current = self._eval_code(code[5], scope)
            result = current.joined(value)
        else:
            self._eval_code(code[5], scope)
            result = Value()
        self._write_variable(scope, code[2], result, code[3], code[7], code[8])
        return result

    def _ex_assign(self, code: tuple, scope: Scope) -> Value:
        value = self._eval_code(code[1], scope)
        mode = code[3]
        if mode == 0:
            result = value
        elif mode == 1:
            current = self._eval_code(code[4], scope)
            result = current.joined(value)
        else:
            self._eval_code(code[4], scope)
            result = Value()
        if code[2] is not None:
            self._assign_to(code[2], result, scope)
        return result

    def _write_variable(
        self,
        scope: Scope,
        name: str,
        value: Value,
        trace_step: str,
        file: str,
        line: int,
    ) -> None:
        """Bind ``$name`` to ``value`` and mirror the write through a
        ``global`` alias, a ``static`` slot and a ``=&`` reference group."""
        records = scope.records
        was_global_alias = (
            scope is not self.globals
            and name in scope.global_aliases
            and name in records
        )
        trace = value.trace + (trace_step,)
        record = VariableRecord(
            name=name,
            file=file,
            line=line,
            taint=value.taint,
            class_name=value.class_name or None,
            trace=trace[-MAX_TRACE:],
        )
        records[name] = record
        if was_global_alias:
            # `global $x` alias: write through to the global scope
            self.globals.records[name] = record
        if name in scope.static_names and scope.static_slots is not None:
            # `static $x`: join the write into the cross-call slot
            prior = scope.static_slots.get(name)
            scope.static_slots[name] = (
                value.taint if prior is None else prior.joined(value.taint)
            )
        group = scope.ref_groups.get(name)
        if group is not None:
            # `$b =& $a` aliases: mirror the write to every member
            for alias in group:
                if alias != name:
                    records[alias] = record.updated(name=alias)

    def _assign_to(self, target: tuple, value: Value, scope: Scope) -> None:
        """Write ``value`` through one lowered target (``T_*``)."""
        op = target[0]
        if op == T_VAR:
            self._write_variable(scope, target[1], value, *target[2:])
        elif op == T_ELEM:
            self._join_into(scope, target[1], value.taint, target[2], target[3])
        elif op == T_PROP:
            obj = self._eval_code(target[1], scope)
            prop = target[2]
            if self._oop and obj.class_name and prop:
                self._record_prop_write(obj.class_name, prop, value.taint)
            elif target[3] is not None:
                # untyped object: taint the container variable itself
                self._join_into(scope, target[3], value.taint, target[4], target[5])
        elif op == T_SPROP:
            if self._oop:
                self._record_prop_write(target[1], target[2], value.taint)
        else:  # T_LIST
            for sub_target in target[1]:
                self._assign_to(sub_target, value, scope)

    def _ex_binary(self, code: tuple, scope: Scope) -> Value:
        left = self._eval_code(code[1], scope)
        right = self._eval_code(code[2], scope)
        mode = code[3]
        if mode == 1:
            joined = left.joined(right)
            joined.class_name = ""
            return joined
        if mode == 2:
            return left.joined(right)
        return Value()

    def _ex_unary(self, code: tuple, scope: Scope) -> Value:
        inner = self._eval_code(code[1], scope)
        return inner if code[2] else Value()

    def _ex_ternary(self, code: tuple, scope: Scope) -> Value:
        self._eval_code(code[1], scope)
        left = self._eval_code(code[2] if code[2] is not None else code[1], scope)
        right = self._eval_code(code[3], scope)
        return left.joined(right)

    def _ex_cast(self, code: tuple, scope: Scope) -> Value:
        inner = self._eval_code(code[1], scope)
        return inner if code[2] else Value()

    def _ex_incdec(self, code: tuple, scope: Scope) -> Value:
        self._eval_code(code[1], scope)
        return Value()

    def _ex_list(self, code: tuple, scope: Scope) -> Value:
        value = Value()
        for target in code[1]:
            value = value.joined(self._eval_code(target, scope))
        return value

    def _ex_call(self, code: tuple, scope: Scope) -> Value:
        values = [self._eval_code(arg, scope) for arg in code[2]]

        for sink in code[5]:
            self._check_sink(sink.kind, code[4], code[1], values, sink_spec=sink)

        filter_pre = code[6]
        if filter_pre is not None:
            joined = Value()
            for value in values:
                joined = joined.joined(value)
            return Value(
                taint=joined.taint.filtered(filter_pre[0]),
                trace=joined.trace + filter_pre[1],
            )

        revert_pre = code[7]
        if revert_pre is not None:
            joined = Value()
            for value in values:
                joined = joined.joined(value)
            return Value(
                taint=joined.taint.reverted(revert_pre[0]),
                trace=joined.trace + revert_pre[1],
            )

        source_pre = code[8]
        if source_pre is not None:
            return Value(taint=source_pre[0], trace=source_pre[1])

        info = self._lookup_function_dep(code[3])
        if info is not None and not info.is_method:
            summary = self._summarize(info)
            node = code[1]
            return self._apply_summary(summary, values, node.args, scope, node.line)

        propagation = code[10]
        if propagation is not None:
            return self._apply_propagation(propagation, code[4], values)

        if code[9]:
            joined = Value()
            for value in values:
                joined = joined.joined(value)
            joined.class_name = ""
            return joined
        return Value()

    def _ex_call_dyn(self, code: tuple, scope: Scope) -> Value:
        self._eval_code(code[1], scope)
        for arg in code[2]:
            self._eval_code(arg, scope)
        return Value()

    def _ex_method(self, code: tuple, scope: Scope) -> Value:
        obj = self._eval_code(code[2], scope)
        method = code[4]
        if method is None:
            for arg in code[3]:
                self._eval_code(arg, scope)
            return Value()
        values = [self._eval_code(arg, scope) for arg in code[3]]
        class_name = obj.class_name
        if not class_name:
            return Value()
        return self._dispatch_method(class_name, method, code[1], values, obj, scope)

    def _ex_scall(self, code: tuple, scope: Scope) -> Value:
        values = [self._eval_code(arg, scope) for arg in code[2]]
        return self._static_call(code[1], values, scope)

    def _ex_new(self, code: tuple, scope: Scope) -> Value:
        values = [self._eval_code(arg, scope) for arg in code[2]]
        return self._new(code[1], values, scope)

    def _ex_clone(self, code: tuple, scope: Scope) -> Value:
        return self._eval_code(code[1], scope)

    def _ex_include(self, code: tuple, scope: Scope) -> Value:
        path_value = self._eval_code(code[2], scope)
        return self._include(code[1], path_value, scope)

    def _ex_exit(self, code: tuple, scope: Scope) -> Value:
        if code[1] is not None:
            self._check_xss(code[1], code[2], scope)
        return Value()

    def _ex_print(self, code: tuple, scope: Scope) -> Value:
        self._check_xss(code[1], code[2], scope)
        return Value()

    def _check_xss(self, code: tuple, pre: tuple, scope: Scope) -> None:
        """echo/print/exit: evaluate and flag XSS-tainted output.  The
        markup context and site strings come pre-computed in ``pre``
        (see :meth:`_Lowerer._xss_pre`)."""
        value = self._eval_code(code, scope)
        if value.taint.active.get(VulnKind.XSS):
            self._emit(
                SinkEvent(
                    kind=VulnKind.XSS,
                    sink=pre[0],
                    file=pre[1],
                    line=pre[2],
                    variable=value.name_hint or pre[4],
                    taint=value.taint,
                    trace=value.trace,
                    markup_context=pre[3],
                )
            )


# Handler dispatch tables, indexed by opcode.  Built after the class so
# the entries are plain functions (``table[op](self, instr, scope)``).
IRTaintEngine._ST = [None] * 16  # type: ignore[attr-defined]
for _op, _handler in (
    (S_ECHO, IRTaintEngine._st_echo),
    (S_IF, IRTaintEngine._st_if),
    (S_WHILE, IRTaintEngine._st_while),
    (S_DOWHILE, IRTaintEngine._st_dowhile),
    (S_FOREACH, IRTaintEngine._st_foreach),
    (S_SWITCH, IRTaintEngine._st_switch),
    (S_RETURN, IRTaintEngine._st_return),
    (S_GLOBAL, IRTaintEngine._st_global),
    (S_STATIC, IRTaintEngine._st_static),
    (S_UNSET, IRTaintEngine._st_unset),
    (S_THROW, IRTaintEngine._st_throw),
    (S_TRY, IRTaintEngine._st_try),
    (S_BLOCK, IRTaintEngine._st_block),
    (S_NOP, IRTaintEngine._st_nop),
    (S_FOR, IRTaintEngine._st_for),
):
    IRTaintEngine._ST[_op] = _handler  # type: ignore[attr-defined]

IRTaintEngine._EX = [None] * 28  # type: ignore[attr-defined]
for _op, _handler in (
    (E_LOCAL, IRTaintEngine._ex_local),
    (E_VARVAR, IRTaintEngine._ex_varvar),
    (E_INTERP, IRTaintEngine._ex_interp),
    (E_SHELL, IRTaintEngine._ex_shell),
    (E_ARRAYLIT, IRTaintEngine._ex_arraylit),
    (E_INDEX, IRTaintEngine._ex_index),
    (E_PROP, IRTaintEngine._ex_prop),
    (E_SPROP, IRTaintEngine._ex_sprop),
    (E_ASSIGN_VAR, IRTaintEngine._ex_assign_var),
    (E_ASSIGN, IRTaintEngine._ex_assign),
    (E_BINARY, IRTaintEngine._ex_binary),
    (E_UNARY, IRTaintEngine._ex_unary),
    (E_TERNARY, IRTaintEngine._ex_ternary),
    (E_CAST, IRTaintEngine._ex_cast),
    (E_INCDEC, IRTaintEngine._ex_incdec),
    (E_LIST, IRTaintEngine._ex_list),
    (E_CALL, IRTaintEngine._ex_call),
    (E_CALL_DYN, IRTaintEngine._ex_call_dyn),
    (E_METHOD, IRTaintEngine._ex_method),
    (E_SCALL, IRTaintEngine._ex_scall),
    (E_NEW, IRTaintEngine._ex_new),
    (E_CLONE, IRTaintEngine._ex_clone),
    (E_INCLUDE, IRTaintEngine._ex_include),
    (E_EXIT, IRTaintEngine._ex_exit),
    (E_PRINT, IRTaintEngine._ex_print),
):
    IRTaintEngine._EX[_op] = _handler  # type: ignore[attr-defined]


def describe_code(code, indent: int = 0) -> List[str]:
    """Canonical, hash-stable text for one lowered instruction tree.

    Used by the determinism tests: two lowerings of the same source
    under different ``PYTHONHASHSEED`` values must describe identically.
    Sets (taint label sets, spec kinds) are rendered sorted.
    """
    lines: List[str] = []
    pad = "  " * indent

    def render(value) -> str:
        if isinstance(value, TaintState):
            parts = []
            for kind in sorted(value.active, key=lambda k: k.value):
                labels = sorted(repr(label) for label in value.active[kind])
                parts.append(f"{kind.value}:[{','.join(labels)}]")
            return f"Taint({';'.join(parts)})"
        if isinstance(value, ast.Node):
            return f"{type(value).__name__}@{value.line}"
        if isinstance(value, tuple):
            return "(" + ",".join(render(item) for item in value) + ")"
        if isinstance(value, frozenset):
            return "{" + ",".join(sorted(repr(item) for item in value)) + "}"
        return repr(value)

    for instr in code:
        lines.append(pad + render(instr))
    return lines


def describe_program(program: IRProgram) -> str:
    """Canonical dump of a whole lowered file (determinism harness)."""
    lines = [f"ir v{program.version} file={program.file}"]
    for index, code in enumerate(program.codes):
        lines.append(f"body {index}:")
        lines.extend(describe_code(code, indent=1))
    return "\n".join(lines)
