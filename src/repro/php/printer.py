"""Canonical PHP source emission from the AST.

Used by round-trip tests (``parse(print(parse(src)))`` must be stable)
and by debugging helpers that show the analyzer's view of a file.
The output is valid PHP with normalized spacing; comments are not
preserved (the analyzer drops them during model construction anyway).
"""

from __future__ import annotations

from typing import List, Optional

from . import ast_nodes as ast


def _escape_single(value: str) -> str:
    return value.replace("\\", "\\\\").replace("'", "\\'")


def _escape_double(value: str) -> str:
    out = value.replace("\\", "\\\\").replace('"', '\\"').replace("$", "\\$")
    return out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")


class Printer:
    """Emit normalized PHP source for an AST."""

    def __init__(self, indent: str = "    ") -> None:
        self.indent_unit = indent

    # -- public API --------------------------------------------------------

    def print_file(self, node: ast.PhpFile) -> str:
        lines = ["<?php"]
        for statement in node.statements:
            lines.extend(self._stmt(statement, 0))
        return "\n".join(lines) + "\n"

    def print_expr(self, expr: Optional[ast.Expr]) -> str:
        return self._expr(expr)

    # -- statements -----------------------------------------------------------

    def _block(self, statements: List[ast.Statement], depth: int) -> List[str]:
        pad = self.indent_unit * depth
        lines = [pad + "{"]
        for statement in statements:
            lines.extend(self._stmt(statement, depth + 1))
        lines.append(pad + "}")
        return lines

    def _stmt(self, node: ast.Statement, depth: int) -> List[str]:  # noqa: C901
        pad = self.indent_unit * depth
        if isinstance(node, ast.ExpressionStatement):
            return [pad + self._expr(node.expr) + ";"]
        if isinstance(node, ast.EchoStatement):
            return [pad + "echo " + ", ".join(self._expr(e) for e in node.exprs) + ";"]
        if isinstance(node, ast.InlineHTML):
            return [pad + "?>" + node.text + "<?php"]
        if isinstance(node, ast.Block):
            return self._block(node.statements, depth)
        if isinstance(node, ast.IfStatement):
            lines = [pad + f"if ({self._expr(node.cond)})"]
            lines.extend(self._block(node.then, depth))
            for clause in node.elseifs:
                lines.append(pad + f"elseif ({self._expr(clause.cond)})")
                lines.extend(self._block(clause.body, depth))
            if node.otherwise is not None:
                lines.append(pad + "else")
                lines.extend(self._block(node.otherwise, depth))
            return lines
        if isinstance(node, ast.WhileStatement):
            return [pad + f"while ({self._expr(node.cond)})"] + self._block(node.body, depth)
        if isinstance(node, ast.DoWhileStatement):
            lines = [pad + "do"]
            lines.extend(self._block(node.body, depth))
            lines[-1] += f" while ({self._expr(node.cond)});"
            return lines
        if isinstance(node, ast.ForStatement):
            head = (
                f"for ({', '.join(self._expr(e) for e in node.init)}; "
                f"{', '.join(self._expr(e) for e in node.cond)}; "
                f"{', '.join(self._expr(e) for e in node.update)})"
            )
            return [pad + head] + self._block(node.body, depth)
        if isinstance(node, ast.ForeachStatement):
            target = self._expr(node.value_var)
            if node.by_ref:
                target = "&" + target
            if node.key_var is not None:
                target = f"{self._expr(node.key_var)} => {target}"
            head = f"foreach ({self._expr(node.subject)} as {target})"
            return [pad + head] + self._block(node.body, depth)
        if isinstance(node, ast.SwitchStatement):
            lines = [pad + f"switch ({self._expr(node.subject)})", pad + "{"]
            for case in node.cases:
                if case.test is None:
                    lines.append(pad + self.indent_unit + "default:")
                else:
                    lines.append(pad + self.indent_unit + f"case {self._expr(case.test)}:")
                for statement in case.body:
                    lines.extend(self._stmt(statement, depth + 2))
            lines.append(pad + "}")
            return lines
        if isinstance(node, ast.BreakStatement):
            suffix = f" {node.level}" if node.level != 1 else ""
            return [pad + f"break{suffix};"]
        if isinstance(node, ast.ContinueStatement):
            suffix = f" {node.level}" if node.level != 1 else ""
            return [pad + f"continue{suffix};"]
        if isinstance(node, ast.ReturnStatement):
            if node.expr is None:
                return [pad + "return;"]
            return [pad + f"return {self._expr(node.expr)};"]
        if isinstance(node, ast.GlobalStatement):
            return [pad + "global " + ", ".join("$" + n for n in node.names) + ";"]
        if isinstance(node, ast.StaticVarStatement):
            parts = []
            for name, default in node.vars:
                part = "$" + name
                if default is not None:
                    part += " = " + self._expr(default)
                parts.append(part)
            return [pad + "static " + ", ".join(parts) + ";"]
        if isinstance(node, ast.UnsetStatement):
            return [pad + "unset(" + ", ".join(self._expr(v) for v in node.vars) + ");"]
        if isinstance(node, ast.ThrowStatement):
            return [pad + f"throw {self._expr(node.expr)};"]
        if isinstance(node, ast.TryStatement):
            lines = [pad + "try"]
            lines.extend(self._block(node.body, depth))
            for catch in node.catches:
                var = f" ${catch.var_name}" if catch.var_name else ""
                lines.append(pad + f"catch ({catch.class_name}{var})")
                lines.extend(self._block(catch.body, depth))
            if node.finally_body is not None:
                lines.append(pad + "finally")
                lines.extend(self._block(node.finally_body, depth))
            return lines
        if isinstance(node, ast.FunctionDecl):
            amp = "&" if node.by_ref else ""
            head = f"function {amp}{node.name}({self._params(node.params)})"
            return [pad + head] + self._block(node.body, depth)
        if isinstance(node, ast.ClassDecl):
            return self._class_decl(node, depth)
        if isinstance(node, ast.NamespaceStatement):
            if node.body is None:
                return [pad + f"namespace {node.name};"]
            return [pad + f"namespace {node.name}"] + self._block(node.body, depth)
        if isinstance(node, ast.UseStatement):
            alias = f" as {node.alias}" if node.alias else ""
            return [pad + f"use {node.name}{alias};"]
        if isinstance(node, ast.ConstStatement):
            parts = [f"{name} = {self._expr(value)}" for name, value in node.consts]
            return [pad + "const " + ", ".join(parts) + ";"]
        if isinstance(node, ast.DeclareStatement):
            directives = ", ".join(f"{n}={self._expr(v)}" for n, v in node.directives)
            head = pad + f"declare({directives})"
            if node.body is None:
                return [head + ";"]
            return [head] + self._block(node.body, depth)
        if isinstance(node, ast.GotoStatement):
            return [pad + f"goto {node.label};"]
        if isinstance(node, ast.LabelStatement):
            return [pad + f"{node.name}:"]
        if isinstance(node, ast.ErrorStmt):
            # panic-mode recovery placeholder: the skipped source is gone,
            # so the best round-trip is a comment documenting the hole
            return [pad + f"/* parse error (recovered): {node.reason} */"]
        raise TypeError(f"cannot print statement {type(node).__name__}")

    def _params(self, params: List[ast.Param]) -> str:
        parts = []
        for param in params:
            part = ""
            if param.type_hint:
                part += param.type_hint + " "
            if param.by_ref:
                part += "&"
            part += "$" + param.name
            if param.default is not None:
                part += " = " + self._expr(param.default)
            parts.append(part)
        return ", ".join(parts)

    def _class_decl(self, node: ast.ClassDecl, depth: int) -> List[str]:
        pad = self.indent_unit * depth
        head = ""
        if node.is_abstract:
            head += "abstract "
        if node.is_final:
            head += "final "
        head += f"{node.kind} {node.name}"
        if node.parent:
            head += f" extends {node.parent}"
        if node.interfaces:
            joiner = " implements " if node.kind == "class" else ", "
            head += joiner + ", ".join(node.interfaces)
        lines = [pad + head, pad + "{"]
        inner = self.indent_unit * (depth + 1)
        for use in node.uses:
            lines.append(inner + f"use {use};")
        for const in node.constants:
            lines.append(inner + f"const {const.name} = {self._expr(const.value)};")
        for prop in node.properties:
            part = prop.visibility
            if prop.static:
                part += " static"
            part += " $" + prop.name
            if prop.default is not None:
                part += " = " + self._expr(prop.default)
            lines.append(inner + part + ";")
        for method in node.methods:
            modifiers = []
            if method.abstract:
                modifiers.append("abstract")
            if method.final:
                modifiers.append("final")
            modifiers.append(method.visibility)
            if method.static:
                modifiers.append("static")
            amp = "&" if method.by_ref else ""
            head = (
                " ".join(modifiers)
                + f" function {amp}{method.name}({self._params(method.params)})"
            )
            if method.body is None:
                lines.append(inner + head + ";")
            else:
                lines.append(inner + head)
                lines.extend(self._block(method.body, depth + 1))
        lines.append(pad + "}")
        return lines

    # -- expressions -------------------------------------------------------------

    def _expr(self, node: Optional[ast.Expr]) -> str:  # noqa: C901
        if node is None:
            return ""
        if isinstance(node, ast.Variable):
            return "$" + node.name
        if isinstance(node, ast.VariableVariable):
            return "${" + self._expr(node.expr) + "}"
        if isinstance(node, ast.Literal):
            return self._literal(node)
        if isinstance(node, ast.InterpolatedString):
            return '"' + self._interp_body(node.parts) + '"'
        if isinstance(node, ast.ShellExec):
            return "`" + self._interp_body(node.parts) + "`"
        if isinstance(node, ast.ArrayLiteral):
            parts = []
            for item in node.items:
                text = self._expr(item.value)
                if item.by_ref:
                    text = "&" + text
                if item.key is not None:
                    text = f"{self._expr(item.key)} => {text}"
                parts.append(text)
            return "array(" + ", ".join(parts) + ")"
        if isinstance(node, ast.ArrayAccess):
            index = self._expr(node.index) if node.index is not None else ""
            return f"{self._expr(node.array)}[{index}]"
        if isinstance(node, ast.PropertyAccess):
            name = node.name if isinstance(node.name, str) else "{" + self._expr(node.name) + "}"
            return f"{self._expr(node.object)}->{name}"
        if isinstance(node, ast.StaticPropertyAccess):
            return f"{node.class_name}::${node.name}"
        if isinstance(node, ast.ClassConstAccess):
            return f"{node.class_name}::{node.name}"
        if isinstance(node, ast.ConstFetch):
            return node.name
        if isinstance(node, ast.FunctionCall):
            name = node.name if isinstance(node.name, str) else self._expr(node.name)
            return f"{name}({self._args(node.args)})"
        if isinstance(node, ast.MethodCall):
            method = (
                node.method
                if isinstance(node.method, str)
                else "{" + self._expr(node.method) + "}"
            )
            return f"{self._expr(node.object)}->{method}({self._args(node.args)})"
        if isinstance(node, ast.StaticCall):
            method = (
                node.method
                if isinstance(node.method, str)
                else self._expr(node.method)
            )
            return f"{node.class_name}::{method}({self._args(node.args)})"
        if isinstance(node, ast.New):
            name = (
                node.class_name
                if isinstance(node.class_name, str)
                else self._expr(node.class_name)
            )
            return f"new {name}({self._args(node.args)})"
        if isinstance(node, ast.Clone):
            return f"clone {self._expr(node.expr)}"
        if isinstance(node, ast.Assignment):
            op = node.op
            if node.by_ref:
                op = "=&"
            return f"{self._expr(node.target)} {op} {self._expr(node.value)}"
        if isinstance(node, ast.Binary):
            return f"({self._expr(node.left)} {node.op} {self._expr(node.right)})"
        if isinstance(node, ast.Unary):
            if node.op == "throw":
                return f"throw {self._expr(node.operand)}"
            return f"{node.op}{self._expr(node.operand)}"
        if isinstance(node, ast.Ternary):
            if node.if_true is None:
                return f"({self._expr(node.cond)} ?: {self._expr(node.if_false)})"
            return (
                f"({self._expr(node.cond)} ? {self._expr(node.if_true)}"
                f" : {self._expr(node.if_false)})"
            )
        if isinstance(node, ast.Cast):
            return f"({node.to}){self._expr(node.operand)}"
        if isinstance(node, ast.IncDec):
            if node.prefix:
                return f"{node.op}{self._expr(node.target)}"
            return f"{self._expr(node.target)}{node.op}"
        if isinstance(node, ast.IssetExpr):
            return "isset(" + ", ".join(self._expr(v) for v in node.vars) + ")"
        if isinstance(node, ast.EmptyExpr):
            return f"empty({self._expr(node.expr)})"
        if isinstance(node, ast.ListExpr):
            return "list(" + ", ".join(
                self._expr(t) if t is not None else "" for t in node.targets
            ) + ")"
        if isinstance(node, ast.Closure):
            head = "static function" if node.static else "function"
            amp = "&" if node.by_ref else ""
            text = f"{head} {amp}({self._params(node.params)})"
            if node.uses:
                uses = ", ".join(("&" if u.by_ref else "") + "$" + u.name for u in node.uses)
                text += f" use ({uses})"
            body = Printer(self.indent_unit)._block(node.body, 0)
            return text + " " + " ".join(line.strip() for line in body)
        if isinstance(node, ast.IncludeExpr):
            return f"{node.kind} {self._expr(node.path)}"
        if isinstance(node, ast.ExitExpr):
            if node.expr is None:
                return "exit"
            return f"exit({self._expr(node.expr)})"
        if isinstance(node, ast.PrintExpr):
            return f"print {self._expr(node.expr)}"
        if isinstance(node, ast.InstanceofExpr):
            name = (
                node.class_name
                if isinstance(node.class_name, str)
                else self._expr(node.class_name)
            )
            return f"({self._expr(node.expr)} instanceof {name})"
        raise TypeError(f"cannot print expression {type(node).__name__}")

    def _args(self, args: List[ast.Expr]) -> str:
        return ", ".join(self._expr(a) for a in args)

    def _literal(self, node: ast.Literal) -> str:
        value = node.value
        if isinstance(value, bool):
            return "true" if value else "false"
        if value is None:
            return "null"
        if isinstance(value, (int, float)):
            return repr(value)
        return "'" + _escape_single(str(value)) + "'"

    def _interp_body(self, parts: List[ast.Expr]) -> str:
        out: List[str] = []
        for part in parts:
            if isinstance(part, ast.Literal):
                out.append(_escape_double(str(part.value)))
            else:
                out.append("{" + self._expr(part) + "}")
        return "".join(out)


def print_file(node: ast.PhpFile) -> str:
    """Render a parsed file back to normalized PHP source."""
    return Printer().print_file(node)


def print_expr(node: Optional[ast.Expr]) -> str:
    """Render a single expression to PHP source."""
    return Printer().print_expr(node)
