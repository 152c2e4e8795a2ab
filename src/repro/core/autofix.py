"""Automatic remediation proposals for findings.

Section III.D: phpSAFE's review data helps practitioners "trace back the
path of the tainted variables to the point they entered the system and
locate the best place to fix the vulnerabilities found".  This module
takes the next step and *proposes the fix*: it rewrites the sink
expression at a finding's location to route the tainted value through
the appropriate sanitizer (``esc_html`` for XSS at echo sinks,
``$wpdb->prepare``-style escaping for SQL, ``escapeshellarg`` for
commands, ``basename`` for includes), then re-prints the file.

Fixes are *proposals*: the caller receives the patched source plus a
diff-style summary and decides whether to apply it.  ``verify_fix``
re-runs the analyzer to show the finding is gone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from ..config.vulnerability import VulnKind
from ..php import ast_nodes as ast
from ..php.parser import parse_source
from ..php.printer import print_file
from ..plugin import Plugin
from .phpsafe import PhpSafe
from .results import Finding

#: Sanitizer applied per vulnerability kind at the sink.
KIND_SANITIZER = {
    VulnKind.XSS: "esc_html",
    VulnKind.SQLI: "esc_sql",
    VulnKind.CMDI: "escapeshellarg",
    VulnKind.LFI: "basename",
}


@dataclass(frozen=True)
class FixProposal:
    """One proposed remediation."""

    finding: Finding
    file: str
    original_source: str
    patched_source: str
    description: str

    @property
    def changed(self) -> bool:
        return self.patched_source != self.original_source


_ALREADY_SAFE = frozenset(
    {sanitizer.lower() for sanitizer in KIND_SANITIZER.values()}
    | {
        "esc_html", "esc_attr", "esc_js", "esc_url", "esc_sql",
        "htmlentities", "htmlspecialchars", "intval", "absint",
        "sanitize_text_field", "escapeshellarg", "basename",
    }
)


def _needs_wrap(expr: ast.Expr) -> bool:
    """Skip literals and expressions already routed through a sanitizer."""
    if isinstance(expr, ast.Literal):
        return False
    if isinstance(expr, ast.FunctionCall) and isinstance(expr.name, str):
        return expr.name.lower() not in _ALREADY_SAFE
    return True


def _wrap(expr: ast.Expr, sanitizer: str) -> ast.Expr:
    return ast.FunctionCall(line=expr.line, name=sanitizer, args=[expr])


class _SinkRewriter:
    """Wrap tainted expressions at one sink site."""

    def __init__(self, finding: Finding) -> None:
        self.finding = finding
        self.sanitizer = KIND_SANITIZER[finding.kind]
        if finding.kind is VulnKind.XSS and finding.markup_context:
            from ..php.htmlcontext import MarkupContext

            self.sanitizer = MarkupContext(
                finding.markup_context
            ).recommended_sanitizer
        self.rewrote = False

    # -- per-construct rewrites ------------------------------------------

    def rewrite(self, node: object) -> None:
        for child in ast.walk(node):  # type: ignore[arg-type]
            if isinstance(child, ast.EchoStatement) and self._at_sink(child.exprs):
                child.exprs = [self._sanitize(expr) for expr in child.exprs]
                self.rewrote = True
            elif isinstance(child, ast.PrintExpr) and self._at_sink(
                [child.expr] if child.expr else []
            ):
                child.expr = self._sanitize(child.expr)  # type: ignore[arg-type]
                self.rewrote = True
            elif isinstance(child, (ast.FunctionCall, ast.MethodCall)):
                name = child.name if isinstance(child, ast.FunctionCall) else child.method
                if (
                    isinstance(name, str)
                    and self._matches_sink_name(name)
                    and self._at_sink(child.args)
                ):
                    child.args = [self._sanitize(arg) for arg in child.args]
                    self.rewrote = True
            elif isinstance(child, ast.IncludeExpr) and self.finding.kind is (
                VulnKind.LFI
            ):
                if child.path is not None and self._at_sink([child.path]):
                    child.path = self._sanitize(child.path)
                    self.rewrote = True

    def _matches_sink_name(self, name: str) -> bool:
        sink = self.finding.sink
        return name.lower() == sink.split("->")[-1].lower()

    def _at_sink(self, exprs: List[ast.Expr]) -> bool:
        lines = {expr.line for expr in exprs if expr is not None}
        return self.finding.line in lines

    def _sanitize(self, expr: ast.Expr) -> ast.Expr:
        if expr is None or not _needs_wrap(expr):
            return expr
        return _wrap(expr, self.sanitizer)


def apply_fixes(
    plugin: Plugin, findings: List[Finding]
) -> Tuple[Plugin, List[FixProposal]]:
    """Apply proposals for every finding; returns the patched plugin.

    All findings of one file are rewritten in a single AST pass against
    the *original* source (printing normalizes the file and would shift
    the line numbers later findings refer to).
    """
    patched = Plugin(name=plugin.name, version=plugin.version, files=dict(plugin.files))
    proposals: List[FixProposal] = []
    by_file: dict = {}
    for finding in findings:
        by_file.setdefault(finding.file, []).append(finding)
    for file, file_findings in sorted(by_file.items()):
        source = patched.files.get(file)
        if source is None:
            continue
        tree = parse_source(source, file)
        fixed_any = False
        for finding in sorted(file_findings, key=lambda f: f.line):
            rewriter = _SinkRewriter(finding)
            rewriter.rewrite(tree)
            if rewriter.rewrote:
                fixed_any = True
                proposals.append(
                    FixProposal(
                        finding=finding,
                        file=file,
                        original_source=source,
                        patched_source="",  # filled after the joint print
                        description=(
                            f"route the value at {file}:{finding.line} through "
                            f"{rewriter.sanitizer}() before the "
                            f"{finding.sink} sink"
                        ),
                    )
                )
        if fixed_any:
            printed = print_file(tree)
            patched.files[file] = printed
            proposals = [
                replace(p, patched_source=printed) if p.file == file and
                not p.patched_source else p
                for p in proposals
            ]
    return patched, proposals


def verify_fix(patched: Plugin, original_finding: Finding) -> bool:
    """Re-analyze: True when the original sink no longer fires."""
    report = PhpSafe().analyze(patched)
    return not any(
        finding.kind is original_finding.kind
        and finding.file == original_finding.file
        and finding.sink == original_finding.sink
        and finding.variable == original_finding.variable
        for finding in report.findings
    )
