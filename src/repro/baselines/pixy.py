"""Pixy-like baseline analyzer.

Behavioural envelope of Pixy per the paper: a 2007-era Java tool with
"flow-sensitive, inter-procedural and context-sensitive data flow
analysis" for XSS/SQLi that "does not parse Object Oriented constructs"
and has not been updated since 2007.  Concretely:

- generic PHP-4-era knowledge base (the ``pixy-2007`` profile): no ``mysqli``,
  no ``filter_var``, no WordPress entries;
- the ``register_globals = 1`` source model: an uninitialized global
  read is attacker-controllable — "half of the vulnerabilities it found
  were due to this directive" and most of its false alarms too;
- OOP-blind *and* fragile: files using PHP-5-only constructs it cannot
  parse (exceptions, closures, namespaces, traits, late static binding,
  interfaces/abstract classes) fail with an error (Section V.E: Pixy
  "failed to complete the analysis on 32 files" and raised dozens of
  error messages "probably because it is an old tool and does not
  recognize OOP code");
- class bodies are skipped entirely, and functions never called from
  the plugin are *not* analyzed ("Pixy is unable to do so",
  Section V.A).
"""

from __future__ import annotations

from typing import List, Optional

from ..config.profiles import AnalyzerProfile
from ..config.vulnerability import PAPER_KINDS
from ..core.engine import PhpSafeOptions
from ..core.ir import IRTaintEngine
from ..core.model import PluginModel
from ..core.results import FileFailure, ToolReport
from ..core.tool import AnalyzerTool, collector_paused
from ..php.lexer import tokenize_significant
from ..php.tokens import Token, TokenType
from ..plugin import Plugin
from ..rules import resolve_profile

#: PHP-5-only constructs whose presence makes the Pixy-like parser fail.
_FATAL_TOKENS = {
    TokenType.TRY: "try/catch exception handling",
    TokenType.CATCH: "try/catch exception handling",
    TokenType.THROW: "throw statement",
    TokenType.NAMESPACE: "namespaces",
    TokenType.TRAIT: "traits",
    TokenType.INTERFACE: "interface declaration",
    TokenType.ABSTRACT: "abstract class",
}

#: Constructs Pixy survives but complains about (error message, no skip).
_WARNING_TOKENS = {
    TokenType.FINAL: "final modifier",
    TokenType.INSTANCEOF: "instanceof operator",
}


def _scan_php5_constructs(tokens: List[Token]) -> tuple:
    """Return ``(fatal reason or None, warning reason or None)``."""
    fatal = None
    warning = None
    for index, token in enumerate(tokens):
        if token.type in _FATAL_TOKENS and fatal is None:
            fatal = _FATAL_TOKENS[token.type]
        elif token.type in _WARNING_TOKENS and warning is None:
            warning = _WARNING_TOKENS[token.type]
        elif (
            token.type is TokenType.FUNCTION
            and index + 1 < len(tokens)
            and tokens[index + 1].is_char("(")
            and fatal is None
        ):
            fatal = "anonymous function (closure)"
    return fatal, warning


class PixyLike(AnalyzerTool):
    """2007-era taint analyzer: OOP-blind, fragile, register_globals."""

    name = "Pixy"

    def __init__(self, profile: Optional[AnalyzerProfile] = None) -> None:
        self.profile = profile or resolve_profile("pixy-2007")

    @collector_paused()
    def analyze(self, plugin: Plugin) -> ToolReport:
        report = ToolReport(tool=self.name, plugin=plugin.slug)
        survivors = Plugin(name=plugin.name, version=plugin.version)
        for path, source in plugin.iter_files():
            try:
                tokens = tokenize_significant(source, path)
            except Exception as error:  # lexing failure: file skipped
                report.failures.append(
                    FileFailure(file=path, reason=str(error), is_error=True)
                )
                continue
            fatal, warning = _scan_php5_constructs(tokens)
            if fatal is not None:
                report.failures.append(
                    FileFailure(
                        file=path,
                        reason=f"unsupported PHP 5 construct: {fatal}",
                        is_error=True,
                    )
                )
                continue
            if warning is not None:
                report.failures.append(
                    FileFailure(
                        file=path,
                        reason=f"parser warning: {warning}",
                        is_error=True,
                        completed=True,
                    )
                )
            survivors.add_file(path, source)

        model = PluginModel.build(survivors, include_budget=2**63)
        for path, error in sorted(model.parse_failures.items()):
            report.failures.append(FileFailure(file=path, reason=str(error), is_error=True))
        engine = IRTaintEngine(
            model,
            self.profile,
            PhpSafeOptions(oop=False, analyze_uncalled=False, recover=False),
            unknown_call_policy="propagate",
            construct_kinds=PAPER_KINDS,  # Pixy: XSS and SQLi only
        )
        for finding in engine.run():
            report.add_finding(finding)
        report.files_analyzed = len(model.files)
        report.loc_analyzed = model.total_loc
        return report
