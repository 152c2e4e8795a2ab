"""RIPS-like baseline analyzer.

Behavioural envelope of RIPS as the paper characterizes it (Sections II,
IV and V):

- performs intra- and inter-procedural taint analysis over the PHP AST,
  simulating built-in functions — the shared taint evaluator
  (:class:`IRTaintEngine`, the one phpSAFE runs) with the generic-PHP
  knowledge base;
- "does not parse PHP objects, consequently it misses encapsulated
  vulnerabilities": method calls are opaque (``$wpdb->get_results`` is
  not a source, ``$wpdb->query`` not a sink, ``$wpdb->prepare`` not a
  filter), though it still scans method *bodies* procedurally;
- knows nothing about the WordPress API, so flows protected only by
  WordPress sanitizers (``esc_html`` ...) are reported anyway — the
  false-positive population the paper measures for RIPS;
- analyzes functions not called from the plugin code (Section V.A notes
  RIPS shares this plugin-oriented feature with phpSAFE);
- robust: "RIPS succeeded in completing the analysis of all files".
"""

from __future__ import annotations

from typing import Optional

from ..config.profiles import AnalyzerProfile
from ..core.engine import PhpSafeOptions
from ..core.ir import IRTaintEngine
from ..core.model import PluginModel
from ..core.results import FileFailure, ToolReport
from ..core.tool import AnalyzerTool, collector_paused
from ..plugin import Plugin
from ..rules import resolve_profile


class RipsLike(AnalyzerTool):
    """Procedural inter-procedural taint analyzer, OOP-blind."""

    name = "RIPS"

    def __init__(self, profile: Optional[AnalyzerProfile] = None) -> None:
        self.profile = profile or resolve_profile("generic")

    @collector_paused()
    def analyze(self, plugin: Plugin) -> ToolReport:
        report = ToolReport(tool=self.name, plugin=plugin.slug)
        # RIPS tolerates memory-heavy include chains phpSAFE chokes on:
        # no include budget is applied.
        model = PluginModel.build(plugin, include_budget=2**63)
        for path, error in sorted(model.parse_failures.items()):
            report.failures.append(FileFailure(file=path, reason=str(error)))
        engine = IRTaintEngine(
            model,
            self.profile,
            PhpSafeOptions(oop=False, analyze_uncalled=True, recover=False),
            unknown_call_policy="propagate",
        )
        for finding in engine.run():
            report.add_finding(finding)
        report.files_analyzed = len(model.files)
        report.loc_analyzed = model.total_loc
        return report
