"""phpSAFE core: the paper's primary contribution.

Four stages (Fig. 1 of the paper): configuration (:mod:`repro.config`),
model construction (:mod:`.model`), analysis (:mod:`.engine` semantics,
run by the :mod:`.ir` executor), results processing (:mod:`.results`).  :class:`PhpSafe` is the public facade.
"""

from ..incidents import Incident, IncidentSeverity, IncidentStage
from .autofix import FixProposal, apply_fixes, verify_fix
from .cache import CacheStats, ModelCache
from .engine import TaintEngine
from .model import ClassInfo, FileModel, FunctionInfo, PluginModel
from .phpsafe import PhpSafe, PhpSafeOptions
from .results import FileFailure, Finding, ToolReport
from .review import coverage_summary, to_html, to_json, to_text
from .taint import ConcreteSource, ParamRef, PropRef, TaintState, VariableRecord
from .tool import AnalyzerTool

__all__ = [
    "AnalyzerTool",
    "CacheStats",
    "FixProposal",
    "ModelCache",
    "apply_fixes",
    "coverage_summary",
    "to_html",
    "to_json",
    "to_text",
    "verify_fix",
    "ClassInfo",
    "ConcreteSource",
    "FileFailure",
    "FileModel",
    "Finding",
    "FunctionInfo",
    "Incident",
    "IncidentSeverity",
    "IncidentStage",
    "ParamRef",
    "PhpSafe",
    "PhpSafeOptions",
    "PluginModel",
    "PropRef",
    "TaintEngine",
    "TaintState",
    "ToolReport",
    "VariableRecord",
]
