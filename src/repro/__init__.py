"""phpSAFE reproduction — static security analysis of OOP PHP plugins.

Reproduction of *phpSAFE: A Security Analysis Tool for OOP Web
Application Plugins* (Nunes, Fonseca, Vieira — DSN 2015): a PHP
lexer/parser substrate, the phpSAFE taint analyzer, RIPS-like and
Pixy-like baselines, a calibrated synthetic WordPress-plugin corpus,
and the full evaluation harness for the paper's tables and figures.

Quickstart::

    from repro import PhpSafe

    report = PhpSafe().analyze_source("<?php echo $_GET['q'];")
    for finding in report.findings:
        print(finding.describe())
"""

from .baselines import PixyLike, RipsLike
from .batch import BatchScanner, DiskModelCache, ScanTelemetry, ToolSpec, scan_corpus
from .config import AnalyzerProfile, InputVector, VulnKind
from .core import Finding, PhpSafe, PhpSafeOptions, ToolReport
from .corpus import GeneratedCorpus, build_both, build_corpus
from .dynamic import ExploitConfirmer, confirm_findings
from .history import ApprovalPolicy, HistoryStore, ScanRecord
from .evaluation import evaluate_version
from .plugin import Plugin
from .rules import resolve_profile

__version__ = "1.0.0"

__all__ = [
    "AnalyzerProfile",
    "ApprovalPolicy",
    "BatchScanner",
    "DiskModelCache",
    "ScanTelemetry",
    "ToolSpec",
    "scan_corpus",
    "ExploitConfirmer",
    "Finding",
    "GeneratedCorpus",
    "HistoryStore",
    "InputVector",
    "PhpSafe",
    "PhpSafeOptions",
    "PixyLike",
    "Plugin",
    "RipsLike",
    "ScanRecord",
    "ToolReport",
    "VulnKind",
    "build_both",
    "confirm_findings",
    "build_corpus",
    "evaluate_version",
    "resolve_profile",
    "__version__",
]
