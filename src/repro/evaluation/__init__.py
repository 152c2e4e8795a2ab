"""Evaluation harness: the paper's Section IV methodology as code.

Run tools over a corpus (:mod:`.runner`), match findings to ground
truth (:mod:`.matching`), compute Table I metrics (:mod:`.metrics`),
overlap (:mod:`.overlap` — Fig. 2), input vectors (:mod:`.vectors` —
Table II), fix inertia (:mod:`.inertia` — Section V.D), and render
everything (:mod:`.report`).
"""

from .inertia import InertiaAnalysis, analyze_inertia
from .matching import ClassifiedFinding, MatchResult
from .metrics import Confusion, percent
from .overlap import OverlapAnalysis, compute_overlap, growth_percent
from .report import (
    PAPER_DISTINCT,
    PAPER_FAILED_FILES,
    PAPER_OOP,
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    render_fig2,
    render_inertia,
    render_robustness,
    render_table1,
    render_table2,
    render_table3,
)
from .runner import ToolEvaluation, VersionEvaluation, evaluate_both, evaluate_version
from .statistics import (
    Interval,
    PairedComparison,
    bootstrap_rate,
    compare_tools,
    pairwise_comparisons,
    tool_intervals,
)
from .vectors import (
    VectorBreakdown,
    both_versions_breakdown,
    tier_shares,
    vector_breakdown,
)

__all__ = [
    "ClassifiedFinding",
    "Confusion",
    "InertiaAnalysis",
    "Interval",
    "PairedComparison",
    "MatchResult",
    "OverlapAnalysis",
    "PAPER_DISTINCT",
    "PAPER_FAILED_FILES",
    "PAPER_OOP",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "ToolEvaluation",
    "VectorBreakdown",
    "VersionEvaluation",
    "analyze_inertia",
    "bootstrap_rate",
    "compare_tools",
    "both_versions_breakdown",
    "compute_overlap",
    "evaluate_both",
    "evaluate_version",
    "growth_percent",
    "pairwise_comparisons",
    "percent",
    "tool_intervals",
    "render_fig2",
    "render_inertia",
    "render_robustness",
    "render_table1",
    "render_table2",
    "render_table3",
    "tier_shares",
    "vector_breakdown",
]
