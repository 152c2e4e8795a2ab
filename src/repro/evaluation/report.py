"""Render the paper's tables/figure from evaluation results.

Each ``render_*`` function produces the same rows the paper reports, as
plain text, with the paper's published values available in the
``PAPER_*`` constants so benchmarks and EXPERIMENTS.md can print
paper-vs-measured side by side.
"""

from __future__ import annotations

from typing import Dict, List

from ..config.vulnerability import TABLE2_ROWS, VulnKind
from .inertia import InertiaAnalysis
from .metrics import Confusion, percent
from .overlap import OverlapAnalysis, growth_percent
from .runner import VersionEvaluation
from .vectors import VectorBreakdown

TOOL_ORDER = ("phpSAFE", "RIPS", "Pixy")

#: Table I as published (DSN 2015).  The paper's own Global rows do not
#: always equal XSS+SQLi (e.g. phpSAFE 2014: 374+9 vs Global 387); the
#: reproduction is internally consistent and EXPERIMENTS.md records the
#: deltas.
PAPER_TABLE1: Dict[str, Dict[str, Dict[str, int]]] = {
    "phpSAFE": {
        "2012": {"xss_tp": 307, "xss_fp": 63, "sqli_tp": 8, "sqli_fp": 2,
                 "global_tp": 315, "global_fp": 65},
        "2014": {"xss_tp": 374, "xss_fp": 57, "sqli_tp": 9, "sqli_fp": 5,
                 "global_tp": 387, "global_fp": 62},
    },
    "RIPS": {
        "2012": {"xss_tp": 134, "xss_fp": 79, "sqli_tp": 0, "sqli_fp": 0,
                 "global_tp": 134, "global_fp": 79},
        "2014": {"xss_tp": 288, "xss_fp": 47, "sqli_tp": 0, "sqli_fp": 1,
                 "global_tp": 304, "global_fp": 79},
    },
    "Pixy": {
        "2012": {"xss_tp": 50, "xss_fp": 185, "sqli_tp": 0, "sqli_fp": 0,
                 "global_tp": 50, "global_fp": 187},
        "2014": {"xss_tp": 20, "xss_fp": 197, "sqli_tp": 0, "sqli_fp": 0,
                 "global_tp": 20, "global_fp": 208},
    },
}

#: Table II as published.
PAPER_TABLE2: Dict[str, Dict[str, int]] = {
    "2012": {"POST": 22, "GET": 96, "POST/GET/COOKIE": 24, "DB": 211,
             "File/Function/Array": 41},
    "2014": {"POST": 43, "GET": 111, "POST/GET/COOKIE": 57, "DB": 363,
             "File/Function/Array": 11},
    "both": {"POST": 11, "GET": 36, "POST/GET/COOKIE": 19, "DB": 162,
             "File/Function/Array": 4},
}

#: Table III as published (seconds, Intel Core i5 2.8 GHz, avg of 5).
PAPER_TABLE3: Dict[str, Dict[str, float]] = {
    "phpSAFE": {"2012": 17.87, "2014": 180.91},
    "RIPS": {"2012": 69.42, "2014": 178.46},
    "Pixy": {"2012": 49.57, "2014": 106.54},
}

#: Fig. 2 / Section V.B headline numbers.
PAPER_DISTINCT = {"2012": 394, "2014": 586}
#: Section V.A: OOP-mediated vulnerabilities (phpSAFE only).
PAPER_OOP = {"2012": (151, 10), "2014": (179, 7)}  # (count, plugins)
#: Section V.E robustness: files each tool could not analyze.
PAPER_FAILED_FILES = {
    "phpSAFE": {"2012": 1, "2014": 3},
    "RIPS": {"2012": 0, "2014": 0},
    "Pixy": {"2012": 1, "2014": 31},
}
PAPER_PIXY_ERRORS = {"2012": 1, "2014": 37}
#: Section V.E corpus size.
PAPER_CORPUS = {"2012": (266, 89_560), "2014": (356, 180_801)}


def _metric_rows(confusion: Confusion) -> List[str]:
    return [
        str(confusion.tp),
        str(confusion.fp),
        percent(confusion.precision),
        percent(confusion.recall),
        percent(confusion.f_score),
    ]


def render_table1(
    evaluations: Dict[str, VersionEvaluation], convention: str = "paper"
) -> str:
    """Table I: TP/FP/Precision/Recall/F-score per tool × version × kind."""
    lines = [
        "TABLE I. VULNERABILITIES OF 2012 AND 2014 PLUGIN VERSIONS"
        f"  (FN convention: {convention})",
    ]
    header = f"{'':22s}" + "".join(
        f"{tool + ' ' + version:>15s}"
        for tool in TOOL_ORDER
        for version in sorted(evaluations)
    )
    lines.append(header)
    sections = [
        ("XSS", VulnKind.XSS),
        ("SQLi", VulnKind.SQLI),
        ("Global", None),
    ]
    metric_names = ("True Positives", "False Positives", "Precision", "Recall", "F-score")
    for section_name, kind in sections:
        lines.append(section_name)
        cells: Dict[str, List[str]] = {}
        for tool in TOOL_ORDER:
            for version in sorted(evaluations):
                evaluation = evaluations[version]
                confusion = evaluation.confusion(tool, kind, convention)
                cells[f"{tool}/{version}"] = _metric_rows(confusion)
        for row_index, metric in enumerate(metric_names):
            row = f"  {metric:20s}"
            for tool in TOOL_ORDER:
                for version in sorted(evaluations):
                    row += f"{cells[f'{tool}/{version}'][row_index]:>15s}"
            lines.append(row)
    return "\n".join(lines)


def render_table2(
    older: VectorBreakdown, newer: VectorBreakdown, both: VectorBreakdown
) -> str:
    """Table II: malicious input-vector type."""
    lines = [
        "TABLE II. MALICIOUS INPUT VECTOR TYPE",
        f"{'Input Vectors':22s}{'V.2012':>10s}{'V.2014':>10s}{'Both':>10s}"
        f"{'paper12':>10s}{'paper14':>10s}{'paperB':>10s}",
    ]
    for label in TABLE2_ROWS:
        lines.append(
            f"{label:22s}{older.row(label):>10d}{newer.row(label):>10d}"
            f"{both.row(label):>10d}"
            f"{PAPER_TABLE2['2012'][label]:>10d}"
            f"{PAPER_TABLE2['2014'][label]:>10d}"
            f"{PAPER_TABLE2['both'][label]:>10d}"
        )
    lines.append(
        f"{'Total':22s}{older.total:>10d}{newer.total:>10d}{both.total:>10d}"
        f"{sum(PAPER_TABLE2['2012'].values()):>10d}"
        f"{sum(PAPER_TABLE2['2014'].values()):>10d}"
        f"{sum(PAPER_TABLE2['both'].values()):>10d}"
    )
    return "\n".join(lines)


def render_table3(evaluations: Dict[str, VersionEvaluation]) -> str:
    """Table III: detection time of all plugins, in seconds."""
    lines = [
        "TABLE III. DETECTION TIME OF ALL PLUGINS IN SECONDS",
        f"{'Tool':10s}" + "".join(
            f"{'V.' + version:>12s}{'s/KLOC':>10s}" for version in sorted(evaluations)
        ) + f"{'paper 2012':>12s}{'paper 2014':>12s}",
    ]
    for tool in TOOL_ORDER:
        row = f"{tool:10s}"
        for version in sorted(evaluations):
            evaluation = evaluations[version].tools.get(tool)
            if evaluation is None:
                row += f"{'-':>12s}{'-':>10s}"
            else:
                row += f"{evaluation.seconds_mean:>12.2f}{evaluation.seconds_per_kloc:>10.3f}"
        row += f"{PAPER_TABLE3[tool]['2012']:>12.2f}{PAPER_TABLE3[tool]['2014']:>12.2f}"
        lines.append(row)
    return "\n".join(lines)


def render_fig2(older: OverlapAnalysis, newer: OverlapAnalysis) -> str:
    """Fig. 2: tools vulnerability detection overlap."""
    lines = ["FIG. 2. TOOLS VULNERABILITY DETECTION OVERLAP"]
    for analysis in (older, newer):
        lines.append(
            f"  version {analysis.version}: union={analysis.union_total} "
            f"(paper: {PAPER_DISTINCT.get(analysis.version, '?')})"
        )
        for name, count in sorted(analysis.per_tool.items()):
            lines.append(f"    {name:10s} detected {count}")
        for region in sorted(
            analysis.regions, key=lambda region: (len(region.tools), sorted(region.tools))
        ):
            lines.append(f"    {region.label:30s} {region.count}")
    growth = growth_percent(older, newer)
    lines.append(f"  growth 2012→2014: {growth:+.0f}% (paper: +51%)")
    return "\n".join(lines)


def render_inertia(analysis: InertiaAnalysis) -> str:
    """Section V.D: inertia in fixing vulnerabilities."""
    return "\n".join(
        [
            "SECTION V.D — INERTIA IN FIXING VULNERABILITIES",
            f"  2014 vulnerabilities already disclosed in 2012: "
            f"{analysis.carried} of {analysis.newer_total} "
            f"({analysis.carried_share * 100:.0f}%; paper: 249 of 586, 42%)",
            f"  of those, trivially exploitable (GET/POST/COOKIE): "
            f"{analysis.carried_easy} ({analysis.easy_share_of_carried * 100:.0f}%"
            f" of carried; paper: 59, 24%)",
        ]
    )


def render_robustness(evaluations: Dict[str, VersionEvaluation]) -> str:
    """Section V.E: responsiveness and robustness summary."""
    lines = ["SECTION V.E — ROBUSTNESS (files not analyzed / error messages)"]
    for version in sorted(evaluations):
        evaluation = evaluations[version]
        files = evaluation.corpus.total_files
        loc = evaluation.corpus.total_loc
        paper_files, paper_loc = PAPER_CORPUS[version]
        lines.append(
            f"  version {version}: {files} files, {loc} LOC "
            f"(paper: {paper_files} files, {paper_loc} LOC at scale 1.0)"
        )
        for tool in TOOL_ORDER:
            tool_eval = evaluation.tools.get(tool)
            if tool_eval is None:
                continue
            paper_failed = PAPER_FAILED_FILES[tool][version]
            note = f", errors={tool_eval.error_messages}" if tool == "Pixy" else ""
            lines.append(
                f"    {tool:10s} failed files={len(tool_eval.failed_files)} "
                f"(paper: {paper_failed}){note}"
            )
    return "\n".join(lines)
