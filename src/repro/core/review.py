"""Reviewer-facing report generation (paper Sections III and III.D).

The original phpSAFE "has a web interface ... the output of the
analysis is presented in a web page that helps reviewing the results,
including the vulnerable variables, the entry point of the vulnerability
in the source code PHP file, the flow of the vulnerable data from
variable to variable" and exposes resources "related to the variables
..., functions, PHP files included, tokens (the complete AST) and debug
information".

This module renders a :class:`~repro.core.results.ToolReport` in three
formats: a self-contained HTML review page (the web-interface analogue),
JSON (for CI integration — Section III: "it can be tuned to produce and
store the results in other formats or distribute them over the
network"), and plain text for terminals.
"""

from __future__ import annotations

import html
import json
from typing import Dict, List, Optional

from ..plugin import Plugin
from .model import PluginModel
from .results import Finding, ToolReport, finding_to_dict

_SEVERITY_ORDER = {"sqli": 0, "cmdi": 1, "lfi": 2, "xss": 3}


def sorted_findings(report: ToolReport) -> List[Finding]:
    """Findings ordered for review: severity class, then location."""
    return sorted(
        report.findings,
        key=lambda finding: (
            _SEVERITY_ORDER.get(finding.kind.value, 9),
            finding.file,
            finding.line,
        ),
    )


def fix_hint(finding: Finding) -> str:
    """The remediation advice a reviewer would attach.

    XSS hints are markup-context-specific (attribute vs element text vs
    script block) when the engine determined the context.
    """
    if finding.kind.value == "xss":
        if finding.markup_context:
            from ..php.htmlcontext import MarkupContext

            context = MarkupContext(finding.markup_context)
            return (
                f"escape for the {context.value} context: "
                f"{context.recommended_sanitizer}()"
            )
        return "escape at output: esc_html()/esc_attr()/htmlentities()"
    if finding.kind.value == "sqli":
        return "use parameterized queries: $wpdb->prepare() with placeholders"
    if finding.kind.value == "cmdi":
        return "quote shell arguments with escapeshellarg()"
    if finding.kind.value == "lfi":
        return "whitelist the include target or apply basename()"
    return "validate and sanitize the input"


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def report_document(report: ToolReport) -> Dict[str, object]:
    """The report as the plain dict :func:`to_json` renders."""
    return {
        "tool": report.tool,
        "plugin": report.plugin,
        "files_analyzed": report.files_analyzed,
        "loc_analyzed": report.loc_analyzed,
        "seconds": round(report.seconds, 4),
        "findings": [
            {**finding_to_dict(finding), "fix_hint": fix_hint(finding)}
            for finding in sorted_findings(report)
        ],
        "failures": [
            {
                "file": failure.file,
                "reason": failure.reason,
                "is_error": failure.is_error,
                "completed": failure.completed,
            }
            for failure in report.failures
        ],
        "incidents": [incident.to_dict() for incident in report.incidents],
        "files_skipped": report.files_skipped,
        "loc_skipped": report.loc_skipped,
        "coverage": round(report.coverage, 4),
    }


def to_json(report: ToolReport, indent: Optional[int] = 1) -> str:
    """Machine-readable report (stable schema for CI pipelines)."""
    return json.dumps(report_document(report), indent=indent)


# ---------------------------------------------------------------------------
# Plain text
# ---------------------------------------------------------------------------


def to_text(report: ToolReport) -> str:
    """Terminal-friendly review summary."""
    lines = [
        f"{report.tool} report for {report.plugin}",
        f"  {report.files_analyzed} files, {report.loc_analyzed} LOC, "
        f"{len(report.findings)} finding(s), "
        f"{len(report.failed_files)} failed file(s)",
        "",
    ]
    for finding in sorted_findings(report):
        lines.append(f"  {finding.describe()}")
        for step in finding.trace:
            lines.append(f"      {step}")
        lines.append(f"      fix: {fix_hint(finding)}")
        lines.append("")
    for failure in report.failures:
        lines.append(f"  ! {failure.file}: {failure.reason}")
    return "\n".join(lines).rstrip() + "\n"


# ---------------------------------------------------------------------------
# HTML (the web-interface analogue)
# ---------------------------------------------------------------------------

_PAGE_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
body {{ font-family: system-ui, sans-serif; margin: 2em; color: #222; }}
h1 {{ font-size: 1.4em; }} h2 {{ font-size: 1.1em; margin-top: 1.6em; }}
table {{ border-collapse: collapse; width: 100%; }}
th, td {{ border: 1px solid #ccc; padding: 4px 8px; text-align: left;
          font-size: 0.92em; vertical-align: top; }}
th {{ background: #f0f0f0; }}
.kind-sqli {{ color: #a00; font-weight: bold; }}
.kind-xss {{ color: #c60; font-weight: bold; }}
.kind-cmdi {{ color: #909; font-weight: bold; }}
.kind-lfi {{ color: #069; font-weight: bold; }}
.trace {{ color: #555; font-size: 0.85em; }}
.hint {{ color: #060; font-size: 0.88em; }}
code {{ background: #f6f6f6; padding: 1px 4px; }}
.snippet {{ background: #fbfbfb; border-left: 3px solid #c60;
            padding: 4px 8px; font-family: monospace; white-space: pre;
            font-size: 0.85em; overflow-x: auto; }}
.failure {{ color: #a00; }}
</style>
</head>
<body>
<h1>{title}</h1>
<p>{summary}</p>
{findings_section}
{failures_section}
{variables_section}
</body>
</html>
"""


def _escape(text: object) -> str:
    return html.escape(str(text), quote=True)


def _source_snippet(plugin: Optional[Plugin], finding: Finding, context: int = 2) -> str:
    if plugin is None or finding.file not in plugin.files:
        return ""
    lines = plugin.files[finding.file].splitlines()
    start = max(0, finding.line - 1 - context)
    end = min(len(lines), finding.line + context)
    rendered = []
    for index in range(start, end):
        marker = "&#9658; " if index == finding.line - 1 else "  "
        rendered.append(f"{marker}{index + 1:4d}  {_escape(lines[index])}")
    return '<div class="snippet">' + "\n".join(rendered) + "</div>"


def to_html(report: ToolReport, plugin: Optional[Plugin] = None) -> str:
    """A self-contained review page.

    Passing the analyzed ``plugin`` adds source snippets around each
    sink — "the entry point of the vulnerability in the source code".
    """
    title = f"{report.tool} — {report.plugin}"
    summary = (
        f"{report.files_analyzed} files, {report.loc_analyzed} LOC analyzed in "
        f"{report.seconds:.2f}s — <b>{len(report.findings)} finding(s)</b>, "
        f"{len(report.failed_files)} file(s) not analyzed."
    )

    rows = []
    for finding in sorted_findings(report):
        trace_html = "<br>".join(_escape(step) for step in finding.trace)
        vectors = ", ".join(vector.value for vector in finding.vectors)
        rows.append(
            "<tr>"
            f'<td class="kind-{finding.kind.value}">{_escape(finding.kind)}</td>'
            f"<td><code>{_escape(finding.file)}:{finding.line}</code>"
            f"{_source_snippet(plugin, finding)}</td>"
            f"<td><code>{_escape(finding.sink)}</code></td>"
            f"<td>{_escape(finding.variable)}</td>"
            f"<td>{_escape(vectors)}{' (OOP)' if finding.via_oop else ''}</td>"
            f'<td><div class="trace">{trace_html}</div>'
            f'<div class="hint">fix: {_escape(fix_hint(finding))}</div></td>'
            "</tr>"
        )
    if rows:
        findings_section = (
            "<h2>Findings</h2><table><tr><th>Kind</th><th>Location</th>"
            "<th>Sink</th><th>Variable</th><th>Input vector</th>"
            "<th>Data flow &amp; fix</th></tr>" + "".join(rows) + "</table>"
        )
    else:
        findings_section = "<h2>Findings</h2><p>No vulnerabilities detected.</p>"

    if report.failures:
        failure_items = "".join(
            f'<li class="failure"><code>{_escape(f.file)}</code>: '
            f"{_escape(f.reason)}</li>"
            for f in report.failures
        )
        failures_section = f"<h2>Files not analyzed</h2><ul>{failure_items}</ul>"
    else:
        failures_section = ""

    if report.variables:
        variable_rows = "".join(
            "<tr>"
            f"<td><code>${_escape(name)}</code></td>"
            f"<td>{'tainted' if not record.taint.is_clean() else 'clean'}</td>"
            f"<td><code>{_escape(record.file)}:{record.line}</code></td>"
            "</tr>"
            for name, record in sorted(report.variables.items())
        )
        variables_section = (
            "<h2>Variables (parser_variables dump)</h2>"
            "<table><tr><th>Variable</th><th>State</th><th>Last write</th></tr>"
            + variable_rows
            + "</table>"
        )
    else:
        variables_section = ""

    return _PAGE_TEMPLATE.format(
        title=_escape(title),
        summary=summary,
        findings_section=findings_section,
        failures_section=failures_section,
        variables_section=variables_section,
    )


def coverage_summary(plugin: Plugin) -> Dict[str, object]:
    """Static-coverage facts for a plugin (CFG-based).

    phpSAFE's selling point over dynamic analysis is 100% code coverage
    (Section II); this summarizes what "all the code" means for a
    plugin: functions, methods, entry points and acyclic path counts.
    """
    from ..php.cfg import build_file_cfgs

    model = PluginModel.build(plugin)
    functions = len([f for f in model.functions.values() if not f.is_method])
    methods = len([f for f in model.functions.values() if f.is_method])
    uncalled = len(model.uncalled_functions())
    paths = 0
    dead_blocks = 0
    for file_model in model.files.values():
        for cfg in build_file_cfgs(file_model.tree).values():
            paths += cfg.path_count(limit=100_000)
            dead_blocks += len(cfg.unreachable_blocks())
    return {
        "files": len(model.files),
        "loc": model.total_loc,
        "functions": functions,
        "methods": methods,
        "entry_points_never_called": uncalled,
        "acyclic_paths": paths,
        "dead_blocks": dead_blocks,
    }
