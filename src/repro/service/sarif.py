"""SARIF 2.1.0 export of analysis reports.

SARIF (Static Analysis Results Interchange Format, OASIS standard) is
what code-scanning consumers — GitHub code scanning, VS Code SARIF
viewers, defect-tracking importers — ingest, so it is the daemon's
interchange surface and the ``report --format sarif`` CLI output.

Mapping:

* each :class:`~repro.core.results.ToolReport` becomes one ``run``;
* each :class:`~repro.core.results.Finding` becomes one ``result``
  with rule id ``phpsafe/<kind>``, the sink location as its physical
  location, the variable-to-variable flow as a ``codeFlow``, and a
  ``partialFingerprints`` entry carrying the canonical finding
  signature (plugin/kind/file/line/sink — the identity the
  differential harness compares);
* typed :class:`~repro.incidents.Incident` records become
  ``invocations[0].toolExecutionNotifications`` so robustness
  degradation travels with the findings;
* coverage / LOC / perf land in run ``properties``.

:func:`result_signatures` inverts the fingerprint encoding, which is
how the service tests prove the export round-trips losslessly.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Set, Union

from ..config import VulnKind
from ..core.results import Finding, FindingSignature, ToolReport
from ..core.review import fix_hint, sorted_findings
from ..incidents import Incident, IncidentSeverity

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/"
    "sarif-schema-2.1.0.json"
)

_NOTIFICATION_LEVELS = {
    IncidentSeverity.WARNING: "warning",
    IncidentSeverity.ERROR: "error",
    IncidentSeverity.FATAL: "error",
}


def rule_id(kind_value: str) -> str:
    return f"phpsafe/{kind_value}"


def _rule_name(kind: VulnKind) -> str:
    """SARIF rule name: the registry title CamelCased (``Cross-site
    scripting`` -> ``CrossSiteScripting``), or the upper-cased value for
    kinds registered without metadata."""
    words = [word for word in re.split(r"[^0-9A-Za-z]+", kind.title) if word]
    if not words:
        return kind.value.upper()
    return "".join(word.capitalize() for word in words)


def _rule(kind: VulnKind) -> Dict[str, object]:
    """Rule metadata straight from the kind registry, so pack-introduced
    kinds carry their pack's title/description instead of a hard-coded
    catalogue entry."""
    name = _rule_name(kind)
    description = (
        kind.description or "Tainted input reaches a sensitive sink."
    )
    return {
        "id": rule_id(kind.value),
        "name": name,
        "shortDescription": {"text": kind.title or name},
        "fullDescription": {"text": description},
        "defaultConfiguration": {"level": "error"},
        "properties": {"tags": ["security", kind.value]},
    }


def _fingerprint(finding: Finding, plugin: str) -> str:
    """Canonical signature, encoded; ``/`` never occurs in the parts
    SARIF consumers compare, and the separator cannot collide with PHP
    identifiers or relative paths because of the escaping below."""
    return "|".join(
        str(part).replace("\\", "\\\\").replace("|", "\\|")
        for part in finding.signature(plugin)
    )


def _split_fingerprint(encoded: str) -> List[str]:
    parts: List[str] = []
    current: List[str] = []
    escaped = False
    for char in encoded:
        if escaped:
            current.append(char)
            escaped = False
        elif char == "\\":
            escaped = True
        elif char == "|":
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return parts


def _location(file: str, line: int) -> Dict[str, object]:
    region: Dict[str, object] = {}
    if line:
        region["startLine"] = line
    location: Dict[str, object] = {
        "physicalLocation": {"artifactLocation": {"uri": file}}
    }
    if region:
        location["physicalLocation"]["region"] = region
    return location


def finding_to_result(finding: Finding, plugin: str = "") -> Dict[str, object]:
    message = f"{finding.describe()} — fix: {fix_hint(finding)}"
    result: Dict[str, object] = {
        "ruleId": rule_id(finding.kind.value),
        "level": "error",
        "message": {"text": message},
        "locations": [_location(finding.file, finding.line)],
        "partialFingerprints": {
            "phpsafe/findingSignature/v1": _fingerprint(finding, plugin)
        },
        "properties": {
            "sink": finding.sink,
            "variable": finding.variable,
            "vectors": [vector.value for vector in finding.vectors],
            "viaOop": finding.via_oop,
            "markupContext": finding.markup_context,
            "plugin": finding.plugin or plugin,
        },
    }
    if finding.trace:
        result["codeFlows"] = [
            {
                "threadFlows": [
                    {
                        "locations": [
                            {
                                "location": {
                                    **_location(finding.file, finding.line),
                                    "message": {"text": step},
                                }
                            }
                            for step in finding.trace
                        ]
                    }
                ]
            }
        ]
    return result


def _incident_notification(incident: Incident) -> Dict[str, object]:
    notification: Dict[str, object] = {
        "level": _NOTIFICATION_LEVELS.get(incident.severity, "warning"),
        "message": {"text": incident.describe()},
        "descriptor": {"id": f"phpsafe/incident/{incident.stage.value}"},
        "properties": incident.to_dict(),
    }
    if incident.file and not incident.file.startswith("<"):
        notification["locations"] = [_location(incident.file, incident.line)]
    return notification


def report_to_run(report: ToolReport, tool_version: str = "1.0.0") -> Dict[str, object]:
    """One SARIF ``run`` for one plugin's report."""
    kinds_used = sorted(
        {finding.kind for finding in report.findings}, key=lambda kind: kind.value
    )
    fatal = any(
        incident.severity is IncidentSeverity.FATAL for incident in report.incidents
    )
    invocation: Dict[str, object] = {"executionSuccessful": not fatal}
    if report.incidents:
        invocation["toolExecutionNotifications"] = [
            _incident_notification(incident) for incident in report.incidents
        ]
    return {
        "tool": {
            "driver": {
                "name": report.tool,
                "informationUri": "https://doi.org/10.1109/DSN.2015.16",
                "version": tool_version,
                "rules": [_rule(kind) for kind in kinds_used],
            }
        },
        "automationDetails": {"id": f"phpsafe/scan/{report.plugin}"},
        "invocations": [invocation],
        "results": [
            finding_to_result(finding, report.plugin)
            for finding in sorted_findings(report)
        ],
        "columnKind": "utf16CodeUnits",
        "properties": {
            "plugin": report.plugin,
            "filesAnalyzed": report.files_analyzed,
            "locAnalyzed": report.loc_analyzed,
            "filesSkipped": report.files_skipped,
            "locSkipped": report.loc_skipped,
            "coverage": round(report.coverage, 4),
            "seconds": round(report.seconds, 4),
        },
    }


def to_sarif(
    reports: Union[ToolReport, Sequence[ToolReport]],
    tool_version: str = "1.0.0",
) -> Dict[str, object]:
    """A complete SARIF 2.1.0 log: one run per report."""
    if isinstance(reports, ToolReport):
        reports = [reports]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [report_to_run(report, tool_version) for report in reports],
    }


def result_signatures(document: Dict[str, object]) -> Set[FindingSignature]:
    """Decode every result's canonical finding signature.

    The inverse of the ``partialFingerprints`` encoding; the service
    parity tests compare this set against
    :func:`repro.core.results.finding_signatures` of a direct scan to
    prove the SARIF export is lossless and duplicate-free.
    """
    signatures: Set[FindingSignature] = set()
    for run in document.get("runs", ()):  # type: ignore[union-attr]
        for result in run.get("results", ()):
            encoded = result.get("partialFingerprints", {}).get(
                "phpsafe/findingSignature/v1"
            )
            if not encoded:
                continue
            plugin, kind, file, line, sink = _split_fingerprint(encoded)
            signatures.add((plugin, kind, file, int(line), sink))
    return signatures


def result_count(document: Dict[str, object]) -> int:
    """Total results across runs (round-trip cardinality check)."""
    return sum(len(run.get("results", ())) for run in document.get("runs", ()))


def _result_fingerprint(result: Dict[str, object]) -> str:
    return result.get("partialFingerprints", {}).get(  # type: ignore[union-attr]
        "phpsafe/findingSignature/v1", ""
    )


def _baseline_key(encoded: str) -> str:
    """Baseline-matching identity of a fingerprint.

    Baseline comparison is inherently cross-version — the whole point
    is relating a new release's scan to the previous release's — so the
    ``@version`` qualifier the plugin slug may carry must not break the
    match (the same convention :mod:`repro.history` uses).
    """
    parts = _split_fingerprint(encoded)
    if parts:
        parts[0] = parts[0].split("@", 1)[0]
    return "|".join(
        part.replace("\\", "\\\\").replace("|", "\\|") for part in parts
    )


def apply_baseline(
    document: Dict[str, object], baseline: Dict[str, object]
) -> Dict[str, int]:
    """Mark every result's ``baselineState`` against a prior SARIF log.

    SARIF baseline semantics (§3.27.25), matched on the canonical
    ``partialFingerprints`` signature:

    * ``unchanged`` — present in both the current log and the baseline;
    * ``new`` — present now, absent from the baseline (what a CI gate
      in fail-only-on-new mode fails on);
    * ``absent`` — present in the baseline only; a copy of the
      baseline's result is appended with ``baselineState: absent`` so
      fixed findings stay visible to consumers that track closure.

    Mutates ``document`` in place and returns the per-state counts
    (also stored under each run's ``properties.baseline``).
    """
    baseline_results: Dict[str, Dict[str, object]] = {}
    for run in baseline.get("runs", ()):  # type: ignore[union-attr]
        for result in run.get("results", ()):
            fingerprint = _result_fingerprint(result)
            if fingerprint:
                baseline_results.setdefault(_baseline_key(fingerprint), result)
    counts = {"new": 0, "unchanged": 0, "absent": 0}
    matched: Set[str] = set()
    for run in document.get("runs", ()):  # type: ignore[union-attr]
        run_counts = {"new": 0, "unchanged": 0, "absent": 0}
        for result in run.get("results", ()):
            key = _baseline_key(_result_fingerprint(result))
            if key and key in baseline_results:
                result["baselineState"] = "unchanged"
                matched.add(key)
                run_counts["unchanged"] += 1
            else:
                result["baselineState"] = "new"
                run_counts["new"] += 1
        for key, old_result in baseline_results.items():
            if key in matched:
                continue
            absent = dict(old_result)
            absent["baselineState"] = "absent"
            run.setdefault("results", []).append(absent)
            matched.add(key)
            run_counts["absent"] += 1
        run.setdefault("properties", {})["baseline"] = dict(run_counts)
        for state, count in run_counts.items():
            counts[state] += count
    return counts


def new_result_count(document: Dict[str, object]) -> int:
    """Results marked ``baselineState: new`` (the fail-only-on-new
    gate's failure count); results without a baselineState — no
    baseline was applied — count as new so the gate fails safe."""
    count = 0
    for run in document.get("runs", ()):  # type: ignore[union-attr]
        for result in run.get("results", ()):
            if result.get("baselineState", "new") == "new":
                count += 1
    return count
