"""Historic scan data and plugin approval (paper Section VI).

The paper's future work: "We also intend to study the evolution of
plugin security and plugin updates over time by enabling historic data
in phpSAFE.  Developers may use it for approving third-party plugins
before allowing their integration."  This module implements both:

- :class:`HistoryStore` — a JSON-backed archive of scan results; adding
  a scan of a new plugin version lets you diff findings across versions
  (new / fixed / persistent — the Section V.D inertia analysis, per
  plugin) and chart the security evolution over releases;
- :class:`ApprovalPolicy` — a configurable gate ("no SQLi, at most N
  XSS, no analysis failures") producing an auditable decision for the
  approve-before-integration workflow.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .config.vulnerability import VulnKind
from .core.results import ToolReport, finding_to_dict

#: Cross-version matching identity for a finding.  Line numbers shift
#: between releases, so findings match on (kind, file, sink, variable).
FindingKey = Tuple[str, str, str, str]


def _finding_key(finding: dict) -> FindingKey:
    return (finding["kind"], finding["file"], finding["sink"], finding["variable"])


@dataclass(frozen=True)
class ScanRecord:
    """One archived scan of one plugin version."""

    plugin: str
    version: str
    tool: str
    scanned_at: str  # ISO date supplied by the caller
    loc: int
    files: int
    findings: Tuple[dict, ...]
    failed_files: Tuple[str, ...] = ()

    @property
    def finding_keys(self) -> List[FindingKey]:
        return [_finding_key(f) for f in self.findings]

    def count(self, kind: Optional[VulnKind] = None) -> int:
        if kind is None:
            return len(self.findings)
        return sum(1 for f in self.findings if f["kind"] == kind.value)

    @classmethod
    def from_report(
        cls, report: ToolReport, version: str, scanned_at: str
    ) -> "ScanRecord":
        plugin_name = report.plugin.split("@", 1)[0]
        return cls(
            plugin=plugin_name,
            version=version,
            tool=report.tool,
            scanned_at=scanned_at,
            loc=report.loc_analyzed,
            files=report.files_analyzed,
            findings=tuple(finding_to_dict(f) for f in report.findings),
            failed_files=tuple(report.failed_files),
        )


@dataclass
class FindingsDiff:
    """What changed between two scans of the same plugin."""

    older: ScanRecord
    newer: ScanRecord
    introduced: List[dict] = field(default_factory=list)
    fixed: List[dict] = field(default_factory=list)
    persistent: List[dict] = field(default_factory=list)

    @property
    def persistence_share(self) -> float:
        """Fraction of the newer version's findings already known —
        the plugin-level Section V.D inertia number."""
        total = len(self.newer.findings)
        return len(self.persistent) / total if total else 0.0

    def summary(self) -> str:
        return (
            f"{self.older.plugin} {self.older.version} → {self.newer.version}: "
            f"+{len(self.introduced)} new, -{len(self.fixed)} fixed, "
            f"{len(self.persistent)} persistent "
            f"({self.persistence_share * 100:.0f}% of current)"
        )


def diff_scans(older: ScanRecord, newer: ScanRecord) -> FindingsDiff:
    """Match findings across versions and classify the change.

    Matching is a *multiset* operation: two findings sharing a key (two
    identical sinks on different lines of one file) are two distinct
    occurrences, so fixing one of them counts as one fixed and one
    persistent — never as "nothing changed".
    """
    older_counts = Counter(older.finding_keys)
    newer_counts = Counter(newer.finding_keys)
    diff = FindingsDiff(older=older, newer=newer)
    matched: Counter = Counter()
    for finding in newer.findings:
        key = _finding_key(finding)
        if matched[key] < older_counts[key]:
            matched[key] += 1
            diff.persistent.append(finding)
        else:
            diff.introduced.append(finding)
    consumed: Counter = Counter()
    for finding in older.findings:
        key = _finding_key(finding)
        consumed[key] += 1
        if consumed[key] > newer_counts[key]:
            diff.fixed.append(finding)
    return diff


class HistoryStore:
    """A JSON-file archive of scan records, grouped by plugin."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._scans: Dict[str, List[ScanRecord]] = {}
        if path and os.path.exists(path):
            self._load()

    # -- persistence -------------------------------------------------------

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as handle:  # type: ignore[arg-type]
            raw = json.load(handle)
        for plugin, scans in raw.items():
            records = [
                ScanRecord(
                    plugin=scan["plugin"],
                    version=scan["version"],
                    tool=scan["tool"],
                    scanned_at=scan["scanned_at"],
                    loc=scan["loc"],
                    files=scan["files"],
                    findings=tuple(scan["findings"]),
                    failed_files=tuple(scan.get("failed_files", ())),
                )
                for scan in scans
            ]
            # chronological, not insertion, order: a hand-edited archive
            # (or one written by an older version) must still diff the
            # right pair; ties keep file order (stable sort)
            records.sort(key=lambda record: record.scanned_at)
            self._scans[plugin] = records

    def save(self) -> None:
        if not self.path:
            raise ValueError("HistoryStore was created without a path")
        serializable = {
            plugin: [
                {
                    "plugin": scan.plugin,
                    "version": scan.version,
                    "tool": scan.tool,
                    "scanned_at": scan.scanned_at,
                    "loc": scan.loc,
                    "files": scan.files,
                    "findings": list(scan.findings),
                    "failed_files": list(scan.failed_files),
                }
                for scan in scans
            ]
            for plugin, scans in self._scans.items()
        }
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(serializable, handle, indent=1)

    # -- recording ------------------------------------------------------------

    def record(self, report: ToolReport, version: str, scanned_at: str) -> ScanRecord:
        scan = ScanRecord.from_report(report, version=version, scanned_at=scanned_at)
        scans = self._scans.setdefault(scan.plugin, [])
        scans.append(scan)
        # keep the archive ordered by scan date so backfilling an older
        # version after a newer one cannot make ``latest``/``diff_latest``
        # compare the wrong pair; the stable sort keeps same-day scans in
        # recording order
        scans.sort(key=lambda record: record.scanned_at)
        return scan

    # -- queries -----------------------------------------------------------------

    def plugins(self) -> List[str]:
        return sorted(self._scans)

    def latest(self, plugin: str) -> Optional[ScanRecord]:
        scans = self._scans.get(plugin)
        return scans[-1] if scans else None

    def diff_latest(self, plugin: str) -> Optional[FindingsDiff]:
        """Diff of the two most recent scans of ``plugin``."""
        scans = self._scans.get(plugin, [])
        if len(scans) < 2:
            return None
        return diff_scans(scans[-2], scans[-1])

    def evolution(self, plugin: str) -> List[Tuple[str, int]]:
        """(version, finding count) series — the paper's evolution study
        at single-plugin granularity."""
        return [(scan.version, scan.count()) for scan in self._scans.get(plugin, [])]


# ---------------------------------------------------------------------------
# Approval (the paper's approve-before-integration workflow)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApprovalDecision:
    """An auditable gate decision."""

    plugin: str
    version: str
    approved: bool
    reasons: Tuple[str, ...] = ()

    def __str__(self) -> str:
        verdict = "APPROVED" if self.approved else "REJECTED"
        detail = ("; ".join(self.reasons)) or "meets policy"
        return f"{self.plugin}@{self.version}: {verdict} — {detail}"


@dataclass
class ApprovalPolicy:
    """Thresholds a plugin must meet before integration.

    Defaults encode a strict gate: no injection flaws of any class, no
    files the analyzer could not process (an unanalyzable file is an
    unaudited file), and no regression against the previous scan.
    """

    max_sqli: int = 0
    max_xss: int = 0
    max_other: int = 0
    allow_failed_files: int = 0
    forbid_regressions: bool = True

    def evaluate(
        self, scan: ScanRecord, previous: Optional[ScanRecord] = None
    ) -> ApprovalDecision:
        reasons: List[str] = []
        sqli = scan.count(VulnKind.SQLI)
        xss = scan.count(VulnKind.XSS)
        other = scan.count() - sqli - xss
        if sqli > self.max_sqli:
            reasons.append(f"{sqli} SQLi finding(s) (max {self.max_sqli})")
        if xss > self.max_xss:
            reasons.append(f"{xss} XSS finding(s) (max {self.max_xss})")
        if other > self.max_other:
            reasons.append(f"{other} other finding(s) (max {self.max_other})")
        if len(scan.failed_files) > self.allow_failed_files:
            reasons.append(
                f"{len(scan.failed_files)} file(s) could not be analyzed"
            )
        if self.forbid_regressions and previous is not None:
            diff = diff_scans(previous, scan)
            if diff.introduced:
                reasons.append(
                    f"{len(diff.introduced)} new finding(s) vs "
                    f"version {previous.version}"
                )
        return ApprovalDecision(
            plugin=scan.plugin,
            version=scan.version,
            approved=not reasons,
            reasons=tuple(reasons),
        )
