"""Finding ↔ ground-truth matching (the expert-verification stand-in).

The paper's step 5: every tool report was "manually verified by a
security expert looking for misclassification issues".  Here the
generator's manifest is the expert: a finding matching a seeded
vulnerable flow is a true positive, anything else (bait or entirely
unmatched) is a false positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..config.vulnerability import VulnKind
from ..core.results import Finding, ToolReport
from ..corpus.spec import GroundTruth, GroundTruthEntry


@dataclass
class ClassifiedFinding:
    """One reported finding with its expert verdict."""

    plugin: str
    finding: Finding
    entry: Optional[GroundTruthEntry]  # matched manifest entry, if any

    @property
    def is_tp(self) -> bool:
        return self.entry is not None and self.entry.spec.is_vulnerable


@dataclass
class MatchResult:
    """All classified findings of one tool over one corpus version."""

    tool: str
    version: str
    classified: List[ClassifiedFinding] = field(default_factory=list)
    #: spec ids of the vulnerable flows this tool detected
    detected_ids: Set[str] = field(default_factory=set)

    def counts(self, kind: Optional[VulnKind] = None) -> Tuple[int, int]:
        """(TP, FP) over all findings, optionally restricted to a kind."""
        tp = fp = 0
        for item in self.classified:
            if kind is not None and item.finding.kind is not kind:
                continue
            if item.is_tp:
                tp += 1
            else:
                fp += 1
        return tp, fp

    def detected_ids_of(self, kind: VulnKind, truth: GroundTruth) -> Set[str]:
        """Detected vulnerable spec ids restricted to one kind."""
        kinds: Dict[str, VulnKind] = {
            entry.spec.spec_id: entry.spec.kind for entry in truth.vulnerabilities()
        }
        return {
            spec_id for spec_id in self.detected_ids if kinds.get(spec_id) is kind
        }


def accumulate_report(
    result: MatchResult, report: ToolReport, truth: GroundTruth, plugin: str
) -> None:
    """Fold one plugin's report into a corpus-wide match result."""
    for finding in report.findings:
        entry = truth.lookup(plugin, finding.kind.value, finding.file, finding.line)
        classified = ClassifiedFinding(plugin=plugin, finding=finding, entry=entry)
        result.classified.append(classified)
        if classified.is_tp:
            assert entry is not None
            result.detected_ids.add(entry.spec.spec_id)
