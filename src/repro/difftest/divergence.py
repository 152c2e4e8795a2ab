"""Typed divergence model of the differential harness.

The analyzer has five independent configuration axes that must not
change *what* is found, only *how* it is found:

* ``recover`` — strict pipeline vs fault-tolerant recovery (identical
  on cleanly-parseable input),
* ``cache`` — summary/parse disk cache cold vs warm,
* ``jobs`` — serial in-process scan vs parallel worker processes,
* ``summaries`` — function-summary memoization on vs off,
* ``incremental`` — diff-aware rescan (one file mutated, unchanged
  analysis units reused from the prior scan's manifest) vs a cold
  full scan of the same mutated plugin.

A finding present on one side of an axis but not the other is a
:class:`Divergence`: a correctness bug in one of the two execution
paths, never an acceptable difference.  Divergences are first-class
records (not log lines) so the CLI can render them, CI can fail on
them, and they can be folded into the incident taxonomy
(:attr:`repro.incidents.IncidentStage.DIFF`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from ..core.results import FindingSignature
from ..incidents import Incident, IncidentSeverity, IncidentStage

#: the config axes the oracle exercises
AXES = ("recover", "cache", "jobs", "summaries", "incremental")


@dataclass(frozen=True)
class Divergence:
    """One finding reported by only one side of a config-axis pair."""

    #: which axis diverged (one of :data:`AXES`)
    axis: str
    #: labels of the two configurations that were compared
    left: str
    right: str
    #: which side reported the finding: ``"left-only"`` / ``"right-only"``
    side: str
    plugin: str
    kind: str
    file: str
    line: int
    sink: str

    def describe(self) -> str:
        present, absent = (
            (self.left, self.right) if self.side == "left-only" else (self.right, self.left)
        )
        return (
            f"[{self.axis}] {self.kind.upper()} at {self.plugin}/{self.file}:{self.line}"
            f" via {self.sink}: reported by {present!r} but not {absent!r}"
        )

    def to_incident(self) -> Incident:
        """Fold into the robustness-incident taxonomy: a divergence is
        an ERROR — both runs completed, but one produced a wrong set."""
        return Incident(
            stage=IncidentStage.DIFF,
            severity=IncidentSeverity.ERROR,
            file=self.file,
            reason=self.describe(),
            recovered=False,
            unit=self.plugin,
            line=self.line,
        )


def diff_signatures(
    axis: str,
    left_label: str,
    right_label: str,
    left: Set[FindingSignature],
    right: Set[FindingSignature],
) -> List[Divergence]:
    """Pairwise diff of two configurations' finding-signature sets."""
    divergences: List[Divergence] = []
    for side, only in (("left-only", left - right), ("right-only", right - left)):
        for plugin, kind, file, line, sink in sorted(only):
            divergences.append(
                Divergence(
                    axis=axis,
                    left=left_label,
                    right=right_label,
                    side=side,
                    plugin=plugin,
                    kind=kind,
                    file=file,
                    line=line,
                    sink=sink,
                )
            )
    return divergences


@dataclass
class AxisOutcome:
    """Result of one axis comparison over one corpus version."""

    axis: str
    left: str
    right: str
    left_count: int
    right_count: int
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass
class DifftestReport:
    """Config-matrix oracle verdict for one corpus version."""

    version: str
    plugins: int
    axes: List[AxisOutcome] = field(default_factory=list)

    @property
    def divergences(self) -> List[Divergence]:
        return [d for outcome in self.axes for d in outcome.divergences]

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.axes)

    def incidents(self) -> List[Incident]:
        return [d.to_incident() for d in self.divergences]
