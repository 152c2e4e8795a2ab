"""Corpus specification: seeded vulnerabilities and ground truth.

The paper's dataset is 35 real WordPress plugins in 2012 and 2014
versions, with every tool report manually verified by a security expert.
We cannot ship those plugins, so the corpus generator seeds synthetic
plugins from *specs*: each :class:`SeededSpec` describes one flow — a
real vulnerability or a deliberate false-alarm bait — chosen from a
template whose detectability by each tool is known by construction.
The generator records where each spec landed (file and sink line) in a
:class:`GroundTruth` manifest, which replaces the expert: a reported
finding matching a vulnerable entry is a TP, anything else an FP.

Regions name the Venn-diagram areas of Fig. 2 (detector sets):

== ======================== ==========================================
a  phpSAFE ∩ RIPS ∩ Pixy    procedural, main flow, 2007-era source
b  phpSAFE ∩ RIPS           procedural but in an uncalled function
d  RIPS ∩ Pixy              main flow of a file phpSAFE fails to parse
e  phpSAFE only             OOP / WordPress-API mediated flows
f  RIPS only                uncalled functions in phpSAFE-failed files
g  Pixy only                register_globals-style uninitialized reads
== ======================== ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..config.vulnerability import InputVector, VulnKind

PHPSAFE = "phpSAFE"
RIPS = "RIPS"
PIXY = "Pixy"

#: Detector sets per region (true-positive regions).
REGION_DETECTORS: Dict[str, FrozenSet[str]] = {
    "a": frozenset({PHPSAFE, RIPS, PIXY}),
    "b": frozenset({PHPSAFE, RIPS}),
    "d": frozenset({RIPS, PIXY}),
    "e_oop": frozenset({PHPSAFE}),
    "e_wp": frozenset({PHPSAFE}),
    "e_sqli": frozenset({PHPSAFE}),
    "f": frozenset({RIPS}),
    "g": frozenset({PIXY}),
    # false-positive bait regions
    "fp_shared": frozenset({PHPSAFE, RIPS}),
    "fp_ps": frozenset({PHPSAFE}),
    "fp_rips": frozenset({RIPS}),
    "fp_pixy": frozenset({PIXY}),
    "fp_sqli_ps": frozenset({PHPSAFE}),
    "fp_sqli_rips": frozenset({RIPS}),
}

#: Regions whose specs are real vulnerabilities (ground truth positive).
VULNERABLE_REGIONS = frozenset({"a", "b", "d", "e_oop", "e_wp", "e_sqli", "f", "g"})

#: Regions that require OOP resolution (paper's Section III.E claim).
OOP_REGIONS = frozenset({"e_oop", "e_sqli"})


@dataclass(frozen=True)
class SeededSpec:
    """One flow to seed: a vulnerability or a false-alarm bait."""

    spec_id: str
    kind: VulnKind
    vector: InputVector
    region: str
    carried: bool = False  # present identically in both plugin versions

    @property
    def is_vulnerable(self) -> bool:
        return self.region in VULNERABLE_REGIONS

    @property
    def via_oop(self) -> bool:
        return self.region in OOP_REGIONS

    @property
    def needs_failed_file(self) -> bool:
        """Must live in a file phpSAFE cannot analyze (regions d and f)."""
        return self.region in ("d", "f")


@dataclass(frozen=True)
class GroundTruthEntry:
    """Where a spec landed in the generated corpus."""

    spec: SeededSpec
    plugin: str
    version: str
    file: str
    line: int  # line of the sensitive sink

    @property
    def location(self) -> Tuple[str, str, int]:
        """Matching key: (kind, file, sink line) within the plugin."""
        return (self.spec.kind.value, self.file, self.line)


@dataclass
class GroundTruth:
    """The expert's answer sheet for one generated corpus version."""

    version: str
    entries: List[GroundTruthEntry] = field(default_factory=list)
    _by_location: Dict[Tuple[str, Tuple[str, str, int]], GroundTruthEntry] = field(
        default_factory=dict, repr=False
    )

    def add(self, entry: GroundTruthEntry) -> None:
        self.entries.append(entry)
        self._by_location[(entry.plugin, entry.location)] = entry

    def lookup(
        self, plugin: str, kind: str, file: str, line: int
    ) -> Optional[GroundTruthEntry]:
        return self._by_location.get((plugin, (kind, file, line)))

    def vulnerabilities(self) -> Iterator[GroundTruthEntry]:
        """All entries that are real vulnerabilities."""
        return (entry for entry in self.entries if entry.spec.is_vulnerable)

    def baits(self) -> Iterator[GroundTruthEntry]:
        """All entries seeded as false-alarm bait."""
        return (entry for entry in self.entries if not entry.spec.is_vulnerable)

    def vulnerable_count(self) -> int:
        return sum(1 for _ in self.vulnerabilities())

    def carried_ids(self) -> FrozenSet[str]:
        return frozenset(
            entry.spec.spec_id
            for entry in self.entries
            if entry.spec.carried and entry.spec.is_vulnerable
        )
