"""Typed shapes for rule packs: the parsed document and its errors.

A :class:`RulePack` is the validated in-memory form of a pack file.  Its
entries are the document's own fields, checked against the schema, with
every optional field the document leaves out filled in by the loader
(lists become tuples).  A ``"*"`` kind list is left as it is: it means "every kind the compiled
profile knows", which only the compiler can expand once every pack of
the profile is in hand (:mod:`repro.rules.compiler` builds the
:mod:`repro.config` specs straight from these entries).  A pack can
therefore be loaded, listed and validated without touching the
analyzer at all.

Malformed packs never raise bare exceptions out of the loader: every
problem becomes a :class:`PackIssue`, and :class:`PackError` carries the
full list plus a conversion to the repo-wide typed
:class:`~repro.incidents.Incident` taxonomy (stage ``rules``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..incidents import Incident, IncidentSeverity, IncidentStage


@dataclass(frozen=True)
class PackIssue:
    """One validation problem in a pack document."""

    path: str  #: pack file path (or "<data>" for in-memory documents)
    where: str  #: JSON-pointer-ish location, e.g. ``sinks[2].kind``
    message: str

    def describe(self) -> str:
        return f"{self.path}: {self.where}: {self.message}"

    def to_incident(self) -> Incident:
        return Incident(
            stage=IncidentStage.RULES,
            severity=IncidentSeverity.ERROR,
            file=self.path,
            reason=f"{self.where}: {self.message}",
            recovered=False,
        )


class PackError(Exception):
    """A pack failed to load or validate.

    Carries every issue found (not just the first), so ``rules
    validate`` can report them all in one pass.
    """

    def __init__(self, issues: List[PackIssue]) -> None:
        self.issues = list(issues)
        super().__init__(
            "; ".join(issue.describe() for issue in self.issues) or "invalid rule pack"
        )

    def to_incidents(self) -> List[Incident]:
        return [issue.to_incident() for issue in self.issues]


@dataclass(frozen=True)
class RulePack:
    """A validated rule pack document."""

    name: str
    version: str
    path: str
    #: 16-hex-char sha256 of the raw file bytes: *any* content edit —
    #: even one that parses identically — yields a new identity, which
    #: is exactly the conservative invalidation cache keys want.
    content_hash: str
    title: str = ""
    description: str = ""
    #: Pixy-era PHP: uninitialized globals are attacker-settable.
    register_globals: bool = False
    #: Validated entries of each section, in document order, keyed as
    #: in the pack schema (``name``, ``class``, ``kinds``, ``args``...),
    #: every optional field present (the loader fills in its default).
    kinds: Tuple[Dict[str, Any], ...] = ()
    sources: Tuple[Dict[str, Any], ...] = ()
    sinks: Tuple[Dict[str, Any], ...] = ()
    filters: Tuple[Dict[str, Any], ...] = ()
    reverts: Tuple[Dict[str, Any], ...] = ()
    propagation: Tuple[Dict[str, Any], ...] = ()
    instances: Tuple[Dict[str, Any], ...] = ()

    @property
    def pack_id(self) -> Tuple[str, str, str]:
        """Identity tuple recorded on compiled profiles — the piece of a
        pack that reaches ``AnalyzerProfile.fingerprint()``."""
        return (self.name, self.version, self.content_hash)

    def entry_counts(self) -> dict:
        return {section: len(getattr(self, section)) for section in SECTIONS}


#: The entry sections of a pack document, in display order.
SECTIONS = (
    "kinds", "instances", "sources", "sinks", "filters", "reverts", "propagation"
)
