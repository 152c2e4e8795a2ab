"""Knowledge-base package: the paper's configuration stage as data.

Exports the vulnerability taxonomy, the entry dataclasses, and
:class:`AnalyzerProfile`, the compiled form of a knowledge base.  The
entries themselves ship as rule packs (:mod:`repro.rules`);
``repro.rules.resolve_profile`` compiles a named profile from them.
"""

from .entries import (
    FilterSpec,
    KnownInstance,
    PropagationSpec,
    RevertSpec,
    SinkSpec,
    SourceSpec,
)
from .profiles import AnalyzerProfile
from .vulnerability import ALL_KINDS, TABLE2_ROWS, InputVector, VulnKind

__all__ = [
    "ALL_KINDS",
    "AnalyzerProfile",
    "FilterSpec",
    "InputVector",
    "KnownInstance",
    "PropagationSpec",
    "RevertSpec",
    "SinkSpec",
    "SourceSpec",
    "TABLE2_ROWS",
    "VulnKind",
]
