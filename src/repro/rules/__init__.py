"""Declarative rule packs: the paper's configuration stage as data files.

phpSAFE's knowledge base (Section III.A) ships as Python constants in
:mod:`repro.config`; this package generalizes it into loadable,
versioned *rule packs* — JSON (or TOML on Python 3.11+) documents
declaring taint kinds, sources, sinks, sanitizers, reverts, and
per-argument propagation specs, following semgrep's taint-mode
propagation taxonomy (``SrcToSink`` = sources, ``ArgToSink`` = sinks,
``ArgToReturn`` = propagation).

Packs compile into the existing :class:`~repro.config.AnalyzerProfile`
machinery, so the taint engine executes them unchanged, and each
pack's identity (name, version, content hash)
lands in :meth:`AnalyzerProfile.fingerprint` — summary, IR, and disk
cache keys plus the service analyzer fingerprint all change when pack
content changes, making stale cached results across pack versions
impossible.
"""

from .compiler import compile_packs, resolve_profile
from .loader import (
    PACK_SCHEMA_VERSION,
    builtin_pack_dir,
    builtin_pack_names,
    load_pack,
    resolve_pack_path,
    validate_pack_data,
)
from .model import KindDecl, PackError, PackIssue, RulePack

__all__ = [
    "PACK_SCHEMA_VERSION",
    "KindDecl",
    "PackError",
    "PackIssue",
    "RulePack",
    "builtin_pack_dir",
    "builtin_pack_names",
    "compile_packs",
    "load_pack",
    "resolve_pack_path",
    "resolve_profile",
    "validate_pack_data",
]
