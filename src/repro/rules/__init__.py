"""Declarative rule packs: the paper's configuration stage as data files.

phpSAFE's knowledge base (Section III.A) is three configuration files
of input, filter and output functions.  Here every knowledge base is a
loadable, versioned *rule pack* — a JSON (or TOML on Python 3.11+)
document declaring taint kinds, known instances, sources, sinks,
sanitizers, reverts, and per-argument propagation specs, following
semgrep's taint-mode propagation taxonomy (``SrcToSink`` = sources,
``ArgToSink`` = sinks, ``ArgToReturn`` = propagation).  The named
profiles (generic PHP, WordPress, Drupal, Joomla, Pixy's 2007 subset)
ship as packs under ``packs/profiles/``; the vulnerability-class packs
``--rule-pack`` loads ship under ``packs/``.

Packs compile into :class:`~repro.config.AnalyzerProfile`, so the taint
engine executes them unchanged, and each pack's identity (name,
version, content hash) lands in :meth:`AnalyzerProfile.fingerprint` —
summary, IR, and disk cache keys plus the service analyzer fingerprint
all change when pack content changes, making stale cached results
across pack versions impossible.
"""

from .compiler import PROFILES, compile_packs, resolve_profile
from .loader import (
    PACK_SCHEMA_VERSION,
    builtin_pack_dir,
    builtin_pack_names,
    load_pack,
    resolve_pack_path,
    validate_pack_data,
)
from .model import PackError, PackIssue, RulePack

__all__ = [
    "PACK_SCHEMA_VERSION",
    "PROFILES",
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
