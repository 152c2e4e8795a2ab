"""Compile rule packs into an :class:`AnalyzerProfile`.

Every knowledge base is data: a named profile is an ordered list of
packs in :data:`PROFILES` (``wordpress`` is the ``generic`` pack then
the ``wordpress`` pack), and ``--rule-pack`` refs are appended to that
list.  The load→compile→fingerprint flow:

1. **load** (:mod:`repro.rules.loader`): read the pack files, parse and
   validate them, hash each file's raw bytes into a 16-hex content hash.
2. **compile** (this module), in one pass over every pack: intern the
   packs' kinds into the open :class:`VulnKind` registry, expand each
   ``"*"`` to the resulting kind universe (so ``$_GET`` carries SSRF
   taint once an SSRF pack is loaded), and merge collisions (a pack
   adding a ``traversal`` kind to ``basename`` unions with the generic
   LFI filter instead of shadowing it).
3. **fingerprint**: the compiled profile records each pack's
   ``(name, version, content_hash)``; ``AnalyzerProfile.fingerprint()``
   folds those in, so summary/IR/disk cache keys and the service
   analyzer fingerprint all shift whenever pack content shifts.

``resolve_profile`` is the single entry point: ``PhpSafe``, the
baselines, the batch scheduler and the service fingerprint all call it,
so an analyzer and the cache keys protecting its results can never
disagree about what was loaded.
"""

from __future__ import annotations

import functools
import os
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from ..config.entries import (
    FilterSpec,
    KnownInstance,
    PropagationSpec,
    RevertSpec,
    SinkSpec,
    SourceSpec,
)
from ..config.profiles import AnalyzerProfile
from ..config.vulnerability import ALL_KINDS, InputVector, VulnKind
from .loader import builtin_pack_dir, parse_pack, read_pack
from .model import PackError, PackIssue, RulePack

#: Named profiles selectable via ``--profile``: the packs each compiles,
#: in order, from ``packs/profiles/``.
PROFILES: Dict[str, Tuple[str, ...]] = {
    "generic": ("generic",),
    "wordpress": ("generic", "wordpress"),
    "drupal": ("generic", "drupal"),
    "joomla": ("generic", "joomla"),
    "pixy-2007": ("pixy-2007",),
}


def _profile_pack_paths(profile_name: str) -> Tuple[str, ...]:
    try:
        packs = PROFILES[profile_name]
    except KeyError:
        raise PackError(
            [
                PackIssue(
                    profile_name,
                    "<profile>",
                    "unknown profile; expected one of " + ", ".join(sorted(PROFILES)),
                )
            ]
        ) from None
    directory = os.path.join(builtin_pack_dir(), "profiles")
    return tuple(os.path.join(directory, name + ".json") for name in packs)


def compile_packs(name: str, packs: Sequence[RulePack]) -> AnalyzerProfile:
    """Compile ``packs``, in order, into one profile called ``name``."""
    extra_kinds = set()
    for pack in packs:
        for decl in pack.kinds:
            kind = VulnKind.register(decl["value"], decl["title"], decl["description"])
            if kind not in ALL_KINDS:
                extra_kinds.add(kind)
    # ``ALL_KINDS`` itself when no pack adds a kind: TaintState.from_label
    # has an identity fast path on it
    universe = frozenset(ALL_KINDS | extra_kinds) if extra_kinds else ALL_KINDS

    def kinds_of(entry: dict) -> frozenset:
        if "*" in entry["kinds"]:
            return universe
        kinds = frozenset(VulnKind(item) for item in entry["kinds"])
        return universe if kinds == universe else kinds

    def union(old: frozenset, new: frozenset) -> frozenset:
        kinds = old | new
        return universe if kinds == universe else kinds

    def key(entry: dict) -> Tuple[str, str]:
        return ((entry["class"] or "").lower(), entry["name"].lower())

    sources: Dict[Tuple[str, str, bool], SourceSpec] = {}
    filters: Dict[Tuple[str, str], FilterSpec] = {}
    reverts: Dict[str, RevertSpec] = {}
    propagation: Dict[Tuple[str, str], PropagationSpec] = {}
    sinks: Dict[Tuple[Tuple[str, str], VulnKind], SinkSpec] = {}
    instances: List[KnownInstance] = []
    # collisions union kinds rather than shadowing, so a pack can
    # *extend* an earlier pack's filter or source
    for pack in packs:
        for entry in pack.sources:
            skey = key(entry) + (entry["superglobal"],)
            kinds = kinds_of(entry)
            if skey in sources:
                old = sources[skey]
                sources[skey] = replace(old, kinds=union(old.kinds, kinds))
                continue
            sources[skey] = SourceSpec(
                name=entry["name"],
                vector=InputVector(entry["vector"]),
                kinds=kinds,
                class_name=entry["class"],
                is_superglobal=entry["superglobal"],
                description=entry["description"],
            )
        for entry in pack.sinks:
            sink_key = (key(entry), VulnKind(entry["kind"]))
            if sink_key in sinks:
                continue  # an earlier pack already sinks this name for this kind
            sinks[sink_key] = SinkSpec(
                name=entry["name"],
                kind=sink_key[1],
                class_name=entry["class"],
                tainted_args=entry["args"],
                description=entry["description"],
            )
        for entry in pack.filters:
            fkey, kinds = key(entry), kinds_of(entry)
            if fkey in filters:
                old = filters[fkey]
                filters[fkey] = replace(old, kinds=union(old.kinds, kinds))
                continue
            filters[fkey] = FilterSpec(
                name=entry["name"],
                kinds=kinds,
                class_name=entry["class"],
                description=entry["description"],
            )
        for entry in pack.reverts:
            rkey, kinds = entry["name"].lower(), kinds_of(entry)
            if rkey in reverts:
                old = reverts[rkey]
                reverts[rkey] = replace(old, kinds=union(old.kinds, kinds))
                continue
            reverts[rkey] = RevertSpec(
                name=entry["name"], kinds=kinds, description=entry["description"]
            )
        for entry in pack.propagation:
            pkey, kinds = key(entry), kinds_of(entry)
            if pkey in propagation:
                old = propagation[pkey]
                propagation[pkey] = replace(old, kinds=union(old.kinds, kinds))
                continue
            propagation[pkey] = PropagationSpec(
                name=entry["name"],
                kinds=kinds,
                arg_indices=entry["args"],
                class_name=entry["class"],
                description=entry["description"],
            )
        for entry in pack.instances:
            instances.append(
                KnownInstance(entry["name"], entry["class"], entry["description"])
            )

    return AnalyzerProfile(
        name=name,
        sources=tuple(sources.values()),
        filters=tuple(filters.values()),
        reverts=tuple(reverts.values()),
        sinks=tuple(sinks.values()),
        propagation=tuple(propagation.values()),
        instances=tuple(instances),
        register_globals=any(pack.register_globals for pack in packs),
        packs=tuple(pack.pack_id for pack in packs),
    )


@functools.lru_cache(maxsize=32)
def _compiled(
    profile_name: str, files: Tuple[Tuple[str, bytes], ...], extra: int
) -> AnalyzerProfile:
    """Compile the pack ``files`` (path, raw bytes) of one profile; the
    last ``extra`` of them are ``--rule-pack`` refs.  Memoized on the raw
    bytes, so an edited pack always compiles anew."""
    packs = [parse_pack(path, raw) for path, raw in files]
    name = profile_name
    if extra:
        name += "+" + ",".join(pack.name for pack in packs[-extra:])
    return compile_packs(name, packs)


def resolve_profile(
    profile_name: str, rule_packs: Sequence[str] = ()
) -> AnalyzerProfile:
    """The profile ``profile_name`` (a key of :data:`PROFILES`) compiles
    to with ``rule_packs`` (shipped pack names or file paths) on top.

    Reads every pack file and returns the compiled profile — the same
    object for as long as the bytes of every pack stay the same, so
    building an analyzer per plugin does not recompile the knowledge
    base.  Raises :class:`PackError` (typed issues, no tracebacks) for
    unknown profiles or invalid packs.
    """
    pack_refs = tuple(rule_packs)
    files = tuple(
        read_pack(ref) for ref in _profile_pack_paths(profile_name) + pack_refs
    )
    return _compiled(profile_name, files, len(pack_refs))
