"""Analyzer profiles: assembled knowledge bases (paper Section III.A).

A profile is the loaded form of phpSAFE's configuration stage — the
union of sources, filters, reverts and sinks a given tool consults while
analyzing code.  Every profile is compiled from rule packs
(:func:`repro.rules.resolve_profile`): ``wordpress`` is phpSAFE's
out-of-the-box profile, ``generic`` is what a CMS-unaware tool like RIPS
effectively uses, ``pixy-2007`` is the dated subset Pixy ships with, and
other CMSs (Drupal, Joomla — the paper's future work) are one more pack.
Each pack's identity (name, version, content hash) is recorded on the
profile and participates in :meth:`AnalyzerProfile.fingerprint`, so
every cache tier keyed on the fingerprint invalidates when pack content
changes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .entries import (
    FilterSpec,
    KnownInstance,
    PropagationSpec,
    RevertSpec,
    SinkSpec,
    SourceSpec,
)
from .vulnerability import ALL_KINDS

#: Pack identity: (pack name, version, content hash).
PackId = Tuple[str, str, str]

_NO_SINKS: Tuple[SinkSpec, ...] = ()


def _index():
    """A lookup table derived from the spec tuples in ``__post_init__``."""
    return field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class AnalyzerProfile:
    """An assembled knowledge base consulted during analysis.

    Frozen: ``resolve_profile`` hands one compiled profile to every
    analyzer built from the same options.  Lookup dictionaries are
    precomputed at construction: plain functions and superglobals by
    name, methods by ``(class name, method name)``.
    A name may carry *several* sinks of different kinds (rule packs sink
    ``file_get_contents`` for both SSRF and path traversal), so sink
    lookups return tuples.
    """

    name: str
    sources: Tuple[SourceSpec, ...] = ()
    filters: Tuple[FilterSpec, ...] = ()
    reverts: Tuple[RevertSpec, ...] = ()
    sinks: Tuple[SinkSpec, ...] = ()
    propagation: Tuple[PropagationSpec, ...] = ()
    instances: Tuple[KnownInstance, ...] = ()
    #: Pixy-era PHP: uninitialized globals are attacker-settable.
    register_globals: bool = False
    #: Identities of the rule packs compiled into this profile; flows
    #: into :meth:`fingerprint` so pack edits invalidate every cache.
    packs: Tuple[PackId, ...] = ()

    _function_sources: Dict[str, SourceSpec] = _index()
    _superglobal_sources: Dict[str, SourceSpec] = _index()
    _method_sources: Dict[Tuple[str, str], SourceSpec] = _index()
    _function_filters: Dict[str, FilterSpec] = _index()
    _method_filters: Dict[Tuple[str, str], FilterSpec] = _index()
    _reverts: Dict[str, RevertSpec] = _index()
    _function_sinks: Dict[str, Tuple[SinkSpec, ...]] = _index()
    _method_sinks: Dict[Tuple[str, str], Tuple[SinkSpec, ...]] = _index()
    _function_propagation: Dict[str, PropagationSpec] = _index()
    _method_propagation: Dict[Tuple[str, str], PropagationSpec] = _index()
    _instances: Dict[str, KnownInstance] = _index()
    _fingerprint: str = field(default="", init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for spec in self.sources:
            if spec.class_name:
                self._method_sources[(spec.class_name.lower(), spec.name.lower())] = spec
            elif spec.is_superglobal:
                self._superglobal_sources[spec.name] = spec
            else:
                self._function_sources[spec.name.lower()] = spec
        for spec in self.filters:
            if spec.class_name:
                self._method_filters[(spec.class_name.lower(), spec.name.lower())] = spec
            else:
                self._function_filters[spec.name.lower()] = spec
        for spec in self.reverts:
            self._reverts[spec.name.lower()] = spec
        for spec in self.sinks:
            if spec.class_name:
                key = (spec.class_name.lower(), spec.name.lower())
                self._method_sinks[key] = self._method_sinks.get(key, ()) + (spec,)
            else:
                fkey = spec.name.lower()
                self._function_sinks[fkey] = self._function_sinks.get(fkey, ()) + (spec,)
        for spec in self.propagation:
            if spec.class_name:
                self._method_propagation[
                    (spec.class_name.lower(), spec.name.lower())
                ] = spec
            else:
                self._function_propagation[spec.name.lower()] = spec
        for instance in self.instances:
            self._instances[instance.var_name] = instance
        # every cached analysis keys on the digest; the profile is
        # frozen, so it is computed once here rather than per analysis
        object.__setattr__(self, "_fingerprint", self._digest())

    # -- lookups ------------------------------------------------------------

    def superglobal_source(self, name: str) -> Optional[SourceSpec]:
        """Source spec for superglobal ``name`` (without ``$``)."""
        return self._superglobal_sources.get(name)

    def function_source(self, name: str) -> Optional[SourceSpec]:
        return self._function_sources.get(name.lower())

    def method_source(self, class_name: str, method: str) -> Optional[SourceSpec]:
        return self._method_sources.get((class_name.lower(), method.lower()))

    def function_filter(self, name: str) -> Optional[FilterSpec]:
        return self._function_filters.get(name.lower())

    def method_filter(self, class_name: str, method: str) -> Optional[FilterSpec]:
        return self._method_filters.get((class_name.lower(), method.lower()))

    def revert(self, name: str) -> Optional[RevertSpec]:
        return self._reverts.get(name.lower())

    def function_sinks(self, name: str) -> Tuple[SinkSpec, ...]:
        """Every sink registered for ``name`` (possibly several kinds)."""
        return self._function_sinks.get(name.lower(), _NO_SINKS)

    def method_sinks(self, class_name: str, method: str) -> Tuple[SinkSpec, ...]:
        return self._method_sinks.get((class_name.lower(), method.lower()), _NO_SINKS)

    def function_propagation(self, name: str) -> Optional[PropagationSpec]:
        return self._function_propagation.get(name.lower())

    def method_propagation(
        self, class_name: str, method: str
    ) -> Optional[PropagationSpec]:
        return self._method_propagation.get((class_name.lower(), method.lower()))

    def known_instance(self, var_name: str) -> Optional[KnownInstance]:
        return self._instances.get(var_name)

    def kind_universe(self) -> frozenset:
        """Every kind this profile can reason about: the builtins plus
        any pack-introduced kind mentioned by a spec.

        Returns the ``ALL_KINDS`` object itself when no extra kinds are
        present: ``TaintState.from_label`` has an identity fast path on
        it, and pack-free profiles must keep hitting it.
        """
        kinds = set(ALL_KINDS)
        for src in self.sources:
            kinds.update(src.kinds)
        for flt in self.filters:
            kinds.update(flt.kinds)
        for rev in self.reverts:
            kinds.update(rev.kinds)
        for snk in self.sinks:
            kinds.add(snk.kind)
        for prp in self.propagation:
            kinds.update(prp.kinds)
        if len(kinds) == len(ALL_KINDS):
            return ALL_KINDS
        return frozenset(kinds)

    def fingerprint(self) -> str:
        """Stable digest of the knowledge base's semantics.

        Keys the persistent summary cache: two profiles that would drive
        the engine identically share a fingerprint, and any KB edit —
        adding a sink, changing a filter's kinds, bumping a rule pack —
        produces a new one.  Frozensets are sorted before hashing so the
        digest is stable across processes (``PYTHONHASHSEED``).
        """
        return self._fingerprint

    def _digest(self) -> str:
        parts = [f"register_globals={int(self.register_globals)}"]
        for spec in self.sources:
            parts.append(
                "src|%s|%s|%s|%d"
                % (
                    spec.qualified,
                    spec.vector.value,
                    ",".join(sorted(kind.value for kind in spec.kinds)),
                    spec.is_superglobal,
                )
            )
        for spec in self.filters:
            parts.append(
                "flt|%s|%s"
                % (spec.qualified, ",".join(sorted(kind.value for kind in spec.kinds)))
            )
        for spec in self.reverts:
            parts.append(
                "rev|%s|%s"
                % (spec.name, ",".join(sorted(kind.value for kind in spec.kinds)))
            )
        for spec in self.sinks:
            args = "*" if spec.tainted_args is None else ",".join(
                str(index) for index in spec.tainted_args
            )
            parts.append("snk|%s|%s|%s" % (spec.qualified, spec.kind.value, args))
        for spec in self.propagation:
            args = "*" if spec.arg_indices is None else ",".join(
                str(index) for index in spec.arg_indices
            )
            parts.append(
                "prp|%s|%s|%s"
                % (
                    spec.qualified,
                    ",".join(sorted(kind.value for kind in spec.kinds)),
                    args,
                )
            )
        for instance in self.instances:
            parts.append("ins|%s|%s" % (instance.var_name, instance.class_name))
        for pack_name, version, content_hash in self.packs:
            parts.append("pak|%s|%s|%s" % (pack_name, version, content_hash))
        parts.sort()
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]
