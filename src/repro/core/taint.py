"""Taint labels and taint states.

The analysis stage tracks, for every variable and intermediate value, a
*taint state*: per vulnerability kind, the set of labels explaining where
attacker-controlled data could have come from.  Labels are either

- :class:`ConcreteSource` — data entered through a knowledge-base source
  (``$_GET``, ``$wpdb->get_results`` ...), carrying the input vector and
  origin location that findings report, or
- :class:`ParamRef` — a placeholder for "the taint of the N-th argument"
  used while summarizing a user-defined function, substituted with the
  caller's actual taint at each call site, or
- :class:`PropRef` — a placeholder for the taint of an object property,
  resolved against the class property map (object-insensitive, matching
  phpSAFE's textual full-name handling of properties).

Filtering (sanitization) moves labels from the *active* set to a
*suppressed* set instead of deleting them, so revert functions
(``stripslashes`` & co., paper Section III.A) can restore them.

Taint states are **hash-consed immutable values**: construction
normalizes the label sets to frozensets and interns the result in a
weak pool, so equal states are the *same object*.  Propagation then
never copies label sets — assignment shares the state, ``copy()``
returns ``self``, joins short-circuit on identity, and the engine's
fixed-point checks are pointer comparisons.  The per-kind mappings are
exposed read-only (``MappingProxyType`` over frozensets), which keeps
the historical ``state.active.get(kind)`` read API intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set, Tuple, Union
from weakref import WeakValueDictionary

from ..config.vulnerability import ALL_KINDS, InputVector, VulnKind
from ..perf import counters


@dataclass(frozen=True)
class ConcreteSource:
    """Taint that entered through a configured source.

    ``via_oop`` marks sources that require OOP resolution to see — e.g.
    a ``$wpdb->get_results`` method call (paper Section III.E).
    """

    vector: InputVector
    name: str
    file: str
    line: int
    via_oop: bool = False

    def describe(self) -> str:
        return f"{self.name} [{self.vector.value}] at {self.file}:{self.line}"


@dataclass(frozen=True)
class ParamRef:
    """Placeholder: taint of parameter ``index`` of ``function_key``."""

    function_key: str
    index: int

    def describe(self) -> str:
        return f"param #{self.index} of {self.function_key}()"


@dataclass(frozen=True)
class PropRef:
    """Placeholder: taint of property ``prop`` of class ``class_name``."""

    class_name: str
    prop: str

    def describe(self) -> str:
        return f"property {self.class_name}::${self.prop}"


Label = Union[ConcreteSource, ParamRef, PropRef]


#: kind -> canonical position.  The canonical order of the per-kind
#: item tuples is ``kind.value`` (string) order; comparing precomputed
#: ints is measurably cheaper than re-reading ``.value`` through the
#: enum descriptor on every ``_freeze``.  The order must never change:
#: pickled states re-intern their stored item tuples verbatim
#: (``_rebuild``), so a reordering would let equal-content states land
#: under distinct pool keys and break identity equality.
_KIND_ORDER: Dict[VulnKind, int] = {
    kind: position
    for position, kind in enumerate(sorted(ALL_KINDS, key=lambda kind: kind.value))
}


def _freeze(mapping: Optional[Mapping[VulnKind, Iterable[Label]]]) -> Tuple:
    """Canonical form of a per-kind label mapping: sorted, frozen, non-empty."""
    if not mapping:
        return ()
    items = [
        (kind, labels if type(labels) is frozenset else frozenset(labels))
        for kind, labels in mapping.items()
        if labels
    ]
    if len(items) > 1:
        items.sort(key=_kind_value)
    return tuple(items)


def _kind_value(item: Tuple):
    order = _KIND_ORDER.get(item[0])
    # kinds outside the built-in registry (extension kinds) sort by
    # value string after the known block, preserving the historical
    # all-string ordering among themselves
    return (order, "") if order is not None else (len(_KIND_ORDER), item[0].value)


def _rebuild(active_items: Tuple, suppressed_items: Tuple) -> "TaintState":
    """Unpickle hook: re-intern the state in this process's pool."""
    return TaintState._intern(active_items, suppressed_items)


class TaintState:
    """Per-kind active and suppressed label sets with join semantics."""

    __slots__ = (
        "active",
        "suppressed",
        "_key",
        "_concrete",
        "_join_memo",
        "__weakref__",
    )

    #: hash-cons pool; weak so dead states do not accumulate across files
    _pool: "WeakValueDictionary[Tuple, TaintState]" = WeakValueDictionary()

    def __new__(
        cls,
        active: Optional[Mapping[VulnKind, Iterable[Label]]] = None,
        suppressed: Optional[Mapping[VulnKind, Iterable[Label]]] = None,
    ) -> "TaintState":
        return cls._intern(_freeze(active), _freeze(suppressed))

    @classmethod
    def _intern(cls, active_items: Tuple, suppressed_items: Tuple) -> "TaintState":
        key = (active_items, suppressed_items)
        state = cls._pool.get(key)
        if state is not None:
            counters.taint_intern_hits += 1
            return state
        state = object.__new__(cls)
        state.active = MappingProxyType(dict(active_items))
        state.suppressed = MappingProxyType(dict(suppressed_items))
        state._key = key
        # computed once per interned state, checked on every substitution:
        # a state whose labels are all concrete is a fixed point of
        # ``substituted`` for any mapping
        state._concrete = all(
            type(label) is ConcreteSource
            for _kind, labels in active_items + suppressed_items
            for label in labels
        )
        # lazily-built join cache (other state -> joined result); keyed
        # by identity, which the pool makes equivalent to value equality
        state._join_memo = None
        cls._pool[key] = state
        counters.taint_states_interned += 1
        return state

    def __reduce__(self) -> Tuple:
        return (_rebuild, self._key)

    # equality/hash are identity: the pool guarantees equal values are
    # the same object, so the object defaults are both correct and O(1)

    # -- constructors -----------------------------------------------------

    @classmethod
    def clean(cls) -> "TaintState":
        return _CLEAN

    @classmethod
    def from_label(
        cls, label: Label, kinds: Iterable[VulnKind] = ALL_KINDS
    ) -> "TaintState":
        if kinds is ALL_KINDS:
            # sources are overwhelmingly created over the full kind set
            # and the same label recurs at every fixed-point revisit of
            # its source line: memoize (weakly, so dead states still
            # leave the pool) and skip the per-call sort
            state = _FROM_LABEL_MEMO.get(label)
            if state is None:
                frozen = frozenset((label,))
                state = cls._intern(
                    tuple((kind, frozen) for kind in _ALL_KINDS_SORTED), ()
                )
                _FROM_LABEL_MEMO[label] = state
            return state
        frozen = frozenset((label,))
        return cls._intern(
            tuple(sorted(((kind, frozen) for kind in kinds), key=_kind_value)), ()
        )

    def copy(self) -> "TaintState":
        return self  # immutable: sharing is free

    # -- queries -------------------------------------------------------------

    def is_tainted(self, kind: VulnKind) -> bool:
        return bool(self.active.get(kind))

    def is_clean(self) -> bool:
        return not any(self.active.values())

    def labels(self, kind: VulnKind) -> FrozenSet[Label]:
        return frozenset(self.active.get(kind, ()))

    def vectors(self, kind: VulnKind) -> Tuple[InputVector, ...]:
        """Distinct input vectors of the concrete labels, sorted stably."""
        vectors = {
            label.vector
            for label in self.active.get(kind, ())
            if isinstance(label, ConcreteSource)
        }
        return tuple(sorted(vectors, key=lambda vector: vector.value))

    def signature(self) -> Tuple:
        """Hashable identity used to memoize summary substitutions."""
        return (tuple((kind.value, labels) for kind, labels in self._key[0]),)

    # -- lattice operations (all return interned states) --------------------

    def joined(self, other: "TaintState") -> "TaintState":
        if other is self or other is _CLEAN:
            return self
        if self is _CLEAN:
            return other
        memo = self._join_memo
        if memo is None:
            memo = self._join_memo = {}
        else:
            cached = memo.get(other)
            if cached is not None:
                return cached
        counters.taint_joins += 1
        active: Dict[VulnKind, FrozenSet[Label]] = dict(self.active)
        for kind, labels in other.active.items():
            mine = active.get(kind)
            active[kind] = labels if mine is None else mine | labels
        suppressed: Dict[VulnKind, FrozenSet[Label]] = dict(self.suppressed)
        for kind, labels in other.suppressed.items():
            mine = suppressed.get(kind)
            suppressed[kind] = labels if mine is None else mine | labels
        result = TaintState(active=active, suppressed=suppressed)
        memo[other] = result
        return result

    def filtered(self, kinds: Iterable[VulnKind]) -> "TaintState":
        """Sanitize for ``kinds``: active labels become suppressed."""
        active = dict(self.active)
        suppressed = dict(self.suppressed)
        changed = False
        for kind in kinds:
            moved = active.pop(kind, None)
            if moved:
                changed = True
                mine = suppressed.get(kind)
                suppressed[kind] = moved if mine is None else mine | moved
        if not changed:
            return self
        return TaintState(active=active, suppressed=suppressed)

    def reverted(self, kinds: Iterable[VulnKind]) -> "TaintState":
        """Undo sanitization for ``kinds``: suppressed labels reactivate."""
        active = dict(self.active)
        suppressed = dict(self.suppressed)
        changed = False
        for kind in kinds:
            restored = suppressed.pop(kind, None)
            if restored:
                changed = True
                mine = active.get(kind)
                active[kind] = restored if mine is None else mine | restored
        if not changed:
            return self
        return TaintState(active=active, suppressed=suppressed)

    def restricted(self, kinds: Iterable[VulnKind]) -> "TaintState":
        """Keep only the entries for ``kinds`` (kind-limited propagation:
        a ``PropagationSpec`` forwards argument taint for some kinds and
        neutralizes the rest).  Suppressed labels for kept kinds survive
        so a later revert can still reactivate them."""
        keep = kinds if type(kinds) is frozenset else frozenset(kinds)
        active = {kind: labels for kind, labels in self.active.items() if kind in keep}
        suppressed = {
            kind: labels for kind, labels in self.suppressed.items() if kind in keep
        }
        if len(active) == len(self.active) and len(suppressed) == len(self.suppressed):
            return self
        return TaintState(active=active, suppressed=suppressed)

    def substituted(
        self, mapping: Dict[Label, "TaintState"], keep_props: bool = False
    ) -> "TaintState":
        """Replace placeholder labels using ``mapping``.

        Placeholders absent from the mapping are dropped (an unresolved
        parameter contributes no taint); concrete labels pass through.
        With ``keep_props``, unmapped :class:`PropRef` labels pass
        through too, for the property store to resolve later.
        """
        if self._concrete:
            return self  # no placeholders anywhere: substitution is identity
        active: Dict[VulnKind, Set[Label]] = {}
        for kind, labels in self.active.items():
            for label in labels:
                if isinstance(label, ConcreteSource):
                    active.setdefault(kind, set()).add(label)
                elif label in mapping:
                    replacement = mapping[label].active.get(kind)
                    if replacement:
                        active.setdefault(kind, set()).update(replacement)
                elif keep_props and isinstance(label, PropRef):
                    active.setdefault(kind, set()).add(label)
        suppressed: Dict[VulnKind, Set[Label]] = {}
        for kind, labels in self.suppressed.items():
            for label in labels:
                if isinstance(label, ConcreteSource):
                    suppressed.setdefault(kind, set()).add(label)
                elif label in mapping:
                    replacement = mapping[label].active.get(kind)
                    if replacement:
                        suppressed.setdefault(kind, set()).update(replacement)
                elif keep_props and isinstance(label, PropRef):
                    suppressed.setdefault(kind, set()).add(label)
        return TaintState(active=active, suppressed=suppressed)

    def drop_param_refs(self) -> "TaintState":
        """Remove :class:`ParamRef` labels, keeping concrete sources and
        property placeholders (used when an uncalled method's property
        writes are committed without a caller to bind its parameters)."""
        if not self.has_param_refs():
            return self
        active: Dict[VulnKind, Set[Label]] = {}
        for kind, labels in self.active.items():
            kept = {label for label in labels if not isinstance(label, ParamRef)}
            if kept:
                active[kind] = kept
        suppressed: Dict[VulnKind, Set[Label]] = {}
        for kind, labels in self.suppressed.items():
            kept = {label for label in labels if not isinstance(label, ParamRef)}
            if kept:
                suppressed[kind] = kept
        return TaintState(active=active, suppressed=suppressed)

    def has_param_refs(self) -> bool:
        if self._concrete:
            return False
        return any(
            isinstance(label, ParamRef)
            for labels in (*self.active.values(), *self.suppressed.values())
            for label in labels
        )

    def has_placeholders(self) -> bool:
        if self._concrete:
            return False
        return any(
            not isinstance(label, ConcreteSource)
            for labels in self.active.values()
            for label in labels
        )

    def __repr__(self) -> str:
        parts = []
        for kind, labels in sorted(self.active.items(), key=lambda kv: kv[0].value):
            if labels:
                names = ", ".join(sorted(label.describe() for label in labels))
                parts.append(f"{kind}: {names}")
        return "TaintState(" + ("; ".join(parts) or "clean") + ")"


#: the interned all-clean state; held strongly so the pool never drops it
_CLEAN = TaintState()

#: canonical item order for the default ``from_label`` construction
_ALL_KINDS_SORTED = tuple(sorted(ALL_KINDS, key=lambda kind: _KIND_ORDER[kind]))

#: label -> all-kinds source state; weak values so the memo never keeps
#: a state (and the file/line-bearing labels inside it) alive on its own
_FROM_LABEL_MEMO: "WeakValueDictionary[Label, TaintState]" = WeakValueDictionary()


@dataclass
class VariableRecord:
    """One entry of phpSAFE's ``parser_variables`` store.

    "This array contains everything needed to allow phpSAFE to perform
    the taint analysis, like the variable name, source file name and line
    number, the dependencies from other variables, if it is an input or
    output variable, the filter functions applied, etc." (Section III.C)
    """

    name: str
    file: str = ""
    line: int = 0
    taint: TaintState = field(default_factory=TaintState.clean)
    class_name: Optional[str] = None  # resolved object type, for OOP
    depends_on: Tuple[str, ...] = ()
    filters_applied: Tuple[str, ...] = ()
    is_input: bool = False
    is_output: bool = False
    trace: Tuple[str, ...] = ()

    def updated(self, **changes) -> "VariableRecord":
        # hand-rolled ``dataclasses.replace``: this runs on every branch
        # join and ref-group write-through, and replace()'s field
        # introspection is measurable there.  VariableRecord has no
        # __post_init__, so a __dict__ copy is equivalent.
        clone = VariableRecord.__new__(VariableRecord)
        clone.__dict__.update(self.__dict__)
        if changes:
            clone.__dict__.update(changes)
        return clone
