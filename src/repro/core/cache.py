"""Incremental analysis cache (paper Section VI: "improvement of
phpSAFE, mainly regarding performance, memory consumption").

Parsing dominates re-scan cost when a plugin is analyzed repeatedly
(CI on every commit, the history workflow, the evaluation harness's
timing repetitions).  :class:`ModelCache` memoizes the per-file
model-construction products — AST, node index, LOC, include list —
keyed by a content hash, so an unchanged file is never re-lexed or
re-parsed.  ASTs are treated as immutable by the analysis stage, so
sharing them across runs is safe.

Eviction is true LRU: a lookup hit refreshes the entry's recency, and
inserting beyond ``max_entries`` evicts the least recently used entry.
Parse failures share the same budget and recency queue as models.
:class:`~repro.batch.diskcache.DiskModelCache` layers a persistent
content-addressed tier under this memory cache via the :meth:`_load` /
:meth:`_insert` hooks.

The cache is additionally bounded by **bytes** when ``max_bytes`` is
set: every slot carries an approximate heap-size estimate
(:func:`approx_slot_bytes`), and insertion evicts LRU entries until
*both* caps hold — whichever trips first wins (``max_entries=None``:
bytes only).  Entry counts alone are a memory lie at scale: 4096 slots
of multi-MB file models are gigabytes of RSS, while 4096 ~1 KB
summaries evict models a byte budget would keep.  An entry whose own
estimate exceeds ``max_bytes`` is never retained in memory at all (the
persistent disk tier, when present, still keeps it) — a cache must
stay a cache, not become the leak.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Tuple

from ..php.errors import PhpSyntaxError


# -- approximate slot sizing -------------------------------------------------
#
# Exact deep sizeof over a shared/interned AST is both slow and wrong
# (interned tokens and hash-consed taint states are shared across
# entries); instead each artifact type gets a calibrated linear
# estimate.  The FileModel coefficients come from tracemalloc
# measurements of representative OOP plugin files: ~560 heap bytes per
# effective line of AST/index and ~2 per raw source byte — about 24
# bytes of heap per source byte.  Token lists are not counted: the
# lexer output feeds the parser and is dropped, never cached.

_LOC_BYTES = 560
_INSTRUCTION_BYTES = 200
_SLOT_OVERHEAD = 256

#: Byte ceiling of the process-wide L1 and of every disk cache's memory
#: tier: a warm corpus's artifact set stays resident, yet long-lived
#: daemons cannot leak models across jobs.
MEMORY_TIER_MAX_BYTES = 256 * 1024 * 1024


def approx_object_bytes(obj: object) -> int:
    """Approximate heap footprint of one cached artifact, in bytes."""
    if obj is None:
        return 0
    source = getattr(obj, "source", None)
    if isinstance(source, str):  # FileModel (or compatible)
        loc = getattr(obj, "loc", 0) or 0
        return _SLOT_OVERHEAD + 2 * len(source) + _LOC_BYTES * loc
    codes = getattr(obj, "codes", None)
    if codes is not None:  # IRProgram: flat instruction tuples per body
        instructions = sum(len(body) for body in codes)
        return _SLOT_OVERHEAD + _INSTRUCTION_BYTES * max(1, instructions)
    # summaries, parse failures, anything else: shallow size plus a
    # fixed allowance for their (small) owned containers
    try:
        shallow = sys.getsizeof(obj)
    except TypeError:  # pragma: no cover - exotic objects
        shallow = 64
    return _SLOT_OVERHEAD + shallow + 1024


def approx_slot_bytes(slot: "_Slot") -> int:
    """Approximate footprint of a cache slot (model or failure)."""
    model, error = slot
    return approx_object_bytes(model if model is not None else error)


def source_digest(source: str) -> str:
    """Content digest of one source file: the identity every cache key,
    rescan manifest and summary dependency check is built from."""
    return hashlib.sha256(source.encode("utf-8", "replace")).hexdigest()


def content_key(path: str, source: str, variant: str = "", digest: str = "") -> str:
    """Cache key: path + content digest (path matters for includes).

    ``variant`` distinguishes parse modes sharing one cache: a file
    parsed with panic-mode recovery produces a different model (partial
    AST + incidents) than a strict parse, so the two must not share a
    slot.  ``digest``, when the caller already holds
    :func:`source_digest` of ``source``, spares hashing it again.
    """
    digest = digest or source_digest(source)
    if variant:
        return f"{path}:{variant}:{digest}"
    return f"{path}:{digest}"


def summary_key(fingerprint: str, function_key: str, digest: str) -> str:
    """Summary-cache key: analyzer configuration fingerprint (knowledge
    base + engine options) + function key + defining-file content digest.
    The ``summary2!`` prefix keeps these slots disjoint from file models
    (model keys start with a file path, which never contains ``!``
    before a ``:``).  The ``2`` retired the pre-incremental namespace:
    summaries pickled before the state-coupling sets (``prop_reads``
    &c.) were added would deserialize with empty sets and let the
    rescan planner skip roots it must not."""
    return f"summary2!{fingerprint}!{function_key}!{digest}"


def ir_key(fingerprint: str, path: str, digest: str) -> str:
    """Lowered-IR cache key: analyzer configuration fingerprint + file
    path + content digest.  The ``ir1!`` prefix keeps these slots
    disjoint from file models and summaries (same reasoning as
    :func:`summary_key`); the ``1`` is the on-disk generation — the
    instruction encoding itself is additionally versioned through
    :data:`repro.core.ir.IR_VERSION` inside the stored program."""
    return f"ir1!{fingerprint}!{path}!{digest}"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    #: subset of ``hits`` served from a persistent tier (disk cache)
    disk_hits: int = 0
    evictions: int = 0
    #: subset of ``evictions`` forced by the byte cap while the entry
    #: count was still under ``max_entries`` (memory pressure, not
    #: capacity pressure)
    byte_evictions: int = 0
    #: entries never retained because they alone exceeded ``max_bytes``
    oversized: int = 0
    #: corrupt persistent entries detected and quarantined (disk cache)
    corrupt: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class IRCacheStats:
    """Counters of the lowered-IR tier (one entry per file), separate
    from the parse and summary tiers for the same observability reason."""

    hits: int = 0
    misses: int = 0
    #: subset of ``hits`` served from the persistent tier
    disk_hits: int = 0
    stores: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class SummaryCacheStats:
    """Counters of the function-summary tier, separate from the parse
    tier so each cache's effectiveness is observable on its own."""

    hits: int = 0
    misses: int = 0
    #: entries found but rejected by dependency validation
    stale: int = 0
    #: subset of ``hits`` served from the persistent tier
    disk_hits: int = 0
    stores: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: One cached outcome: ``(file model, None)`` or ``(None, parse failure)``.
_Slot = Tuple[Optional[object], Optional[PhpSyntaxError]]


@dataclass
class ModelCache:
    """Content-addressed store of parsed file models.

    Also caches *parse failures*: a file that failed to parse will fail
    identically until its content changes.
    """

    #: in-memory entry bound (None = bytes-only bound)
    max_entries: Optional[int] = 4096
    #: approximate in-memory byte bound (None = entries-only bound);
    #: sized via :func:`approx_slot_bytes` at insertion time
    max_bytes: Optional[int] = None
    stats: CacheStats = field(default_factory=CacheStats)
    summary_stats: SummaryCacheStats = field(default_factory=SummaryCacheStats)
    ir_stats: IRCacheStats = field(default_factory=IRCacheStats)
    #: recency-ordered (dict insertion order): first key is the LRU victim
    _slots: Dict[str, _Slot] = field(default_factory=dict, repr=False)
    #: per-key size estimates backing :attr:`current_bytes`
    _sizes: Dict[str, int] = field(default_factory=dict, repr=False)
    #: running total of ``_sizes`` (kept incrementally; O(1) reads)
    _total_bytes: int = field(default=0, repr=False)
    #: memory-tier keys grouped by the content digest that ends them,
    #: so :meth:`spill_versions` never scans the whole tier
    _by_digest: Dict[str, Set[str]] = field(default_factory=dict, repr=False)

    def lookup(
        self, path: str, source: str, variant: str = "", digest: str = ""
    ) -> Tuple[object, Optional[PhpSyntaxError]]:
        """Return ``(file model or None, cached failure or None)``."""
        slot = self._load(content_key(path, source, variant, digest))
        if slot is None:
            self.stats.misses += 1
            return None, None
        self.stats.hits += 1
        return slot

    def store(
        self,
        path: str,
        source: str,
        file_model: object,
        variant: str = "",
        digest: str = "",
    ) -> None:
        self._insert(content_key(path, source, variant, digest), (file_model, None))

    def store_failure(
        self,
        path: str,
        source: str,
        error: PhpSyntaxError,
        variant: str = "",
        digest: str = "",
    ) -> None:
        self._insert(content_key(path, source, variant, digest), (None, error))

    # -- function-summary tier ---------------------------------------------
    #
    # Summaries live in the same recency queue and persistent object
    # store as file models (the key namespaces are disjoint), but keep
    # their own hit/miss counters: the parse tier's stats stay exact.

    def lookup_summary(self, key: str) -> Optional[object]:
        """Return the persisted :class:`FunctionSummary` under ``key``."""
        return self._load_counted(key, self.summary_stats)

    def store_summary(self, key: str, summary: object) -> None:
        self.summary_stats.stores += 1
        self._insert(key, (summary, None))

    # -- lowered-IR tier ----------------------------------------------------

    def lookup_ir(self, key: str) -> Optional[object]:
        """Return the cached :class:`~repro.core.ir.IRProgram` under
        ``key``, or None.  Version/shape validation is the caller's job —
        the cache only answers by content address."""
        return self._load_counted(key, self.ir_stats)

    def store_ir(self, key: str, program: object) -> None:
        self.ir_stats.stores += 1
        self._insert(key, (program, None))

    def _load_counted(self, key: str, stats) -> Optional[object]:
        """:meth:`_load` counted against a secondary tier's ``stats``."""
        disk_hits_before = self.stats.disk_hits
        slot = self._load(key)
        if self.stats.disk_hits != disk_hits_before:
            # re-attribute the disk hit to the secondary tier's counters
            self.stats.disk_hits = disk_hits_before
            stats.disk_hits += 1
        if slot is None:
            stats.misses += 1
            return None
        stats.hits += 1
        return slot[0]

    # -- storage hooks (extended by the persistent disk tier) ---------------

    def _load(self, key: str) -> Optional[_Slot]:
        """Memory probe; a hit moves the entry to the back of the queue."""
        slot = self._slots.pop(key, None)
        if slot is not None:
            self._slots[key] = slot
        return slot

    def _insert(self, key: str, slot: _Slot) -> None:
        """Insert (or refresh) ``key``, then evict LRU entries until
        both bounds hold — strictly over capacity only (the cache holds
        exactly ``max_entries`` entries, not ``max_entries - 1``), and
        at most ``max_bytes`` of estimated heap when that cap is set.
        Whichever cap trips first drives the eviction."""
        self._evict_key(key)  # refresh: the replacement is re-estimated
        size = approx_slot_bytes(slot)
        if self.max_bytes is not None and size > self.max_bytes:
            # never retain an entry that alone busts the byte budget —
            # the persistent tier (when present) still keeps it
            self.stats.oversized += 1
            return
        self._slots[key] = slot
        self._sizes[key] = size
        self._total_bytes += size
        self._by_digest.setdefault(key[-64:], set()).add(key)
        while self._over_entries() or (
            self.max_bytes is not None and self._total_bytes > self.max_bytes
        ):
            if not self._over_entries():
                self.stats.byte_evictions += 1
            self._evict_key(next(iter(self._slots)))
            self.stats.evictions += 1

    def _over_entries(self) -> bool:
        return self.max_entries is not None and len(self._slots) > self.max_entries

    def _evict_key(self, key: str) -> Optional[_Slot]:
        """Drop ``key`` from the memory tier, keeping sizes consistent."""
        slot = self._slots.pop(key, None)
        if slot is not None:
            self._total_bytes -= self._sizes.pop(key, 0)
            keys = self._by_digest[key[-64:]]
            keys.discard(key)
            if not keys:
                del self._by_digest[key[-64:]]
        return slot

    # -- eager spill --------------------------------------------------------

    def spill(self, keys: Iterable[str]) -> int:
        """Eagerly evict ``keys`` from the memory tier; returns the
        estimated bytes released.  On a persistent cache this demotes
        the artifacts to disk (they were written at insert time); on a
        memory-only cache they are simply recomputable.  The streaming
        scanner calls this the moment a plugin's analysis roots
        complete, so huge file models do not linger until LRU pressure
        finally reaches them."""
        released = 0
        for key in keys:
            if key in self._slots:
                released += self._sizes.get(key, 0)
                self._evict_key(key)
        return released

    def spill_versions(self, digests: Iterable[str]) -> int:
        """Spill every entry keyed by one of the content ``digests`` —
        file models, parse failures, lowered IR and summaries all end
        their keys in the defining file's digest.  A rescan calls this
        with the digests its edit superseded, so dead versions leave
        the memory tier instead of crowding out live artifacts."""
        index = self._by_digest
        return self.spill(
            [key for digest in set(digests) for key in index.get(digest, ())]
        )

    @property
    def current_bytes(self) -> int:
        """Approximate bytes held by the memory tier right now."""
        return self._total_bytes

    def occupancy(self) -> Dict[str, object]:
        """Live occupancy snapshot for telemetry/metrics consumers."""
        return {
            "entries": len(self._slots),
            "max_entries": self.max_entries,
            "bytes": self._total_bytes,
            "max_bytes": self.max_bytes,
            "evictions": self.stats.evictions,
            "byte_evictions": self.stats.byte_evictions,
            "oversized": self.stats.oversized,
        }

    def clear(self) -> None:
        self._slots.clear()
        self._sizes.clear()
        self._by_digest.clear()
        self._total_bytes = 0
        self.stats = CacheStats()
        self.summary_stats = SummaryCacheStats()
        self.ir_stats = IRCacheStats()

    def __len__(self) -> int:
        return len(self._slots)
