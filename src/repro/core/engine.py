"""Analysis stage: the semantics of forward taint propagation.

This is the paper's Section III.C engine.  It follows tainted variables
"from the moment they enter the application/plugin until they reach the
output", maintaining the ``parser_variables`` store per scope, applying
knowledge-base sources/filters/reverts/sinks, summarizing every
user-defined function once (function summaries), joining branches of
conditionals and loops, and resolving OOP constructs through the class
table and the known-instance registry (``$wpdb`` & co.).

This module holds the state and the semantics every statement shares:
scopes and reference aliasing, function summaries, fault-isolated
analysis units, OOP dispatch, includes and sinks.  Statements and
expressions are executed by :class:`repro.core.ir.IRTaintEngine` over
the lowered IR; it is the only executor.

The same engine, parameterized by :class:`PhpSafeOptions` (the one
options record; phpSAFE's facade re-exports it), also powers the
RIPS-like and Pixy-like baselines: their capability envelopes are
expressed as option/profile differences rather than separate engines,
which keeps the comparison experiments about *capabilities*, not
implementation accidents.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from ..config.entries import PropagationSpec
from ..config.profiles import AnalyzerProfile
from ..config.vulnerability import ALL_KINDS, VulnKind
from ..incidents import Incident, IncidentSeverity, IncidentStage
from ..perf import counters
from ..php import ast_nodes as ast
from .model import FunctionInfo, PluginModel
from .oop import ClassPropertyStore, join_class_names
from .results import Finding
from .taint import ConcreteSource, Label, ParamRef, TaintState, VariableRecord

#: Builtins whose return propagates the taint of their arguments.
PASSTHROUGH_FUNCTIONS = frozenset(
    {
        "trim", "ltrim", "rtrim", "strtolower", "strtoupper", "ucfirst", "ucwords",
        "lcfirst", "substr", "str_replace", "str_ireplace", "preg_replace", "sprintf",
        "vsprintf", "implode", "join", "str_pad", "str_repeat", "strrev", "nl2br",
        "wordwrap", "chunk_split", "strtr", "stristr", "strstr", "substr_replace",
        "array_merge", "array_values", "array_keys", "array_pop", "array_shift",
        "array_slice", "array_splice", "array_reverse", "array_filter", "array_map",
        "array_unique", "array_combine", "array_flip", "compact", "current", "reset",
        "end", "next", "prev", "each", "serialize", "unserialize", "json_decode",
        "maybe_unserialize", "wp_unslash", "apply_filters", "do_shortcode",
        "shortcode_atts", "wp_parse_args", "force_balance_tags", "stripslashes_deep",
        "var_export", "print_r",
    }
)

#: Builtins returning clean (numeric/boolean/structural) values.
CLEAN_FUNCTIONS = frozenset(
    {
        "time", "date", "mktime", "rand", "mt_rand", "uniqid", "number_format",
        "round", "floor", "ceil", "min", "max", "pow", "sqrt", "array_sum",
        "in_array", "array_search", "array_key_exists", "function_exists",
        "class_exists", "method_exists", "defined", "is_array", "is_string",
        "is_numeric", "is_int", "is_object", "is_null", "file_exists", "is_dir",
        "is_file", "preg_match", "preg_match_all", "strcmp", "strcasecmp", "strpos",
        "stripos", "strrpos", "version_compare", "checked", "selected", "disabled",
    }
)


def _option(default: object, role: str):
    """A :class:`PhpSafeOptions` field and its role; every cache key
    derives from the roles.  ``result`` fields change what a scan
    reports, so they key summaries, lowered IR and rescan manifests.
    ``parse`` fields pick the model tier's parse variant
    (:func:`~repro.core.model.parse_variant`), which also suffixes a
    rescan manifest's key.  ``cost`` fields bound or memoize the work a
    scan does; summaries and IR are the same whatever budget was left (a
    faulted summary is never persisted), so only the service's stored
    results, which fold in every field, key on them."""
    return field(default=default, metadata={"role": role})


@dataclass(frozen=True)
class PhpSafeOptions:
    """The analyzer's options: feature flags (also the ablation knobs of
    experiment A1), the parse mode and the resource budgets.

    Field order and names are part of the service's stored-result key
    (``spec_fingerprint``): reordering or renaming a field rolls it."""

    #: Named profile (a key of ``repro.rules.PROFILES``): ``wordpress``
    #: loads the WordPress configuration (sources/filters/sinks and
    #: known instances like ``$wpdb``) on top of generic PHP; the A1
    #: ablation's "no WordPress configuration" is ``generic``.
    profile_name: str = _option("wordpress", "result")
    #: Rule packs compiled after the profile's own packs: shipped pack
    #: names (``ssrf``) or filesystem paths.  Pack content hashes flow
    #: into the profile fingerprint, hence into every cache key.
    rule_packs: Tuple[str, ...] = _option((), "result")
    #: Resolve OOP: method calls, ``$this``, properties, known instances.
    oop: bool = _option(True, "result")
    #: Analyze functions never called from plugin code (entry points).
    analyze_uncalled: bool = _option(True, "result")
    #: Memoize function summaries (paper: "every function is analyzed
    #: only the first time it is called").  Off = re-analyze per call.
    use_summaries: bool = _option(True, "cost")
    #: Cumulative include-closure budget per file, in source bytes;
    #: reproduces the paper's memory-exhaustion failures (Section V.E).
    #: A file over budget leaves the model, so this keys results.
    include_budget: int = _option(120_000, "result")
    #: Fault-tolerant pipeline (Section V.E): panic-mode lexer/parser
    #: recovery, and a faulting analysis unit degrades to an incident
    #: while the rest continue.  ``False`` (the CLI's ``--strict``) fails
    #: a file on its first syntax error and the whole scan on any unit
    #: fault.  An exhausted plugin-wide ``step_budget`` stops the
    #: remaining units either way.
    recover: bool = _option(True, "parse")
    #: Wall-clock deadline per analysis unit, in seconds (None = no
    #: deadline).  Gives the serial path the timeout the batch path gets
    #: from SIGALRM.
    file_deadline: Optional[float] = _option(None, "cost")
    #: Node-visit budget per plugin; exceeding aborts remaining analysis.
    step_budget: int = _option(4_000_000, "cost")
    #: Step-budget slice per analysis unit (None = only the plugin-wide
    #: ``step_budget`` applies).
    unit_step_budget: Optional[int] = _option(None, "cost")
    #: Nesting cap on executed statements and expressions: degenerate
    #: nesting (one-line concat chains of thousands of terms) trips a
    #: unit fault instead of a ``RecursionError`` deep in the stack.
    max_eval_depth: int = _option(500, "cost")

    def role_values(self, role: str) -> Tuple[Tuple[str, object], ...]:
        """``(name, value)`` of every field declared with ``role``."""
        return tuple(
            (item.name, getattr(self, item.name))
            for item in fields(self)
            if item.metadata["role"] == role
        )


#: Cap on the flow-trace length kept per value (reporting only).
MAX_TRACE = 12
#: Maximum include nesting depth followed inline.
MAX_INCLUDE_DEPTH = 16

#: the interned all-clean taint state, hoisted for Value's default — a
#: function-call default_factory is measurable at Value-construction rates
_CLEAN_STATE = TaintState.clean()


class Value:
    """Abstract value of an expression: taint + optional object type.

    A ``__slots__`` value class rather than a dataclass: the engine
    builds one per expression evaluation, so per-instance dict
    allocation and default-factory calls are the hottest allocation
    site in the analyzer.
    """

    __slots__ = ("taint", "class_name", "trace", "name_hint")

    def __init__(
        self,
        taint: TaintState = _CLEAN_STATE,
        class_name: str = "",
        trace: Tuple[str, ...] = (),
        name_hint: str = "",
    ) -> None:
        self.taint = taint
        self.class_name = class_name
        self.trace = trace
        self.name_hint = name_hint

    def __repr__(self) -> str:
        return (
            f"Value(taint={self.taint!r}, class_name={self.class_name!r}, "
            f"trace={self.trace!r}, name_hint={self.name_hint!r})"
        )

    @classmethod
    def clean(cls) -> "Value":
        return cls()

    def joined(self, other: "Value") -> "Value":
        return Value(
            taint=self.taint.joined(other.taint),
            class_name=join_class_names((self.class_name, other.class_name)),
            trace=_merge_trace(self.trace, other.trace),
            name_hint=self.name_hint or other.name_hint,
        )


def _merge_trace(left: Tuple[str, ...], right: Tuple[str, ...]) -> Tuple[str, ...]:
    merged = list(left)
    for step in right:
        if step not in merged:
            merged.append(step)
    return tuple(merged[-MAX_TRACE:])


@dataclass
class SinkEvent:
    """Tainted data reached a sensitive sink (pre-finding)."""

    kind: VulnKind
    sink: str
    file: str
    line: int
    variable: str
    taint: TaintState
    trace: Tuple[str, ...] = ()
    via_oop: bool = False
    markup_context: str = ""
    #: root file of the analysis unit that produced the event (only
    #: populated on tracked runs); incremental rescans carry a
    #: skipped root's findings forward by this attribution
    unit: str = ""

    def substituted(self, mapping: Dict[Label, TaintState]) -> "SinkEvent":
        # hand-rolled ``dataclasses.replace``: summary application calls
        # this once per recorded event per call site
        clone = SinkEvent.__new__(SinkEvent)
        clone.__dict__.update(self.__dict__)
        clone.__dict__["taint"] = self.taint.substituted(mapping)
        return clone


@dataclass
class FunctionSummary:
    """Reusable effect of one user-defined function (paper: "the summary
    of this analysis is reused in subsequent calls")."""

    key: str
    return_taint: TaintState = field(default_factory=TaintState.clean)
    return_class: str = ""
    sink_events: List[SinkEvent] = field(default_factory=list)
    ref_param_writes: Dict[int, TaintState] = field(default_factory=dict)
    #: (class lower, prop) -> taint written (may hold ParamRefs, which
    #: are substituted with the caller's arguments at each call site)
    prop_writes: Dict[Tuple[str, str], TaintState] = field(default_factory=dict)
    #: files whose definitions this summary was computed from: the
    #: defining file plus every file holding a callee body or a class
    #: consulted during method/property resolution
    dep_files: Set[str] = field(default_factory=set)
    #: lookups that found nothing ("fn:name" / "class:name"); the
    #: summary stays valid only while they keep finding nothing
    dep_unresolved: Set[str] = field(default_factory=set)
    #: ``dep_files`` pinned to content digests at persist time; the
    #: cross-run cache revalidates these against the current model
    dep_digests: Dict[str, str] = field(default_factory=dict)
    #: the body read global state at summarize time — order-dependent,
    #: so never persisted across runs
    uses_globals: bool = False
    #: the body declares ``static`` locals — their cross-call slots live
    #: in the engine, so the summary is never persisted across runs
    uses_statics: bool = False
    #: placeholder written by a unit fault boundary — never persisted
    faulted: bool = False
    #: global variable names the body read (``global $x``) / wrote
    #: through a global alias — name-level state coupling used by the
    #: incremental planner; only set on non-persisted summaries since
    #: ``uses_globals`` blocks persistence
    global_reads: Set[str] = field(default_factory=set)
    global_writes: Set[str] = field(default_factory=set)
    #: "class|prop" keys the body read (expanded over the ancestor
    #: chain, matching finalize-time property resolution)
    prop_reads: Set[str] = field(default_factory=set)
    #: "static:<owner>" slots the body touched
    static_tokens: Set[str] = field(default_factory=set)


def summary_is_valid(summary: FunctionSummary, model: PluginModel,
                     digests: Dict[str, str]) -> bool:
    """Can a persisted summary be reused against the current model?"""
    for path, digest in summary.dep_digests.items():
        if digests.get(path) != digest:
            return False
    for token in summary.dep_unresolved:
        kind, _, name = token.partition(":")
        if kind == "fn":
            if model.lookup_function(name) is not None:
                return False
        elif model.lookup_class(name) is not None:
            return False
    return True


@dataclass
class UnitFootprint:
    """What the units rooted at one file touched outside themselves.

    Recorded only on tracked runs (an engine given ``reuse_roots``).
    The incremental planner intersects read/write sets across scans: a
    root whose file digest, dependency files, and state couplings are
    all unchanged can be skipped on rescan with its findings carried
    forward.
    """

    #: files whose definitions the units consulted (callee bodies,
    #: classes, resolved includes)
    dep_files: Set[str] = field(default_factory=set)
    #: failed lookups ("fn:name" / "class:name") — a skip is only valid
    #: while they keep failing
    dep_unresolved: Set[str] = field(default_factory=set)
    #: global variable names read / effectively written (taint or class
    #: changed; trace-only churn is ignored — only finding signatures
    #: are promised stable)
    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    #: "class|prop" property keys read (expanded over ancestors) and
    #: written (at the declaring class)
    prop_reads: Set[str] = field(default_factory=set)
    prop_writes: Set[str] = field(default_factory=set)
    #: "static:<owner>" cross-call slots touched
    statics: Set[str] = field(default_factory=set)
    #: keys of functions defined under *other* roots whose summary these
    #: units installed first (computed, or taken from the summary
    #: source); a rescan that re-runs this root but no longer reaches
    #: one of them replays it (see :meth:`TaintEngine.run`)
    summaries: Set[str] = field(default_factory=set)
    #: a unit under this root faulted — its effects are partial, so the
    #: root is never skippable
    faulted: bool = False


class Scope:
    """One lexical scope of ``parser_variables`` records."""

    __slots__ = (
        "name",
        "records",
        "global_aliases",
        "ref_groups",
        "static_names",
        "static_slots",
        "is_global_image",
    )

    def __init__(self, name: str = "<main>") -> None:
        self.name = name
        self.records: Dict[str, VariableRecord] = {}
        #: names bound to the global scope via ``global $x`` — writes to
        #: these are mirrored into the global scope
        self.global_aliases: Set[str] = set()
        #: reference-alias groups from ``$b =& $a``: every member maps to
        #: one shared frozenset of the names denoting the same storage
        #: slot.  Groups are immutable — a new union rebuilds the set —
        #: so branch snapshots can share the mapping by shallow copy.
        self.ref_groups: Dict[str, FrozenSet[str]] = {}
        #: names declared ``static`` in this scope; writes to them are
        #: mirrored into the engine's per-function static slots
        self.static_names: Set[str] = set()
        #: the engine's slot dict for this scope's function (shared, so
        #: branch snapshots write through — statics only ever join)
        self.static_slots: Optional[Dict[str, TaintState]] = None
        #: True for the engine's global scope and its branch snapshots:
        #: reads against such a scope are global-state reads the
        #: incremental footprint tracker must record
        self.is_global_image = False

    def get(self, name: str) -> Optional[VariableRecord]:
        return self.records.get(name)

    def set(self, record: VariableRecord) -> None:
        self.records[record.name] = record

    def copy(self) -> "Scope":
        # records are immutable in practice (writes rebind via
        # ``updated()``) and taint states are interned values, so a
        # snapshot is a plain dict copy — no per-record cloning.  Global
        # aliases are deliberately NOT inherited: a branch snapshot must
        # not write through to the global scope for a path that may not
        # be taken (a ``global`` statement inside the branch re-binds).
        clone = Scope.__new__(Scope)  # skip __init__: fields set below
        clone.name = self.name
        clone.records = dict(self.records)
        clone.global_aliases = set()
        # reference aliases and statics ARE inherited: they only affect
        # records inside the snapshot itself (joined back afterwards) or
        # monotone static slots, never an untaken path's global binding.
        clone.ref_groups = dict(self.ref_groups)
        clone.static_names = set(self.static_names)
        clone.static_slots = self.static_slots
        clone.is_global_image = self.is_global_image
        return clone

    def join_from(self, *branches: "Scope") -> None:
        """Merge branch outcomes into this scope (taint union).

        Every branch starts as a :meth:`copy` of one pre-state, and a
        write rebinds a name to a new record (``updated()``), so a name
        holding the receiver's record object in every branch that has
        it was not written on any path and its join is the identity.
        Only the names some branch rebound or added are joined; taint
        states are interned, so skipping the rest is exact.  A name a
        branch unset is joined over the scopes that still hold it.
        """
        records = self.records
        own = records.get
        changed: Dict[str, None] = {}
        for branch in branches:
            for name, record in branch.records.items():
                if own(name) is not record:
                    changed[name] = None
        scopes = (self, *branches)
        for name in changed:
            variants = [
                scope.records[name]
                for scope in scopes
                if name in scope.records
            ]
            first = variants[0]
            for record in variants:
                if record is not first:
                    break
            else:
                # every scope that has the name holds one record object
                # (the receiver lacks it): take that record as is
                records[name] = first
                continue
            taint = first.taint
            for record in variants[1:]:
                taint = taint.joined(record.taint)
            class_name = join_class_names(
                record.class_name or "" for record in variants
            )
            records[name] = variants[-1].updated(
                taint=taint, class_name=class_name or None
            )


class BudgetExceeded(Exception):
    """Internal signal: plugin-wide step budget exhausted."""


class UnitFault(Exception):
    """Internal signal: one analysis unit failed; the rest continue.

    Raised inside a per-unit fault boundary when the unit's step-budget
    slice, wall-clock deadline, or evaluation-depth cap trips.  Caught
    at the unit boundary: a recovered incident under ``recover``, a
    failed scan otherwise.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class TaintEngine:
    """Whole-plugin taint analysis over a :class:`PluginModel`.

    The base of :class:`repro.core.ir.IRTaintEngine`, which supplies
    statement execution (``_exec_block``) and expression evaluation
    (``_eval_code``); construct that class, not this one.
    """

    def __init__(
        self,
        model: PluginModel,
        profile: AnalyzerProfile,
        options: Optional[PhpSafeOptions] = None,
        *,
        construct_kinds: frozenset = ALL_KINDS,
        unknown_call_policy: str = "clean",
        reuse_roots: Optional[FrozenSet[str]] = None,
        summary_source: Optional[
            Callable[[FunctionInfo], Optional[FunctionSummary]]
        ] = None,
        replay_summaries: Optional[Dict[str, str]] = None,
    ) -> None:
        """The baselines' envelope settings (phpSAFE keeps the
        defaults): ``construct_kinds`` are the kinds checked at
        language-construct sinks (backticks, include) — a 2007-era tool
        like Pixy never looks beyond XSS/SQLi; ``unknown_call_policy``
        is what an unknown function call returns: "clean" trusts unknown
        code (phpSAFE: unknown CMS helpers are assumed safe), "propagate"
        forwards argument taint (RIPS: unknown functions are not
        sanitizers, so ``echo esc_html($_GET[...])`` is still reported —
        the false-positive population Table I measures for RIPS).

        ``reuse_roots`` makes the run a tracked one (incremental
        rescans): per-unit state footprints are recorded, and the units
        of these root files, which a prior manifest proved unchanged and
        uncoupled, are skipped.  An empty set tracks and reuses nothing;
        ``None`` (plain scans) pays nothing for the bookkeeping.

        ``summary_source`` maps a function to a reusable summary from
        outside this run (the cross-run cache), or ``None``.  It is
        asked on demand, the first time a function's summary is needed,
        so a rescan asks only for the functions its live units reach;
        it is never asked when ``use_summaries`` is off, and never twice
        for one function.

        ``replay_summaries`` maps function keys to the executed root
        that installed them in the prior scan (see
        :func:`~repro.core.incremental.plan_rescan`); the late pass
        takes the summary source's summary of each one this run did not
        reach, under that root.
        """
        self.model = model
        self.profile = profile
        self.options = options or PhpSafeOptions()
        self.construct_kinds = construct_kinds
        self.unknown_call_policy = unknown_call_policy
        self.reuse_roots: FrozenSet[str] = reuse_roots or frozenset()
        self.replay_summaries: Dict[str, str] = replay_summaries or {}
        #: every kind this profile's specs mention; ``ALL_KINDS`` itself
        #: (same object — the ``from_label`` fast path is identity-based)
        #: unless rule packs introduced extra kinds
        self._kind_universe = profile.kind_universe()
        self.globals = Scope("<global>")
        self.globals.is_global_image = True
        self.class_props = ClassPropertyStore()
        for class_info in model.classes.values():
            if class_info.parent:
                self.class_props.parents[class_info.name.lower()] = (
                    class_info.parent.lower()
                )
        self.summaries: Dict[str, FunctionSummary] = {}
        self._in_progress: Set[str] = set()
        self._summary_source = (
            summary_source if self.options.use_summaries else None
        )
        #: keys of the summaries ``summary_source`` served this run
        self.loaded_summaries: Set[str] = set()
        #: keys ``summary_source`` had nothing for
        self._source_missed: Set[str] = set()
        #: cross-call taint of ``static`` locals, keyed by owning
        #: function key then variable name; joins only, never resets
        self._static_store: Dict[str, Dict[str, TaintState]] = {}
        self.events: List[SinkEvent] = []
        self._steps = 0
        self._current_file = "<unknown>"
        self._summary_stack: List[FunctionSummary] = []
        self._include_stack: List[str] = []
        #: True only when the plugin-wide step budget is exhausted;
        #: per-unit faults are recorded in :attr:`incidents` instead
        self.aborted = False
        #: typed robustness incidents from per-unit fault boundaries
        self.incidents: List[Incident] = []
        self._unit_limit: Optional[int] = None
        self._deadline_at: Optional[float] = None
        self._depth = 0
        #: incremental-rescan bookkeeping (tracked runs only)
        self.track = reuse_roots is not None
        #: per-root-file aggregated state footprints
        self.footprints: Dict[str, UnitFootprint] = {}
        self._unit_fp: Optional[UnitFootprint] = None
        self._unit_root = ""
        #: function key -> root file under which a uses_globals /
        #: uses_statics summary was first computed; such summaries are
        #: order-dependent, so the planner pins them to their root
        self.state_summary_roots: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def run(self) -> List[Finding]:
        """Analyze the whole plugin and return deduplicated findings.

        Runs the paper's order: "phpSAFE starts by executing an
        inter-procedural parsing of the functions that are not called
        from the source code of the plugin", then walks each file.
        Called functions are summarized lazily at their first call site
        so globals carry their call-time state.  Every analysis unit —
        an entry-point summary, a top-level file walk, a late summary —
        runs under :meth:`_run_unit`; an exhausted plugin-wide step
        budget stops the remaining units.

        The late pass summarizes every function still without a summary
        (covering corner cases like a function only reachable through
        its own recursion), taking the summary source's summary where it
        has one instead of opening a unit, then reports the source→sink
        flows inside all summaries: flows that depend on the unknown
        parameters of an entry point are dropped (no caller exists
        inside the plugin to bind them), and events already emitted at
        real call sites deduplicate by sink line.

        A cold scan summarizes every function and so commits every
        summary's property writes, but a skipped root's record carries
        only what its own units summarized.  A function of a skipped
        root that the prior scan summarized under a root re-run now,
        and that this run did not reach, is therefore replayed under
        that root (:meth:`_replay_summary`).
        """
        start = time.perf_counter()
        steps_before = self._steps
        try:
            reuse = self.reuse_roots
            if self.options.analyze_uncalled:
                for info in self.model.uncalled_functions():
                    if self.aborted:
                        break
                    if info.file in reuse:
                        continue
                    self._run_unit(
                        f"function {info.key}",
                        info.file,
                        lambda info=info: self._summarize(info),
                        summary_key=info.key,
                    )
            for path, file_model in sorted(self.model.files.items()):
                if self.aborted:
                    break
                if path in reuse:
                    continue

                def run_file(path=path, file_model=file_model):
                    self._current_file = path
                    self._include_stack = [path]
                    self._exec_block(file_model.tree.statements, self.globals)

                self._run_unit("<main>", path, run_file)
            if self.options.analyze_uncalled:
                for key, info in sorted(self.model.functions.items()):
                    if self.aborted:
                        break
                    if key in self.summaries or info.file in reuse:
                        continue
                    if self._load_summary(info) is not None:
                        continue
                    self._run_unit(
                        f"function {key}",
                        info.file,
                        lambda info=info: self._summarize(info),
                        summary_key=key,
                    )
                for key, root in sorted(self.replay_summaries.items()):
                    if self.aborted:
                        break
                    info = self.model.functions.get(key)
                    if info is None or key in self.summaries:
                        continue
                    self._run_unit(
                        f"function {key}",
                        root,
                        lambda info=info: self._replay_summary(info),
                    )
                # even a degraded run reports what its summaries did find
                self._collect_summary_events()
            return self._finalize_findings()
        finally:
            counters.analysis_seconds += time.perf_counter() - start
            counters.engine_steps += self._steps - steps_before

    def _run_unit(
        self,
        unit: str,
        file: str,
        body,
        summary_key: Optional[str] = None,
    ) -> None:
        """Run one analysis unit inside a fault boundary.

        An exhausted plugin-wide step budget sets :attr:`aborted` and
        records a fatal incident.
        Any other fault fails the scan unless ``recover`` is set; then
        the unit's partial work is kept (taint joins are monotone), the
        fault is recorded as an incident, and — for function units — an
        empty summary is stored so call sites do not re-run the failing
        body.
        """
        if self.options.unit_step_budget is not None:
            self._unit_limit = self._steps + self.options.unit_step_budget
        if self.options.file_deadline is not None:
            self._deadline_at = time.monotonic() + self.options.file_deadline
        self._depth = 0
        globals_before: Optional[Dict[str, Tuple[TaintState, str]]] = None
        if self.track:
            self._unit_root = file
            self._unit_fp = self.footprints.setdefault(file, UnitFootprint())
            globals_before = {
                name: (record.taint, record.class_name or "")
                for name, record in self.globals.records.items()
            }
        try:
            body()
            return
        except BudgetExceeded:
            self.aborted = True
            self.incidents.append(
                Incident(
                    stage=IncidentStage.ANALYSIS,
                    severity=IncidentSeverity.FATAL,
                    file=file,
                    reason="analysis step budget exhausted",
                    recovered=False,
                    unit=unit,
                )
            )
        except Exception as error:
            if not self.options.recover:
                raise
            # catch-all fault boundary: an engine bug on one unit must
            # not zero out the findings of every other unit
            if isinstance(error, UnitFault):
                reason = error.reason
            elif isinstance(error, RecursionError):
                reason = "recursion limit exceeded"
            else:
                reason = f"internal analysis error: {error!r}"
            self.incidents.append(
                Incident(
                    stage=IncidentStage.ANALYSIS,
                    severity=IncidentSeverity.ERROR,
                    file=file,
                    reason=reason,
                    recovered=True,
                    unit=unit,
                )
            )
        finally:
            self._unit_limit = None
            self._deadline_at = None
            self._depth = 0
            if self.track:
                self._diff_globals(globals_before or {}, self._unit_fp)
                self._unit_fp = None
                self._unit_root = ""
        if self.track:
            # falling through the boundary means the unit faulted: its
            # effects are partial, so this root is never skippable
            self.footprints.setdefault(file, UnitFootprint()).faulted = True
        if summary_key is not None and summary_key not in self.summaries:
            # faulted placeholder: call sites stop re-running the failing
            # body, but the empty summary must never be persisted
            self.summaries[summary_key] = FunctionSummary(
                key=summary_key, faulted=True
            )

    #: the "no record" effective value for the unit-boundary diff —
    #: creating a clean, class-free binding is not an observable write
    _CLEAN_EFFECT: "Tuple[TaintState, str]" = (TaintState.clean(), "")

    def _diff_globals(
        self,
        before: Dict[str, Tuple[TaintState, str]],
        footprint: Optional[UnitFootprint],
    ) -> None:
        """Record global names whose effective value changed this unit.

        Taint states are interned, so identity compares are exact; a
        record object replaced with an equal value (``join_from`` of
        branch records that agree in value) is correctly ignored.
        """
        if footprint is None:
            return
        # under register_globals an *uninitialized* global is attacker
        # data, so even creating a clean binding is an observable write;
        # otherwise absent and clean-without-class are equivalent
        strict = bool(self.profile.register_globals)
        records = self.globals.records
        for name, record in records.items():
            prior = before.get(name)
            if prior is None:
                if strict or record.taint is not self._CLEAN_EFFECT[0] or (
                    record.class_name or ""
                ):
                    footprint.writes.add(name)
            elif prior[0] is not record.taint or prior[1] != (record.class_name or ""):
                footprint.writes.add(name)
        for name, prior in before.items():
            if name not in records and (strict or prior != self._CLEAN_EFFECT):
                footprint.writes.add(name)

    def _collect_summary_events(self) -> None:
        """Promote summary-local sink events to plugin-level events.

        Under unit tracking each summary's events go to the root whose
        unit installed the summary, whose footprint holds what they
        were computed from (the summary's dependencies and property
        reads); a summary no other root installed goes to its defining
        file."""
        installed_by: Dict[str, str] = {}
        if self.track:
            for root, footprint in self.footprints.items():
                for key in footprint.summaries:
                    installed_by[key] = root
        for key, summary in sorted(self.summaries.items()):
            owner = ""
            if self.track:
                info = self.model.functions.get(key)
                owner = installed_by.get(key, "")
                if not owner and info is not None:
                    owner = info.file
            for event in summary.sink_events:
                concrete = event.taint.substituted({})  # drop ParamRefs, keep PropRefs
                if concrete.active or self._has_prop_refs(event.taint):
                    promoted = replace(event, taint=event.taint)
                    if owner and not promoted.unit:
                        promoted.unit = owner
                    self.events.append(promoted)

    @staticmethod
    def _has_prop_refs(taint: TaintState) -> bool:
        from .taint import PropRef

        return any(
            isinstance(label, PropRef)
            for labels in taint.active.values()
            for label in labels
        )

    def _finalize_one(self, event: SinkEvent) -> Optional[Finding]:
        """Resolve one event's property placeholders into a finding."""
        resolved = self.class_props.resolve(event.taint)
        resolved = resolved.substituted({})  # drop any leftover placeholders
        labels = resolved.active.get(event.kind, set())
        concrete = [label for label in labels if isinstance(label, ConcreteSource)]
        if not concrete:
            return None
        vectors = tuple(
            sorted({label.vector for label in concrete}, key=lambda v: v.value)
        )
        via_oop = (
            event.via_oop
            or any(label.via_oop for label in concrete)
            or self._has_prop_refs(event.taint)
        )
        trace = tuple(sorted(label.describe() for label in concrete))[:4] + event.trace
        return Finding(
            kind=event.kind,
            file=event.file,
            line=event.line,
            sink=event.sink,
            variable=event.variable,
            vectors=vectors,
            trace=trace[:MAX_TRACE],
            via_oop=via_oop,
            markup_context=event.markup_context,
        )

    @staticmethod
    def dedupe_findings(findings: Sequence[Finding]) -> List[Finding]:
        """Collapse findings sharing (kind, file, line) to one winner.

        The winner is the canonical *minimum* over the finding's full
        representation, not the first seen: min-merge is associative and
        order-independent, so merging an incremental run's live findings
        with a prior manifest's carried findings reproduces exactly what
        one cold pass over all events would produce.
        """
        best: Dict[Tuple[str, str, int], Tuple[tuple, Finding]] = {}
        for finding in findings:
            rank = (
                finding.sink,
                finding.variable,
                tuple(vector.value for vector in finding.vectors),
                finding.markup_context,
                finding.via_oop,
                finding.trace,
            )
            prior = best.get(finding.key)
            if prior is None or rank < prior[0]:
                best[finding.key] = (rank, finding)
        deduped = [finding for _rank, finding in best.values()]
        deduped.sort(key=lambda finding: (finding.file, finding.line, finding.kind.value))
        return deduped

    def _finalize_findings(self) -> List[Finding]:
        """Resolve property placeholders and deduplicate into findings."""
        candidates = []
        for event in self.events:
            finding = self._finalize_one(event)
            if finding is not None:
                candidates.append(finding)
        return self.dedupe_findings(candidates)

    def findings_by_unit(self) -> Dict[str, List[Finding]]:
        """Finalized findings grouped by the root file that produced
        them (tracked runs only; events emitted outside any unit
        group under ``""``).  Each group is deduplicated independently —
        the cross-group min-merge happens when groups are recombined."""
        grouped: Dict[str, List[Finding]] = {}
        for event in self.events:
            finding = self._finalize_one(event)
            if finding is not None:
                grouped.setdefault(event.unit, []).append(finding)
        return {
            unit: self.dedupe_findings(items) for unit, items in grouped.items()
        }

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _emit(self, event: SinkEvent) -> None:
        if self._summary_stack:
            self._summary_stack[-1].sink_events.append(event)
        else:
            if self.track and self._unit_root and not event.unit:
                event = replace(event, unit=self._unit_root)
            self.events.append(event)

    # ------------------------------------------------------------------
    # Function summaries
    # ------------------------------------------------------------------

    def _load_summary(self, info: FunctionInfo) -> Optional[FunctionSummary]:
        """Install the summary source's summary of ``info``, if any.

        Replays the summary's parameter-free property writes into the
        class property store — the commit :meth:`_record_prop_write`
        performs while a body is being summarized — so a cache-served
        method still contributes the property taint a computed one
        would.
        """
        if self._summary_source is None or info.key in self._source_missed:
            return None
        summary = self._summary_source(info)
        if summary is None:
            self._source_missed.add(info.key)
            return None
        self.summaries[info.key] = summary
        self.loaded_summaries.add(info.key)
        self._note_installed(info)
        for (class_lower, prop), taint in summary.prop_writes.items():
            self.class_props.write(class_lower, prop, taint.drop_param_refs())
        return summary

    def _replay_summary(self, info: FunctionInfo) -> None:
        """Take the summary source's summary of ``info`` inside the
        current unit, as a memoized call would; on a miss the function
        stays unsummarized and :func:`~repro.core.incremental.
        validate_rescan` falls back to a full scan."""
        summary = self._load_summary(info)
        if summary is not None:
            self._merge_summary_deps(summary)

    def _note_installed(self, info: FunctionInfo) -> None:
        """Record on the current root that its unit installed the
        summary of a function defined under another root."""
        if self.track and self._unit_fp is not None and info.file != self._unit_root:
            self._unit_fp.summaries.add(info.key)

    def _merge_summary_deps(self, summary: FunctionSummary) -> None:
        """A caller's summary inherits its callee's dependencies: the
        callee's events are baked into the caller, so whatever
        invalidates the callee invalidates the caller too.  Under unit
        tracking the current root's footprint also absorbs them, so a
        memoized summary's state effects are attributed to *every* unit
        that applies it."""
        if self._summary_stack:
            frame = self._summary_stack[-1]
            frame.dep_files.update(summary.dep_files)
            frame.dep_unresolved.update(summary.dep_unresolved)
            frame.global_reads.update(summary.global_reads)
            frame.global_writes.update(summary.global_writes)
            frame.prop_reads.update(summary.prop_reads)
            frame.static_tokens.update(summary.static_tokens)
            if summary.uses_globals or summary.faulted or summary.uses_statics:
                frame.uses_globals = frame.uses_globals or summary.uses_globals
                frame.uses_statics = frame.uses_statics or summary.uses_statics
                frame.faulted = frame.faulted or summary.faulted
        if self.track and self._unit_fp is not None:
            footprint = self._unit_fp
            footprint.dep_files.update(summary.dep_files)
            footprint.dep_unresolved.update(summary.dep_unresolved)
            footprint.reads.update(summary.global_reads)
            footprint.writes.update(summary.global_writes)
            footprint.prop_reads.update(summary.prop_reads)
            footprint.prop_writes.update(
                f"{class_lower}|{prop}" for class_lower, prop in summary.prop_writes
            )
            footprint.statics.update(summary.static_tokens)

    def _summarize(self, info: FunctionInfo) -> FunctionSummary:
        cached = self.summaries.get(info.key)
        if cached is None and info.key not in self._in_progress:
            cached = self._load_summary(info)
        if cached is not None and self.options.use_summaries:
            counters.summary_memo_hits += 1
            self._merge_summary_deps(cached)
            return cached
        if info.key in self._in_progress:
            # recursion: "functions that are called recursively are
            # parsed only once to avoid endless loops"
            return FunctionSummary(key=info.key)
        self._in_progress.add(info.key)
        summary = FunctionSummary(key=info.key)
        summary.dep_files.add(info.file)

        def build_scope() -> Scope:
            activation = Scope(info.key)
            for index, param in enumerate(info.params):
                taint = TaintState.from_label(
                    ParamRef(info.key, index), self._kind_universe
                )
                activation.set(
                    VariableRecord(
                        name=param.name,
                        file=info.file,
                        line=info.line,
                        taint=taint,
                        is_input=True,
                    )
                )
            if info.class_name and self.options.oop:
                activation.set(
                    VariableRecord(
                        name="this",
                        file=info.file,
                        line=info.line,
                        class_name=info.class_name,
                    )
                )
            return activation

        scope = build_scope()
        previous_file = self._current_file
        self._current_file = info.file
        self._summary_stack.append(summary)
        try:
            self._exec_block(info.body, scope)
            if summary.uses_statics:
                # Statics stored by one activation are observed by the
                # next; a second pass against the joined slots reaches
                # the cross-call fixed point (the two-pass scheme loops
                # use too).  Pass 1's effects are discarded —
                # pass 2 re-derives them with at-least-as-tainted state.
                summary.sink_events = []
                summary.return_taint = TaintState.clean()
                summary.return_class = ""
                summary.prop_writes = {}
                scope = build_scope()
                self._exec_block(info.body, scope)
        finally:
            self._summary_stack.pop()
            self._current_file = previous_file
            self._in_progress.discard(info.key)
        for index, param in enumerate(info.params):
            if param.by_ref:
                record = scope.get(param.name)
                if record is not None and record.taint.active:
                    summary.ref_param_writes[index] = record.taint
        self.summaries[info.key] = summary
        counters.summaries_computed += 1
        self._note_installed(info)
        if self.track and (summary.uses_globals or summary.uses_statics):
            # order-dependent summary: remember which root first computed
            # it so the planner re-runs that root whenever it matters
            self.state_summary_roots.setdefault(
                info.key, self._unit_root or info.file
            )
        self._merge_summary_deps(summary)
        return summary

    def _apply_summary(
        self,
        summary: FunctionSummary,
        args: Sequence[Value],
        arg_exprs: Sequence[ast.Expr],
        scope: Scope,
        line: int,
    ) -> Value:
        """Substitute a summary at a call site (paper: "whenever the
        function is called, this data flow is added to the
        parser_variables, which is updated based on the calling
        arguments")."""
        mapping: Dict[Label, TaintState] = {}
        for index, value in enumerate(args):
            mapping[ParamRef(summary.key, index)] = value.taint
        for event in summary.sink_events:
            self._emit(event.substituted(mapping))
        for (class_lower, prop), taint in summary.prop_writes.items():
            self._record_prop_write(class_lower, prop, taint.substituted(mapping))
        for index, taint in summary.ref_param_writes.items():
            if index < len(arg_exprs) and isinstance(arg_exprs[index], ast.Variable):
                name = arg_exprs[index].name  # type: ignore[union-attr]
                self._join_into(
                    scope, name, taint.substituted(mapping), self._current_file, line
                )
        # a getter returns a property placeholder: keep it for the
        # property store, which resolves it once the plugin is analyzed
        return Value(
            taint=summary.return_taint.substituted(mapping, keep_props=True),
            class_name=summary.return_class,
            trace=(f"return of {summary.key}() at {self._current_file}:{line}",),
        )

    # ------------------------------------------------------------------
    # Scope, property and model helpers
    # ------------------------------------------------------------------

    def _link_reference(self, target: str, source: str, scope: Scope) -> None:
        """``$b =& $a``: both names denote one storage slot from now on.

        The union of the two names' existing groups becomes a fresh
        frozenset shared by every member, and every variable write
        mirrors across the group.  (By-ref *parameters* are handled
        separately through ``ref_param_writes``.)"""
        group = set(scope.ref_groups.get(target, (target,)))
        group.update(scope.ref_groups.get(source, (source,)))
        shared = frozenset(group)
        for name in shared:
            scope.ref_groups[name] = shared

    def _join_into(
        self, scope: Scope, name: str, taint: TaintState, file: str, line: int
    ) -> None:
        """Join ``taint`` into ``$name`` without rebinding it: writes
        through a by-ref parameter, an array element or a property of
        an untyped object taint the whole variable."""
        self._note_global_read(scope, name)
        record = scope.get(name) or VariableRecord(name=name, file=file, line=line)
        scope.set(record.updated(taint=record.taint.joined(taint)))

    def _declaring_class(self, class_name: str, prop: str) -> str:
        """Walk up the hierarchy to the ancestor declaring ``prop``.

        Properties are stored under their declaring class so sibling
        subclasses writing/reading an inherited property share one slot
        (matching PHP's storage semantics, object-insensitively).
        """
        declaring = class_name
        current: Optional[str] = class_name
        seen: Set[str] = set()
        while current and current.lower() not in seen:
            seen.add(current.lower())
            info = self._lookup_class_dep(current)
            if info is None:
                break
            if prop in info.property_names:
                declaring = info.name
            current = info.parent
        return declaring

    # -- model lookups with summary-dependency recording -------------------

    def _dep_sinks(self) -> List[Tuple[Set[str], Set[str]]]:
        """(dep_files, dep_unresolved) targets for the current context:
        the enclosing summary frame and — under unit tracking — the
        current root's footprint."""
        sinks: List[Tuple[Set[str], Set[str]]] = []
        if self._summary_stack:
            frame = self._summary_stack[-1]
            sinks.append((frame.dep_files, frame.dep_unresolved))
        if self.track and self._unit_fp is not None:
            sinks.append((self._unit_fp.dep_files, self._unit_fp.dep_unresolved))
        return sinks

    def _lookup_function_dep(self, name: str):
        info = self.model.lookup_function(name)
        for dep_files, dep_unresolved in self._dep_sinks():
            if info is not None:
                dep_files.add(info.file)
            else:
                dep_unresolved.add("fn:" + name.lower())
        return info

    def _lookup_class_dep(self, name: str):
        info = self.model.lookup_class(name)
        for dep_files, dep_unresolved in self._dep_sinks():
            if info is not None:
                dep_files.add(info.file)
            else:
                dep_unresolved.add("class:" + name.lower())
        return info

    def _resolve_method_dep(self, class_name: str, method: str):
        """Like :meth:`PluginModel.resolve_method`, recording every file
        of the consulted inheritance chain as a summary dependency —
        editing any class on the chain (adding an override, changing a
        parent) must invalidate summaries that dispatched through it."""
        info = self.model.resolve_method(class_name, method)
        sinks = self._dep_sinks()
        if sinks:
            seen: Set[str] = set()
            current: Optional[str] = class_name
            while current and current.lower() not in seen:
                seen.add(current.lower())
                class_info = self.model.lookup_class(current)
                if class_info is None:
                    for _dep_files, dep_unresolved in sinks:
                        dep_unresolved.add("class:" + current.lower())
                    break
                for dep_files, _dep_unresolved in sinks:
                    dep_files.add(class_info.file)
                for trait in class_info.decl.uses:
                    trait_info = self.model.lookup_class(trait)
                    for dep_files, dep_unresolved in sinks:
                        if trait_info is not None:
                            dep_files.add(trait_info.file)
                        else:
                            dep_unresolved.add("class:" + trait.lower())
                current = class_info.parent
            if info is not None:
                for dep_files, _dep_unresolved in sinks:
                    dep_files.add(info.file)
        return info

    def _record_prop_write(self, class_name: str, prop: str, taint: TaintState) -> None:
        """Commit a property write.

        Inside a function summary the parameter-dependent part is kept in
        the summary (substituted per call site); the parameter-free part
        is committed to the shared class property store immediately so
        writes by never-called methods are still visible (Section III.E).
        """
        class_name = self._declaring_class(class_name, prop)
        if self.track and self._unit_fp is not None:
            self._unit_fp.prop_writes.add(f"{class_name.lower()}|{prop}")
        if self._summary_stack:
            summary = self._summary_stack[-1]
            key = ClassPropertyStore.key(class_name, prop)
            existing = summary.prop_writes.get(key)
            summary.prop_writes[key] = (
                taint.copy() if existing is None else existing.joined(taint)
            )
            self.class_props.write(class_name, prop, taint.drop_param_refs())
        else:
            self.class_props.write(class_name, prop, taint)

    def _note_global_read(self, scope: Scope, name: str) -> None:
        """Record a read-modify-write touch of a (possibly) global name
        that bypasses a plain variable read."""
        if self.track and self._unit_fp is not None and scope.is_global_image:
            self._unit_fp.reads.add(name)

    def _note_prop_read(self, class_name: str, prop: str) -> None:
        """Record a property read for incremental state coupling.

        Reads resolve through the ancestor chain (both at
        :meth:`ClassPropertyStore.read` placeholder resolution and at
        finalize), so the read set includes every ancestor's key — a
        write to an inherited slot anywhere on the chain couples."""
        keys: Set[str] = set()
        current = class_name.lower()
        seen: Set[str] = set()
        while current and current not in seen:
            seen.add(current)
            keys.add(f"{current}|{prop}")
            current = self.class_props.parents.get(current, "")
        if self._summary_stack:
            self._summary_stack[-1].prop_reads.update(keys)
        if self.track and self._unit_fp is not None:
            self._unit_fp.prop_reads.update(keys)

    # ------------------------------------------------------------------
    # Calls, includes and sinks (arguments already evaluated)
    # ------------------------------------------------------------------

    def _static_call(
        self, node: ast.StaticCall, values: List[Value], scope: Scope
    ) -> Value:
        """``Class::method(...)`` resolution: ``self``/``static``/
        ``parent`` bind through ``$this``, ``$var::`` through the
        variable's class."""
        if not self.options.oop or not isinstance(node.method, str):
            return Value.clean()
        class_name = node.class_name
        if class_name.startswith("$"):
            record = scope.get(class_name[1:])
            class_name = (record.class_name or "") if record else ""
        if class_name.lower() in ("self", "static", "parent"):
            this = scope.get("this")
            current = this.class_name if this and this.class_name else ""
            if class_name.lower() == "parent" and current:
                class_info = self._lookup_class_dep(current)
                class_name = (class_info.parent or "") if class_info else ""
            else:
                class_name = current
        if not class_name:
            return Value.clean()
        return self._dispatch_method(
            class_name, node.method, node, values, Value(class_name=class_name), scope
        )

    def _dispatch_method(
        self,
        class_name: str,
        method: str,
        node: Union[ast.MethodCall, ast.StaticCall],
        values: List[Value],
        obj: Value,
        scope: Scope,
    ) -> Value:
        """Shared resolution for ``->`` and ``::`` calls."""
        qualified = f"{obj.name_hint or class_name}->{method}"

        for sink in self.profile.method_sinks(class_name, method):
            self._check_sink(
                sink.kind, qualified, node, values, sink_spec=sink, via_oop=True
            )

        filter_spec = self.profile.method_filter(class_name, method)
        if filter_spec is not None:
            joined = Value.clean()
            for value in values:
                joined = joined.joined(value)
            return Value(
                taint=joined.taint.filtered(filter_spec.kinds),
                trace=joined.trace + (f"filtered by {qualified}()",),
            )

        source = self.profile.method_source(class_name, method)
        if source is not None:
            label = ConcreteSource(
                vector=source.vector,
                name=f"${class_name.lower()}->{method}()"
                if not obj.name_hint
                else f"{obj.name_hint}->{method}()",
                file=self._current_file,
                line=node.line,
                via_oop=True,
            )
            return Value(
                taint=TaintState.from_label(label, source.kinds),
                trace=(f"{qualified}() read at {self._current_file}:{node.line}",),
            )

        info = self._resolve_method_dep(class_name, method)
        if info is not None:
            summary = self._summarize(info)
            return self._apply_summary(summary, values, node.args, scope, node.line)

        propagation = self.profile.method_propagation(class_name, method)
        if propagation is not None:
            return self._apply_propagation(propagation, qualified, values)
        return Value.clean()

    def _apply_propagation(
        self, spec: "PropagationSpec", name: str, values: List[Value]
    ) -> Value:
        """ArgToReturn propagation: the return value carries the taint of
        the spec's argument positions, restricted to the spec's kinds."""
        joined = Value.clean()
        for index, value in enumerate(values):
            if spec.arg_is_propagated(index):
                joined = joined.joined(value)
        taint = joined.taint.restricted(spec.kinds)
        if taint.is_clean() and not taint.suppressed:
            return Value.clean()
        return Value(taint=taint, trace=joined.trace + (f"through {name}()",))

    def _new(
        self, node: ast.New, values: List[Value], scope: Scope
    ) -> Value:
        """``new Class(...)``: apply the constructor's summary (PHP5
        ``__construct`` or the PHP4 method named like the class)."""
        if not isinstance(node.class_name, str):
            return Value.clean()
        class_name = node.class_name
        if self.options.oop:
            constructor = self._resolve_method_dep(class_name, "__construct")
            if constructor is None:
                # PHP4-style constructor: method named like the class
                constructor = self._resolve_method_dep(class_name, class_name)
            if constructor is not None:
                summary = self._summarize(constructor)
                self._apply_summary(summary, values, node.args, scope, node.line)
        return Value(class_name=class_name)

    def _include(
        self, node: ast.IncludeExpr, path_value: Value, scope: Scope
    ) -> Value:
        """Inline the included file's top level (paper: "as the PHP file
        can include other PHP files recursively, all of them must be
        analyzed in order to obtain the complete AST").

        A tainted include path is also a file-inclusion sink (extension
        kind ``VulnKind.LFI``)."""
        if (
            VulnKind.LFI in self.construct_kinds
            and path_value.taint.active.get(VulnKind.LFI)
        ):
            self._emit(
                SinkEvent(
                    kind=VulnKind.LFI,
                    sink=node.kind,
                    file=self._current_file,
                    line=node.line,
                    variable=path_value.name_hint,
                    taint=path_value.taint,
                    trace=path_value.trace,
                )
            )
        if self._summary_stack:
            return Value.clean()  # includes inside functions: skipped
        from .model import _static_path

        raw = _static_path(node.path)
        if not raw:
            return Value.clean()
        resolved = self.model.resolve_include(raw, self._include_stack[-1])
        if (
            resolved is None
            or resolved in self._include_stack
            or len(self._include_stack) > MAX_INCLUDE_DEPTH
        ):
            return Value.clean()
        file_model = self.model.files.get(resolved)
        if file_model is None:
            return Value.clean()
        if self.track and self._unit_fp is not None:
            # the inlined file's content is part of this root's result
            self._unit_fp.dep_files.add(resolved)
        previous_file = self._current_file
        self._include_stack.append(resolved)
        self._current_file = resolved
        try:
            self._exec_block(file_model.tree.statements, scope)
        finally:
            self._include_stack.pop()
            self._current_file = previous_file
        return Value.clean()

    def _check_sink(
        self,
        kind: VulnKind,
        sink_name: str,
        node: ast.Expr,
        values: Sequence[Value],
        sink_spec,
        via_oop: bool = False,
    ) -> None:
        for index, value in enumerate(values):
            if not sink_spec.arg_is_sensitive(index):
                continue
            if value.taint.active.get(kind):
                self._emit(
                    SinkEvent(
                        kind=kind,
                        sink=sink_name,
                        file=self._current_file,
                        line=node.line,
                        variable=value.name_hint,
                        taint=value.taint,
                        trace=value.trace,
                        via_oop=via_oop,
                    )
                )
