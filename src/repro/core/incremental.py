"""Diff-aware incremental rescans (paper Section VI future work).

A tracked scan (an engine given ``reuse_roots``) records, per *root file*
(the file owning each analysis unit), a :class:`~repro.core.engine.
UnitFootprint`: which files its results were computed from, which
global variables / class properties / static slots it read and wrote,
and the finalized findings its events produced.  That record set — the
**manifest** — is what makes the next scan of an updated plugin cheap:

1. :func:`plan_rescan` diffs the new plugin's per-file digests against
   the manifest and computes the *affected* set as a fixpoint — a root
   re-runs when its own file changed, a dependency file changed, a
   previously failed lookup now resolves, or its state footprint
   couples (read∩write in either direction) with an affected root.
   Everything else is skipped via the engine's ``reuse_roots`` and its
   findings are carried forward from the manifest.  Functions of
   skipped roots that an affected root summarized are handed to the
   engine as ``replay_summaries``.
2. :func:`validate_rescan` re-checks the couplings after the run with
   the *actual* footprints of the executed units (the plan only had
   stale estimates for changed files) and pins the order-dependent
   ``uses_globals``/``uses_statics`` summaries to their original
   compute position, and checks that every summary to replay was
   found.  Any violation falls back to a full tracked scan,
   so incremental mode can degrade in speed but never in correctness.

Findings round-trip through the manifest losslessly, and merging
carried with live findings uses the engine's canonical min-merge
(:meth:`TaintEngine.dedupe_findings`), which is order-independent —
the combined result is bit-identical to one cold pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from .cache import source_digest
from .engine import TaintEngine, UnitFootprint
from .model import PluginModel
from .results import Finding, finding_from_dict, finding_to_dict
from ..plugin import Plugin

#: schema tag of the persisted manifest document
MANIFEST_SCHEMA = "repro.incremental.manifest/v2"


def plugin_file_digests(plugin: Plugin) -> Dict[str, str]:
    """Per-file content digest over the raw submission.

    Computed from the plugin payload (not the parsed model) so files
    the parser rejects still participate in change detection.
    """
    return {path: source_digest(source) for path, source in plugin.files.items()}


def _footprint_to_dict(footprint: UnitFootprint) -> Dict[str, object]:
    return {
        "dep_files": sorted(footprint.dep_files),
        "dep_unresolved": sorted(footprint.dep_unresolved),
        "reads": sorted(footprint.reads),
        "writes": sorted(footprint.writes),
        "prop_reads": sorted(footprint.prop_reads),
        "prop_writes": sorted(footprint.prop_writes),
        "statics": sorted(footprint.statics),
        "summaries": sorted(footprint.summaries),
        "faulted": footprint.faulted,
    }


# ---------------------------------------------------------------------------
# Manifest construction
# ---------------------------------------------------------------------------


def build_manifest(
    fingerprint: str,
    digests: Dict[str, str],
    engine: TaintEngine,
    prior: Optional[Dict[str, object]] = None,
    reuse_roots: FrozenSet[str] = frozenset(),
) -> Dict[str, object]:
    """Assemble the manifest describing a finished (tracked) scan.

    Roots executed this run get fresh footprints and finding groups;
    roots in ``reuse_roots`` keep their record from ``prior`` as it is
    (they did not run, so neither their footprint nor their findings
    changed).
    """
    groups = engine.findings_by_unit()
    prior_roots: Dict[str, Dict[str, object]] = {}
    if prior is not None:
        prior_roots = dict(prior.get("roots", {}))  # type: ignore[arg-type]
    roots: Dict[str, Dict[str, object]] = {}
    for root, footprint in engine.footprints.items():
        record = _footprint_to_dict(footprint)
        record["findings"] = [finding_to_dict(f) for f in groups.get(root, [])]
        roots[root] = record
    for root in reuse_roots:
        prior_record = prior_roots.get(root)
        if prior_record is not None:
            roots[root] = prior_record
    state_roots: Dict[str, str] = {}
    if prior is not None:
        for key, prior_root in dict(
            prior.get("state_summary_roots", {})  # type: ignore[arg-type]
        ).items():
            # keep only entries whose compute position was skipped this
            # run (an executed position was either re-observed below or
            # the summary is gone) and whose function still exists
            if prior_root in reuse_roots and key in engine.model.functions:
                state_roots[key] = prior_root
    state_roots.update(engine.state_summary_roots)
    # every event must be attributable to a root that ran, otherwise a
    # later rescan could drop it when skipping; a group without one
    # marks the manifest as unusable for incremental planning
    complete = (
        "" not in groups
        and not reuse_roots.intersection(groups)
        and not engine.aborted
    )
    return {
        "schema": MANIFEST_SCHEMA,
        "fingerprint": fingerprint,
        "files": dict(digests),
        "aborted": engine.aborted,
        "complete": complete,
        "roots": roots,
        "state_summary_roots": state_roots,
    }


def carried_findings(
    manifest: Dict[str, object], reuse_roots: FrozenSet[str]
) -> List[Finding]:
    """The findings of every skipped root, deserialized for merging."""
    findings: List[Finding] = []
    roots: Dict[str, Dict[str, object]] = manifest.get("roots", {})  # type: ignore[assignment]
    for root in reuse_roots:
        record = roots.get(root)
        if record is None:
            continue
        for raw in record.get("findings", []):  # type: ignore[union-attr]
            findings.append(finding_from_dict(raw))  # type: ignore[arg-type]
    return findings


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


@dataclass
class RescanPlan:
    """What the incremental driver decided to do."""

    #: run everything (tracked) — ``reason`` says why
    full: bool = False
    reason: str = ""
    #: roots the engine may skip; their findings are carried forward
    reuse_roots: FrozenSet[str] = frozenset()
    #: files whose digest differs from the manifest
    changed_files: FrozenSet[str] = frozenset()
    #: roots that must re-run (changed, coupled, or unplannable)
    affected: FrozenSet[str] = frozenset()
    #: function key -> affected root: functions of reused roots whose
    #: summary that root installed in the prior scan.  Only the root's
    #: record carries the summary's effects, so the run replays each
    #: one it does not reach (``TaintEngine(replay_summaries=...)``)
    replay: Dict[str, str] = field(default_factory=dict)


@dataclass
class RescanStats:
    """Observable outcome of one :meth:`PhpSafe.rescan` call."""

    roots_total: int = 0
    roots_reused: int = 0
    changed_files: List[str] = field(default_factory=list)
    #: empty when the incremental path was taken end to end; otherwise
    #: why the run fell back to a full scan
    fallback_reason: str = ""

    @property
    def incremental(self) -> bool:
        return self.roots_reused > 0 and not self.fallback_reason

    def to_dict(self) -> Dict[str, object]:
        """JSON/pickle-friendly form (service result documents,
        a process slot's result channel)."""
        return {
            "roots_total": self.roots_total,
            "roots_reused": self.roots_reused,
            "changed_files": list(self.changed_files),
            "fallback_reason": self.fallback_reason,
            "incremental": self.incremental,
        }


def _token_resolves(token: str, model: PluginModel) -> bool:
    kind, _, name = token.partition(":")
    if kind == "fn":
        return model.lookup_function(name) is not None
    return model.lookup_class(name) is not None


class _Coupling:
    """Aggregated read/write sets of the affected roots."""

    def __init__(self) -> None:
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        self.prop_reads: Set[str] = set()
        self.prop_writes: Set[str] = set()
        self.statics: Set[str] = set()

    def absorb(self, record: Dict[str, object]) -> None:
        self.reads.update(record.get("reads", ()))  # type: ignore[arg-type]
        self.writes.update(record.get("writes", ()))  # type: ignore[arg-type]
        self.prop_reads.update(record.get("prop_reads", ()))  # type: ignore[arg-type]
        self.prop_writes.update(record.get("prop_writes", ()))  # type: ignore[arg-type]
        self.statics.update(record.get("statics", ()))  # type: ignore[arg-type]

    def couples(self, record: Dict[str, object]) -> bool:
        return bool(
            self.writes.intersection(record.get("reads", ()))  # type: ignore[arg-type]
            or self.reads.intersection(record.get("writes", ()))  # type: ignore[arg-type]
            or self.prop_writes.intersection(record.get("prop_reads", ()))  # type: ignore[arg-type]
            or self.prop_reads.intersection(record.get("prop_writes", ()))  # type: ignore[arg-type]
            or self.statics.intersection(record.get("statics", ()))  # type: ignore[arg-type]
        )


def plan_rescan(
    manifest: Optional[Dict[str, object]],
    fingerprint: str,
    digests: Dict[str, str],
    model: PluginModel,
) -> RescanPlan:
    """Decide which roots a rescan may skip (see module docstring)."""
    if manifest is None:
        return RescanPlan(full=True, reason="no prior manifest")
    if manifest.get("schema") != MANIFEST_SCHEMA:
        return RescanPlan(full=True, reason="manifest schema mismatch")
    if manifest.get("fingerprint") != fingerprint:
        return RescanPlan(full=True, reason="analyzer configuration changed")
    if not manifest.get("complete", False) or manifest.get("aborted"):
        return RescanPlan(full=True, reason="prior scan was incomplete")
    prior_files: Dict[str, str] = manifest.get("files", {})  # type: ignore[assignment]
    if set(prior_files) != set(digests):
        # adds/removes shift include resolution and name binding in ways
        # per-file footprints cannot bound — do the scan cold
        return RescanPlan(full=True, reason="file set changed")
    changed = frozenset(
        path for path, digest in digests.items() if prior_files.get(path) != digest
    )
    roots: Dict[str, Dict[str, object]] = manifest.get("roots", {})  # type: ignore[assignment]
    affected: Set[str] = set()
    for root, record in roots.items():
        if root in changed or record.get("faulted"):
            affected.add(root)
    affected.update(path for path in changed if path in roots)
    candidates = set(roots) - affected
    coupling = _Coupling()
    for root in affected:
        record = roots.get(root)
        if record is not None:
            coupling.absorb(record)
    # single pre-pass for model-level invalidation, then the state
    # coupling fixpoint
    for root in sorted(candidates):
        record = roots[root]
        if changed.intersection(record.get("dep_files", ())):  # type: ignore[arg-type]
            affected.add(root)
            coupling.absorb(record)
            candidates.discard(root)
            continue
        if any(
            _token_resolves(token, model)
            for token in record.get("dep_unresolved", ())  # type: ignore[union-attr]
        ):
            affected.add(root)
            coupling.absorb(record)
            candidates.discard(root)
    grew = True
    while grew:
        grew = False
        for root in sorted(candidates):
            record = roots[root]
            if coupling.couples(record):
                affected.add(root)
                coupling.absorb(record)
                candidates.discard(root)
                grew = True
    if not candidates:
        return RescanPlan(
            full=True,
            reason="every root is affected",
            changed_files=changed,
            affected=frozenset(affected),
        )
    replay: Dict[str, str] = {}
    for root in sorted(affected):
        for key in roots.get(root, {}).get("summaries", ()):  # type: ignore[union-attr]
            info = model.functions.get(key)
            if info is not None and info.file in candidates:
                replay.setdefault(key, root)
    return RescanPlan(
        full=False,
        reuse_roots=frozenset(candidates),
        changed_files=changed,
        affected=frozenset(affected),
        replay=replay,
    )


# ---------------------------------------------------------------------------
# Post-run validation
# ---------------------------------------------------------------------------


def validate_rescan(
    manifest: Dict[str, object],
    plan: RescanPlan,
    engine: TaintEngine,
    model: PluginModel,
) -> Optional[str]:
    """Re-check an incremental run against what actually happened.

    Returns ``None`` when the skipped roots provably could not have
    changed the outcome, or the reason to fall back to a full scan.
    The plan's couplings were computed from the *prior* footprints of
    changed roots; here the executed units' actual footprints are
    available, plus the fault and summary-ordering conditions only
    observable after the run.
    """
    if engine.aborted:
        return "step budget exhausted during incremental run"
    if engine.incidents:
        # a faulted unit has partial footprints and partial findings;
        # the cold path reproduces whatever degradation is deterministic
        return "unit fault during incremental run"
    if engine.options.analyze_uncalled:
        for key in sorted(plan.replay):
            if key not in engine.summaries:
                # no skipped root carries its effects and the summary
                # source had no valid summary to replay
                return f"summary {key} could not be replayed"
    roots: Dict[str, Dict[str, object]] = manifest.get("roots", {})  # type: ignore[assignment]
    skipped = _Coupling()
    for root in plan.reuse_roots:
        record = roots.get(root)
        if record is not None:
            skipped.absorb(record)
    for root, footprint in engine.footprints.items():
        if (
            skipped.writes.intersection(footprint.reads)
            or skipped.reads.intersection(footprint.writes)
            or skipped.prop_writes.intersection(footprint.prop_reads)
            or skipped.prop_reads.intersection(footprint.prop_writes)
            or skipped.statics.intersection(footprint.statics)
        ):
            return f"state coupling with skipped roots surfaced in {root}"
    prior_state: Dict[str, str] = manifest.get("state_summary_roots", {})  # type: ignore[assignment]
    for key, prior_root in prior_state.items():
        live_root = engine.state_summary_roots.get(key)
        if live_root is not None:
            if prior_root in plan.reuse_roots or live_root != prior_root:
                # the order-dependent summary was computed at a
                # different position than the cold run would use
                return f"order-dependent summary {key} moved"
        else:
            if prior_root not in plan.reuse_roots and key in model.functions:
                # its original position re-ran but no longer computes
                # it: the cold-first caller moved somewhere unknown
                return f"order-dependent summary {key} no longer pinned"
    return None
