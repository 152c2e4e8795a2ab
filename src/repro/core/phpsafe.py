"""The phpSAFE facade: the paper's single ``PHP-SAFE`` class.

"Since phpSAFE is developed in OOP, its functions become accessible
through the instantiation of a single PHP class called PHP-SAFE, which
receives as input the PHP file to be analyzed and delivers the results
in the properties of the object instantiated from the PHP-SAFE class."
(Section III) — this module is that class, in Python: construct a
:class:`PhpSafe` (optionally customizing the profile or feature flags),
call :meth:`analyze` on a plugin or :meth:`analyze_source` on a single
file, read the findings off the returned report.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from ..config.profiles import AnalyzerProfile
from ..incidents import Incident, IncidentSeverity, IncidentStage
from ..perf import counters, derive
from ..plugin import Plugin
from ..rules import resolve_profile
from .cache import MEMORY_TIER_MAX_BYTES, ModelCache, summary_key
from .engine import EngineOptions, TaintEngine, summary_is_valid
from .ir import IRTaintEngine
from .model import PluginModel
from .results import FileFailure, Finding, ToolReport
from .tool import AnalyzerTool, collector_paused


@dataclass
class PhpSafeOptions:
    """Feature flags — also the ablation knobs of experiment A1."""

    #: Named profile (a key of ``repro.rules.PROFILES``): ``wordpress``
    #: loads the WordPress configuration (sources/filters/sinks and
    #: known instances like ``$wpdb``) on top of generic PHP; the A1
    #: ablation's "no WordPress configuration" is ``generic``.
    profile_name: str = "wordpress"
    #: Rule packs compiled after the profile's own packs: shipped pack
    #: names (``ssrf``) or filesystem paths.  Pack content hashes flow
    #: into the profile fingerprint, hence into every cache key.
    rule_packs: Tuple[str, ...] = ()
    #: Parse OOP constructs: properties, methods, ``new``, ``$this``.
    oop: bool = True
    #: Analyze functions never called from plugin code (entry points).
    analyze_uncalled: bool = True
    #: Memoize function summaries (parse each function only once).
    use_summaries: bool = True
    #: Cumulative include-closure budget per file, in source bytes;
    #: reproduces the paper's memory-exhaustion failures (Section V.E).
    include_budget: int = 120_000
    #: Fault-tolerant pipeline (Section V.E): panic-mode lexer/parser
    #: recovery plus per-unit engine isolation.  ``False`` (the CLI's
    #: ``--strict``) reproduces the historical all-or-nothing behaviour.
    recover: bool = True
    #: Wall-clock deadline, in seconds, per analysis unit (the batch
    #: path gets its per-plugin timeout from SIGALRM).  Only honoured
    #: with ``recover=True``.
    file_deadline: Optional[float] = None
    #: Engine budgets, as documented on
    #: :class:`~repro.core.engine.EngineOptions`.
    step_budget: int = 4_000_000
    max_include_depth: int = 16
    max_trace: int = 12
    unit_step_budget: Optional[int] = None
    max_eval_depth: int = 500


#: Process-wide L1 artifact cache: parse models, lowered IR and function
#: summaries, shared by every tool constructed without an explicit cache
#: (the ``re`` module's compiled-pattern cache is the model).  Safe to
#: share because every tier is content-addressed — model slots key on
#: path + source digest + parse variant, and IR/summary slots embed the
#: analyzer-configuration fingerprint — so two tools can only ever hit
#: the same slot when they would have computed the identical artifact.
#: Created lazily so importing the module costs nothing; bounded LRU so
#: long-lived processes (serve daemons, fleet workers) cannot grow it
#: without limit.  Entry counts alone are a poor bound — 512 slots of
#: multi-MB FileModels is gigabytes — so the cache also evicts by
#: approximate heap bytes (:data:`~repro.core.cache.MEMORY_TIER_MAX_BYTES`),
#: whichever cap trips first.
_PROCESS_CACHE: Optional[ModelCache] = None
_PROCESS_CACHE_ENTRIES = 512


def _new_process_cache() -> ModelCache:
    return ModelCache(
        max_entries=_PROCESS_CACHE_ENTRIES, max_bytes=MEMORY_TIER_MAX_BYTES
    )


def process_cache() -> ModelCache:
    """The shared per-process artifact cache (created on first use)."""
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = _new_process_cache()
    return _PROCESS_CACHE


def process_cache_occupancy() -> Dict[str, object]:
    """Occupancy snapshot of the process cache for telemetry.

    Returns the cache's entry/byte usage against both caps without
    forcing the cache into existence — an untouched process reports
    the zero occupancy of an empty cache.
    """
    cache = _new_process_cache() if _PROCESS_CACHE is None else _PROCESS_CACHE
    return cache.occupancy()


class PhpSafe(AnalyzerTool):
    """phpSAFE: OOP-aware XSS/SQLi static analyzer for PHP plugins."""

    name = "phpSAFE"

    def __init__(
        self,
        profile: Optional[AnalyzerProfile] = None,
        options: Optional[PhpSafeOptions] = None,
        cache: Optional[ModelCache] = None,
        cache_dir: Optional[str] = None,
        use_process_cache: bool = True,
    ) -> None:
        self.options = options or PhpSafeOptions()
        if cache is None and cache_dir is not None:
            # late import: the batch subsystem builds on top of core
            from ..batch.diskcache import DiskModelCache

            cache = DiskModelCache(cache_dir)
        if cache is None and use_process_cache:
            cache = process_cache()
        #: cross-run parse cache (Section VI performance work);
        #: ``cache_dir`` selects the disk-persistent variant, the default
        #: is the process-wide L1, ``use_process_cache=False`` disables
        #: caching entirely (cold-measurement harnesses)
        self.cache = cache
        self.profile = profile or resolve_profile(
            self.options.profile_name, self.options.rule_packs
        )

    def _summary_fingerprint(self, engine_options: EngineOptions) -> str:
        """Configuration identity of the persistent summary cache: the
        knowledge base plus every engine option that changes what a
        function summary contains.  Resource budgets are excluded — a
        summary is the same analysis result regardless of how much
        budget was left when it was computed (faulted placeholder
        summaries are never persisted)."""
        spec = (
            self.profile.fingerprint(),
            engine_options.oop,
            engine_options.analyze_uncalled,
            engine_options.analyze_methods_standalone,
            engine_options.recover,
            tuple(sorted(kind.value for kind in engine_options.construct_kinds)),
            engine_options.unknown_call_policy,
            engine_options.max_include_depth,
            engine_options.max_trace,
        )
        return hashlib.sha256(repr(spec).encode("utf-8")).hexdigest()[:16]

    def _preload_summaries(
        self,
        engine: TaintEngine,
        model: PluginModel,
        fingerprint: str,
        digests: Dict[str, str],
    ) -> Set[str]:
        """Install valid cross-run summaries before the engine runs.

        A hit must survive dependency validation: every file the summary
        was computed from still has the same content, and every lookup
        that found nothing still finds nothing."""
        preloaded: Set[str] = set()
        for key, info in model.functions.items():
            digest = digests.get(info.file)
            if not digest:
                continue
            cached = self.cache.lookup_summary(summary_key(fingerprint, key, digest))
            if cached is None:
                counters.summary_cache_misses += 1
                continue
            if not summary_is_valid(cached, model, digests):
                self.cache.summary_stats.stale += 1
                counters.summary_cache_stale += 1
                continue
            engine.preload_summary(cached)
            preloaded.add(key)
            counters.summary_cache_hits += 1
        return preloaded

    def _store_summaries(
        self,
        engine: TaintEngine,
        model: PluginModel,
        fingerprint: str,
        digests: Dict[str, str],
        preloaded: Set[str],
    ) -> None:
        """Persist the summaries this run computed, pinned to the
        content digests of every file they depend on."""
        for key, summary in engine.summaries.items():
            if (
                key in preloaded
                or summary.faulted
                or summary.uses_globals
                or summary.uses_statics
            ):
                continue
            info = model.functions.get(key)
            if info is None:
                continue
            digest = digests.get(info.file)
            if not digest:
                continue
            dep_digests: Dict[str, str] = {}
            for path in summary.dep_files:
                dep_digest = digests.get(path)
                if not dep_digest:
                    break
                dep_digests[path] = dep_digest
            else:
                summary.dep_digests = dep_digests
                self.cache.store_summary(
                    summary_key(fingerprint, key, digest), summary
                )

    def _engine_options(
        self,
        track_units: bool = False,
        reuse_roots: FrozenSet[str] = frozenset(),
    ) -> EngineOptions:
        options = self.options
        return EngineOptions(
            oop=options.oop,
            analyze_uncalled=options.analyze_uncalled,
            analyze_methods_standalone=True,
            use_summaries=options.use_summaries,
            step_budget=options.step_budget,
            max_include_depth=options.max_include_depth,
            max_trace=options.max_trace,
            recover=options.recover,
            unit_step_budget=options.unit_step_budget,
            unit_deadline=options.file_deadline,
            max_eval_depth=options.max_eval_depth,
            track_units=track_units,
            reuse_roots=reuse_roots,
        )

    @collector_paused()
    def analyze(self, plugin: Plugin) -> ToolReport:
        """Run the four stages on every file of ``plugin``."""
        report, _model, _engine = self._scan(plugin, self._engine_options())
        return report

    def _scan(
        self,
        plugin: Plugin,
        engine_options: EngineOptions,
        model: Optional[PluginModel] = None,
        carried: Sequence[Finding] = (),
    ) -> Tuple[ToolReport, PluginModel, TaintEngine]:
        """The shared scan core behind :meth:`analyze` and
        :meth:`rescan`: build (or accept) the model, run the engine,
        shape the report.  ``carried`` findings from a prior manifest
        are min-merged with the live ones before deduplication."""
        perf_before = counters.snapshot()
        report = ToolReport(tool=self.name, plugin=plugin.slug)
        if model is None:
            model = PluginModel.build(
                plugin,
                include_budget=self.options.include_budget,
                cache=self.cache,
                recover=self.options.recover,
            )
        # unrecoverable skips keep their historical FileFailure shape so
        # the Section V.E robustness tables are unchanged
        for path, error in sorted(model.parse_failures.items()):
            report.failures.append(
                FileFailure(file=path, reason=str(error), is_error=False)
            )
        for path, error in sorted(model.budget_failures.items()):
            report.failures.append(
                FileFailure(file=path, reason=str(error), is_error=False)
            )
        fingerprint = ""
        if self.cache is not None:
            fingerprint = self._summary_fingerprint(engine_options)
        engine = IRTaintEngine(
            model,
            self.profile,
            engine_options,
            ir_store=self.cache,
            ir_fingerprint=fingerprint,
        )
        use_summary_cache = self.cache is not None and engine_options.use_summaries
        digests: Dict[str, str] = {}
        preloaded: Set[str] = set()
        if use_summary_cache:
            digests = model.file_digests()
            preloaded = self._preload_summaries(engine, model, fingerprint, digests)
        live = engine.run()
        if carried:
            merged = TaintEngine.dedupe_findings(list(live) + list(carried))
        else:
            merged = live
        for finding in merged:
            report.add_finding(finding)
        if use_summary_cache:
            self._store_summaries(engine, model, fingerprint, digests, preloaded)
        report.incidents = list(model.incidents) + list(engine.incidents)
        # recovered incidents map to "error message but analysis
        # completed" failures (the Pixy column of the paper's table)
        for incident in report.incidents:
            if incident.recovered:
                report.failures.append(
                    FileFailure(
                        file=incident.file,
                        reason=incident.describe(),
                        is_error=True,
                        completed=True,
                    )
                )
        if engine.aborted:
            report.failures.append(
                FileFailure(
                    file="<plugin>",
                    reason="analysis step budget exhausted",
                    is_error=True,
                )
            )
            if not any(
                incident.severity is IncidentSeverity.FATAL
                for incident in report.incidents
            ):
                report.incidents.append(
                    Incident(
                        stage=IncidentStage.ANALYSIS,
                        severity=IncidentSeverity.FATAL,
                        file="<plugin>",
                        reason="analysis step budget exhausted",
                        recovered=False,
                    )
                )
        report.files_analyzed = len(model.files)
        report.loc_analyzed = model.total_loc
        report.files_skipped = len(model.parse_failures) + len(model.budget_failures)
        report.loc_skipped = sum(model.skipped_loc.values())
        # reviewer resources (paper Section III.D): final variable dump
        report.variables = dict(engine.globals.records)
        # per-run observability: counter deltas plus derived rates
        report.perf = counters.since(perf_before)
        report.perf.update(derive(report.perf))
        return report, model, engine

    @collector_paused()
    def rescan(
        self, plugin: Plugin, manifest: Optional[Dict[str, object]] = None
    ) -> "Tuple[ToolReport, Dict[str, object], RescanStats]":
        """Diff-aware scan against a prior manifest.

        Returns ``(report, new_manifest, stats)``.  With no (usable)
        manifest this is a full scan that additionally records unit
        footprints; with one, roots whose file digest, dependency set,
        and state couplings are unchanged are skipped and their
        findings carried forward — then re-validated against the
        executed units' actual footprints, falling back to a full
        tracked scan on any violation.  The report's finding set is
        identical to a cold :meth:`analyze` either way (``difftest``
        enforces this); only ``report.variables`` may omit entries a
        skipped unit would have written.
        """
        from .incremental import (
            RescanStats,
            build_manifest,
            carried_findings,
            plan_rescan,
            plugin_file_digests,
            validate_rescan,
        )

        digests = plugin_file_digests(plugin)
        if manifest is not None and self.cache is not None:
            # the edit's superseded versions are dead weight in memory
            # (they stay on disk); a digest still in use is kept
            old_files: Dict[str, str] = manifest.get("files") or {}  # type: ignore
            self.cache.spill_versions(set(old_files.values()) - set(digests.values()))
        base_options = self._engine_options(track_units=True)
        fingerprint = self._summary_fingerprint(base_options)
        model = PluginModel.build(
            plugin,
            include_budget=self.options.include_budget,
            cache=self.cache,
            recover=self.options.recover,
            digests=digests,
        )
        if self.options.recover:
            plan = plan_rescan(manifest, fingerprint, digests, model)
        else:
            # the skip machinery works on recover-mode analysis units
            plan = plan_rescan(None, fingerprint, digests, model)
            plan.reason = "strict mode has no skippable units"
        stats = RescanStats(
            changed_files=sorted(plan.changed_files),
            fallback_reason="",
        )
        if not plan.full and manifest is not None:
            options = self._engine_options(
                track_units=True, reuse_roots=plan.reuse_roots
            )
            report, model, engine = self._scan(
                plugin,
                options,
                model=model,
                carried=carried_findings(manifest, plan.reuse_roots),
            )
            violation = validate_rescan(manifest, plan, engine, model)
            if violation is None:
                new_manifest = build_manifest(
                    fingerprint,
                    digests,
                    engine,
                    prior=manifest,
                    reuse_roots=plan.reuse_roots,
                )
                stats.roots_total = len(new_manifest["roots"])  # type: ignore[arg-type]
                stats.roots_reused = len(plan.reuse_roots)
                return report, new_manifest, stats
            stats.fallback_reason = violation
        elif plan.reason:
            stats.fallback_reason = plan.reason
        report, model, engine = self._scan(plugin, base_options, model=model)
        new_manifest = build_manifest(fingerprint, digests, engine)
        stats.roots_total = len(new_manifest["roots"])  # type: ignore[arg-type]
        stats.roots_reused = 0
        return report, new_manifest, stats

    def analyze_source(self, source: str, filename: str = "input.php") -> ToolReport:
        """Convenience: analyze a single PHP source string."""
        plugin = Plugin(name=filename, files={filename: source})
        return self.analyze(plugin)
