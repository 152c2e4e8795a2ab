"""Config-matrix oracle: same corpus, every execution path, one answer.

Runs one corpus through a baseline configuration (recover, serial,
summaries on, no persistent cache) and through the variant on the far
side of each axis, then diffs the finding-signature sets pairwise.  The
scan paths are the real ones — :func:`repro.evaluation.runner.run_tool`
routes ``jobs > 1`` / ``cache_dir`` runs through the batch scheduler
exactly the way the evaluation harness does — so a divergence here is a
divergence users can hit.
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Set, Tuple

from ..core.phpsafe import PhpSafe, PhpSafeOptions
from ..core.results import FindingSignature, finding_signatures
from ..corpus.generator import build_corpus
from ..evaluation.runner import run_tool
from ..plugin import Plugin
from .divergence import AxisOutcome, DifftestReport, diff_signatures


def _pack_enabled_base() -> PhpSafeOptions:
    """Default baseline options: every builtin rule pack loaded, so all
    five axes exercise the pack-compiled profile (the pack content hash
    then flows through every cache key the axes compare)."""
    from ..rules import builtin_pack_names

    return PhpSafeOptions(rule_packs=tuple(builtin_pack_names()))


@dataclass
class OracleOptions:
    """Shape of one oracle run."""

    #: corpus versions to exercise (the paper's 2012 and 2014 snapshots)
    versions: Tuple[str, ...] = ("2012", "2014")
    #: corpus scale passed to the generator
    scale: float = 0.1
    #: worker count of the parallel side of the ``jobs`` axis
    jobs: int = 2
    #: analyzer options of the baseline configuration; every variant is
    #: derived from this by flipping exactly one axis
    base: PhpSafeOptions = field(default_factory=_pack_enabled_base)


class ConfigMatrixOracle:
    """Drives the five axis comparisons over generated corpora."""

    def __init__(self, options: Optional[OracleOptions] = None) -> None:
        self.options = options or OracleOptions()

    # -- one configuration ------------------------------------------------

    def _scan(
        self,
        plugins: Sequence[Plugin],
        tool_options: PhpSafeOptions,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
    ) -> Set[FindingSignature]:
        reports, _ = run_tool(
            PhpSafe(options=tool_options), plugins, jobs=jobs, cache_dir=cache_dir
        )
        return finding_signatures(reports)

    # -- the incremental axis ----------------------------------------------

    @staticmethod
    def _mutate_one_file(plugin: Plugin, manifest: dict) -> Plugin:
        """Deterministically grow one file by a tainted-echo block —
        the canonical one-file plugin update.  The target is the
        alphabetically-first *analysis root* (falling back to the first
        file) so the mutation actually re-runs an analysis unit instead
        of, say, touching a deliberately-broken legacy file."""
        roots = [
            root for root in manifest.get("roots", {}) if root in plugin.files
        ]
        target = min(roots) if roots else min(plugin.files)
        files = dict(plugin.files)
        files[target] = (
            files[target] + "\n<?php echo $_GET['difftest_mutation'];\n"
        )
        return dataclasses.replace(plugin, files=files)

    def _scan_incremental(
        self, plugins: Sequence[Plugin], tool_options: PhpSafeOptions
    ) -> Tuple[Set[FindingSignature], Set[FindingSignature]]:
        """Per plugin: scan, mutate one file, then rescan against the
        first scan's manifest AND cold-scan the mutated plugin.  Any
        difference between the two signature sets means the planner
        reused an analysis unit it must not have."""
        cold: Set[FindingSignature] = set()
        incremental: Set[FindingSignature] = set()
        for plugin in plugins:
            tool = PhpSafe(options=tool_options)
            _report, manifest, _stats = tool.rescan(plugin)
            mutated = self._mutate_one_file(plugin, manifest)
            warm_report, _manifest2, _stats2 = tool.rescan(mutated, manifest)
            incremental |= finding_signatures([warm_report])
            cold_report = PhpSafe(options=tool_options).analyze(mutated)
            cold |= finding_signatures([cold_report])
        return cold, incremental

    # -- the five axes -----------------------------------------------------

    def run_version(self, version: str) -> DifftestReport:
        corpus = build_corpus(version, scale=self.options.scale)
        plugins = corpus.plugins
        base_options = self.options.base
        report = DifftestReport(version=version, plugins=len(plugins))

        baseline = self._scan(plugins, base_options)

        # recover: the fault-tolerant pipeline must be a pure superset
        # mechanism — on input it can parse strictly, identical findings
        strict = self._scan(plugins, replace(base_options, recover=False))
        report.axes.append(
            AxisOutcome(
                axis="recover",
                left="strict",
                right="recover",
                left_count=len(strict),
                right_count=len(baseline),
                divergences=diff_signatures(
                    "recover", "strict", "recover", strict, baseline
                ),
            )
        )

        # summaries: memoized function summaries vs re-analysis per call
        no_summaries = self._scan(
            plugins, replace(base_options, use_summaries=False)
        )
        report.axes.append(
            AxisOutcome(
                axis="summaries",
                left="summaries-off",
                right="summaries-on",
                left_count=len(no_summaries),
                right_count=len(baseline),
                divergences=diff_signatures(
                    "summaries", "summaries-off", "summaries-on", no_summaries, baseline
                ),
            )
        )

        # jobs: serial in-process vs parallel worker processes
        parallel = self._scan(plugins, base_options, jobs=self.options.jobs)
        report.axes.append(
            AxisOutcome(
                axis="jobs",
                left="jobs=1",
                right=f"jobs={self.options.jobs}",
                left_count=len(baseline),
                right_count=len(parallel),
                divergences=diff_signatures(
                    "jobs", "jobs=1", f"jobs={self.options.jobs}", baseline, parallel
                ),
            )
        )

        # cache: cold persistent cache vs a fully-warm second run
        with tempfile.TemporaryDirectory(prefix="repro-difftest-") as cache_dir:
            cold = self._scan(plugins, base_options, cache_dir=cache_dir)
            warm = self._scan(plugins, base_options, cache_dir=cache_dir)
        report.axes.append(
            AxisOutcome(
                axis="cache",
                left="cache-cold",
                right="cache-warm",
                left_count=len(cold),
                right_count=len(warm),
                divergences=diff_signatures(
                    "cache", "cache-cold", "cache-warm", cold, warm
                ),
            )
        )

        # incremental: diff-aware one-file-changed rescan vs a cold full
        # scan of the identical mutated plugin
        cold_mutated, warm_mutated = self._scan_incremental(plugins, base_options)
        report.axes.append(
            AxisOutcome(
                axis="incremental",
                left="full-scan",
                right="incremental-rescan",
                left_count=len(cold_mutated),
                right_count=len(warm_mutated),
                divergences=diff_signatures(
                    "incremental",
                    "full-scan",
                    "incremental-rescan",
                    cold_mutated,
                    warm_mutated,
                ),
            )
        )
        return report

    def run(self) -> List[DifftestReport]:
        return [self.run_version(version) for version in self.options.versions]
