"""Evaluation orchestration (paper Section IV.B, steps 4 and 5).

Runs every tool over every plugin of a corpus version, collecting
classified findings, wall-clock time (Table III averages five runs; the
repetition count is configurable) and robustness incidents (Section
V.E), then derives the Table I confusion metrics under both FN
conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..batch import BatchOptions, BatchScanner, ScanTelemetry, ToolSpec, run_jobs
from ..config.vulnerability import VulnKind
from ..core.results import FileFailure, ToolReport
from ..core.tool import AnalyzerTool
from ..corpus.generator import GeneratedCorpus
from ..plugin import Plugin
from .matching import MatchResult, accumulate_report
from .metrics import Confusion


@dataclass
class ToolEvaluation:
    """Everything one tool produced over one corpus version."""

    tool: str
    version: str
    match: MatchResult
    seconds: float = 0.0
    timing_runs: List[float] = field(default_factory=list)
    failures: List[FileFailure] = field(default_factory=list)
    files_analyzed: int = 0
    loc_analyzed: int = 0

    @property
    def failed_files(self) -> List[str]:
        return [failure.file for failure in self.failures if not failure.completed]

    @property
    def error_messages(self) -> int:
        return sum(1 for failure in self.failures if failure.is_error)

    @property
    def seconds_mean(self) -> float:
        if self.timing_runs:
            return sum(self.timing_runs) / len(self.timing_runs)
        return self.seconds

    @property
    def seconds_per_kloc(self) -> float:
        kloc = self.loc_analyzed / 1000.0
        return self.seconds_mean / kloc if kloc else 0.0


@dataclass
class VersionEvaluation:
    """All tools over one corpus version."""

    corpus: GeneratedCorpus
    tools: Dict[str, ToolEvaluation] = field(default_factory=dict)

    @property
    def version(self) -> str:
        return self.corpus.version

    def union_detected(self, kind: Optional[VulnKind] = None) -> Set[str]:
        """Distinct vulnerable spec ids detected by at least one tool
        (the paper's "real set of vulnerabilities the plugin have")."""
        union: Set[str] = set()
        for evaluation in self.tools.values():
            if kind is None:
                union |= evaluation.match.detected_ids
            else:
                union |= evaluation.match.detected_ids_of(kind, self.corpus.truth)
        return union

    def confusion(
        self, tool: str, kind: Optional[VulnKind] = None, convention: str = "paper"
    ) -> Confusion:
        """Table I cell block for one tool.

        ``convention="paper"`` computes FN against the union of all
        tools' confirmed detections (the paper's optimistic Recall);
        ``"exact"`` computes FN against the generator's ground truth.
        """
        evaluation = self.tools[tool]
        tp, fp = evaluation.match.counts(kind)
        if kind is None:
            detected = evaluation.match.detected_ids
        else:
            detected = evaluation.match.detected_ids_of(kind, self.corpus.truth)
        if convention == "paper":
            reference = self.union_detected(kind)
        elif convention == "exact":
            reference = {
                entry.spec.spec_id
                for entry in self.corpus.truth.vulnerabilities()
                if kind is None or entry.spec.kind is kind
            }
        else:
            raise ValueError(f"unknown convention {convention!r}")
        fn = len(reference - detected)
        return Confusion(tp=tp, fp=fp, fn=fn)


def run_tool(
    tool: AnalyzerTool,
    plugins: Sequence[Plugin],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> Tuple[List[ToolReport], float]:
    """Analyze every plugin, returning per-plugin reports and the
    wall-clock time of the analysis alone (no classification).

    Public so the differential harness (:mod:`repro.difftest`) drives
    the exact execution paths the evaluation uses: ``jobs > 1`` or a
    ``cache_dir`` routes through the batch scheduler, otherwise
    :func:`~repro.batch.job.run_jobs` runs ``tool`` itself serially
    in-process, so its caches persist across timing repetitions.  A
    plugin whose analysis raises gets a ``<plugin>`` failure report."""
    if jobs > 1 or cache_dir:
        spec = ToolSpec.from_tool(tool)
        if spec is not None:
            scanner = BatchScanner(
                spec, BatchOptions(jobs=jobs, cache_dir=cache_dir)
            )
            result = scanner.scan(plugins)
            return result.reports, result.telemetry.wall_seconds
        # unpicklable custom tool: fall through to the serial path
    telemetry = ScanTelemetry(plugins=None)
    run = run_jobs(tool, plugins, telemetry)
    reports = [record.report for _plugin, record in run]
    return reports, telemetry.wall_seconds


def evaluate_version(
    corpus: GeneratedCorpus,
    tools: Sequence[AnalyzerTool],
    timing_repetitions: int = 1,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    report_hook: Optional[Callable[[str, List[ToolReport]], None]] = None,
) -> VersionEvaluation:
    """Run ``tools`` over every plugin of ``corpus``.

    ``timing_repetitions`` > 1 re-runs the analysis to average the
    Table III detection time the way the paper does (five runs); every
    repetition times only the analysis itself — ground-truth
    classification happens outside the timed region so run 1 measures
    the same work as runs 2..N.  ``jobs`` > 1 fans the per-plugin
    analysis out over the batch scheduler (``jobs=1``, the default, is
    the paper-faithful serial configuration); ``cache_dir`` persists
    the parse cache across runs and repetitions.
    """
    evaluation = VersionEvaluation(corpus=corpus)
    for tool in tools:
        match = MatchResult(tool=tool.name, version=corpus.version)
        tool_eval = ToolEvaluation(
            tool=tool.name, version=corpus.version, match=match
        )
        reports, seconds = run_tool(tool, corpus.plugins, jobs, cache_dir)
        if report_hook is not None:
            # differential harness hook: hand out the per-plugin reports
            # of this configuration before they are folded into metrics
            report_hook(tool.name, reports)
        tool_eval.seconds = seconds
        tool_eval.timing_runs.append(seconds)
        for plugin, report in zip(corpus.plugins, reports):
            accumulate_report(match, report, corpus.truth, plugin.name)
            tool_eval.failures.extend(report.failures)
            tool_eval.files_analyzed += report.files_analyzed
            tool_eval.loc_analyzed += report.loc_analyzed
        for _ in range(timing_repetitions - 1):
            _, seconds = run_tool(tool, corpus.plugins, jobs, cache_dir)
            tool_eval.timing_runs.append(seconds)
        evaluation.tools[tool.name] = tool_eval
    return evaluation


def evaluate_both(
    corpora: Iterable[GeneratedCorpus],
    tools_factory,
    timing_repetitions: int = 1,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> Dict[str, VersionEvaluation]:
    """Evaluate several corpus versions with fresh tool instances.

    ``tools_factory`` is called per version and must return the tool
    list; fresh instances keep per-run state (none today) isolated.
    """
    results: Dict[str, VersionEvaluation] = {}
    for corpus in corpora:
        results[corpus.version] = evaluate_version(
            corpus,
            tools_factory(),
            timing_repetitions=timing_repetitions,
            jobs=jobs,
            cache_dir=cache_dir,
        )
    return results
