"""Unit tests for the evaluation harness on hand-built inputs."""

from repro.baselines import PixyLike, RipsLike
from repro.config.vulnerability import InputVector, VulnKind
from repro.core import PhpSafe
from repro.core.results import Finding, ToolReport
from repro.corpus.generator import FileBuilder, GeneratedCorpus
from repro.corpus.spec import GroundTruth, GroundTruthEntry, SeededSpec
from repro.evaluation import (
    MatchResult,
    analyze_inertia,
    compute_overlap,
    evaluate_version,
    growth_percent,
    tier_shares,
    vector_breakdown,
)
from repro.evaluation.matching import accumulate_report
from repro.plugin import Plugin


def truth_with(*entries):
    truth = GroundTruth(version="2014")
    for spec_id, region, file, line, kind, vector in entries:
        spec = SeededSpec(
            spec_id=spec_id, kind=kind, vector=vector, region=region
        )
        truth.add(
            GroundTruthEntry(
                spec=spec, plugin="p", version="2014", file=file, line=line
            )
        )
    return truth


def classify(report, truth):
    """Match one plugin report the way the evaluation runner does."""
    result = MatchResult(tool=report.tool, version="2014")
    accumulate_report(result, report, truth, "p")
    return result


def xss_finding(file, line):
    return Finding(kind=VulnKind.XSS, file=file, line=line, sink="echo")


class TestMatching:
    def test_tp_fp_classification(self):
        truth = truth_with(
            ("v-1", "a", "a.php", 3, VulnKind.XSS, InputVector.GET),
            ("v-2", "fp_ps", "a.php", 9, VulnKind.XSS, InputVector.DB),
        )
        report = ToolReport(tool="T", plugin="p")
        report.add_finding(xss_finding("a.php", 3))   # matches vulnerable
        report.add_finding(xss_finding("a.php", 9))   # matches bait -> FP
        report.add_finding(xss_finding("a.php", 50))  # unmatched -> FP
        result = classify(report, truth)
        assert result.counts() == (1, 2)
        assert result.detected_ids == {"v-1"}

    def test_kind_restricted_counts(self):
        truth = truth_with(
            ("v-1", "e_sqli", "a.php", 3, VulnKind.SQLI, InputVector.GET),
        )
        report = ToolReport(tool="T", plugin="p")
        report.add_finding(
            Finding(kind=VulnKind.SQLI, file="a.php", line=3, sink="q")
        )
        result = classify(report, truth)
        assert result.counts(VulnKind.SQLI) == (1, 0)
        assert result.counts(VulnKind.XSS) == (0, 0)

    def test_kind_mismatch_is_fp(self):
        truth = truth_with(
            ("v-1", "a", "a.php", 3, VulnKind.SQLI, InputVector.GET),
        )
        report = ToolReport(tool="T", plugin="p")
        report.add_finding(xss_finding("a.php", 3))  # XSS at a SQLi line
        result = classify(report, truth)
        assert result.counts() == (0, 1)


def tiny_corpus():
    """A one-plugin corpus with one flow per detector class."""
    source = (
        "<?php\n"
        "echo $_GET['all'];\n"                                # all 3 tools
        "function hook() { echo $_POST['uncalled']; }\n"     # phpSAFE+RIPS
        "$v = get_option('k'); echo $v;\n"                    # phpSAFE only
        "echo $uninit_skin;\n"                                # Pixy only
    )
    plugin = Plugin(name="p", version="1", files={"p.php": source})
    truth = truth_with(
        ("v-all", "a", "p.php", 2, VulnKind.XSS, InputVector.GET),
        ("v-unc", "b", "p.php", 3, VulnKind.XSS, InputVector.POST),
        ("v-wp", "e_wp", "p.php", 4, VulnKind.XSS, InputVector.DB),
        ("v-rg", "g", "p.php", 5, VulnKind.XSS, InputVector.GET),
    )
    return GeneratedCorpus(version="2014", plugins=[plugin], truth=truth)


class TestRunnerAndOverlap:
    def test_tool_detection_sets(self):
        corpus = tiny_corpus()
        evaluation = evaluate_version(
            corpus, [PhpSafe(), RipsLike(), PixyLike()]
        )
        assert evaluation.tools["phpSAFE"].match.detected_ids == {
            "v-all", "v-unc", "v-wp",
        }
        assert evaluation.tools["RIPS"].match.detected_ids == {"v-all", "v-unc"}
        assert evaluation.tools["Pixy"].match.detected_ids == {"v-all", "v-rg"}

    def test_union_and_confusion_conventions(self):
        corpus = tiny_corpus()
        evaluation = evaluate_version(corpus, [PhpSafe(), RipsLike(), PixyLike()])
        assert evaluation.union_detected() == {"v-all", "v-unc", "v-wp", "v-rg"}
        paper = evaluation.confusion("RIPS", convention="paper")
        assert paper.tp == 2 and paper.fn == 2
        exact = evaluation.confusion("RIPS", convention="exact")
        assert exact.fn == 2  # same here: ground truth == union

    def test_overlap_regions(self):
        corpus = tiny_corpus()
        evaluation = evaluate_version(corpus, [PhpSafe(), RipsLike(), PixyLike()])
        overlap = compute_overlap(evaluation)
        assert overlap.union_total == 4
        assert overlap.region("phpSAFE") == 1           # v-wp
        assert overlap.region("Pixy") == 1              # v-rg
        assert overlap.region("phpSAFE", "RIPS") == 1   # v-unc
        assert overlap.region("phpSAFE", "RIPS", "Pixy") == 1  # v-all
        assert overlap.shared_by_all() == 1

    def test_growth_percent(self):
        corpus = tiny_corpus()
        evaluation = evaluate_version(corpus, [PhpSafe()])
        overlap = compute_overlap(evaluation)
        assert growth_percent(overlap, overlap) == 0.0

    def test_timing_repetitions(self):
        corpus = tiny_corpus()
        evaluation = evaluate_version(corpus, [PhpSafe()], timing_repetitions=3)
        assert len(evaluation.tools["phpSAFE"].timing_runs) == 3
        assert evaluation.tools["phpSAFE"].seconds_mean > 0

    def test_classification_happens_for_every_plugin(self):
        # matching runs outside the timed region but must still see
        # every plugin's report exactly once
        corpus = tiny_corpus()
        evaluation = evaluate_version(corpus, [PhpSafe()], timing_repetitions=2)
        assert evaluation.tools["phpSAFE"].match.detected_ids == {
            "v-all", "v-unc", "v-wp",
        }
        assert len(evaluation.tools["phpSAFE"].match.classified) == 3

    def test_parallel_jobs_match_serial(self):
        corpus = tiny_corpus()
        serial = evaluate_version(corpus, [PhpSafe()])
        parallel = evaluate_version(corpus, [PhpSafe()], jobs=2)
        assert (
            parallel.tools["phpSAFE"].match.detected_ids
            == serial.tools["phpSAFE"].match.detected_ids
        )
        assert (
            parallel.tools["phpSAFE"].files_analyzed
            == serial.tools["phpSAFE"].files_analyzed
        )

    def test_cache_dir_keeps_results_stable(self, tmp_path):
        corpus = tiny_corpus()
        cache_dir = str(tmp_path / "cache")
        first = evaluate_version(corpus, [PhpSafe()], cache_dir=cache_dir)
        second = evaluate_version(corpus, [PhpSafe()], cache_dir=cache_dir)
        assert (
            first.tools["phpSAFE"].match.detected_ids
            == second.tools["phpSAFE"].match.detected_ids
        )


class TestVectorsAndInertia:
    def test_vector_breakdown_detected_only(self):
        corpus = tiny_corpus()
        evaluation = evaluate_version(corpus, [PixyLike()])
        breakdown = vector_breakdown(evaluation)  # Pixy found GET flows only
        assert breakdown.row("GET") == 2
        assert breakdown.row("DB") == 0
        full = vector_breakdown(evaluation, detected_only=False)
        assert full.total == 4

    def test_tier_shares(self):
        corpus = tiny_corpus()
        evaluation = evaluate_version(corpus, [PhpSafe(), RipsLike(), PixyLike()])
        shares = tier_shares(vector_breakdown(evaluation))
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        assert shares[1] == 0.75  # 3 of 4 direct

    def test_inertia_empty_when_nothing_carried(self):
        corpus = tiny_corpus()
        evaluation = evaluate_version(corpus, [PhpSafe()])
        analysis = analyze_inertia(evaluation, evaluation)
        assert analysis.carried == 0
        assert analysis.carried_share == 0.0


class TestFileBuilder:
    def test_sink_line_tracking(self):
        from repro.corpus.snippets import direct_echo_main

        builder = FileBuilder("x.php")
        fragment = direct_echo_main("s-1", InputVector.GET)
        line = builder.add(fragment)
        source = builder.source()
        assert "echo" in source.splitlines()[line - 1]

    def test_no_sink_returns_none(self):
        from repro.corpus.snippets import noise_loop_block

        builder = FileBuilder("x.php")
        assert builder.add(noise_loop_block("u1")) is None
