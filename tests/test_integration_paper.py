"""Integration: the full paper evaluation, asserted cell by cell.

Runs phpSAFE, RIPS-like and Pixy-like over both generated corpus
versions (session fixture) and asserts every reproduced number:
Table I, Fig. 2, Table II, Section V.A (OOP), V.D (inertia) and
V.E (robustness).  Where the paper's own tables are internally
inconsistent (documented in EXPERIMENTS.md) the reproduction asserts
its self-consistent value.
"""

import pytest

from repro.config.vulnerability import VulnKind
from repro.evaluation import (
    PAPER_FAILED_FILES,
    PAPER_OOP,
    analyze_inertia,
    both_versions_breakdown,
    compute_overlap,
    render_fig2,
    render_inertia,
    render_robustness,
    render_table1,
    render_table2,
    render_table3,
    vector_breakdown,
)

# (version, tool) -> (xss_tp, xss_fp, sqli_tp, sqli_fp)
TABLE1_EXPECTED = {
    ("2012", "phpSAFE"): (307, 63, 8, 2),
    ("2012", "RIPS"): (134, 79, 0, 0),
    ("2012", "Pixy"): (50, 185, 0, 0),
    ("2014", "phpSAFE"): (378, 57, 9, 5),  # paper prints 374 (see notes)
    ("2014", "RIPS"): (304, 47, 0, 1),  # paper XSS row prints 288
    ("2014", "Pixy"): (20, 197, 0, 0),
}


@pytest.mark.parametrize("version,tool", sorted(TABLE1_EXPECTED))
def test_table1_cells(evaluations, version, tool):
    xss = evaluations[version].confusion(tool, VulnKind.XSS)
    sqli = evaluations[version].confusion(tool, VulnKind.SQLI)
    assert (xss.tp, xss.fp, sqli.tp, sqli.fp) == TABLE1_EXPECTED[(version, tool)]


def test_table1_global_totals(evaluations):
    # paper Global rows: phpSAFE 315/387, RIPS 134/304, Pixy 50/20
    for version, tool, tp in (
        ("2012", "phpSAFE", 315),
        ("2014", "phpSAFE", 387),
        ("2012", "RIPS", 134),
        ("2014", "RIPS", 304),
        ("2012", "Pixy", 50),
        ("2014", "Pixy", 20),
    ):
        assert evaluations[version].confusion(tool).tp == tp


def test_tool_ranking_holds_everywhere(evaluations):
    """phpSAFE > RIPS > Pixy on TP, Precision, Recall, F-score.

    Precision is compared on the XSS rows: the paper's RIPS-2014 Global
    FP cell (79) contradicts its own XSS+SQLi breakdown (47+1), and with
    the self-consistent counts the Global precision race is within half
    a point (see EXPERIMENTS.md).
    """
    for version in ("2012", "2014"):
        evaluation = evaluations[version]
        ps = evaluation.confusion("phpSAFE")
        rips = evaluation.confusion("RIPS")
        pixy = evaluation.confusion("Pixy")
        assert ps.tp > rips.tp > pixy.tp
        assert ps.recall > rips.recall > pixy.recall
        assert ps.f_score > rips.f_score > pixy.f_score
        ps_xss = evaluation.confusion("phpSAFE", VulnKind.XSS)
        rips_xss = evaluation.confusion("RIPS", VulnKind.XSS)
        pixy_xss = evaluation.confusion("Pixy", VulnKind.XSS)
        assert ps_xss.precision > rips_xss.precision > pixy_xss.precision


def test_only_phpsafe_finds_sqli(evaluations):
    for version in ("2012", "2014"):
        evaluation = evaluations[version]
        assert evaluation.confusion("phpSAFE", VulnKind.SQLI).tp > 0
        assert evaluation.confusion("RIPS", VulnKind.SQLI).tp == 0
        assert evaluation.confusion("Pixy", VulnKind.SQLI).tp == 0


def test_phpsafe_sqli_recall_100_percent(evaluations):
    # paper: Recall 100% for SQLi in both versions
    for version in ("2012", "2014"):
        confusion = evaluations[version].confusion("phpSAFE", VulnKind.SQLI)
        assert confusion.recall == 1.0


def test_fig2_distinct_vulnerabilities(evaluations):
    older = compute_overlap(evaluations["2012"])
    newer = compute_overlap(evaluations["2014"])
    assert older.union_total == 394
    assert newer.union_total == 586
    growth = (newer.union_total - older.union_total) / older.union_total
    assert 0.45 <= growth <= 0.55  # the paper's "+51% in two years"


def test_fig2_every_tool_contributes_unique_findings(evaluations):
    """Paper: "different tools also detected many different vulnerabilities"."""
    for version in ("2012", "2014"):
        overlap = compute_overlap(evaluations[version])
        for tool in ("phpSAFE", "RIPS", "Pixy"):
            assert overlap.region(tool) > 0, (version, tool)


def test_fig2_region_structure(evaluations):
    """All three tools share some findings, phpSAFE's exclusive region
    is the largest (its OOP advantage), and the regions partition the
    union."""
    for version in ("2012", "2014"):
        overlap = compute_overlap(evaluations[version])
        assert overlap.shared_by_all() > 0, version
        exclusive = {
            tool: overlap.region(tool) for tool in ("phpSAFE", "RIPS", "Pixy")
        }
        assert max(exclusive, key=exclusive.get) == "phpSAFE", version
        regions = sum(region.count for region in overlap.regions)
        assert regions == overlap.union_total, version


def test_oop_vulnerabilities_only_phpsafe(evaluations, corpus_2012, corpus_2014):
    """Section V.A: 151 OOP vulns in 2012 (10 plugins), 179 in 2014 (7)."""
    for evaluation, corpus, expected_count, expected_plugins in (
        (evaluations["2012"], corpus_2012, 151, 10),
        (evaluations["2014"], corpus_2014, 179, 7),
    ):
        oop_ids = {
            entry.spec.spec_id
            for entry in corpus.truth.vulnerabilities()
            if entry.spec.via_oop
        }
        oop_plugins = {
            entry.plugin
            for entry in corpus.truth.vulnerabilities()
            if entry.spec.via_oop
        }
        assert len(oop_ids) == expected_count
        assert len(oop_plugins) == expected_plugins
        assert (expected_count, expected_plugins) == PAPER_OOP[evaluation.version]
        detected_ps = evaluation.tools["phpSAFE"].match.detected_ids
        assert oop_ids <= detected_ps
        assert not oop_ids & evaluation.tools["RIPS"].match.detected_ids
        assert not oop_ids & evaluation.tools["Pixy"].match.detected_ids


def test_phpsafe_findings_flag_via_oop(evaluations, corpus_2014):
    """phpSAFE's reports mark OOP-mediated findings as such."""
    match = evaluations["2014"].tools["phpSAFE"].match
    oop_ids = {
        entry.spec.spec_id
        for entry in corpus_2014.truth.vulnerabilities()
        if entry.spec.via_oop
    }
    flagged = {
        item.entry.spec.spec_id
        for item in match.classified
        if item.is_tp and item.finding.via_oop
    }
    assert oop_ids <= flagged


TABLE2_EXPECTED = {
    # paper Table II; GET 2014 is 112 here (the paper's rows sum to 585
    # for a 586 union — our corpus is self-consistent)
    "2012": {"POST": 22, "GET": 96, "POST/GET/COOKIE": 24, "DB": 211,
             "File/Function/Array": 41},
    "2014": {"POST": 43, "GET": 112, "POST/GET/COOKIE": 57, "DB": 363,
             "File/Function/Array": 11},
    "both": {"POST": 11, "GET": 36, "POST/GET/COOKIE": 19, "DB": 162,
             "File/Function/Array": 4},
}


def test_table2_input_vectors(evaluations):
    older = vector_breakdown(evaluations["2012"])
    newer = vector_breakdown(evaluations["2014"])
    both = both_versions_breakdown(evaluations["2012"], evaluations["2014"])
    assert older.rows == TABLE2_EXPECTED["2012"]
    assert newer.rows == TABLE2_EXPECTED["2014"]
    assert both.rows == TABLE2_EXPECTED["both"]


def test_section_vc_tier_shares(evaluations):
    """36% directly exploitable, ~62% DB, ~2% other (2014)."""
    from repro.evaluation import tier_shares

    shares = tier_shares(vector_breakdown(evaluations["2014"]))
    assert 0.30 <= shares[1] <= 0.42
    assert 0.55 <= shares[2] <= 0.68
    assert shares[3] <= 0.05


def test_inertia_section_vd(evaluations):
    analysis = analyze_inertia(evaluations["2012"], evaluations["2014"])
    assert analysis.carried == 232  # Table II "Both versions" total
    assert 0.35 <= analysis.carried_share <= 0.45  # paper: 42%
    assert analysis.carried_easy == 66  # GET+POST+PGC carried
    assert 0.2 <= analysis.easy_share_of_carried <= 0.35  # paper: 24%


def test_robustness_section_ve(evaluations):
    expected = {
        ("2012", "phpSAFE"): 1,
        ("2012", "RIPS"): 0,
        ("2012", "Pixy"): 1,
        ("2014", "phpSAFE"): 3,
        ("2014", "RIPS"): 0,
        ("2014", "Pixy"): 31,
    }
    for (version, tool), failed in expected.items():
        evaluation = evaluations[version].tools[tool]
        assert len(evaluation.failed_files) == failed, (version, tool)
        assert failed == PAPER_FAILED_FILES[tool][version], (version, tool)
    assert evaluations["2012"].tools["Pixy"].error_messages == 1
    assert evaluations["2014"].tools["Pixy"].error_messages == 37


def test_corpus_file_counts_match_paper(corpus_2012, corpus_2014):
    assert corpus_2012.total_files == 266
    assert corpus_2014.total_files == 356


def test_renderers_do_not_crash(evaluations):
    older, newer = evaluations["2012"], evaluations["2014"]
    assert "TABLE I" in render_table1(evaluations)
    assert "TABLE II" in render_table2(
        vector_breakdown(older),
        vector_breakdown(newer),
        both_versions_breakdown(older, newer),
    )
    assert "TABLE III" in render_table3(evaluations)
    assert "FIG. 2" in render_fig2(compute_overlap(older), compute_overlap(newer))
    assert "INERTIA" in render_inertia(analyze_inertia(older, newer))
    assert "ROBUSTNESS" in render_robustness(evaluations)


def test_exact_convention_recall_lower_or_equal(evaluations):
    """Recall vs exact ground truth can only be <= the paper convention."""
    for version in ("2012", "2014"):
        for tool in ("phpSAFE", "RIPS", "Pixy"):
            paper = evaluations[version].confusion(tool, convention="paper")
            exact = evaluations[version].confusion(tool, convention="exact")
            assert exact.recall <= paper.recall + 1e-9
