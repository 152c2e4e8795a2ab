"""String-level tests for the table/figure renderers."""

from repro.evaluation import (
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


class TestTable1Rendering:
    def test_contains_all_tools_and_versions(self, evaluations):
        text = render_table1(evaluations)
        for token in ("phpSAFE 2012", "RIPS 2014", "Pixy 2012"):
            assert token in text

    def test_sections_present(self, evaluations):
        text = render_table1(evaluations)
        for section in ("XSS", "SQLi", "Global"):
            assert section in text

    def test_key_cells_present(self, evaluations):
        text = render_table1(evaluations)
        # phpSAFE 2012 XSS TP and Pixy 2014 FP, as rendered numbers
        assert "307" in text
        assert "197" in text

    def test_dash_for_undefined_precision(self, evaluations):
        # Pixy reported zero SQLi findings: precision renders as '-'
        text = render_table1(evaluations)
        assert "-" in text

    def test_exact_convention_variant(self, evaluations):
        text = render_table1(evaluations, convention="exact")
        assert "exact" in text


class TestOtherRenderers:
    def test_table2_rows_and_paper_columns(self, evaluations):
        text = render_table2(
            vector_breakdown(evaluations["2012"]),
            vector_breakdown(evaluations["2014"]),
            both_versions_breakdown(evaluations["2012"], evaluations["2014"]),
        )
        assert "POST/GET/COOKIE" in text
        assert "paper12" in text
        assert "211" in text  # DB 2012

    def test_table3_has_paper_reference(self, evaluations):
        text = render_table3(evaluations)
        assert "17.87" in text and "180.91" in text
        assert "s/KLOC" in text

    def test_fig2_regions_and_growth(self, evaluations):
        text = render_fig2(
            compute_overlap(evaluations["2012"]),
            compute_overlap(evaluations["2014"]),
        )
        assert "union=394" in text and "union=586" in text
        # (586 - 394) / 394 = +48.7%, against the paper's +51%
        assert "growth 2012→2014: +49% (paper: +51%)" in text

    def test_inertia_text(self, evaluations):
        text = render_inertia(analyze_inertia(evaluations["2012"], evaluations["2014"]))
        assert "232 of 586" in text

    def test_robustness_lists_failures(self, evaluations):
        text = render_robustness(evaluations)
        assert "failed files=31" in text
        assert "errors=37" in text

