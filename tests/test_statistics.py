"""Tests for the evaluation statistics (bootstrap CIs, McNemar)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.evaluation.statistics import (
    Interval,
    bootstrap_rate,
    _mcnemar_p,
    compare_tools,
    pairwise_comparisons,
    tool_intervals,
)


class TestBootstrap:
    def test_point_estimate(self):
        interval = bootstrap_rate(80, 100)
        assert interval.point == 0.8
        assert interval.contains(0.8)

    def test_deterministic(self):
        assert bootstrap_rate(30, 60) == bootstrap_rate(30, 60)

    def test_zero_total(self):
        interval = bootstrap_rate(0, 0)
        assert interval.point == interval.low == interval.high == 0.0

    def test_certainty_at_extremes(self):
        full = bootstrap_rate(50, 50)
        assert full.low == full.high == 1.0
        empty = bootstrap_rate(0, 50)
        assert empty.low == empty.high == 0.0

    def test_larger_samples_tighter(self):
        small = bootstrap_rate(8, 10)
        large = bootstrap_rate(800, 1000)
        assert (large.high - large.low) < (small.high - small.low)

    def test_str_formatting(self):
        text = str(Interval(point=0.83, low=0.79, high=0.87))
        assert text.startswith("83.0%") and "[" in text


@given(st.integers(0, 200), st.integers(0, 200))
def test_bootstrap_bounds_property(successes, extra):
    total = successes + extra
    interval = bootstrap_rate(successes, total, resamples=200)
    assert 0.0 <= interval.low <= interval.high <= 1.0
    if total:
        assert interval.low <= interval.point <= interval.high


class TestMcNemar:
    def test_counts(self):
        reference = {"a", "b", "c", "d", "e"}
        comparison = compare_tools(
            "X", {"a", "b", "c"}, "Y", {"a"}, reference
        )
        assert comparison.both == 1
        assert comparison.only_a == 2
        assert comparison.only_b == 0
        assert comparison.neither == 2

    def test_identical_tools_not_significant(self):
        reference = {str(i) for i in range(50)}
        detected = {str(i) for i in range(25)}
        comparison = compare_tools("X", detected, "Y", detected, reference)
        assert comparison.p_value == 1.0
        assert not comparison.significant

    def test_dominant_tool_significant(self):
        reference = {str(i) for i in range(100)}
        strong = {str(i) for i in range(90)}
        weak = {str(i) for i in range(10)}
        comparison = compare_tools("strong", strong, "weak", weak, reference)
        assert comparison.significant

    def test_str(self):
        comparison = compare_tools("A", {"x"}, "B", set(), {"x"})
        assert "A vs B" in str(comparison)


class TestExactMcNemarP:
    def test_one_sided_discordance(self):
        # 10 discordant pairs all one way: 2 * C(10, 0) / 2**10
        assert _mcnemar_p(0, 10) == 2 / 1024
        assert _mcnemar_p(10, 0) == 2 / 1024

    def test_balanced_discordance_is_one(self):
        for count in range(0, 40):
            assert _mcnemar_p(count, count) == 1.0

    def test_matches_scipy_binomtest(self):
        stats = pytest.importorskip("scipy.stats")
        for discordant in range(1, 201):
            # the test is symmetric in (only_a, only_b): half the splits
            for smaller in range(discordant // 2 + 1):
                expected = stats.binomtest(smaller, discordant, 0.5).pvalue
                for only_a in (smaller, discordant - smaller):
                    assert _mcnemar_p(
                        only_a, discordant - only_a
                    ) == pytest.approx(expected, rel=1e-12, abs=0.0), (
                        only_a,
                        discordant,
                    )


class TestOnEvaluation:
    def test_phpsafe_beats_baselines_significantly(self, evaluations):
        for version in ("2012", "2014"):
            comparisons = pairwise_comparisons(
                evaluations[version], ("phpSAFE", "RIPS", "Pixy")
            )
            by_pair = {(c.tool_a, c.tool_b): c for c in comparisons}
            assert by_pair[("phpSAFE", "RIPS")].significant
            assert by_pair[("phpSAFE", "Pixy")].significant
            assert by_pair[("RIPS", "Pixy")].significant

    def test_intervals_bracket_table1(self, evaluations):
        intervals = tool_intervals(evaluations["2012"], "phpSAFE")
        # Table I: precision 83%, recall 80%
        assert intervals["precision"].contains(0.83)
        assert intervals["recall"].contains(0.80)

    def test_precision_intervals_disjoint_phpsafe_pixy(self, evaluations):
        phpsafe = tool_intervals(evaluations["2012"], "phpSAFE")["precision"]
        pixy = tool_intervals(evaluations["2012"], "Pixy")["precision"]
        assert phpsafe.low > pixy.high  # clearly separated
