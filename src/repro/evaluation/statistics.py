"""Statistical treatment of the tool comparison.

The paper reports point estimates only; a modern evaluation of the same
design would add uncertainty and significance.  This module supplies
both, computed from the per-flow detection outcomes the harness already
produces:

- bootstrap confidence intervals for precision/recall/F-score (resample
  the classified findings / reference flows with replacement);
- McNemar's test on the paired per-vulnerability detection outcomes of
  two tools (each confirmed flow is a paired binary trial: tool A found
  it / tool B found it), the standard test for comparing two classifiers
  on the same dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Set, Tuple


@dataclass(frozen=True)
class Interval:
    """A bootstrap percentile confidence interval."""

    point: float
    low: float
    high: float
    confidence: float = 0.95

    def __str__(self) -> str:
        return (
            f"{self.point * 100:.1f}% "
            f"[{self.low * 100:.1f}, {self.high * 100:.1f}]"
        )

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def bootstrap_rate(
    successes: int,
    total: int,
    resamples: int = 2000,
    confidence: float = 0.95,
    seed: int = 20150622,  # DSN 2015 conference date: determinism
) -> Interval:
    """CI for a binomial rate (precision = TP over reported, etc.).

    Needs numpy (the ``stats`` extra); it is imported here, not at
    module load, so that importing :mod:`repro` stays dependency-free.
    """
    if total == 0:
        return Interval(point=0.0, low=0.0, high=0.0, confidence=confidence)
    import numpy

    rng = numpy.random.default_rng(seed)
    outcomes = numpy.zeros(total)
    outcomes[:successes] = 1.0
    draws = rng.choice(outcomes, size=(resamples, total), replace=True)
    rates = draws.mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = numpy.quantile(rates, [alpha, 1.0 - alpha])
    return Interval(
        point=successes / total,
        low=float(low),
        high=float(high),
        confidence=confidence,
    )


@dataclass(frozen=True)
class PairedComparison:
    """McNemar-style comparison of two tools on the same flows."""

    tool_a: str
    tool_b: str
    both: int  # found by both
    only_a: int
    only_b: int
    neither: int
    p_value: float

    @property
    def discordant(self) -> int:
        return self.only_a + self.only_b

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05

    def __str__(self) -> str:
        return (
            f"{self.tool_a} vs {self.tool_b}: both={self.both} "
            f"only-{self.tool_a}={self.only_a} only-{self.tool_b}={self.only_b} "
            f"neither={self.neither} (p={self.p_value:.2g})"
        )


def _mcnemar_p(only_a: int, only_b: int) -> float:
    """Exact binomial McNemar p-value on the discordant pairs.

    The two-sided binomial test at p = 1/2 is symmetric, so its p-value
    is twice the lower tail up to the smaller discordant count, capped
    at 1: ``min(1, 2 * sum(C(n, i) for i <= k) / 2**n)``.  The sum is
    an exact integer; the one division rounds once.
    """
    discordant = only_a + only_b
    smaller = min(only_a, only_b)
    tail = sum(math.comb(discordant, i) for i in range(smaller + 1))
    return min(1.0, 2 * tail / 2**discordant)


def compare_tools(
    tool_a: str,
    detected_a: Set[str],
    tool_b: str,
    detected_b: Set[str],
    reference: Set[str],
) -> PairedComparison:
    """Paired detection comparison over the ``reference`` flow set."""
    both = len(reference & detected_a & detected_b)
    only_a = len(reference & detected_a - detected_b)
    only_b = len(reference & detected_b - detected_a)
    neither = len(reference - detected_a - detected_b)
    return PairedComparison(
        tool_a=tool_a,
        tool_b=tool_b,
        both=both,
        only_a=only_a,
        only_b=only_b,
        neither=neither,
        p_value=_mcnemar_p(only_a, only_b),
    )


def tool_intervals(evaluation, tool: str, convention: str = "paper") -> dict:
    """Bootstrap intervals for one tool's Table I metrics."""
    confusion = evaluation.confusion(tool, convention=convention)
    return {
        "precision": bootstrap_rate(confusion.tp, confusion.tp + confusion.fp),
        "recall": bootstrap_rate(confusion.tp, confusion.tp + confusion.fn),
    }


def pairwise_comparisons(evaluation, tools: Sequence[str]) -> Tuple[PairedComparison, ...]:
    """All pairwise McNemar comparisons over the confirmed-flow union."""
    reference = evaluation.union_detected()
    detected = {
        tool: set(evaluation.tools[tool].match.detected_ids) for tool in tools
    }
    out = []
    for index, tool_a in enumerate(tools):
        for tool_b in tools[index + 1:]:
            out.append(
                compare_tools(
                    tool_a, detected[tool_a], tool_b, detected[tool_b], reference
                )
            )
    return tuple(out)
