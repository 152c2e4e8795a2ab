"""Differential correctness harness (``repro difftest``).

Two complementary oracles keep the analyzer's finding sets a property
of its *capability envelope* rather than of which execution path ran:

* :class:`~repro.difftest.oracle.ConfigMatrixOracle` scans one corpus
  through every configuration axis (strict/recover, cache cold/warm,
  serial/parallel, summaries on/off, incremental rescan vs full scan)
  and diffs the finding sets — any
  difference is a typed :class:`~repro.difftest.divergence.Divergence`;
* :func:`~repro.difftest.slices.run_slices` runs a deterministic
  catalog of minimal per-construct PHP slices through all three tools,
  asserting phpSAFE's expected finding set per construct.
"""

from .divergence import AXES, AxisOutcome, DifftestReport, Divergence, diff_signatures
from .oracle import ConfigMatrixOracle, OracleOptions
from .report import render_oracle_report, render_oracle_reports, render_slice_table
from .slices import SLICES, Slice, SliceResult, pack_enabled_phpsafe, run_slices

__all__ = [
    "AXES",
    "AxisOutcome",
    "ConfigMatrixOracle",
    "DifftestReport",
    "Divergence",
    "OracleOptions",
    "SLICES",
    "Slice",
    "SliceResult",
    "diff_signatures",
    "pack_enabled_phpsafe",
    "render_oracle_report",
    "render_oracle_reports",
    "render_slice_table",
    "run_slices",
]
