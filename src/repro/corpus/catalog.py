"""The 35-plugin catalog and the per-version seeding plan.

This module encodes, as data, the corpus calibration that makes the
generated plugins reproduce the *measured* distributions of the paper:

- Table I    — per-tool TP/FP counts per version and vulnerability kind,
- Fig. 2     — the Venn regions of per-tool detection overlap,
- Table II   — the input-vector taxonomy of the union of vulnerabilities,
- Section V.D — the carried-over (fix-inertia) subset,
- Section V.E — per-tool robustness failures.

Every seeded flow is a :class:`~repro.corpus.spec.SeededSpec` drawn from
the allocation tables below.  The arithmetic is checked by asserts at
import time: region totals must reproduce the paper's per-tool TP/FP
counts exactly (up to the paper's own internal ±1 inconsistencies,
documented in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..config.vulnerability import InputVector, VulnKind
from .spec import SeededSpec

# ---------------------------------------------------------------------------
# Plugin roster: 35 plugins, 19 developed with OOP (paper Section V.A).
# Names follow real WordPress plugin slug conventions; the four slugs the
# paper quotes examples from are included.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PluginEntry:
    """Static catalog data for one plugin."""

    slug: str
    is_oop: bool
    #: Relative share of the corpus noise LOC given to this plugin.
    weight: int = 2
    version_2012: str = "1.2"
    version_2014: str = "2.4"


PLUGINS: Tuple[PluginEntry, ...] = (
    PluginEntry("mail-subscribe-list", True, 3),
    PluginEntry("wp-symposium", True, 5),
    PluginEntry("wp-photo-album-plus", True, 5),
    PluginEntry("qtranslate", False, 4),
    PluginEntry("wp-bulk-manager", True, 4),
    PluginEntry("wp-media-suite", True, 4),
    PluginEntry("simple-contact-widget", False, 1),
    PluginEntry("event-calendar-pro", True, 4),
    PluginEntry("easy-gallery-lite", False, 2),
    PluginEntry("wp-forum-server", True, 5),
    PluginEntry("newsletter-meister", True, 3),
    PluginEntry("social-share-bar", False, 1),
    PluginEntry("custom-sidebar-blocks", False, 2),
    PluginEntry("wp-quick-poll", True, 2),
    PluginEntry("download-tracker", True, 3),
    PluginEntry("seo-meta-booster", False, 2),
    PluginEntry("members-directory", True, 4),
    PluginEntry("wp-shoutbox-live", True, 2),
    PluginEntry("ad-rotator-basic", False, 1),
    PluginEntry("booking-sheet", True, 3),
    PluginEntry("faq-accordion", False, 1),
    PluginEntry("wp-guestbook-classic", True, 2),
    PluginEntry("related-posts-thumbs", False, 2),
    PluginEntry("price-table-builder", True, 2),
    PluginEntry("wp-feedback-box", True, 2),
    PluginEntry("slider-revamp-lite", False, 2),
    PluginEntry("user-notes-field", False, 1),
    PluginEntry("wp-stats-dashboard", True, 3),
    PluginEntry("contact-form-mini", False, 2),
    PluginEntry("video-embed-plus", False, 2),
    PluginEntry("wp-link-directory", True, 3),
    PluginEntry("testimonials-rotator", True, 2),
    PluginEntry("backup-scheduler-lite", False, 2),
    PluginEntry("wp-audit-trail", False, 2),
    PluginEntry("coming-soon-page", False, 1),
)

assert len(PLUGINS) == 35
assert sum(1 for plugin in PLUGINS if plugin.is_oop) == 19

#: Plugins carrying OOP-mediated vulnerabilities (paper: 10 plugins in
#: the 2012 versions, 7 in 2014 — a subset as some were fixed).
OOP_VULN_PLUGINS_2012: Tuple[str, ...] = (
    "mail-subscribe-list", "wp-symposium", "wp-photo-album-plus",
    "wp-forum-server", "event-calendar-pro", "members-directory",
    "newsletter-meister", "download-tracker", "booking-sheet",
    "wp-link-directory",
)
OOP_VULN_PLUGINS_2014: Tuple[str, ...] = OOP_VULN_PLUGINS_2012[:7]

#: Plugins with files that exhaust phpSAFE's analysis budget.  2012: one
#: file; 2014: three files across two plugins (paper Section V.E).
FAILED_FILES_2012: Tuple[Tuple[str, str], ...] = (
    ("wp-bulk-manager", "admin/legacy-panel.php"),
)
FAILED_FILES_2014: Tuple[Tuple[str, str], ...] = (
    ("wp-bulk-manager", "admin/legacy-panel.php"),
    ("wp-bulk-manager", "admin/legacy-export.php"),
    ("wp-media-suite", "admin/legacy-import.php"),
)

#: Per-version file-count targets (paper Section V.E).
FILE_COUNT = {"2012": 266, "2014": 356}
#: Per-version LOC targets at scale=1.0 (paper Section V.E).
LOC_TARGET = {"2012": 89_560, "2014": 180_801}
#: Pixy robustness plan: (fatal files, warning files) per version —
#: 1 error message in 2012; 37 in 2014 (31 fatal + 6 warnings); 32
#: skipped files in total.
PIXY_FAILURES = {"2012": (1, 0), "2014": (31, 6)}

# ---------------------------------------------------------------------------
# Seeding plan: region -> {vector: count} per version.  The arithmetic
# reproduces Table I / Fig. 2 / Table II; see DESIGN.md Section 3.
# ---------------------------------------------------------------------------

Allocation = Dict[str, Dict[InputVector, int]]

ALLOCATION_2012: Allocation = {
    "a": {InputVector.GET: 10, InputVector.POST: 5},
    "b": {
        InputVector.FILE: 41,
        InputVector.GET: 12,
        InputVector.POST: 7,
        InputVector.COOKIE: 5,
    },
    "d": {InputVector.GET: 10},
    "e_oop": {InputVector.DB: 127, InputVector.COOKIE: 12, InputVector.GET: 4},
    "e_wp": {InputVector.DB: 84},
    "e_sqli": {InputVector.GET: 8},
    "f": {InputVector.GET: 27, InputVector.POST: 10, InputVector.COOKIE: 7},
    "g": {InputVector.GET: 25},
    "fp_shared": {InputVector.POST: 40},
    "fp_ps": {InputVector.DB: 23},
    "fp_rips": {InputVector.GET: 39},
    "fp_pixy": {InputVector.GET: 185},
    "fp_sqli_ps": {InputVector.GET: 2},
}

ALLOCATION_2014: Allocation = {
    "a": {InputVector.GET: 4, InputVector.POST: 2},
    "b": {
        InputVector.FILE: 11,
        InputVector.GET: 35,
        InputVector.POST: 30,
        InputVector.COOKIE: 35,
    },
    "d": {InputVector.GET: 2},
    "e_oop": {InputVector.DB: 150, InputVector.GET: 5, InputVector.COOKIE: 15},
    "e_wp": {InputVector.DB: 91},
    "e_sqli": {InputVector.GET: 9},
    "f": {
        InputVector.DB: 122,
        InputVector.GET: 45,
        InputVector.POST: 11,
        InputVector.COOKIE: 7,
    },
    "g": {InputVector.GET: 12},
    "fp_shared": {InputVector.POST: 35},
    "fp_ps": {InputVector.DB: 22},
    "fp_rips": {InputVector.GET: 12},
    "fp_pixy": {InputVector.GET: 197},
    "fp_sqli_ps": {InputVector.GET: 5},
    "fp_sqli_rips": {InputVector.GET: 1},
}

#: Carried-over vulnerabilities: region -> {vector: count} present in
#: BOTH versions (Table II's "Both versions" column; 232 in total).
CARRIED: Allocation = {
    "a": {InputVector.GET: 4, InputVector.POST: 2},
    "b": {
        InputVector.FILE: 4,
        InputVector.GET: 12,
        InputVector.POST: 7,
        InputVector.COOKIE: 5,
    },
    "e_oop": {InputVector.DB: 110, InputVector.COOKIE: 10},
    "e_wp": {InputVector.DB: 52},
    "f": {InputVector.GET: 10, InputVector.POST: 2, InputVector.COOKIE: 4},
    "g": {InputVector.GET: 10},
}

_SQLI_REGIONS = frozenset({"e_sqli", "fp_sqli_ps", "fp_sqli_rips"})


def _total(allocation: Allocation, regions) -> int:
    return sum(
        count
        for region, vectors in allocation.items()
        if region in regions
        for count in vectors.values()
    )


# calibration checks against the paper's Table I / Fig. 2 numbers
_VULN_REGIONS = ("a", "b", "d", "e_oop", "e_wp", "e_sqli", "f", "g")
assert _total(ALLOCATION_2012, _VULN_REGIONS) == 394  # distinct vulns 2012
assert _total(ALLOCATION_2014, _VULN_REGIONS) == 586  # distinct vulns 2014
assert _total(ALLOCATION_2012, ("a", "b", "e_oop", "e_wp", "e_sqli")) == 315
assert _total(ALLOCATION_2014, ("a", "b", "e_oop", "e_wp", "e_sqli")) == 387
assert _total(ALLOCATION_2012, ("a", "b", "d", "f")) == 134  # RIPS TP
assert _total(ALLOCATION_2014, ("a", "b", "d", "f")) == 304
assert _total(ALLOCATION_2012, ("a", "d", "g")) == 50  # Pixy TP
assert _total(ALLOCATION_2014, ("a", "d", "g")) == 20
assert _total(ALLOCATION_2012, ("e_oop", "e_sqli")) == 151  # OOP vulns
assert _total(ALLOCATION_2014, ("e_oop", "e_sqli")) == 179
assert _total(CARRIED, _VULN_REGIONS) == 232  # Table II "Both versions"
for _region, _vectors in CARRIED.items():
    for _vector, _count in _vectors.items():
        assert _count <= ALLOCATION_2012[_region].get(_vector, 0), (_region, _vector)
        assert _count <= ALLOCATION_2014[_region].get(_vector, 0), (_region, _vector)


def build_specs(version: str) -> List[SeededSpec]:
    """Materialize the allocation tables into a deterministic spec list.

    Carried specs get version-independent ids (``c-...``) so the inertia
    analysis (Section V.D) can match them across versions; the rest get
    version-prefixed ids.
    """
    if version not in ("2012", "2014"):
        raise ValueError(f"unknown corpus version: {version!r}")
    allocation = ALLOCATION_2012 if version == "2012" else ALLOCATION_2014
    specs: List[SeededSpec] = []
    for region in sorted(allocation):
        vectors = allocation[region]
        kind = VulnKind.SQLI if region in _SQLI_REGIONS else VulnKind.XSS
        for vector in sorted(vectors, key=lambda item: item.value):
            total = vectors[vector]
            carried = CARRIED.get(region, {}).get(vector, 0)
            for index in range(total):
                if index < carried:
                    spec_id = f"c-{region}-{vector.value.lower()}-{index:03d}"
                    is_carried = True
                else:
                    spec_id = f"v{version[2:]}-{region}-{vector.value.lower()}-{index:03d}"
                    is_carried = False
                specs.append(
                    SeededSpec(
                        spec_id=spec_id,
                        kind=kind,
                        vector=vector,
                        region=region,
                        carried=is_carried,
                    )
                )
    return specs
