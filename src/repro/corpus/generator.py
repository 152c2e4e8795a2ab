"""Deterministic corpus generation.

``build_corpus("2012")`` / ``build_corpus("2014")`` materialize the
catalog's seeding plan into 35 in-memory plugins plus the ground-truth
manifest.  Generation is fully deterministic: no wall clock, no global
RNG — the same version and scale always produce byte-identical plugins,
so measured tool behaviour is reproducible run over run.

``scale`` multiplies only the *noise* volume (benign filler code and
padding files keep their count but shrink), never the seeded flows, so
Table I/II/Fig. 2 counts are scale-invariant while Table III (time per
KLOC) can be exercised at paper-size LOC with ``scale=1.0``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config.vulnerability import InputVector
from ..plugin import Plugin
from . import snippets
from .catalog import (
    FAILED_FILES_2012,
    FAILED_FILES_2014,
    FILE_COUNT,
    LOC_TARGET,
    OOP_VULN_PLUGINS_2012,
    OOP_VULN_PLUGINS_2014,
    PIXY_FAILURES,
    PLUGINS,
    PluginEntry,
    build_specs,
)
from .spec import GroundTruth, GroundTruthEntry, SeededSpec

#: Include-closure budget (bytes) the failed files must exceed; keep in
#: sync with :class:`repro.core.phpsafe.PhpSafeOptions.include_budget`.
PHPSAFE_INCLUDE_BUDGET = 120_000
_BIGLIB_COUNT = 4
_BIGLIB_BYTES = 48_000  # 4 x 48KB = 192KB closure > 120KB budget


class FileBuilder:
    """Accumulates one PHP file and tracks absolute sink lines."""

    def __init__(self, path: str, header: Optional[List[str]] = None) -> None:
        self.path = path
        self.lines: List[str] = ["<?php"]
        if header:
            self.lines.extend(header)

    def add(self, fragment: snippets.Fragment) -> Optional[int]:
        """Append a fragment; return the 1-based line of its sink."""
        sink_line: Optional[int] = None
        if fragment.sink_offset >= 0:
            sink_line = len(self.lines) + fragment.sink_offset + 1
        self.lines.extend(fragment.lines)
        self.lines.append("")
        return sink_line

    def source(self) -> str:
        return "\n".join(self.lines).rstrip() + "\n"


@dataclass
class GeneratedCorpus:
    """One corpus version: plugins plus the expert's answer sheet."""

    version: str
    plugins: List[Plugin]
    truth: GroundTruth
    scale: float = 1.0

    @property
    def total_loc(self) -> int:
        return sum(plugin.loc for plugin in self.plugins)

    @property
    def total_files(self) -> int:
        return sum(plugin.file_count for plugin in self.plugins)

    def plugin(self, slug: str) -> Plugin:
        for plugin in self.plugins:
            if plugin.name == slug:
                return plugin
        raise KeyError(slug)


def _hash_pick(spec_id: str, pool: Tuple[str, ...]) -> str:
    """Deterministic, version-independent plugin choice for a spec."""
    return pool[zlib.crc32(spec_id.encode("ascii")) % len(pool)]


def _noise_text(seed: str, length: int) -> str:
    """Deterministic pseudo-random payload text (letters only)."""
    out = []
    state = zlib.crc32(seed.encode("ascii")) or 1
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    for _ in range(length):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        out.append(alphabet[state % 26])
    return "".join(out)


class _PluginBuilder:
    """Accumulates the files of one plugin during generation."""

    def __init__(self, entry: PluginEntry, version: str) -> None:
        self.entry = entry
        self.version = version
        self.files: Dict[str, FileBuilder] = {}
        self.hooks_specs = 0
        self.class_specs = 0

    @property
    def slug(self) -> str:
        return self.entry.slug

    @property
    def wp_version(self) -> str:
        return self.entry.version_2012 if self.version == "2012" else self.entry.version_2014

    def file(self, path: str, header: Optional[List[str]] = None) -> FileBuilder:
        builder = self.files.get(path)
        if builder is None:
            builder = FileBuilder(path, header)
            self.files[path] = builder
        return builder

    def main_file(self) -> FileBuilder:
        path = f"{self.slug}.php"
        if path not in self.files:
            header = [
                "/*",
                f"Plugin Name: {self.slug.replace('-', ' ').title()}",
                f"Version: {self.wp_version}",
                f"Description: Generated corpus plugin ({self.version} snapshot).",
                "*/",
                "",
            ]
            return self.file(path, header)
        return self.files[path]

    def hooks_file(self) -> FileBuilder:
        index = self.hooks_specs // 25 + 1
        self.hooks_specs += 1
        return self.file(f"includes/hooks-{index}.php")

    def class_file(self) -> FileBuilder:
        index = self.class_specs // 15 + 1
        self.class_specs += 1
        return self.file(f"includes/class-modules-{index}.php")

    def options_file(self) -> FileBuilder:
        return self.file("includes/options.php")

    def to_plugin(self) -> Plugin:
        plugin = Plugin(name=self.slug, version=self.wp_version)
        for path in sorted(self.files):
            plugin.add_file(path, self.files[path].source())
        return plugin


def _render_spec(spec: SeededSpec) -> snippets.Fragment:
    """Map a spec to its PHP fragment (region → template)."""
    region = spec.region
    if region in ("a", "d"):
        return snippets.direct_echo_main(spec.spec_id, spec.vector)
    if region == "b":
        if spec.vector is InputVector.FILE:
            return snippets.file_read_echo_uncalled(spec.spec_id)
        return snippets.direct_echo_uncalled(spec.spec_id, spec.vector)
    if region == "e_oop":
        if spec.vector is InputVector.DB:
            return snippets.wpdb_results_echo(spec.spec_id)
        return snippets.property_flow_class(spec.spec_id, spec.vector)
    if region == "e_wp":
        return snippets.wp_option_echo(spec.spec_id)
    if region == "e_sqli":
        return snippets.wpdb_query_sqli(spec.spec_id, spec.vector)
    if region == "f":
        if spec.vector is InputVector.DB:
            return snippets.db_read_echo_uncalled(spec.spec_id)
        return snippets.direct_echo_uncalled(spec.spec_id, spec.vector)
    if region == "g":
        return snippets.register_globals_echo(spec.spec_id)
    if region == "fp_shared":
        return snippets.fp_guarded_echo(spec.spec_id, spec.vector)
    if region == "fp_ps":
        return snippets.fp_wpdb_internal_table(spec.spec_id)
    if region == "fp_rips":
        return snippets.fp_esc_html_echo(spec.spec_id, spec.vector)
    if region == "fp_pixy":
        return snippets.fp_uninitialized_pixy(spec.spec_id)
    if region == "fp_sqli_ps":
        return snippets.fp_sqli_whitelist(spec.spec_id)
    if region == "fp_sqli_rips":
        return snippets.fp_sqli_absint_rips(spec.spec_id)
    raise ValueError(f"no template for region {region!r}")


def _spec_file(
    spec: SeededSpec,
    builders: Dict[str, _PluginBuilder],
    version: str,
    failed_file_of: Dict[str, Tuple[str, str]],
) -> Tuple[_PluginBuilder, FileBuilder]:
    """Decide which plugin and file a spec lands in (deterministic)."""
    all_slugs = tuple(entry.slug for entry in PLUGINS)
    oop_slugs = tuple(entry.slug for entry in PLUGINS if entry.is_oop)
    region = spec.region

    if spec.needs_failed_file:
        slug, path = failed_file_of[spec.spec_id]
        builder = builders[slug]
        return builder, builder.file(path)

    if region in ("e_oop", "e_sqli"):
        pool = OOP_VULN_PLUGINS_2014 if spec.carried else (
            OOP_VULN_PLUGINS_2012 if version == "2012" else OOP_VULN_PLUGINS_2014
        )
        builder = builders[_hash_pick(spec.spec_id, tuple(pool))]
        if region == "e_sqli":
            return builder, builder.main_file()
        return builder, builder.class_file()

    if region in ("fp_ps", "fp_sqli_ps"):
        builder = builders[_hash_pick(spec.spec_id, oop_slugs)]
        return builder, builder.main_file()

    if region in ("b", "fp_shared", "fp_rips", "fp_sqli_rips"):
        builder = builders[_hash_pick(spec.spec_id, all_slugs)]
        return builder, builder.hooks_file()

    if region == "e_wp":
        builder = builders[_hash_pick(spec.spec_id, all_slugs)]
        return builder, builder.options_file()

    # a, g, fp_pixy: plugin main file
    builder = builders[_hash_pick(spec.spec_id, all_slugs)]
    return builder, builder.main_file()


def _assign_failed_files(
    specs: List[SeededSpec], version: str
) -> Dict[str, Tuple[str, str]]:
    """Map every d/f spec to one of the version's phpSAFE-failed files.

    Carried f specs go to the file that exists in both versions (the
    first catalog entry) so inertia matching works; the rest round-robin.
    """
    files = FAILED_FILES_2012 if version == "2012" else FAILED_FILES_2014
    mapping: Dict[str, Tuple[str, str]] = {}
    cursor = 0
    for spec in specs:
        if not spec.needs_failed_file:
            continue
        if spec.carried:
            mapping[spec.spec_id] = files[0]
        else:
            mapping[spec.spec_id] = files[cursor % len(files)]
            cursor += 1
    return mapping


def _emit_failed_file_preamble(
    builders: Dict[str, _PluginBuilder], version: str
) -> None:
    """Create the oversized include closures that defeat phpSAFE.

    Each failed file requires several generated data libraries whose
    cumulative size exceeds the analysis budget (paper: those files "had
    many includes and required a lot of memory").
    """
    files = FAILED_FILES_2012 if version == "2012" else FAILED_FILES_2014
    for slug in {slug for slug, _path in files}:
        builder = builders[slug]
        per_function = 220  # payload characters per library function
        functions_needed = max(1, _BIGLIB_BYTES // (per_function + 60))
        for lib_index in range(1, _BIGLIB_COUNT + 1):
            lib = builder.file(f"lib/biglib-{lib_index}.php")
            for func_index in range(functions_needed):
                payload = _noise_text(
                    f"{slug}-{lib_index}-{func_index}", per_function
                )
                lib.add(
                    snippets.biglib_function(
                        f"{slug.replace('-', '_')}_{lib_index}", func_index, payload
                    )
                )
    for slug, path in files:
        builder = builders[slug]
        file_builder = builder.file(path)
        for lib_index in range(1, _BIGLIB_COUNT + 1):
            file_builder.lines.append(
                f"require_once(dirname(__FILE__) . '/../lib/biglib-{lib_index}.php');"
            )
        file_builder.lines.append("")


def _emit_pixy_robustness_files(
    builders: Dict[str, _PluginBuilder], version: str
) -> None:
    """Plant the PHP-5 constructs that break / warn the Pixy baseline."""
    fatal_count, warning_count = PIXY_FAILURES[version]
    slugs = [entry.slug for entry in PLUGINS]
    for index in range(fatal_count):
        slug = slugs[(index * 7 + 3) % len(slugs)]
        builder = builders[slug]
        compat = builder.file(f"includes/compat-{index + 1}.php")
        compat.add(snippets.pixy_fatal_block(f"{slug.replace('-', '_')}_{index}"))
        compat.add(snippets.noise_helper_function(f"pf_{index}_{slug.replace('-', '_')}"))
    for index in range(warning_count):
        slug = slugs[(index * 11 + 5) % len(slugs)]
        builder = builders[slug]
        compat = builder.file(f"includes/compat-flags-{index + 1}.php")
        compat.add(snippets.pixy_warning_block(f"{slug.replace('-', '_')}_{index}"))
        compat.add(snippets.noise_loop_block(f"pw_{index}_{slug.replace('-', '_')}"))


def _pad_to_targets(
    builders: Dict[str, _PluginBuilder], version: str, scale: float
) -> None:
    """Add noise files/lines to hit the file-count and LOC targets."""
    slugs = [entry.slug for entry in PLUGINS]
    current_files = sum(len(builder.files) for builder in builders.values())
    missing = FILE_COUNT[version] - current_files
    if missing < 0:
        raise AssertionError(
            f"catalog produced {current_files} files, above the "
            f"{FILE_COUNT[version]} target for {version}"
        )
    padding_files: List[FileBuilder] = []
    for index in range(missing):
        slug = slugs[index % len(slugs)]
        builder = builders[slug]
        part = builder.file(f"templates/part-{index // len(slugs) + 1}.php")
        padding_files.append(part)

    target_loc = int(LOC_TARGET[version] * scale)
    current_loc = sum(
        sum(1 for line in fb.lines if line.strip())
        for builder in builders.values()
        for fb in builder.files.values()
    )
    deficit = max(0, target_loc - current_loc)
    fillers = padding_files or [
        builder.main_file() for builder in builders.values()
    ]
    index = 0
    while deficit > 0:
        target = fillers[index % len(fillers)]
        uid = f"{version}_{index:05d}"
        choice = index % 3
        if choice == 0:
            fragment = snippets.noise_helper_function(uid)
        elif choice == 1:
            fragment = snippets.noise_loop_block(uid)
        else:
            fragment = snippets.noise_sanitized_echo(uid)
        deficit -= sum(1 for line in fragment.lines if line.strip())
        target.add(fragment)
        index += 1


def build_corpus(version: str, scale: float = 0.25) -> GeneratedCorpus:
    """Generate one corpus version with its ground truth.

    ``scale`` shrinks/expands noise LOC relative to the paper's corpus
    size (89,560 LOC for 2012, 180,801 for 2014 at ``scale=1.0``).
    """
    specs = build_specs(version)
    builders = {
        entry.slug: _PluginBuilder(entry, version) for entry in PLUGINS
    }
    for builder in builders.values():
        builder.main_file()  # every plugin has its main file

    failed_file_of = _assign_failed_files(specs, version)
    _emit_failed_file_preamble(builders, version)

    truth = GroundTruth(version=version)
    # main-flow specs in failed files (region d) must precede the
    # uncalled ones (region f) for realistic layout; sort is stable
    ordered = sorted(specs, key=lambda spec: (spec.region, spec.spec_id))
    for spec in ordered:
        builder, file_builder = _spec_file(spec, builders, version, failed_file_of)
        sink_line = file_builder.add(_render_spec(spec))
        assert sink_line is not None, spec.spec_id
        truth.add(
            GroundTruthEntry(
                spec=spec,
                plugin=builder.slug,
                version=version,
                file=file_builder.path,
                line=sink_line,
            )
        )

    _emit_pixy_robustness_files(builders, version)
    _pad_to_targets(builders, version, scale)

    plugins = [builders[entry.slug].to_plugin() for entry in PLUGINS]
    return GeneratedCorpus(version=version, plugins=plugins, truth=truth, scale=scale)


def build_both(scale: float = 0.25) -> Tuple[GeneratedCorpus, GeneratedCorpus]:
    """Generate the 2012 and 2014 corpora (the paper's full dataset)."""
    return build_corpus("2012", scale), build_corpus("2014", scale)
