"""Golden finding signatures and engine step counts.

The files under ``tests/golden/`` pin what the three analyzers find and
how much taint work they do to find it:

- ``paper-<version>.json``: per plugin of the paper corpus at scale
  0.25, each tool's finding signatures and ``engine_steps``;
- ``slices.json``: the same per slice of the difftest catalog, with
  phpSAFE's builtin rule packs loaded (the catalog's reference setup);
- ``scale-smoke.json``: phpSAFE's finding signatures on the
  ``scale-smoke`` stress tier (seed 0), checked against the streamed
  run by ``scripts/scale_smoke.py``.

Every analyzer is fresh and uncached, so step counts do not depend on
what ran before.  The step count is where step budgets and unit
deadlines trip, so an engine change that keeps the findings but moves
the steps moves those trip points and fails here too.

Regenerate after an intended change with::

    PYTHONPATH=src python -m tests.test_golden --write
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

import pytest

from repro.baselines import PixyLike, RipsLike
from repro.core.phpsafe import PhpSafe, PhpSafeOptions
from repro.core.results import finding_signatures
from repro.corpus.generator import build_corpus
from repro.difftest import SLICES
from repro.perf import counters
from repro.plugin import Plugin

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SCHEMA = "repro.golden/v1"
SCALE = 0.25
VERSIONS = ("2012", "2014")
STRESS_TIER = "scale-smoke"
STRESS_SEED = 0


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def _signature_rows(report) -> List[list]:
    return sorted(
        [kind, file, line, sink]
        for _plugin, kind, file, line, sink in finding_signatures([report])
    )


def _measure(tool, plugin: Plugin) -> Dict[str, object]:
    """One analyzer run: its finding signatures and engine step count."""
    before = counters.engine_steps
    report = tool.analyze(plugin)
    steps = counters.engine_steps - before
    return {"steps": steps, "findings": _signature_rows(report)}


def _pack_options() -> PhpSafeOptions:
    from repro.rules import builtin_pack_names

    return PhpSafeOptions(rule_packs=tuple(builtin_pack_names()))


def capture_paper(version: str) -> Dict[str, object]:
    corpus = build_corpus(version, scale=SCALE)
    tools = {}
    for tool in (PhpSafe(use_process_cache=False), RipsLike(), PixyLike()):
        tools[tool.name] = {
            plugin.slug: _measure(tool, plugin) for plugin in corpus.plugins
        }
    return {"schema": SCHEMA, "version": version, "scale": SCALE, "tools": tools}


def capture_slices() -> Dict[str, object]:
    tools: Dict[str, Dict[str, object]] = {}
    for piece in SLICES:
        plugin = Plugin(name=f"slice-{piece.name}", files={"slice.php": piece.code})
        for tool in (
            PhpSafe(options=_pack_options(), use_process_cache=False),
            RipsLike(),
            PixyLike(),
        ):
            tools.setdefault(tool.name, {})[piece.name] = _measure(tool, plugin)
    return {"schema": SCHEMA, "rule_packs": "builtin", "tools": tools}


def capture_stress() -> Dict[str, object]:
    from repro.corpus.stress import get_tier, iter_stress_plugins, stress_options

    tool = PhpSafe(options=stress_options(), use_process_cache=False)
    plugins = {
        plugin.slug: _signature_rows(tool.analyze(plugin))
        for plugin in iter_stress_plugins(get_tier(STRESS_TIER), STRESS_SEED)
    }
    return {
        "schema": SCHEMA,
        "tier": STRESS_TIER,
        "seed": STRESS_SEED,
        "tool": "phpSAFE",
        "plugins": plugins,
    }


def load_golden(name: str) -> Dict[str, object]:
    with open(golden_path(name), "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_golden(name: str, document: Dict[str, object]) -> None:
    """One plugin (or slice) per line, so a change diffs to the rows
    that moved."""
    nested = "tools" if "tools" in document else "plugins"
    lines = ["{"]
    head = [key for key in document if key != nested]
    for key in head:
        lines.append(f"  {json.dumps(key)}: {json.dumps(document[key])},")
    lines.append(f"  {json.dumps(nested)}: {{")
    groups = document[nested]
    if nested == "plugins":
        groups = {"": groups}
    for group_index, (group, rows) in enumerate(groups.items()):
        indent = "    "
        if group:
            lines.append(f"    {json.dumps(group)}: {{")
            indent = "      "
        items = list(rows.items())
        for index, (key, value) in enumerate(items):
            comma = "," if index < len(items) - 1 else ""
            lines.append(f"{indent}{json.dumps(key)}: {json.dumps(value)}{comma}")
        if group:
            comma = "," if group_index < len(groups) - 1 else ""
            lines.append(f"    }}{comma}")
    lines.append("  }")
    lines.append("}")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(golden_path(name), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _row_change(want, got) -> str:
    if want is None or got is None:
        return f"expected {want}, got {got}"
    parts = []
    if want["steps"] != got["steps"]:
        parts.append(f"steps {want['steps']} -> {got['steps']}")
    missing = [row for row in want["findings"] if row not in got["findings"]]
    extra = [row for row in got["findings"] if row not in want["findings"]]
    if missing:
        parts.append(f"missing {missing}")
    if extra:
        parts.append(f"unexpected {extra}")
    return "; ".join(parts)


def _differences(actual: Dict[str, dict], expected: Dict[str, dict]) -> List[str]:
    """Readable per-tool, per-row differences (first few per tool)."""
    problems: List[str] = []
    for tool in sorted(set(actual) | set(expected)):
        got = actual.get(tool, {})
        want = expected.get(tool, {})
        keys = sorted(set(got) | set(want))
        moved = [key for key in keys if got.get(key) != want.get(key)]
        for key in moved[:5]:
            problems.append(f"{tool} {key}: {_row_change(want.get(key), got.get(key))}")
        if len(moved) > 5:
            problems.append(f"{tool}: ... {len(moved) - 5} more rows differ")
    return problems


@pytest.mark.parametrize("version", VERSIONS)
def test_paper_corpus_matches_golden(version):
    expected = load_golden(f"paper-{version}")
    assert expected["scale"] == SCALE
    actual = capture_paper(version)
    problems = _differences(actual["tools"], expected["tools"])
    assert not problems, "\n".join(problems)


def test_slice_catalog_matches_golden():
    expected = load_golden("slices")
    actual = capture_slices()
    problems = _differences(actual["tools"], expected["tools"])
    assert not problems, "\n".join(problems)


def test_golden_covers_every_tool_and_slice():
    slices = load_golden("slices")["tools"]
    assert set(slices) == {"phpSAFE", "RIPS", "Pixy"}
    for rows in slices.values():
        assert list(rows) == [piece.name for piece in SLICES]
    for version in VERSIONS:
        tools = load_golden(f"paper-{version}")["tools"]
        assert set(tools) == {"phpSAFE", "RIPS", "Pixy"}
        assert all(
            row["steps"] > 0 for rows in tools.values() for row in rows.values()
        )


def _main(argv: List[str]) -> int:
    if argv != ["--write"]:
        print("usage: python -m tests.test_golden --write", file=sys.stderr)
        return 2
    for version in VERSIONS:
        write_golden(f"paper-{version}", capture_paper(version))
    write_golden("slices", capture_slices())
    write_golden(STRESS_TIER, capture_stress())
    print(f"golden files written to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
