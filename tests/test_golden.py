"""Golden finding signatures and engine step counts.

The files under ``tests/golden/`` pin what the three analyzers find and
how much taint work they do to find it:

- ``paper-<version>.json``: per plugin of the paper corpus at scale
  0.25, each tool's finding signatures and ``engine_steps``;
- ``slices.json``: the same per slice of the difftest catalog, with
  phpSAFE's builtin rule packs loaded (the catalog's reference setup);
- ``scale-smoke.json``: phpSAFE's finding signatures on the
  ``scale-smoke`` stress tier (seed 0), checked against the streamed
  run by ``scripts/scale_smoke.py``;
- ``frontend.json``: per file of the same inputs (both paper corpora at
  scale 0.25, the ``scale-smoke`` tier and every slice), a sha256 of a
  structural dump of the parsed AST and the ``(line, markup context)``
  of every echo/print/exit site.  Finding signatures omit the markup
  context, and a parser change can move a node without moving a
  finding, so these pin the front end on its own.

Every analyzer is fresh and uncached, so step counts do not depend on
what ran before.  The step count is where step budgets and unit
deadlines trip, so an engine change that keeps the findings but moves
the steps moves those trip points and fails here too.

Regenerate after an intended change with::

    PYTHONPATH=src python -m tests.test_golden --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.baselines import PixyLike, RipsLike
from repro.core.phpsafe import PhpSafe, PhpSafeOptions
from repro.core.ir import _literal_prefix
from repro.core.results import finding_signatures
from repro.corpus.generator import build_corpus
from repro.difftest import SLICES
from repro.perf import counters
from repro.php import ast_nodes as ast
from repro.php.errors import PhpSyntaxError
from repro.php.htmlcontext import context_at_end
from repro.php.parser import parse_source
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


def ast_fingerprint(tree: ast.Node) -> str:
    """sha256 of a structural dump of ``tree``: every node's class and
    every field in declaration order (``line`` included), children
    nested in place and scalars by ``repr``.  Iterative, so deeply
    nested concatenation chains need no recursion."""
    digest = hashlib.sha256()
    stack: List[Tuple[bool, object]] = [(False, tree)]
    while stack:
        is_text, item = stack.pop()
        if is_text:
            digest.update(item.encode("utf-8", "surrogatepass"))
        elif isinstance(item, ast.Node):
            stack.append((True, ")"))
            for name in reversed(item.__node_fields__):
                stack.append((False, getattr(item, name)))
                stack.append((True, f" {name}="))
            stack.append((True, f"({item.__class__.__name__}"))
        elif isinstance(item, (list, tuple)):
            stack.append((True, "]"))
            for element in reversed(item):
                stack.append((False, element))
                stack.append((True, " "))
            stack.append((True, "["))
        else:
            stack.append((True, repr(item)))
    return digest.hexdigest()


def output_sites(tree: ast.Node) -> List[list]:
    """``[line, context]`` of every echo/print/exit site, document
    order, with the context the taint IR records for it."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.EchoStatement):
            exprs = node.exprs
        elif isinstance(node, (ast.PrintExpr, ast.ExitExpr)):
            exprs = [node.expr]
        else:
            continue
        for expr in exprs:
            line = expr.line if expr is not None else 0
            sites.append([line, context_at_end(_literal_prefix(expr)).value])
    return sites


def _frontend_row(plugin: Plugin) -> Dict[str, object]:
    """Per file of ``plugin``: AST fingerprint and output sites, or the
    error that stopped the recovering front end."""
    row: Dict[str, object] = {}
    for path, source in plugin.iter_files():
        try:
            tree = parse_source(source, path, recover=True)
        except PhpSyntaxError as error:
            row[path] = {"error": str(error)}
            continue
        row[path] = {"ast": ast_fingerprint(tree), "sites": output_sites(tree)}
    return row


def _frontend_inputs() -> Iterator[Tuple[str, Iterator[Plugin]]]:
    from repro.corpus.stress import get_tier, iter_stress_plugins

    for version in VERSIONS:
        yield f"paper-{version}", iter(build_corpus(version, scale=SCALE).plugins)
    yield STRESS_TIER, iter_stress_plugins(get_tier(STRESS_TIER), STRESS_SEED)
    yield "slices", (
        Plugin(name=f"slice-{piece.name}", files={"slice.php": piece.code})
        for piece in SLICES
    )


def capture_frontend() -> Dict[str, object]:
    corpora = {
        name: {plugin.slug: _frontend_row(plugin) for plugin in plugins}
        for name, plugins in _frontend_inputs()
    }
    return {
        "schema": SCHEMA,
        "scale": SCALE,
        "stress": [STRESS_TIER, STRESS_SEED],
        "corpora": corpora,
    }


def load_golden(name: str) -> Dict[str, object]:
    with open(golden_path(name), "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_golden(name: str, document: Dict[str, object]) -> None:
    """One plugin (or slice) per line, so a change diffs to the rows
    that moved."""
    nested = next(key for key in ("tools", "corpora", "plugins") if key in document)
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


def test_frontend_matches_golden():
    expected = load_golden("frontend")
    assert expected["scale"] == SCALE
    actual = capture_frontend()["corpora"]
    problems = []
    for corpus in sorted(set(actual) | set(expected["corpora"])):
        got = actual.get(corpus, {})
        want = expected["corpora"].get(corpus, {})
        moved = [
            f"{corpus} {slug} {path}"
            for slug in sorted(set(got) | set(want))
            for path in sorted(set(got.get(slug, {})) | set(want.get(slug, {})))
            if got.get(slug, {}).get(path) != want.get(slug, {}).get(path)
        ]
        problems.extend(moved[:5])
        if len(moved) > 5:
            problems.append(f"{corpus}: ... {len(moved) - 5} more files differ")
    assert not problems, "\n".join(problems)


def _main(argv: List[str]) -> int:
    if argv != ["--write"]:
        print("usage: python -m tests.test_golden --write", file=sys.stderr)
        return 2
    for version in VERSIONS:
        write_golden(f"paper-{version}", capture_paper(version))
    write_golden("slices", capture_slices())
    write_golden(STRESS_TIER, capture_stress())
    write_golden("frontend", capture_frontend())
    print(f"golden files written to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
