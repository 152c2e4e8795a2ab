#!/usr/bin/env python
"""End-to-end smoke test for the incremental-rescan + baseline flow.

Exercises the diff-aware workflow CI cares about, through the real CLI:

1. write a generated-corpus plugin to disk and export its SARIF report
   (``phpsafe report --format sarif``) as the baseline,
2. rescan unchanged with ``--baseline --fail-on new`` and prove the
   gate passes (every finding is ``unchanged``),
3. mutate one file with a fresh tainted echo, rescan, and prove the
   gate now fails with exactly the new finding (pre-existing findings
   do not fail it),
4. revert the mutation and prove the gate passes again,
5. drive ``PhpSafe.rescan`` directly on the mutated plugin and prove
   the incremental path reused prior analysis units, produced the
   same findings as a cold scan, and looked up fewer function
   summaries than the plugin defines (summaries load on demand),
6. repeat step 5 in strict mode (``recover=False``): strict scans run
   the same analysis units, so they reuse roots too.

Stdlib only; run from the repo root::

    python scripts/rescan_smoke.py
"""

import json
import os
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cli import main as cli_main  # noqa: E402
from repro.core import ModelCache, PhpSafe, PhpSafeOptions  # noqa: E402
from repro.core.model import PluginModel  # noqa: E402
from repro.core.results import finding_signatures  # noqa: E402
from repro.corpus.generator import build_corpus  # noqa: E402


def check(condition, label):
    status = "ok" if condition else "FAIL"
    print(f"[{status}] {label}")
    if not condition:
        raise SystemExit(f"rescan smoke failed at: {label}")


def pick_plugin():
    """A corpus plugin that has findings (the gate needs something to
    hold steady) and more than one analysis root."""
    corpus = build_corpus("2014", scale=0.1)
    candidates = [
        plugin
        for plugin in corpus.plugins
        if len(plugin.files) >= 3 and PhpSafe().analyze(plugin).findings
    ]
    check(bool(candidates), "corpus offers a multi-file plugin with findings")
    return max(candidates, key=lambda plugin: len(plugin.files))


def main():
    plugin = pick_plugin()
    workdir = tempfile.mkdtemp(prefix="rescan-smoke-")
    plugin_dir = os.path.join(workdir, "plugin")
    plugin.write_to(workdir)
    written = [
        entry for entry in os.listdir(workdir)
        if os.path.isdir(os.path.join(workdir, entry))
    ]
    plugin_dir = os.path.join(workdir, written[0])
    baseline = os.path.join(workdir, "baseline.sarif")

    # 1. baseline SARIF export through the CLI
    code = cli_main(
        ["report", plugin_dir, "--format", "sarif", "--out", baseline]
    )
    check(code == 0, "baseline SARIF export succeeds")
    with open(baseline, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    check(document.get("version") == "2.1.0", "baseline is SARIF 2.1.0")

    # 2. unchanged rescan: old findings must not fail the fail-on-new gate
    code = cli_main(
        ["scan", plugin_dir, "--baseline", baseline, "--fail-on", "new"]
    )
    check(code == 0, "unchanged plugin passes --fail-on new")
    code = cli_main(["scan", plugin_dir, "--baseline", baseline])
    check(code == 1, "unchanged plugin still fails --fail-on any")

    # 3. one-file mutation introduces exactly one new finding
    target = min(
        path for path in plugin.files
        if path.endswith(".php") and "legacy" not in path
    )
    target_path = os.path.join(plugin_dir, target)
    with open(target_path, "a", encoding="utf-8") as handle:
        handle.write("\n<?php echo $_GET['rescan_smoke_mutation'];\n")
    code = cli_main(
        ["scan", plugin_dir, "--baseline", baseline, "--fail-on", "new"]
    )
    check(code == 1, "mutated plugin fails --fail-on new (new finding)")

    # 4. reverting the mutation makes the gate pass again
    with open(target_path, "r", encoding="utf-8") as handle:
        source = handle.read()
    with open(target_path, "w", encoding="utf-8") as handle:
        handle.write(source.replace("\n<?php echo $_GET['rescan_smoke_mutation'];\n", ""))
    code = cli_main(
        ["scan", plugin_dir, "--baseline", baseline, "--fail-on", "new"]
    )
    check(code == 0, "reverted plugin passes --fail-on new again")

    # 5. the incremental engine path itself: manifest-driven rescan of a
    #    one-file change reuses units and matches the cold scan exactly;
    # 6. the same in strict mode; the edit closes the PHP block first so
    #    the strict parser accepts it too
    mutated_files = dict(plugin.files)
    mutated_files[target] += "\n?><?php echo $_GET['rescan_smoke_mutation'];\n"
    import dataclasses

    mutated = dataclasses.replace(plugin, files=mutated_files)
    for mode, options in (
        ("", PhpSafeOptions()),
        ("strict ", PhpSafeOptions(recover=False)),
    ):
        tool = PhpSafe(options=options, cache=ModelCache())
        _report, manifest, _stats = tool.rescan(plugin)
        warm_report, _manifest2, stats = tool.rescan(mutated, manifest)
        lookups = sum(
            warm_report.perf[f"summary_cache_{outcome}"]
            for outcome in ("hits", "misses", "stale")
        )
        cold_report = PhpSafe(options=options).analyze(mutated)
        check(target not in cold_report.failed_files, f"{mode}edit parses")
        check(stats.incremental, f"{mode}rescan took the incremental path")
        check(
            0 < stats.roots_reused < stats.roots_total,
            f"{mode}rescan reused prior analysis roots and re-ran the edit",
        )
        check(
            finding_signatures([warm_report]) == finding_signatures([cold_report]),
            f"{mode}incremental findings identical to cold {mode}scan",
        )
        functions = len(
            PluginModel.build(mutated, recover=options.recover).functions
        )
        print(
            f"{mode}rescan summary lookups: {lookups}"
            f" for {functions} functions in the plugin"
        )
        check(
            lookups < functions,
            f"{mode}rescan looked up fewer summaries than the plugin has functions",
        )
        print(
            f"{mode}rescan smoke ok — {stats.roots_reused}/{stats.roots_total}"
            f" roots reused on a one-file change"
        )


if __name__ == "__main__":
    main()
