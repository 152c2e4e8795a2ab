"""The perf counters that perfbench reads exist in ``repro.perf.FIELDS``.

perfbench reads a run's counters by name: ``perf.<name>`` keys in
``perfbench/run.py``, and the ``cold-corpus`` guard's ``cache_reads``
tuple in ``perfbench/workloads.py``, which fails a run whose analysis
read a cache.  A renamed counter would make those reads find nothing:
a layer metric would read 0 and the guard would pass without checking
anything.
"""

import ast
import os
import re

from repro.perf import FIELDS

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def _read(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as handle:
        return handle.read()


def run_py_counters():
    """Counter names ``perfbench/run.py`` reads: ``"perf.<name>"`` keys
    and the counter argument of its ``self_s(layer, counter)`` calls."""
    source = _read("run.py")
    keys = set(re.findall(r'"perf\.(\w+)"', source))
    layer_counters = set(re.findall(r'self_s\(\s*"\w+",\s*"(\w+)"\s*\)', source))
    return keys | layer_counters


def cold_guard_counters():
    """The constants of the ``cache_reads`` tuple in ``cold_measure``."""
    tree = ast.parse(_read("workloads.py"))
    (measure,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "cold_measure"
    ]
    for node in ast.walk(measure):
        if isinstance(node, ast.Assign) and [
            target.id for target in node.targets if isinstance(target, ast.Name)
        ] == ["cache_reads"]:
            return [element.value for element in node.value.elts]
    raise AssertionError("cold_measure assigns no cache_reads tuple")


def test_run_py_reads_known_counters():
    names = run_py_counters()
    # the scan itself must find the reads it is meant to check
    assert {"tokens_lexed", "lex_seconds", "summary_cache_stale"} <= names
    assert sorted(names - set(FIELDS)) == []


def test_cold_guard_reads_known_counters():
    names = cold_guard_counters()
    assert {"summary_cache_hits", "ir_cache_hits"} <= set(names)
    assert sorted(set(names) - set(FIELDS)) == []
