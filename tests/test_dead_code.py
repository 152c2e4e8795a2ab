"""Every top-level definition under ``src/repro`` is reached by shipped code.

A module-level ``def`` or ``class`` must be named, as a whole word,
somewhere in ``src/``, ``scripts/``, ``perfbench/`` or ``examples/``.
An ``__init__.py`` re-export does not count, and neither do the
definition's own lines.  Tests alone do not keep code alive: what only
tests reach is deleted together with its tests, or ported to the path
that stays.  ``ALLOWED`` names the few test-support entry points that
stay anyway, each with its reason.
"""

import ast
import os
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
SEARCHED = ("src", "scripts", "perfbench", "examples")
WORD = re.compile(r"\w+")

#: ``module.name`` -> why it stays without a reference from shipped code
ALLOWED = {
    "service.server.BackgroundServer": "the tests' in-thread server",
    "batch.scheduler.scan_corpus": "the tests' one-call batch scan",
    "corpus.loader.load_corpus": "reads what `phpsafe corpus` writes",
    "core.ir.describe_program": "the IR determinism reference in tests/test_ir.py",
}


def _python_files(directory):
    for dirpath, dirnames, filenames in os.walk(directory):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _read_lines(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


def _definitions():
    """``(module.name, name, path, first line, last line)`` per definition."""
    for path in _python_files(PACKAGE):
        if os.path.basename(path) == "__init__.py":
            continue
        module = os.path.relpath(path, PACKAGE)[: -len(".py")].replace(os.sep, ".")
        tree = ast.parse("\n".join(_read_lines(path)), path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name, path, node.lineno, node.end_lineno


def _unreferenced():
    """Qualified names of the definitions no searched line names."""
    lines_by_path = {}
    for directory in SEARCHED:
        for path in _python_files(os.path.join(ROOT, directory)):
            if directory == "src" and os.path.basename(path) == "__init__.py":
                continue
            lines_by_path[path] = [set(WORD.findall(line)) for line in _read_lines(path)]
    # lines_naming[word]: how many searched lines contain the word
    lines_naming = Counter(
        word for lines in lines_by_path.values() for words in lines for word in words
    )
    dead = []
    for qualname, name, path, first, last in _definitions():
        own = sum(name in words for words in lines_by_path[path][first - 1 : last])
        if lines_naming[name] == own:
            dead.append(qualname)
    return dead


def test_every_definition_has_a_shipped_reference():
    dead = [qualname for qualname in _unreferenced() if qualname not in ALLOWED]
    assert not dead, (
        "no reference from src/, scripts/, perfbench/ or examples/ "
        "(delete them with their tests): " + ", ".join(dead)
    )


def test_allowlist_names_only_unreferenced_definitions():
    # a stale entry (renamed, deleted or now used) would hide nothing but
    # still read as a reason to keep code
    assert sorted(set(ALLOWED) - set(_unreferenced())) == []
