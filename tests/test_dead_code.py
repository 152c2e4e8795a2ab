"""Every top-level definition under ``src/repro`` is reached by shipped code.

A module-level ``def`` or ``class`` must be used by the code in
``src/``, ``scripts/``, ``perfbench/`` or ``examples/``: as a name, an
attribute or an import, f-string expressions included.  A docstring or
comment that names it does not count, nor does an ``__init__.py``
re-export or the definition's own body.  Tests alone do not keep code alive: what only
tests reach is deleted together with its tests, or ported to the path
that stays.  ``ALLOWED`` names the few test-support entry points that
stay anyway, each with its reason.
"""

import ast
import os
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
SEARCHED = ("src", "scripts", "perfbench", "examples")

#: ``module.name`` -> why it stays without a reference from shipped code
ALLOWED = {
    "service.server.BackgroundServer": "the tests' in-thread server",
    "batch.scheduler.scan_corpus": "the tests' one-call batch scan",
    "corpus.loader.load_corpus": "reads what `phpsafe corpus` writes",
    "core.ir.describe_program": "the IR determinism reference in tests/test_ir.py",
    "service.fleet.LocalNodeClient": "the fleet tests' in-process node client",
}


def _python_files(directory):
    for dirpath, dirnames, filenames in os.walk(directory):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def _definitions():
    """``(module.name, name, path, first line, last line)`` per definition."""
    for path in _python_files(PACKAGE):
        if os.path.basename(path) == "__init__.py":
            continue
        module = os.path.relpath(path, PACKAGE)[: -len(".py")].replace(os.sep, ".")
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name, path, node.lineno, node.end_lineno


def _used_names(tree):
    """``(name, line)`` of every name a module's code uses: variables,
    attributes and imported names.  Docstrings and comments name
    nothing; an expression inside an f-string does."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno


def _unreferenced():
    """Qualified names of the definitions no searched code uses."""
    uses_by_path = {}
    for directory in SEARCHED:
        for path in _python_files(os.path.join(ROOT, directory)):
            if directory == "src" and os.path.basename(path) == "__init__.py":
                continue
            uses_by_path[path] = list(_used_names(_parse(path)))
    uses = Counter(name for found in uses_by_path.values() for name, _line in found)
    dead = []
    for qualname, name, path, first, last in _definitions():
        own = sum(
            used == name and first <= line <= last for used, line in uses_by_path[path]
        )
        if uses[name] == own:
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


def test_only_code_names_a_definition():
    tree = ast.parse('"""f() in a docstring"""\n# g() in a comment\nprint(f"{h()}")\n')
    assert {name for name, _line in _used_names(tree)} == {"print", "h"}
