"""The docs' regenerate commands name things that exist.

EXPERIMENTS.md's "Regenerate:" paragraphs and the "Regenerated by"
column of DESIGN.md §3 tell a reader how to reproduce each experiment.
Every backticked command there must still work: a repo path must
exist, a ``file::Name`` or ``-k Name`` must name a test in that file,
and a ``python -m repro`` / ``phpsafe`` command line must parse.  A doc
naming a deleted file fails here.
"""

import os
import re

import pytest

from repro.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_PREFIXES = (("python", "-m", "repro"), ("phpsafe",))
PATH = re.compile(r"^[\w.-]+(/[\w.-]+)*\.(py|json|md)$|^\w[\w.-]*(/[\w.-]+)+$")


def _read(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as handle:
        return handle.read()


def _spans(text):
    return re.findall(r"`([^`]+)`", " ".join(text.split()))


def regenerate_paragraphs():
    for paragraph in re.split(r"\n\s*\n", _read("EXPERIMENTS.md")):
        if paragraph.startswith("Regenerate:"):
            yield paragraph


def doc_spans():
    for paragraph in regenerate_paragraphs():
        yield from _spans(paragraph)
    lines = _read("DESIGN.md").splitlines()
    header = next(i for i, line in enumerate(lines) if "| Regenerated by |" in line)
    column = [cell.strip() for cell in lines[header].split("|")].index(
        "Regenerated by"
    )
    for line in lines[header + 2 :]:
        if not line.startswith("|"):
            break
        yield from _spans(line.split("|")[column])


def _check_path(path):
    assert os.path.exists(os.path.join(ROOT, path)), path


def _check_test_names(files, names):
    sources = "\n".join(_read(path) for path in files)
    for name in names:
        assert re.search(rf"^\s*(def|class) {re.escape(name)}\b", sources, re.M), (
            name,
            files,
        )


def _check_node_id(node_id):
    path, *names = node_id.split("::")
    _check_path(path)
    _check_test_names([path], names)


def _check_pytest(words):
    files, names = [], []
    words = iter(words)
    for word in words:
        if word == "-k":
            names.append(next(words))
        elif not word.startswith("-"):
            _check_node_id(word)
            files.append(word.split("::")[0])
    if names:
        _check_test_names(files, names)


def _check_cli(words):
    try:
        build_parser().parse_args(words)
    except SystemExit:
        raise AssertionError(f"CLI rejects {words}") from None


def checker(span):
    """The check for one span, or None when the span is no command (an
    option, a PHP name, a module attribute)."""
    words = span.split()
    for prefix in CLI_PREFIXES:
        if tuple(words[: len(prefix)]) == prefix:
            return lambda: _check_cli(words[len(prefix) :])
    if words[0] == "pytest":
        return lambda: _check_pytest(words[1:])
    if words[0] == "python":
        return lambda: _check_path(words[1])
    if "::" in span:
        return lambda: _check_node_id(span)
    if PATH.match(span):
        return lambda: _check_path(span)
    return None


COMMANDS = sorted({span for span in doc_spans() if checker(span)})


@pytest.mark.parametrize(
    "span", COMMANDS, ids=[span.replace("::", ".") for span in COMMANDS]
)
def test_doc_command_exists(span):
    checker(span)()


def test_every_regenerate_paragraph_names_a_command():
    assert len(COMMANDS) >= 15
    for paragraph in regenerate_paragraphs():
        assert any(checker(span) for span in _spans(paragraph)), paragraph


@pytest.mark.parametrize(
    "span",
    [
        "scripts/no_such_gate.py",
        "tests/test_docs.py::test_not_there",
        "pytest tests/test_docs.py -k NotThere",
        "python -m repro no-such-verb",
        "python -m repro history no-such-action",
        "python -m repro evaluate --no-such-flag",
    ],
)
def test_checker_rejects_missing_names(span):
    with pytest.raises(AssertionError):
        checker(span)()
