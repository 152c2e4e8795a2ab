"""The parser records each file's :class:`FileIndex` while it builds the
tree; these tests hold that index equal to a reference preorder walk of
the finished tree on every input the golden files cover, and on
recover-mode mutants of the paper corpora."""

import random

import pytest

from repro.core.model import PluginModel
from repro.corpus.generator import build_corpus
from repro.corpus.stress import get_tier, iter_stress_plugins
from repro.difftest import SLICES
from repro.php import ast_nodes as ast
from repro.php.errors import PhpSyntaxError
from repro.php.lexer import tokenize_significant
from repro.php.parser import Parser
from repro.plugin import Plugin

SEED = 17


def reference_index(tree):
    """The index by one :func:`ast.walk` over the tree: call names as
    sets, declarations and includes as preorder node lists."""
    called_names, called_methods = set(), set()
    functions, classes, includes = [], [], []
    for node in ast.walk(tree):
        cls = node.__class__
        if cls is ast.FunctionCall and type(node.name) is str:
            called_names.add(node.name.lower())
        elif cls in (ast.MethodCall, ast.StaticCall) and type(node.method) is str:
            called_methods.add(node.method.lower())
        elif cls is ast.New and type(node.class_name) is str:
            called_methods.add("__construct")
            called_names.add(node.class_name.lower())
        elif cls is ast.FunctionDecl:
            functions.append(node)
        elif cls is ast.ClassDecl:
            classes.append(node)
        elif cls is ast.IncludeExpr:
            includes.append(node)
    return called_names, called_methods, functions, classes, includes


def same_nodes(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def parse(source, path, recover=False):
    tokens = tokenize_significant(source, path, recover=recover)
    parser = Parser(tokens, path, recover=recover)
    return parser.parse_file(), parser.index


def check_file(source, path, recover=False):
    """Assert the parser's index of ``source`` equals the reference;
    False when the file does not parse at all."""
    try:
        tree, index = parse(source, path, recover)
    except PhpSyntaxError:
        return False
    names, methods, functions, classes, includes = reference_index(tree)
    assert index.called_names == names, path
    assert index.called_methods == methods, path
    assert same_nodes(index.functions, functions), path
    assert same_nodes(index.classes, classes), path
    assert same_nodes(index.includes, includes), path
    return True


def corpus_files():
    for version in ("2012", "2014"):
        for plugin in build_corpus(version, scale=0.25).plugins:
            yield from plugin.iter_files()


INPUTS = {
    "paper-corpora": corpus_files,
    "scale-smoke": lambda: (
        item
        for plugin in iter_stress_plugins(get_tier("scale-smoke"), 0)
        for item in plugin.iter_files()
    ),
    "slices": lambda: ((f"{piece.name}.php", piece.code) for piece in SLICES),
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_index_matches_reference_walk(name):
    parsed = [check_file(source, path) for path, source in INPUTS[name]()]
    assert sum(parsed) > 0.9 * len(parsed)


def delete_span(rng, source):
    start = rng.randrange(len(source))
    return source[:start] + source[start + rng.randrange(1, 200) :]


def truncate(rng, source):
    return source[: rng.randrange(1, len(source))]


@pytest.mark.parametrize("mutate", [delete_span, truncate], ids=lambda f: f.__name__)
def test_index_matches_reference_walk_on_recovered_mutants(mutate):
    rng = random.Random(SEED)
    parsed = 0
    for path, source in corpus_files():
        if len(source) > 40:
            parsed += check_file(mutate(rng, source), path, recover=True)
    assert parsed > 100


DISCARDED = """<?php
if ($ok) {
    function dropped_fn() { return 1; }
    dropped_call($x);
    include 'dropped.php';
} else ) ;
kept_call();
"""


def test_discarded_statement_leaves_no_records():
    tree, index = parse(DISCARDED, "bad.php", recover=True)
    assert isinstance(tree.statements[0], ast.ErrorStmt)
    assert index.called_names == {"kept_call"}
    assert index.called_methods == set()
    assert index.functions == [] and index.classes == [] and index.includes == []
    plugin = Plugin(name="p", files={"bad.php": DISCARDED})
    model = PluginModel.build(plugin, recover=True)
    assert "dropped_fn" not in model.functions
    assert "dropped_call" not in model.called_names
    assert model.files["bad.php"].includes == []


def test_index_lists_declarations_in_preorder():
    source = """<?php
    function outer() { function inner() {} class Local {} }
    class Top { public function m() { include 'a.php' . include 'b.php'; } }
    """
    tree, index = parse(source, "order.php")
    assert [node.name for node in index.functions] == ["outer", "inner"]
    assert [node.name for node in index.classes] == ["Local", "Top"]
    paths = [node.path for node in index.includes]
    assert paths[1] is paths[0].right.path and len(paths) == 2
