"""Model-construction stage (paper Section III.B).

Builds, per plugin: the AST of every file, the table of
all user-defined functions and their parameters, the class table (with
inheritance links), the set of *called* function names, and the include
graph.  From these it derives the list of functions "that are not called
from the code of the plugin" — which phpSAFE analyzes anyway, "as they
may be directly called from the main application".

The stage also enforces the per-file analysis budget that reproduces the
paper's robustness observations: files whose include closure is too
large make phpSAFE "unable to analyze" them (Section V.E).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..incidents import Incident, IncidentSeverity, IncidentStage
from ..perf import counters
from ..php import ast_nodes as ast
from ..php.errors import AnalysisBudgetExceeded, PhpParseError, PhpSyntaxError
from ..php.lexer import Lexer, count_loc
from ..php.parser import Parser
from ..plugin import Plugin
from .cache import source_digest


def parse_variant(recover: bool) -> str:
    """The parse mode's cache-key component: model-tier entries and
    rescan manifests key on it, because a recovering parse reads files
    (and their findings) a strict parse rejects."""
    return "recover" if recover else ""


@dataclass
class FunctionInfo:
    """A user-defined function or method known to the model."""

    key: str  # lower-cased name, or "class::method"
    name: str
    params: List[ast.Param]
    body: List[ast.Statement]
    file: str
    line: int
    class_name: Optional[str] = None
    visibility: str = "public"
    static: bool = False

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class ClassInfo:
    """A user-defined class and its members."""

    name: str
    decl: ast.ClassDecl
    file: str
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    parent: Optional[str] = None

    @property
    def property_names(self) -> List[str]:
        return [prop.name for prop in self.decl.properties]


@dataclass
class FileModel:
    """One parsed file of the plugin (no tokens: nothing reads them after parsing)."""

    path: str
    source: str
    tree: ast.PhpFile
    loc: int
    includes: List[str] = field(default_factory=list)
    #: recovered lex/parse incidents from panic-mode recovery; kept on
    #: the file model so cache hits replay them into the plugin model
    incidents: List[Incident] = field(default_factory=list)
    #: sha256 of ``source`` — the identity the incremental summary cache
    #: validates function-summary dependencies against
    digest: str = ""
    #: the node index the parser recorded while building ``tree``;
    #: cached with the model.  ``None`` only on models unpickled from
    #: older stores, which :meth:`PluginModel.build` treats as misses.
    index: Optional[ast.FileIndex] = None


class PluginModel:
    """The complete model of a plugin, ready for the analysis stage."""

    def __init__(self, plugin: Plugin) -> None:
        self.plugin = plugin
        self.files: Dict[str, FileModel] = {}
        self.parse_failures: Dict[str, PhpSyntaxError] = {}
        #: files skipped because their include closure blew the budget —
        #: a model-stage resource incident, distinct from syntax errors
        self.budget_failures: Dict[str, AnalysisBudgetExceeded] = {}
        #: LOC of every skipped file, for coverage accounting
        self.skipped_loc: Dict[str, int] = {}
        #: typed robustness incidents from every stage of model building
        self.incidents: List[Incident] = []
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.called_names: Set[str] = set()
        self.called_methods: Set[str] = set()

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        plugin: Plugin,
        include_budget: int = 400_000,
        cache=None,
        recover: bool = False,
        digests: Optional[Dict[str, str]] = None,
    ) -> "PluginModel":
        """Parse every file and collect the model tables.

        ``include_budget`` caps the cumulative source size (in bytes) of
        a file plus its transitive includes; exceeding it records the
        file as an analysis failure (the phpSAFE memory-exhaustion
        behaviour of Section V.E).  ``cache`` is an optional
        :class:`~repro.core.cache.ModelCache` that skips re-parsing
        unchanged files across runs.  ``recover=True`` enables
        panic-mode lexer/parser recovery: a file with a localized syntax
        error still yields a partial model, with each repair recorded in
        :attr:`incidents`.  ``digests`` maps paths to their
        :func:`~repro.core.cache.source_digest` when the caller already
        hashed the sources, so no file is hashed twice.
        """
        model = cls(plugin)
        variant = parse_variant(recover)
        for path, source in plugin.iter_files():
            digest = (digests or {}).get(path) or source_digest(source)
            if cache is not None:
                cached, cached_error = cache.lookup(path, source, variant, digest)
                if cached_error is not None:
                    model._record_parse_failure(path, source, cached_error)
                    continue
                if getattr(cached, "index", None) is not None:
                    if not getattr(cached, "digest", ""):
                        cached.digest = digest  # entry from a pre-digest store
                    if hasattr(cached, "tokens"):
                        del cached.tokens  # entry from a store that kept tokens
                    model.files[path] = cached  # type: ignore[assignment]
                    model.incidents.extend(getattr(cached, "incidents", []))
                    continue
            try:
                lexer = Lexer(source, path, recover=recover, significant=True)
                tokens = lexer.tokenize()
                parse_start = time.perf_counter()
                parser = Parser(tokens, path, recover=recover)
                tree = parser.parse_file()
                counters.parse_seconds += time.perf_counter() - parse_start
                counters.files_parsed += 1
                file_incidents = lexer.incidents + parser.incidents
            except PhpSyntaxError as error:
                model._record_parse_failure(path, source, error)
                if cache is not None:
                    cache.store_failure(path, source, error, variant, digest)
                continue
            except Exception as error:  # includes RecursionError
                if not recover:
                    raise
                # fault boundary: an unexpected crash inside the PHP
                # substrate degrades to a skipped file, not a dead run
                wrapped = PhpParseError(
                    f"internal parser error: {error!r}", path, 0
                )
                model._record_parse_failure(path, source, wrapped)
                if cache is not None:
                    cache.store_failure(path, source, wrapped, variant, digest)
                continue
            index = parser.index
            file_model = FileModel(
                path=path,
                source=source,
                tree=tree,
                loc=count_loc(source),
                includes=_collect_includes(index),
                incidents=file_incidents,
                digest=digest,
                index=index,
            )
            model.files[path] = file_model
            model.incidents.extend(file_incidents)
            if cache is not None:
                cache.store(path, source, file_model, variant, digest)
        model._check_include_budgets(include_budget)
        model._collect_definitions()
        return model

    def _record_parse_failure(
        self, path: str, source: str, error: PhpSyntaxError
    ) -> None:
        """A file the substrate could not process at all: skip it."""
        self.parse_failures[path] = error
        self.skipped_loc[path] = count_loc(source)
        stage = (
            IncidentStage.LEX
            if getattr(error, "stage", "parse") == "lex"
            else IncidentStage.PARSE
        )
        self.incidents.append(
            Incident(
                stage=stage,
                severity=IncidentSeverity.ERROR,
                file=path,
                reason=getattr(error, "message", str(error)),
                recovered=False,
                line=getattr(error, "line", 0),
            )
        )

    def _check_include_budgets(self, budget: int) -> None:
        """Fail files whose transitive include closure exceeds budget.

        All closure sizes are computed against the full file set first,
        so a failing library also fails every file that includes it."""
        sizes = {path: self._closure_size(path, set()) for path in self.files}
        for path, size in sizes.items():
            if size > budget:
                error = AnalysisBudgetExceeded(path, budget, size)
                self.budget_failures[path] = error
                self.skipped_loc[path] = self.files[path].loc
                self.incidents.append(
                    Incident(
                        stage=IncidentStage.MODEL,
                        severity=IncidentSeverity.ERROR,
                        file=path,
                        reason=str(error),
                        recovered=False,
                    )
                )
                del self.files[path]

    def _closure_size(self, path: str, seen: Set[str]) -> int:
        if path in seen or path not in self.files:
            return 0
        seen.add(path)
        model = self.files[path]
        size = len(model.source)
        for include in model.includes:
            resolved = self.resolve_include(include, path)
            if resolved:
                size += self._closure_size(resolved, seen)
        return size

    def _collect_definitions(self) -> None:
        """Collect definitions and call sites from each file's node
        index (recorded by the parser and cached with the file model, so
        no stage walks the tree for them)."""
        for path, file_model in self.files.items():
            index = file_model.index
            self.called_names.update(index.called_names)
            self.called_methods.update(index.called_methods)
            for node in index.functions:
                info = FunctionInfo(
                    key=node.name.lower(),
                    name=node.name,
                    params=node.params,
                    body=node.body,
                    file=path,
                    line=node.line,
                )
                self.functions.setdefault(info.key, info)
            for node in index.classes:
                if node.kind not in ("class", "trait"):
                    continue
                class_info = ClassInfo(
                    name=node.name, decl=node, file=path, parent=node.parent
                )
                for method in node.methods:
                    if method.body is None:
                        continue
                    method_info = FunctionInfo(
                        key=f"{node.name.lower()}::{method.name.lower()}",
                        name=method.name,
                        params=method.params,
                        body=method.body,
                        file=path,
                        line=method.line,
                        class_name=node.name,
                        visibility=method.visibility,
                        static=method.static,
                    )
                    class_info.methods[method.name.lower()] = method_info
                    self.functions.setdefault(method_info.key, method_info)
                self.classes.setdefault(node.name.lower(), class_info)

    # -- queries ---------------------------------------------------------------

    def lookup_function(self, name: str) -> Optional[FunctionInfo]:
        return self.functions.get(name.lower())

    def lookup_class(self, name: str) -> Optional[ClassInfo]:
        return self.classes.get(name.lower())

    def resolve_method(self, class_name: str, method: str) -> Optional[FunctionInfo]:
        """Find ``method`` on ``class_name`` or its ancestors."""
        seen: Set[str] = set()
        current: Optional[str] = class_name
        while current and current.lower() not in seen:
            seen.add(current.lower())
            class_info = self.lookup_class(current)
            if class_info is None:
                return None
            info = class_info.methods.get(method.lower())
            if info is not None:
                return info
            # trait methods are looked up like inherited ones
            for trait in class_info.decl.uses:
                trait_info = self.lookup_class(trait)
                if trait_info and method.lower() in trait_info.methods:
                    return trait_info.methods[method.lower()]
            current = class_info.parent
        return None

    def uncalled_functions(self) -> List[FunctionInfo]:
        """Functions/methods never invoked from plugin code.

        These are plugin entry points (hooks, callbacks) the main
        application calls; phpSAFE analyzes them to reach 100% coverage
        (Section III.C) — "this is a feature that all tools prepared for
        analyzing plugins should have" (Section V.A).
        """
        out: List[FunctionInfo] = []
        for info in self.functions.values():
            if info.is_method:
                if info.name.lower() not in self.called_methods:
                    out.append(info)
            elif info.key not in self.called_names:
                out.append(info)
        return sorted(out, key=lambda info: (info.file, info.line))

    def resolve_include(self, raw_path: str, from_file: str) -> Optional[str]:
        """Map an include path to a plugin file, tolerating the common
        ``dirname(__FILE__) . '/x.php'`` and plain-relative idioms."""
        candidate = raw_path.replace("\\", "/").lstrip("/")
        base = os.path.dirname(from_file)
        options = [
            os.path.normpath(os.path.join(base, candidate)),
            os.path.normpath(candidate),
        ]
        for option in options:
            if option in self.files:
                return option
        basename = os.path.basename(candidate)
        matches = [path for path in self.files if os.path.basename(path) == basename]
        if len(matches) == 1:
            return matches[0]
        return None

    def file_digests(self) -> Dict[str, str]:
        """Content digest per analyzable file (summary-cache validation)."""
        return {
            path: file_model.digest
            for path, file_model in self.files.items()
            if file_model.digest
        }

    @property
    def total_loc(self) -> int:
        return sum(file_model.loc for file_model in self.files.values())


def _collect_includes(index: ast.FileIndex) -> List[str]:
    """Extract statically-resolvable include targets from a file index."""
    includes: List[str] = []
    for node in index.includes:
        target = _static_path(node.path)
        if target:
            includes.append(target)
    return includes


def _static_path(expr: Optional[ast.Expr]) -> Optional[str]:
    """Best-effort constant folding of include path expressions."""
    if expr is None:
        return None
    if isinstance(expr, ast.Literal) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.Binary) and expr.op == ".":
        left = _static_path(expr.left)
        right = _static_path(expr.right)
        if right is None:
            return None
        # `dirname(__FILE__) . '/inc.php'` — keep the literal tail
        return (left or "") + right
    if isinstance(expr, ast.FunctionCall) and expr.name in ("dirname", "plugin_dir_path"):
        return ""
    if isinstance(expr, ast.ConstFetch):
        return ""
    if isinstance(expr, ast.InterpolatedString):
        parts = [part.value for part in expr.parts if isinstance(part, ast.Literal)]
        if parts:
            return "".join(str(part) for part in parts)
    return None
