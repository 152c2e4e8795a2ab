"""Feature-matrix generator: one minimal PHP slice per taint construct.

Each :class:`Slice` is a deterministic, self-contained PHP program that
exercises exactly one language/taint feature (compound assignment,
``??``, ``list()``, by-ref parameters, ``=&`` aliasing, static locals,
foreach key/value, heredoc interpolation, switch fallthrough, method
dispatch, ...), annotated with the finding kinds phpSAFE is expected to
report.  Running the catalog through all three tools yields a
capability-envelope table (which construct each tool tracks), and the
phpSAFE column doubles as a per-construct regression suite — the
``coalesce``, ``ref-alias-*`` and ``static-local`` slices are the three
bugs this harness was built to catch.

Slices follow DEKANT's observation (arXiv:1910.06826) that slice-level
corpora are the right granularity for exercising per-construct taint
behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.phpsafe import PhpSafe
from ..core.tool import AnalyzerTool
from ..plugin import Plugin

_XSS = frozenset({"xss"})
_SQLI = frozenset({"sqli"})
_CMDI = frozenset({"cmdi"})
_LFI = frozenset({"lfi"})
_SSRF = frozenset({"ssrf"})
_TRAV = frozenset({"traversal"})
_DESER = frozenset({"deserialization"})
_NONE: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class Slice:
    """One minimal program exercising one construct."""

    name: str
    category: str
    code: str
    #: vulnerability kinds phpSAFE must report (values of ``VulnKind``);
    #: empty means the slice must stay clean (sanitizer / FP guard)
    expected: FrozenSet[str]


def _php(body: str) -> str:
    return "<?php\n" + body + "\n"


#: The deterministic catalog.  Order is stable: tables and tests index it.
SLICES: Tuple[Slice, ...] = (
    # -- assignment forms --------------------------------------------------
    Slice("assign-simple", "assignment", _php("$x = $_GET['a'];\necho $x;"), _XSS),
    Slice("assign-chained", "assignment", _php("$x = $y = $_GET['a'];\necho $x;"), _XSS),
    Slice("assign-concat-compound", "assignment", _php("$x = 'a';\n$x .= $_GET['a'];\necho $x;"), _XSS),
    Slice("assign-arith-compound", "assignment", _php("$x = 0;\n$x += $_GET['a'];\necho $x;"), _NONE),
    Slice("coalesce", "assignment", _php("$x = $_GET['a'] ?? 'd';\necho $x;"), _XSS),
    Slice("coalesce-assign", "assignment", _php("$x = $_GET['a'];\n$x ??= 'd';\necho $x;"), _XSS),
    Slice("coalesce-chain", "assignment", _php("$x = $_GET['a'] ?? $_POST['b'] ?? 'd';\necho $x;"), _XSS),
    Slice("ternary", "assignment", _php("$x = $_GET['a'] ? $_GET['a'] : 'd';\necho $x;"), _XSS),
    Slice("ternary-short", "assignment", _php("$x = $_GET['a'] ?: 'd';\necho $x;"), _XSS),
    Slice("list-assign", "assignment", _php("list($a, $b) = array($_GET['x'], 'y');\necho $a;"), _XSS),
    Slice("ref-alias-read", "assignment", _php("$a = $_GET['x'];\n$b =& $a;\necho $b;"), _XSS),
    Slice("ref-alias-write", "assignment", _php("$a = 1;\n$b =& $a;\n$b = $_GET['x'];\necho $a;"), _XSS),
    Slice("unset-clears", "assignment", _php("$x = $_GET['a'];\nunset($x);\necho $x;"), _NONE),
    Slice("reassign-clean", "assignment", _php("$x = $_GET['a'];\n$x = 'safe';\necho $x;"), _NONE),
    # -- string forms ------------------------------------------------------
    Slice("interp-double-quoted", "strings", _php("$x = $_GET['a'];\necho \"value: $x\";"), _XSS),
    Slice("interp-curly", "strings", _php("$x = $_GET['a'];\necho \"value: {$x}\";"), _XSS),
    Slice("interp-heredoc", "strings", _php("$x = $_GET['a'];\necho <<<HTML\n<p>$x</p>\nHTML;"), _XSS),
    Slice("concat-binary", "strings", _php("echo 'v: ' . $_GET['a'];"), _XSS),
    Slice("single-quoted-literal", "strings", _php("$x = '$_GET';\necho $x;"), _NONE),
    # -- control flow ------------------------------------------------------
    Slice("if-branch-taint", "control-flow", _php("$x = 'a';\nif ($_GET['c']) { $x = $_GET['a']; }\necho $x;"), _XSS),
    Slice("if-else-both-clean", "control-flow", _php("$x = $_GET['a'];\nif ($_GET['c']) { $x = 'l'; } else { $x = 'r'; }\necho $x;"), _NONE),
    Slice("switch-fallthrough", "control-flow", _php("$x = 'a';\nswitch ($_GET['c']) {\ncase 1:\n    $x = $_GET['a'];\ncase 2:\n    echo $x;\n}"), _XSS),
    Slice("while-loop-carried", "control-flow", _php("$x = 'a';\n$i = 0;\nwhile ($i < 2) {\n    echo $x;\n    $x = $_GET['a'];\n    $i++;\n}"), _XSS),
    Slice("do-while-loop-carried", "control-flow", _php("$x = 'a';\ndo {\n    echo $x;\n    $x = $_GET['a'];\n} while ($x);"), _XSS),
    Slice("for-loop-carried", "control-flow", _php("$x = 'a';\nfor ($i = 0; $i < 2; $i++) {\n    echo $x;\n    $x = $_GET['a'];\n}"), _XSS),
    Slice("foreach-value", "control-flow", _php("foreach ($_GET as $v) {\n    echo $v;\n}"), _XSS),
    Slice("foreach-key", "control-flow", _php("foreach ($_GET as $k => $v) {\n    echo $k;\n}"), _XSS),
    Slice("try-catch", "control-flow", _php("try {\n    $x = $_GET['a'];\n} catch (Exception $e) {\n    $x = 'safe';\n}\necho $x;"), _XSS),
    # -- functions ---------------------------------------------------------
    Slice("fn-return", "functions", _php("function f() {\n    return $_GET['a'];\n}\necho f();"), _XSS),
    Slice("fn-param", "functions", _php("function f($p) {\n    echo $p;\n}\nf($_GET['a']);"), _XSS),
    Slice("fn-byref-param", "functions", _php("function f(&$p) {\n    $p = $_GET['a'];\n}\n$x = 'a';\nf($x);\necho $x;"), _XSS),
    Slice("fn-default-arg", "functions", _php("function f($p = 'd') {\n    echo $p;\n}\nf($_GET['a']);"), _XSS),
    Slice("fn-uncalled-entry", "functions", _php("function handler() {\n    echo $_GET['a'];\n}"), _XSS),
    Slice("static-local", "functions", _php("function f() {\n    static $s;\n    echo $s;\n    $s = $_GET['x'];\n}\nf();\nf();"), _XSS),
    Slice("static-local-default", "functions", _php("function f() {\n    static $s = '';\n    echo $s;\n    $s = $_GET['x'];\n}\nf();\nf();"), _XSS),
    Slice("fn-recursive", "functions", _php("function f($n) {\n    if ($n) { f($n - 1); }\n    echo $_GET['a'];\n}\nf(1);"), _XSS),
    Slice("fn-transitive-return", "functions", _php("function g() {\n    return $_GET['a'];\n}\nfunction f() {\n    return g();\n}\necho f();"), _XSS),
    Slice("global-keyword", "functions", _php("$g = $_GET['a'];\nfunction f() {\n    global $g;\n    echo $g;\n}\nf();"), _XSS),
    Slice("fn-clean-return", "functions", _php("function f($p) {\n    return 'safe';\n}\necho f($_GET['a']);"), _NONE),
    # -- sanitizers --------------------------------------------------------
    Slice("filter-htmlspecialchars", "sanitizers", _php("echo htmlspecialchars($_GET['a']);"), _NONE),
    Slice("filter-intval", "sanitizers", _php("echo intval($_GET['a']);"), _NONE),
    Slice("filter-esc-html", "sanitizers", _php("echo esc_html($_GET['a']);"), _NONE),
    Slice("filter-then-retaint", "sanitizers", _php("$x = htmlspecialchars($_GET['a']);\n$x = $_GET['b'];\necho $x;"), _XSS),
    Slice("filter-reverted", "sanitizers", _php("echo htmlspecialchars_decode(htmlspecialchars($_GET['a']));"), _XSS),
    Slice("filter-wrong-kind", "sanitizers", _php("mysql_query('SELECT ' . htmlspecialchars($_GET['a']));"), _SQLI),
    Slice("filter-esc-sql", "sanitizers", _php("mysql_query('SELECT ' . esc_sql($_GET['a']));"), _NONE),
    Slice("filter-cast-int", "sanitizers", _php("$x = (int) $_GET['a'];\necho $x;"), _NONE),
    # -- sinks -------------------------------------------------------------
    Slice("sink-echo", "sinks", _php("echo $_GET['a'];"), _XSS),
    Slice("sink-print", "sinks", _php("print $_GET['a'];"), _XSS),
    Slice("sink-exit", "sinks", _php("exit($_GET['a']);"), _XSS),
    Slice("sink-mysql-query", "sinks", _php("mysql_query('SELECT * FROM t WHERE id = ' . $_GET['id']);"), _SQLI),
    Slice("sink-system", "sinks", _php("system('ls ' . $_GET['d']);"), _CMDI),
    Slice("sink-shell-exec", "sinks", _php("shell_exec($_GET['cmd']);"), _CMDI),
    Slice("sink-include", "sinks", _php("include $_GET['page'];"), _LFI),
    Slice("sink-wpdb-query", "sinks", _php("global $wpdb;\n$wpdb->query('SELECT ' . $_GET['id']);"), _SQLI),
    # -- sources -----------------------------------------------------------
    Slice("src-post", "sources", _php("echo $_POST['a'];"), _XSS),
    Slice("src-cookie", "sources", _php("echo $_COOKIE['a'];"), _XSS),
    Slice("src-request", "sources", _php("echo $_REQUEST['a'];"), _XSS),
    Slice("src-server", "sources", _php("echo $_SERVER['HTTP_USER_AGENT'];"), _XSS),
    # -- arrays ------------------------------------------------------------
    Slice("array-element-write", "arrays", _php("$a = array();\n$a['k'] = $_GET['x'];\necho $a['k'];"), _XSS),
    Slice("array-literal", "arrays", _php("$a = array($_GET['x']);\necho $a[0];"), _XSS),
    # -- OOP ---------------------------------------------------------------
    Slice("oop-property-flow", "oop", _php("class Box {\n    public $v;\n    public function fill() {\n        $this->v = $_GET['a'];\n    }\n    public function dump() {\n        echo $this->v;\n    }\n}\n$b = new Box();\n$b->fill();\n$b->dump();"), _XSS),
    Slice("oop-method-return", "oop", _php("class Src {\n    public function get() {\n        return $_GET['a'];\n    }\n}\n$s = new Src();\necho $s->get();"), _XSS),
    Slice("oop-static-property", "oop", _php("class Cfg {\n    public static $v;\n}\nCfg::$v = $_GET['a'];\necho Cfg::$v;"), _XSS),
    Slice("oop-call-object-property-write", "oop", _php("function box($x) {\n    echo $x;\n    return new stdClass();\n}\nbox($_GET['a'])->v = 1;"), _XSS),
    Slice("oop-foreach-property-target", "oop", _php("class Box {\n    public $v;\n    public function fill() {\n        foreach ($_GET as $this->v) {\n        }\n    }\n    public function dump() {\n        echo $this->v;\n    }\n}\n$b = new Box();\n$b->fill();\n$b->dump();"), _XSS),
    Slice("oop-setter-getter", "oop", _php("class D {\n    private $v;\n    public function set($x) {\n        $this->v = $x;\n    }\n    public function get() {\n        return $this->v;\n    }\n}\n$d = new D();\n$d->set($_GET['a']);\necho $d->get();"), _XSS),
    Slice("oop-public-property-getter", "oop", _php("class D {\n    public $v;\n    public function get() {\n        return $this->v;\n    }\n}\n$d = new D();\n$d->v = $_GET['a'];\necho $d->get();"), _XSS),
    Slice("oop-constructor-getter", "oop", _php("class D {\n    private $v;\n    public function __construct($x) {\n        $this->v = $x;\n    }\n    public function get() {\n        return $this->v;\n    }\n}\n$d = new D($_GET['a']);\necho $d->get();"), _XSS),
    # -- rule packs (declarative knowledge bases; every builtin pack is
    # -- loaded, so overlapping sinks report their *combined* kinds) -------
    Slice("pack-ssrf-wp-remote-get", "pack-ssrf", _php("wp_remote_get($_GET['u']);"), _SSRF),
    Slice("pack-ssrf-curl-init", "pack-ssrf", _php("curl_init($_POST['u']);"), _SSRF),
    Slice("pack-ssrf-validate-url", "pack-ssrf", _php("wp_remote_get(wp_http_validate_url($_GET['u']));"), _NONE),
    Slice("pack-ssrf-propagation", "pack-ssrf", _php("wp_remote_get(add_query_arg('p', 'v', $_GET['u']));"), _SSRF),
    Slice("pack-ssrf-propagation-narrows", "pack-ssrf", _php("echo add_query_arg('p', 'v', $_GET['u']);"), _NONE),
    Slice("pack-traversal-readfile", "pack-traversal", _php("readfile($_GET['f']);"), _TRAV),
    Slice("pack-traversal-unlink", "pack-traversal", _php("unlink($_COOKIE['f']);"), _TRAV),
    Slice("pack-traversal-basename", "pack-traversal", _php("readfile(basename($_GET['f']));"), _NONE),
    Slice("pack-traversal-write-value-clean", "pack-traversal", _php("file_put_contents('log.txt', $_GET['d']);"), _NONE),
    Slice("pack-overlap-file-get-contents", "pack-traversal", _php("file_get_contents($_REQUEST['u']);"), _SSRF | _TRAV),
    Slice("pack-deser-unserialize", "pack-deser", _php("$o = unserialize($_POST['blob']);"), _DESER),
    Slice("pack-deser-maybe-unserialize", "pack-deser", _php("maybe_unserialize($_COOKIE['c']);"), _DESER),
    Slice("pack-deser-passthrough-echo", "pack-deser", _php("echo unserialize($_GET['a']);"), _DESER | _XSS),
    Slice("pack-cmdi-mail-params", "pack-cmdi", _php("mail('a@example.com', 's', 'b', '', $_GET['x']);"), _CMDI),
    Slice("pack-cmdi-mail-safe-args", "pack-cmdi", _php("mail($_GET['to'], 's', 'b');"), _NONE),
    Slice("pack-cmdi-ssh2-exec", "pack-cmdi", _php("$c = ssh2_connect('host');\nssh2_exec($c, $_GET['cmd']);"), _CMDI),
)


@dataclass
class SliceResult:
    """One slice's outcome across every tool."""

    slice: Slice
    #: tool name -> kinds it reported on this slice
    detected: Dict[str, FrozenSet[str]]
    #: name of the reference tool whose envelope is asserted (phpSAFE)
    reference: str = "phpSAFE"

    @property
    def reference_kinds(self) -> FrozenSet[str]:
        return self.detected.get(self.reference, frozenset())

    @property
    def ok(self) -> bool:
        """Does the reference tool match the slice's expected envelope?"""
        return self.reference_kinds == self.slice.expected


def pack_enabled_phpsafe() -> PhpSafe:
    """The catalog's reference analyzer: phpSAFE with every builtin
    rule pack loaded, so slices can exercise pack kinds and the pre-pack
    slices prove the compiled profile changes nothing they cover."""
    from ..core.phpsafe import PhpSafeOptions
    from ..rules import builtin_pack_names

    options = PhpSafeOptions(rule_packs=tuple(builtin_pack_names()))
    return PhpSafe(options=options)


def default_tools() -> List[AnalyzerTool]:
    from ..baselines import PixyLike, RipsLike

    return [pack_enabled_phpsafe(), RipsLike(), PixyLike()]


def run_slices(
    tools: Optional[Sequence[AnalyzerTool]] = None,
    slices: Sequence[Slice] = SLICES,
) -> List[SliceResult]:
    """Run every slice through every tool (fresh tool state per slice —
    class-property stores and summaries must not leak across slices)."""
    factories = None
    if tools is None:
        factories = default_tools
    results: List[SliceResult] = []
    for piece in slices:
        plugin = Plugin(name=f"slice-{piece.name}", files={"slice.php": piece.code})
        active = factories() if factories is not None else list(tools or [])
        detected: Dict[str, FrozenSet[str]] = {}
        for tool in active:
            report = tool.analyze(plugin)
            detected[tool.name] = frozenset(
                finding.kind.value for finding in report.findings
            )
        results.append(SliceResult(slice=piece, detected=detected))
    return results
