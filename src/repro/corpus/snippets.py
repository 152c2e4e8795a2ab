"""PHP code templates for seeded flows and benign noise.

Every template returns a :class:`Fragment`: the PHP lines to splice into
a file plus the offset of the sensitive sink within them, so the
generator can record the exact ground-truth sink line.  Templates are
written so their detectability by each tool is known *by construction*
(see :mod:`repro.corpus.spec` for the region taxonomy) — e.g. a region-b
flow lives in a function no plugin code calls, which phpSAFE and RIPS
analyze but Pixy does not.

Noise templates emit realistic but certifiably clean code: nothing in
them may trip any of the three tools (including RIPS's pessimistic
unknown-function propagation and Pixy's register_globals model), so
noise contributes true negatives only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..config.vulnerability import InputVector


@dataclass(frozen=True)
class Fragment:
    """PHP lines plus the index (0-based) of the sink line, -1 if none."""

    lines: List[str]
    sink_offset: int = -1


def _ident(spec_id: str) -> str:
    """A PHP-safe identifier derived from a spec id."""
    return spec_id.replace("-", "_").replace(".", "_").lower()


_SUPERGLOBAL = {
    InputVector.GET: "$_GET",
    InputVector.POST: "$_POST",
    InputVector.COOKIE: "$_COOKIE",
    InputVector.REQUEST: "$_REQUEST",
}


def superglobal_expr(vector: InputVector, key: str) -> str:
    """``$_GET['key']``-style source expression for a direct vector."""
    return f"{_SUPERGLOBAL[vector]}['{key}']"


# ---------------------------------------------------------------------------
# True-positive templates (regions a, b, d, e_*, f, g)
# ---------------------------------------------------------------------------


def direct_echo_main(spec_id: str, vector: InputVector) -> Fragment:
    """Region a / d: main-flow superglobal → echo.  Found by every tool
    that analyzes the file (region d files defeat phpSAFE)."""
    uid = _ident(spec_id)
    source = superglobal_expr(vector, f"msg_{uid}")
    return Fragment(
        lines=[
            f"$msg_{uid} = {source};",
            f"echo '<div class=\"notice\">' . $msg_{uid} . '</div>';",
        ],
        sink_offset=1,
    )


def direct_echo_uncalled(spec_id: str, vector: InputVector) -> Fragment:
    """Region b: superglobal → echo inside a never-called function.

    phpSAFE and RIPS analyze uncalled plugin entry points; Pixy does not
    (paper Section V.A).
    """
    uid = _ident(spec_id)
    source = superglobal_expr(vector, f"opt_{uid}")
    return Fragment(
        lines=[
            f"function hook_{uid}_render() {{",
            f"    $opt_{uid} = {source};",
            f"    echo '<input type=\"text\" value=\"' . $opt_{uid} . '\">';",
            "}",
        ],
        sink_offset=2,
    )


def file_read_echo_uncalled(spec_id: str) -> Fragment:
    """Region b, File vector: fgets → echo in an uncalled function."""
    uid = _ident(spec_id)
    return Fragment(
        lines=[
            f"function hook_{uid}_tail() {{",
            f"    $fp_{uid} = fopen(dirname(__FILE__) . '/log_{uid}.txt', 'r');",
            f"    $line_{uid} = fgets($fp_{uid}, 256);",
            f"    echo '<pre>' . $line_{uid} . '</pre>';",
            f"    fclose($fp_{uid});",
            "}",
        ],
        sink_offset=3,
    )


def db_read_echo_uncalled(spec_id: str) -> Fragment:
    """Region f, DB vector: procedural mysql_* read → echo, uncalled.

    RIPS-only when placed in a phpSAFE-failed file (Pixy skips uncalled
    functions even though mysql_fetch_assoc is in its knowledge base).
    """
    uid = _ident(spec_id)
    return Fragment(
        lines=[
            f"function legacy_{uid}_row() {{",
            f"    $res_{uid} = mysql_query('SELECT title FROM entries_{uid}');",
            f"    $row_{uid} = mysql_fetch_assoc($res_{uid});",
            f"    echo '<td>' . $row_{uid}['title'] . '</td>';",
            "}",
        ],
        sink_offset=3,
    )


def wpdb_results_echo(spec_id: str) -> Fragment:
    """Region e_oop, DB vector: the paper's mail-subscribe-list example.

    ``$wpdb->get_results`` rows echoed unescaped — detectable only with
    OOP + WordPress knowledge (Section III.E).
    """
    uid = _ident(spec_id)
    return Fragment(
        lines=[
            f"function spec_{uid}_list() {{",
            "    global $wpdb;",
            f"    $rows_{uid} = $wpdb->get_results(\"SELECT * FROM \" . $wpdb->prefix . \"tbl_{uid}\");",
            f"    foreach ($rows_{uid} as $row_{uid}) {{",
            f"        echo '<td>' . $row_{uid}->label . '</td>';",
            "    }",
            "}",
        ],
        sink_offset=4,
    )


def property_flow_class(spec_id: str, vector: InputVector) -> Fragment:
    """Region e_oop, direct vector: superglobal stored in an object
    property by one method, echoed by another (encapsulated flow)."""
    uid = _ident(spec_id)
    source = superglobal_expr(vector, f"pref_{uid}")
    return Fragment(
        lines=[
            f"class Spec_{uid}_Widget {{",
            "    public $payload;",
            "    public function collect() {",
            f"        $this->payload = {source};",
            "    }",
            "    public function render() {",
            "        echo '<span>' . $this->payload . '</span>';",
            "    }",
            "}",
        ],
        sink_offset=6,
    )


def wp_option_echo(spec_id: str) -> Fragment:
    """Region e_wp, DB vector: ``get_option`` → echo, procedural.

    Only a WordPress-aware tool knows ``get_option`` returns
    database-resident (user-writable) data.
    """
    uid = _ident(spec_id)
    return Fragment(
        lines=[
            f"$text_{uid} = get_option('banner_{uid}');",
            f"echo '<p class=\"banner\">' . $text_{uid} . '</p>';",
        ],
        sink_offset=1,
    )


def wpdb_query_sqli(spec_id: str, vector: InputVector) -> Fragment:
    """Region e_sqli: superglobal interpolated into ``$wpdb->query``."""
    uid = _ident(spec_id)
    source = superglobal_expr(vector, f"slot_{uid}")
    return Fragment(
        lines=[
            f"$slot_{uid} = {source};",
            f"$wpdb->query(\"UPDATE \" . $wpdb->prefix . \"tbl_{uid} SET hits = hits + 1 WHERE slot = '\" . $slot_{uid} . \"'\");",
        ],
        sink_offset=1,
    )


def register_globals_echo(spec_id: str) -> Fragment:
    """Region g: echo of a variable never initialized — exploitable
    under ``register_globals=1`` (Pixy's specialty, paper Section V.A)."""
    uid = _ident(spec_id)
    return Fragment(
        lines=[f"echo '<body class=\"' . $skin_{uid} . '\">';"],
        sink_offset=0,
    )


# ---------------------------------------------------------------------------
# False-positive bait templates (expert-verified as not exploitable)
# ---------------------------------------------------------------------------


def fp_guarded_echo(spec_id: str, vector: InputVector) -> Fragment:
    """fp_shared: capability- and nonce-gated admin echo.

    Taint analysis cannot see the guard, so phpSAFE and RIPS report it;
    the expert marks it unexploitable (admin-only, CSRF-protected).
    """
    uid = _ident(spec_id)
    source = superglobal_expr(vector, f"val_{uid}")
    return Fragment(
        lines=[
            f"function admin_{uid}_panel() {{",
            "    if (!current_user_can('manage_options')) {",
            "        return;",
            "    }",
            f"    check_admin_referer('panel_{uid}');",
            f"    echo '<input value=\"' . {source} . '\">';",
            "}",
        ],
        sink_offset=5,
    )


def fp_wpdb_internal_table(spec_id: str) -> Fragment:
    """fp_ps: ``$wpdb->get_var`` from a table end users cannot write.

    Only phpSAFE sees the flow at all; the expert rules it out because
    the source table holds installer-controlled data.
    """
    uid = _ident(spec_id)
    return Fragment(
        lines=[
            f"$ver_{uid} = $wpdb->get_var(\"SELECT meta_value FROM \" . $wpdb->prefix . \"system_meta_{uid} WHERE meta_key = 'schema'\");",
            f"echo '<em>v' . $ver_{uid} . '</em>';",
        ],
        sink_offset=1,
    )


def fp_esc_html_echo(spec_id: str, vector: InputVector) -> Fragment:
    """fp_rips: a WordPress-escaped echo.  phpSAFE knows ``esc_html``;
    RIPS does not and reports the flow anyway."""
    uid = _ident(spec_id)
    source = superglobal_expr(vector, f"name_{uid}")
    return Fragment(
        lines=[
            f"function widget_{uid}_badge() {{",
            f"    echo '<b>' . esc_html({source}) . '</b>';",
            "}",
        ],
        sink_offset=1,
    )


def fp_uninitialized_pixy(spec_id: str) -> Fragment:
    """fp_pixy: a global initialized by an (uncalled) setup hook.

    Pixy neither analyzes the uncalled initializer nor sees class-based
    setups, so under its register_globals model the later echo looks
    attacker-controlled; phpSAFE/RIPS see the clean initialization.
    """
    uid = _ident(spec_id)
    return Fragment(
        lines=[
            f"function setup_{uid}_defaults() {{",
            f"    global $cfg_{uid};",
            f"    $cfg_{uid} = 'standard';",
            "}",
            f"echo '<div data-mode=\"' . $cfg_{uid} . '\"></div>';",
        ],
        sink_offset=4,
    )


def fp_sqli_whitelist(spec_id: str) -> Fragment:
    """fp_sqli_ps: ORDER BY column constrained by an ``in_array``
    whitelist — invisible to taint analysis, safe in practice."""
    uid = _ident(spec_id)
    return Fragment(
        lines=[
            f"$col_{uid} = $_GET['sort_{uid}'];",
            f"if (!in_array($col_{uid}, array('title', 'created'))) {{",
            f"    $col_{uid} = 'title';",
            "}",
            f"$wpdb->query(\"SELECT id FROM \" . $wpdb->prefix . \"items_{uid} ORDER BY \" . $col_{uid});",
        ],
        sink_offset=4,
    )


def fp_sqli_absint_rips(spec_id: str) -> Fragment:
    """fp_sqli_rips: query bounded by WordPress's ``absint``.  RIPS does
    not know ``absint`` and flags the query; phpSAFE filters it."""
    uid = _ident(spec_id)
    return Fragment(
        lines=[
            f"function stats_{uid}_page() {{",
            f"    mysql_query('SELECT * FROM stats LIMIT ' . absint($_GET['n_{uid}']));",
            "}",
        ],
        sink_offset=1,
    )


# ---------------------------------------------------------------------------
# Noise (clean for all three tools)
# ---------------------------------------------------------------------------


def noise_helper_function(uid: str) -> Fragment:
    """An uncalled utility that sanitizes everything it touches."""
    return Fragment(
        lines=[
            f"function util_{uid}_format($items) {{",
            f"    $out_{uid} = array();",
            f"    foreach ($items as $key_{uid} => $value_{uid}) {{",
            f"        $out_{uid}[] = strtoupper($key_{uid}) . ': ' . intval($value_{uid});",
            "    }",
            f"    return implode(', ', $out_{uid});",
            "}",
        ]
    )


def noise_sanitized_echo(uid: str) -> Fragment:
    """Main-flow output that every tool agrees is clean."""
    return Fragment(
        lines=[
            f"$stamp_{uid} = date('Y-m-d H:i');",
            f"echo '<small>generated ' . $stamp_{uid} . '</small>';",
            f"echo '<i>' . htmlentities($_GET['ref_{uid}']) . '</i>';",
        ]
    )


def noise_loop_block(uid: str) -> Fragment:
    """Arithmetic churn: parser food with zero taint relevance."""
    return Fragment(
        lines=[
            f"$total_{uid} = 0;",
            f"for ($i_{uid} = 0; $i_{uid} < 10; $i_{uid}++) {{",
            f"    $total_{uid} += $i_{uid} * 3;",
            "}",
            f"$label_{uid} = 'sum-' . $total_{uid};",
        ]
    )


def pixy_fatal_block(uid: str) -> Fragment:
    """PHP-5 construct Pixy cannot parse (try/catch): placing one of
    these in a file makes the Pixy-like tool fail that file."""
    return Fragment(
        lines=[
            f"function compat_{uid}_probe() {{",
            "    try {",
            f"        $probe_{uid} = strlen('feature-test');",
            f"        return $probe_{uid} > 0;",
            "    } catch (Exception $err) {",
            "        return false;",
            "    }",
            "}",
        ]
    )


def pixy_warning_block(uid: str) -> Fragment:
    """PHP-5 modifier Pixy only warns about (file still analyzed)."""
    return Fragment(
        lines=[
            f"final class Compat_{uid}_Flag {{",
            "    public $enabled = true;",
            "}",
        ]
    )


def biglib_function(uid: str, index: int, payload: str) -> Fragment:
    """One entry of a generated data library: byte-heavy, node-light.

    Used to build the oversized include closures that exhaust phpSAFE's
    analysis budget (the paper's Section V.E failures).
    """
    return Fragment(
        lines=[
            f"function lib_{uid}_chunk_{index}() {{",
            f"    return '{payload}';",
            "}",
        ]
    )
