"""Differential property testing: static analysis vs dynamic execution.

The strongest soundness check available to the reproduction: generate
random small programs from a flow grammar, analyze them statically
(phpSAFE) and execute them dynamically (attack runtime).  Whenever the
*dynamic* run proves the payload reaches the page unsanitized, the
*static* analyzer must have reported the flow — a missed dynamic
confirmation is a real false negative, not a modeling choice.

(The converse is intentionally not asserted: static analysis is allowed
to over-approximate, e.g. it flags a flow through ``strtoupper`` whose
uppercased payload no longer matches the marker.)
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.vulnerability import VulnKind
from repro.core import PhpSafe
from repro.difftest.slices import SLICES
from repro.dynamic import build_attack_runtime, make_payload
from repro.php.interp import PhpRuntimeError

SOURCES = [
    "$_GET['q']",
    "$_POST['q']",
    "$_COOKIE['q']",
    "get_option('k')",
    "$wpdb->get_var('SELECT v')",
]

# (php wrapper, sanitizes XSS fully?)
WRAPPERS = [
    ("htmlentities({})", True),
    ("htmlspecialchars({})", True),
    ("esc_html({})", True),
    ("intval({})", True),
    ("trim({})", False),
    ("strtolower({})", False),
    ("stripslashes({})", False),
    ("{}", False),
]

HOPS = [
    "$a = {src}; $b = $a; $out = $b;",
    "$out = {src};",
    "$tmp = 'x: ' . {src}; $out = $tmp;",
    "$out = 'safe'; if ($_GET['c'] == '1') {{ $out = {src}; }}",
]


@st.composite
def flow_programs(draw):
    source = draw(st.sampled_from(SOURCES))
    wrapper, sanitized = draw(st.sampled_from(WRAPPERS))
    hop = draw(st.sampled_from(HOPS))
    wrapped = wrapper.format(source)
    body = hop.format(src=wrapped)
    program = f"<?php\n{body}\necho '<p>' . $out . '</p>';\n"
    return program, sanitized


@given(flow_programs())
@settings(max_examples=120, deadline=None)
def test_dynamic_exploit_implies_static_finding(case):
    program, _sanitized = case
    payload = make_payload(VulnKind.XSS)
    interp = build_attack_runtime(payload.text)
    interp.load_source(program, "prog.php")
    try:
        interp.run_file("prog.php")
    except PhpRuntimeError:
        return  # inconclusive run: nothing to compare
    dynamically_exploitable = payload.appears_raw_in(interp.effects.page)

    report = PhpSafe().analyze_source(program, filename="prog.php")
    statically_found = any(f.kind is VulnKind.XSS for f in report.findings)

    if dynamically_exploitable:
        assert statically_found, program


@given(flow_programs())
@settings(max_examples=120, deadline=None)
def test_fully_sanitized_flows_are_silent(case):
    """Flows through a full sanitizer must produce no static finding
    (the no-false-alarm direction for *known* sanitizers)."""
    program, sanitized = case
    if not sanitized:
        return
    if "stripslashes" in program:
        return  # revert semantics may legitimately re-taint
    report = PhpSafe().analyze_source(program, filename="prog.php")
    assert not any(f.kind is VulnKind.XSS for f in report.findings), program


@given(flow_programs())
@settings(max_examples=60, deadline=None)
def test_analysis_deterministic(case):
    program, _sanitized = case
    first = PhpSafe().analyze_source(program)
    second = PhpSafe().analyze_source(program)
    assert sorted(f.key for f in first.findings) == sorted(
        f.key for f in second.findings
    )


GETTER_SLICES = (
    "oop-setter-getter", "oop-public-property-getter", "oop-constructor-getter"
)


@pytest.mark.parametrize("name", GETTER_SLICES)
def test_getter_flows_are_exploitable_and_reported(name):
    """A property written through a setter, directly or by a constructor,
    then read back through a getter: the payload reaches the page, so
    phpSAFE must report the flow."""
    (piece,) = [piece for piece in SLICES if piece.name == name]
    payload = make_payload(VulnKind.XSS)
    interp = build_attack_runtime(payload.text)
    interp.load_source(piece.code, "slice.php")
    interp.run_file("slice.php")
    assert payload.appears_raw_in(interp.effects.page)

    report = PhpSafe().analyze_source(piece.code, filename="slice.php")
    assert [f.kind for f in report.findings] == [VulnKind.XSS]
