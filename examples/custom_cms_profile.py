#!/usr/bin/env python
"""Extend phpSAFE to another CMS — the paper's Section III.A/VI claim.

"this ability can be easily extended to other CMSs, by adding their
input, filtering and sink functions to the configuration files" — the
paper names Drupal and Joomla as future work.  Here the configuration
file is the rule pack ``custom_cms_pack.json`` beside this script: a
Drupal-7-style database API, its sanitizers and known global objects.
Loaded on top of the generic PHP profile, it lets phpSAFE find flows a
WordPress-only configuration would miss.

Run:  python examples/custom_cms_profile.py
"""

import os

from repro import PhpSafe
from repro.core import PhpSafeOptions

PACK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "custom_cms_pack.json")

DRUPAL_MODULE = """<?php
// a Drupal-style module: hook functions called by core, not the module
function mymodule_page() {
    // db_query results are user-writable content (DB vector)
    $result = db_query('SELECT title FROM {node}');
    $row = db_fetch_object($result);
    echo '<h1>' . $row->title . '</h1>';
}

function mymodule_safe_page() {
    // Drupal's own sanitizer: no false alarm once the profile knows it
    echo '<p>' . check_plain($_GET['q']) . '</p>';
}

function mymodule_search() {
    // SQLi through Drupal's (D6-era) unparameterized query API
    db_query("SELECT * FROM {node} WHERE title = '" . $_GET['term'] . "'");
}
"""


def drupal_options(**flags) -> PhpSafeOptions:
    """Generic PHP knowledge + the Drupal API entries of the pack."""
    return PhpSafeOptions(profile_name="generic", rule_packs=(PACK,), **flags)


def main() -> None:
    wordpress_tool = PhpSafe()  # default WordPress profile
    drupal_tool = PhpSafe(options=drupal_options())

    for label, tool in (("WordPress profile", wordpress_tool),
                        ("Drupal profile", drupal_tool)):
        report = tool.analyze_source(DRUPAL_MODULE, filename="mymodule.module.php")
        kinds = sorted(f.kind.value for f in report.findings)
        print(f"{label:18s} -> {len(report.findings)} finding(s): {kinds}")
        for finding in report.findings:
            print(f"    {finding.describe()}")
        print()

    drupal_report = drupal_tool.analyze_source(DRUPAL_MODULE)
    wp_report = wordpress_tool.analyze_source(DRUPAL_MODULE)
    # the Drupal profile sees the db_query source/sink pair the
    # WordPress profile cannot, without false-alarming on check_plain
    assert len(drupal_report.findings) > len(wp_report.findings)
    assert sorted(f.kind.value for f in drupal_report.findings) == ["sqli", "xss"]
    print("the Drupal profile finds the stored XSS and the SQLi,")
    print("and stays silent on the check_plain()-escaped echo")

    # profiles also compose with the feature flags (ablation knobs)
    no_uncalled = PhpSafe(options=drupal_options(analyze_uncalled=False))
    report = no_uncalled.analyze_source(DRUPAL_MODULE)
    assert not report.findings  # all flows live in hook functions
    print("(and with analyze_uncalled=False every hook-borne flow is missed)")


if __name__ == "__main__":
    main()
