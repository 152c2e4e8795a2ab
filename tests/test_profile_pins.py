"""Pins of the named profiles' knowledge-base semantics.

``AnalyzerProfile.fingerprint()`` digests every source, filter, revert,
sink, propagation spec, known instance and the ``register_globals``
flag.  With pack identity left out, each named profile must keep these
digests whatever format its entries are stored in, so a change of
format can never move a finding.  The baselines' profiles are pinned
the same way: RIPS consults generic PHP, Pixy the 2007 subset.
"""

from dataclasses import replace

import pytest

from repro.baselines import PixyLike, RipsLike
from repro.core import PhpSafe
from repro.rules import resolve_profile

#: fingerprint of each named profile with ``packs=()``
PINNED = {
    "generic": "3371ef9300dab1b8",
    "wordpress": "a61f877a0a767266",
    "drupal": "3557186341e013c7",
    "joomla": "1198038e9ccb15b0",
    "pixy-2007": "5e5cdd386b2941e2",
}

WORDPRESS_INSTANCES = {
    ("wpdb", "wpdb"),
    ("wp_query", "WP_Query"),
    ("post", "WP_Post"),
    ("current_user", "WP_User"),
}

#: known global instances of each named profile
INSTANCES = {
    "generic": set(),
    "wordpress": WORDPRESS_INSTANCES,
    "drupal": {("user", "stdClass")},
    "joomla": {
        ("db", "JDatabase"),
        ("database", "JDatabase"),
        ("app", "JApplication"),
        ("input", "JInput"),
        ("mainframe", "JApplication"),
    },
    "pixy-2007": set(),
}


def _pack_free_fingerprint(profile):
    return replace(profile, packs=()).fingerprint()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_profile_fingerprint_is_pinned(name):
    assert _pack_free_fingerprint(resolve_profile(name)) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_profile_instances_are_pinned(name):
    profile = resolve_profile(name)
    assert {(i.var_name, i.class_name) for i in profile.instances} == INSTANCES[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_only_pixy_models_register_globals(name):
    assert resolve_profile(name).register_globals is (name == "pixy-2007")


def test_default_phpsafe_profile_is_wordpress():
    profile = PhpSafe().profile
    assert _pack_free_fingerprint(profile) == PINNED["wordpress"]
    assert {(i.var_name, i.class_name) for i in profile.instances} == WORDPRESS_INSTANCES


def test_baseline_profiles_are_pinned():
    assert _pack_free_fingerprint(RipsLike().profile) == PINNED["generic"]
    assert _pack_free_fingerprint(PixyLike().profile) == PINNED["pixy-2007"]
    assert PixyLike().profile.register_globals
    assert not RipsLike().profile.register_globals
