"""The shipped packs are package data: a built distribution carries them.

Every named profile is compiled from packs under ``repro/rules/packs``,
so a build that copied only ``.py`` files would install an analyzer
without its default knowledge base.  The test builds the project into a
temporary directory and runs the built copy, not the source tree, with
numpy and scipy blocked: the built copy must run on its declared
dependencies alone.
"""

import os
import shutil
import subprocess
import sys

from repro.rules import PROFILES, builtin_pack_dir, builtin_pack_names
from tests.helpers import WITHOUT_OPTIONAL_PACKAGES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHECK = WITHOUT_OPTIONAL_PACKAGES + """
import repro
from repro.core import PhpSafe
from repro.rules import PROFILES, builtin_pack_names, load_pack, resolve_profile
assert repro.__file__.startswith(sys.argv[1]), repro.__file__
names = builtin_pack_names()
for name in names:
    load_pack(name)
for profile in PROFILES:
    resolve_profile(profile, names)
report = PhpSafe().analyze_source("<?php $r = $wpdb->get_var('q'); echo $r;")
assert report.findings, "default profile lost the WordPress knowledge base"
print(",".join(names))
"""


def test_build_ships_every_pack(tmp_path):
    project = tmp_path / "project"
    project.mkdir()
    for name in ("pyproject.toml", "setup.py", "README.md"):
        shutil.copy(os.path.join(ROOT, name), project / name)
    shutil.copytree(
        os.path.join(ROOT, "src"),
        project / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    build = subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", "out"],
        cwd=str(project),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert build.returncode == 0, build.stderr
    lib = project / "out" / "lib"
    packs = lib / "repro" / "rules" / "packs"
    shipped = {
        os.path.relpath(os.path.join(dirpath, name), builtin_pack_dir())
        for dirpath, _dirs, files in os.walk(builtin_pack_dir())
        for name in files
        if name.endswith(".json")
    }
    assert {name + ".json" for name in builtin_pack_names()} <= shipped
    for packs_of_profile in PROFILES.values():
        for name in packs_of_profile:
            assert os.path.join("profiles", name + ".json") in shipped
    for relpath in shipped:
        assert (packs / relpath).is_file(), relpath

    env = dict(os.environ, PYTHONPATH=str(lib))
    run = subprocess.run(
        [sys.executable, "-c", CHECK, str(lib)],
        cwd=str(tmp_path),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == ",".join(builtin_pack_names())
