"""Importing the analyzer loads no third-party package.

Every CLI start, ``repro serve`` node and job-slot worker imports
:mod:`repro`; a module-level ``import numpy`` or ``import scipy``
anywhere under it costs each of them about a second and tens of MB
before the first scan.  numpy is an optional extra (``stats``) that
only :func:`repro.evaluation.statistics.bootstrap_rate` imports, when
it is called.  Both tests run in a fresh interpreter, because this test
session may already have imported either package.
"""

import os
import subprocess
import sys

from tests.helpers import WITHOUT_OPTIONAL_PACKAGES

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_python(code, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


def test_import_loads_neither_numpy_nor_scipy():
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.service, repro.batch\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    run = _run_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_scan_runs_without_numpy_and_scipy(tmp_path):
    plugin = tmp_path / "plugin"
    plugin.mkdir()
    (plugin / "index.php").write_text("<?php echo $_GET['q'];\n")
    code = WITHOUT_OPTIONAL_PACKAGES + (
        "import runpy\n"
        "sys.argv = ['repro', 'scan', sys.argv[1]]\n"
        "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    )
    run = _run_python(code, str(plugin), cwd=str(tmp_path))
    assert run.returncode == 1, run.stderr  # findings -> nonzero exit
    assert "XSS" in run.stdout
    assert "1 finding(s)" in run.stdout
