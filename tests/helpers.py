"""Shared test helpers (importable, unlike conftest)."""

from __future__ import annotations

import os
import sqlite3

from repro.core import PhpSafe
from repro.plugin import Plugin


def analyze(source: str, tool=None):
    """Analyze one PHP source string; returns the report."""
    tool = tool or PhpSafe()
    if hasattr(tool, "analyze_source"):
        return tool.analyze_source(source)
    return tool.analyze(Plugin(name="t", files={"input.php": source}))


def findings_of(source: str, tool=None):
    return analyze(source, tool).findings


def corrupt_cache_rows(cache_dir: str, keys=None) -> int:
    """Overwrite the stored slot of each of ``keys`` (every row when
    None) in a disk cache's object table with bytes that do not
    unpickle; returns how many rows were corrupted."""
    db = sqlite3.connect(os.path.join(cache_dir, "objects.sqlite"))
    try:
        if keys is None:
            keys = [key for (key,) in db.execute("SELECT key FROM objects")]
        count = sum(
            db.execute(
                "UPDATE objects SET slot = ? WHERE key = ?",
                (b"\x80\x04 this is not a pickle", key),
            ).rowcount
            for key in keys
        )
        db.commit()
        return count
    finally:
        db.close()


#: Prefix for a subprocess script: from here on ``import numpy`` and
#: ``import scipy`` raise ImportError, so the script runs as if only the
#: declared runtime dependencies (none) were installed.
WITHOUT_OPTIONAL_PACKAGES = (
    "import sys\n"
    'sys.modules["numpy"] = sys.modules["scipy"] = None\n'
)
