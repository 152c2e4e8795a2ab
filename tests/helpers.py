"""Shared test helpers (importable, unlike conftest)."""

from __future__ import annotations

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


#: Prefix for a subprocess script: from here on ``import numpy`` and
#: ``import scipy`` raise ImportError, so the script runs as if only the
#: declared runtime dependencies (none) were installed.
WITHOUT_OPTIONAL_PACKAGES = (
    "import sys\n"
    'sys.modules["numpy"] = sys.modules["scipy"] = None\n'
)
