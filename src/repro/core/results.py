"""Results-processing stage: findings, per-file failures, reports.

The output of an analysis run is a :class:`ToolReport`: the list of
:class:`Finding` records (one per vulnerable sink reached by tainted
data), the per-file failures used by the robustness evaluation
(Section V.E), and bookkeeping such as analysis wall time and the full
variable dump phpSAFE exposes for manual review (Section III.D).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, IO, Iterable, Iterator, List, Optional, Set, Tuple

from ..config.vulnerability import InputVector, VulnKind
from ..incidents import Incident
from .taint import VariableRecord


#: canonical cross-configuration finding identity used by the
#: differential harness: plugin provenance + kind + sink location + sink
FindingSignature = Tuple[str, str, str, int, str]


@dataclass(frozen=True)
class Finding:
    """One reported vulnerability.

    ``file``/``line`` locate the sensitive sink; ``vectors`` lists the
    input vectors of every source that can reach it (Table II taxonomy);
    ``trace`` is the variable-to-variable flow phpSAFE shows reviewers.
    """

    kind: VulnKind
    file: str
    line: int
    sink: str
    variable: str = ""
    vectors: Tuple[InputVector, ...] = ()
    trace: Tuple[str, ...] = ()
    via_oop: bool = False
    #: markup context for XSS findings ("html", "attribute", "url",
    #: "script", ...) — empty for non-XSS kinds
    markup_context: str = ""
    #: originating plugin slug.  Empty inside a single-plugin report
    #: (where ``file`` is unambiguous); :meth:`ToolReport.merged` stamps
    #: it so findings from different plugins that share a file name
    #: (``index.php`` everywhere) stay distinct in corpus-wide totals.
    plugin: str = ""
    #: eagerly computed hash — findings are hashed repeatedly during
    #: matching/overlap set operations, and every field is immutable
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_hash",
            hash(
                (
                    self.kind,
                    self.file,
                    self.line,
                    self.sink,
                    self.variable,
                    self.vectors,
                    self.trace,
                    self.via_oop,
                    self.markup_context,
                    self.plugin,
                )
            ),
        )

    def __hash__(self) -> int:
        return self._hash

    # string hashes are salted per process (PYTHONHASHSEED), so the
    # cached hash must be recomputed when a finding crosses a process
    # boundary (batch workers ship findings back pickled)
    def __getstate__(self):
        return {
            name: value for name, value in self.__dict__.items() if name != "_hash"
        }

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    @property
    def key(self) -> Tuple[str, str, int]:
        """Dedup/matching identity: kind + sink location."""
        return (self.kind.value, self.file, self.line)

    @property
    def dedup_key(self) -> Tuple[str, str, str, int]:
        """Report-level dedup identity: plugin provenance + :attr:`key`."""
        return (self.plugin, self.kind.value, self.file, self.line)

    def signature(self, plugin: str = "") -> FindingSignature:
        """The canonical :data:`FindingSignature`; ``plugin`` names the
        owning report, for findings not stamped by :meth:`ToolReport.merged`."""
        return (
            self.plugin or plugin, self.kind.value, self.file, self.line, self.sink
        )

    @property
    def primary_vector(self) -> Optional[InputVector]:
        """The most attacker-reachable vector (lowest tier wins)."""
        if not self.vectors:
            return None
        return min(self.vectors, key=lambda vector: (vector.tier, vector.value))

    def describe(self) -> str:
        vectors = "/".join(vector.value for vector in self.vectors) or "?"
        return (
            f"{self.kind} at {self.file}:{self.line} via {self.sink}"
            f" (input: {vectors}, variable: {self.variable or '?'})"
        )


def finding_signatures(reports: Iterable["ToolReport"]) -> Set[FindingSignature]:
    """Signature set of every finding in ``reports``.

    Findings in a single-plugin report carry an empty ``plugin`` field
    (it is stamped only by :meth:`ToolReport.merged`), so the owning
    report's plugin fills the gap — two configurations of the same scan
    must produce identical signature sets.
    """
    return {
        finding.signature(report.plugin)
        for report in reports
        for finding in report.findings
    }


@dataclass(frozen=True)
class FileFailure:
    """A robustness incident on one file (Section V.E).

    ``completed=False`` means the tool skipped the file entirely;
    ``completed=True`` with ``is_error=True`` models Pixy's "raised an
    error message" cases where analysis still finished.
    """

    file: str
    reason: str
    is_error: bool = False  # the tool emitted an error message
    completed: bool = False  # analysis of the file still completed


@dataclass
class ToolReport:
    """Everything a tool produced for one plugin."""

    tool: str
    plugin: str
    findings: List[Finding] = field(default_factory=list)
    failures: List[FileFailure] = field(default_factory=list)
    #: typed robustness incidents (Section V.E taxonomy); the
    #: :attr:`failures` list is derived from these for backward
    #: compatibility with the evaluation tables
    incidents: List[Incident] = field(default_factory=list)
    files_analyzed: int = 0
    loc_analyzed: int = 0
    #: coverage denominator: files/LOC the tool could *not* analyze, so
    #: partial coverage is never silently presented as full coverage
    files_skipped: int = 0
    loc_skipped: int = 0
    seconds: float = 0.0
    #: per-run performance counters (tokens/s, summary-cache hits, ...)
    #: — the delta of :data:`repro.perf.counters` over this analysis
    perf: Dict[str, float] = field(default_factory=dict)
    #: phpSAFE's reviewer resources: the final parser_variables dump.
    variables: Dict[str, VariableRecord] = field(default_factory=dict)
    #: index of the dedup keys already in :attr:`findings`, so inserts
    #: stay O(1) on large-corpus merges instead of a linear rescan.
    _seen_keys: Set[Tuple[str, str, str, int]] = field(
        default_factory=set, init=False, repr=False, compare=False
    )
    #: how many entries of :attr:`findings` the index covers.  Staleness
    #: is detected against this watermark, NOT against
    #: ``len(_seen_keys)``: the list may legitimately hold dedup-key
    #: duplicates after direct mutation, and a set-vs-list length
    #: comparison then mismatches forever — every insert rebuilt the
    #: whole index and large merges went quadratic.
    _indexed_count: int = field(default=0, init=False, repr=False, compare=False)
    #: index rebuilds performed (observability hook for the O(n)
    #: regression test; a merge must trigger at most one)
    _index_rebuilds: int = field(default=0, init=False, repr=False, compare=False)

    def add_finding(self, finding: Finding) -> bool:
        """Append ``finding`` unless an identical sink was already
        reported; returns True when added."""
        if self._indexed_count != len(self.findings):
            # findings was assigned or mutated directly since the last
            # insert; rebuild the index once, then track incrementally
            self._seen_keys = {existing.dedup_key for existing in self.findings}
            self._indexed_count = len(self.findings)
            self._index_rebuilds += 1
        if finding.dedup_key in self._seen_keys:
            return False
        self.findings.append(finding)
        self._seen_keys.add(finding.dedup_key)
        self._indexed_count += 1
        return True

    def findings_of(self, kind: VulnKind) -> List[Finding]:
        return [finding for finding in self.findings if finding.kind is kind]

    @property
    def failed_files(self) -> List[str]:
        """Files whose analysis did not complete."""
        return [failure.file for failure in self.failures if not failure.completed]

    @property
    def error_count(self) -> int:
        return sum(1 for failure in self.failures if failure.is_error)

    @property
    def recovered_count(self) -> int:
        """Incidents the pipeline recovered from (degraded, not lost)."""
        return sum(1 for incident in self.incidents if incident.recovered)

    @property
    def coverage(self) -> float:
        """Fraction of plugin LOC actually analyzed (1.0 = everything)."""
        total = self.loc_analyzed + self.loc_skipped
        return self.loc_analyzed / total if total else 1.0

    def merged(self, other: "ToolReport") -> "ToolReport":
        """Combine reports of two plugins (used for whole-corpus totals).

        Each finding is stamped with the plugin it came from before
        deduplication, so two plugins flagging the same ``(kind, file,
        line)`` — common when both ship an ``index.php`` — contribute two
        findings, while true duplicates (re-merging the same plugin)
        still collapse.
        """
        merged = ToolReport(tool=self.tool, plugin=f"{self.plugin}+{other.plugin}")
        for report in (self, other):
            for finding in report.findings:
                if not finding.plugin:
                    finding = replace(finding, plugin=report.plugin)
                merged.add_finding(finding)
        merged.failures = self.failures + other.failures
        merged.incidents = self.incidents + other.incidents
        merged.files_analyzed = self.files_analyzed + other.files_analyzed
        merged.loc_analyzed = self.loc_analyzed + other.loc_analyzed
        merged.files_skipped = self.files_skipped + other.files_skipped
        merged.loc_skipped = self.loc_skipped + other.loc_skipped
        merged.seconds = self.seconds + other.seconds
        return merged


# ---------------------------------------------------------------------------
# Streaming findings: the on-disk JSONL sink of memory-bounded scans
# ---------------------------------------------------------------------------
#
# At million-LOC corpus scale, accumulating one ToolReport per plugin in
# memory IS the memory bug: findings carry traces, incidents and perf
# dicts, and thousands of retained reports dominate peak RSS long after
# each plugin's analysis finished.  Streaming mode writes every finding
# to an append-only JSONL file the moment its plugin completes and drops
# the report; SARIF export, telemetry and the golden checks consume the
# stream through the readers below instead of live report objects.

#: schema tag of the findings stream (header record)
FINDINGS_STREAM_SCHEMA = "repro.findings.stream/v1"


def finding_to_dict(finding: Finding) -> Dict[str, object]:
    """Lossless JSON form of one finding (inverse: :func:`finding_from_dict`).

    The one record every JSON output embeds: the stream below, rescan
    manifests (whose carried findings are min-merged with live ones, so
    a dropped field would change the winner), review and service
    documents, ``compare --json`` and the history archive."""
    return {
        "kind": finding.kind.value,
        "file": finding.file,
        "line": finding.line,
        "sink": finding.sink,
        "variable": finding.variable,
        "vectors": [vector.value for vector in finding.vectors],
        "trace": list(finding.trace),
        "via_oop": finding.via_oop,
        "markup_context": finding.markup_context,
        "plugin": finding.plugin,
    }


def finding_from_dict(record: Dict[str, object]) -> Finding:
    """Rebuild a :class:`Finding` from its JSON record."""
    return Finding(
        kind=VulnKind(record["kind"]),
        file=str(record["file"]),
        line=int(record["line"]),  # type: ignore[arg-type]
        sink=str(record["sink"]),
        variable=str(record.get("variable", "")),
        vectors=tuple(
            InputVector(value) for value in record.get("vectors", ())  # type: ignore[union-attr]
        ),
        trace=tuple(str(step) for step in record.get("trace", ())),  # type: ignore[union-attr]
        via_oop=bool(record.get("via_oop", False)),
        markup_context=str(record.get("markup_context", "")),
        plugin=str(record.get("plugin", "")),
    )


class JsonlFindingSink:
    """Append-only JSONL sink replacing in-memory report accumulation.

    Three record types, one JSON object per line:

    - ``header`` — stream schema + tool name, written once;
    - ``finding`` — one :class:`Finding`, plugin-stamped (the streaming
      equivalent of the stamping :meth:`ToolReport.merged` performs);
    - ``plugin`` — the per-plugin summary written after its findings
      (files/LOC/coverage/seconds/incident counts), so readers can
      rebuild skeletal reports without the findings' memory footprint.

    Records are flushed per plugin: a streaming scan killed mid-corpus
    keeps every completed plugin's results.
    """

    def __init__(self, path: str, tool: str = "") -> None:
        self.path = path
        self.findings_written = 0
        self.plugins_written = 0
        self._handle: Optional[IO[str]] = open(path, "w", encoding="utf-8")
        self._write({"record": "header", "schema": FINDINGS_STREAM_SCHEMA,
                     "tool": tool})

    def _write(self, record: Dict[str, object]) -> None:
        assert self._handle is not None, "sink already closed"
        self._handle.write(json.dumps(record, sort_keys=True))
        self._handle.write("\n")

    def write_report(self, report: ToolReport) -> int:
        """Stream one plugin's results; returns findings written."""
        for finding in report.findings:
            record = finding_to_dict(finding)
            record["record"] = "finding"
            if not record["plugin"]:
                record["plugin"] = report.plugin
            self._write(record)
        self._write(
            {
                "record": "plugin",
                "plugin": report.plugin,
                "tool": report.tool,
                "findings": len(report.findings),
                "failures": len(report.failures),
                "incidents": len(report.incidents),
                "recovered": report.recovered_count,
                "files_analyzed": report.files_analyzed,
                "loc_analyzed": report.loc_analyzed,
                "files_skipped": report.files_skipped,
                "loc_skipped": report.loc_skipped,
                "seconds": round(report.seconds, 6),
            }
        )
        assert self._handle is not None
        self._handle.flush()
        self.findings_written += len(report.findings)
        self.plugins_written += 1
        return len(report.findings)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlFindingSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_finding_stream(path: str) -> Iterator[Dict[str, object]]:
    """Yield every record of a findings stream, in file order.

    Reading is itself streaming (one line at a time), so consumers can
    process million-LOC scan output without materializing it.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def stream_signatures(path: str) -> Set[FindingSignature]:
    """Canonical signature set of a findings stream — the value a
    streamed run is compared by, with accumulated runs and the golden
    files."""
    return {
        finding_from_dict(record).signature()
        for record in read_finding_stream(path)
        if record.get("record") == "finding"
    }
