"""The benchmark's four workloads, run in a fresh interpreter per run.

``run.py`` starts this file as a child process with one JSON config
argument and reads one JSON object back from the last stdout line.  A
fresh interpreter per measured run means no process-wide artifact cache
(the analyzer's L1) survives from one run into the next, so cold runs
are cold by construction.

Every workload follows the same shape: a run is ``sessions`` sessions,
and each session

- sets up (``setup``, timed): builds the inputs and, per workload, fills
  caches or boots a service node;
- measures (``measure``): runs ``passes`` whole passes over the
  workload's operations, checking every answer against its oracle.  An
  operation whose answer is wrong, or that breaks the workload's
  cold/warm guard, counts as failed;
- tears down what set-up started.

Set-ups and passes alternate, so both sample the machine over the whole
run rather than over one stretch of it.  Session and pass counts are
fixed per workload (:data:`SHAPE`), so every run of a workload measures
the same amount of work however fast the machine is.  Every timed
interval is reported in reference seconds (``hostclock.py``): probe
bursts between operations, and around every set-up and pass, give the
host's slowdown at that moment.

The seed orders plugins, picks edited files and resubmissions, and
perturbs stress-tier noise; the analyzer only sees the generated inputs.
Every session restarts the seeded generator, so sessions replay the same
operations in the same order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import http.client
import json
import os
import random
import resource
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import hostclock
import oracle
import spans

#: workload -> (sessions, passes per session, set-ups per session) of a
#: measured run.  Every run makes at least 100 operations, so a p90 has
#: ten samples beyond it.  serve-mixed makes one pass per session
#: because a node's store would answer a second pass from cache.  The
#: sub-second set-ups repeat within a session (the last one's state is
#: measured), so ``setup_s`` is a median over several.
SHAPE = {
    "cold-corpus": (2, 1, 4),
    "edit-rescan": (1, 1, 1),
    "serve-mixed": (2, 1, 1),
    "stress-stream": (3, 1, 2),
}
#: bursts taken right before the first set-up and after every set-up
#: and pass, so each interval has probes on both sides
BRACKET = 3
#: corpus and stress-tier inputs of the tiny self-test size
TINY_PLUGINS = 3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Samples and outcomes of one measured run."""

    def __init__(self, config: Dict[str, object]) -> None:
        self.config = config
        self.seed = int(config["seed"])  # type: ignore[arg-type]
        self.passes = int(config["passes"])  # type: ignore[arg-type]
        self.tiny = config.get("size") == "tiny"
        self.workdir = str(config["workdir"])
        self.rng = random.Random(self.seed)
        self.recorder: Optional[spans.SpanRecorder] = (
            spans.SpanRecorder() if config.get("trace") else None
        )
        #: probe bursts; ``run_workload`` enables it for untraced runs
        self.clock = hostclock.HostClock(enabled=False)
        #: (begin, end) of every operation
        self.intervals: List[Tuple[float, float]] = []
        #: per operation, the name of an operation that every session
        #: repeats (``None``: each sample counts on its own)
        self.keys: List[Optional[str]] = []
        #: LOC the operations analyzed
        self.loc = 0
        #: (begin, end) of each concurrent round (serve-mixed)
        self.rounds: List[Tuple[float, float]] = []
        self.failed = 0
        self.errors: List[str] = []
        self.counts: Dict[str, float] = {}
        #: per-operation values of service-side layers (serve-mixed)
        self.samples: Dict[str, List[float]] = {}
        self.peak_rss_mb = 0.0
        self.nodes_booted = 0

    def record(self, begin: float, end: float, loc: int, key: Optional[str] = None) -> None:
        self.intervals.append((begin, end))
        self.keys.append(key)
        self.loc += loc

    def reference_seconds(self, intervals: List[Tuple[float, float]]) -> List[float]:
        return [self.clock.correct(end - begin, begin, end) for begin, end in intervals]

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def op(self):
        """Span around one operation (a no-op context when untraced)."""
        if self.recorder is None:
            return contextlib.nullcontext()
        self.recorder.op += 1
        return self.recorder.span("op")

    def result(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "latencies": self.reference_seconds(self.intervals),
            "wall_latencies": [end - begin for begin, end in self.intervals],
            "keys": self.keys,
            "loc": self.loc,
            "round_walls": self.reference_seconds(self.rounds),
            "host_slowdown": list(self.clock.summary()),
            "attempted": len(self.intervals),
            "failed": self.failed,
            "errors": self.errors,
            "counts": self.counts,
            "samples": self.samples,
            "peak_rss_mb": self.peak_rss_mb or _peak_rss_mb(),
        }
        # serve-mixed analyzes inside the node: no in-process spans
        if self.recorder is not None and self.recorder.finished():
            finished = self.recorder.finished()
            out["layers"] = spans.layer_self_times(finished)
            span_counts: Dict[str, int] = {}
            for name, *_rest in finished:
                span_counts[name] = span_counts.get(name, 0) + 1
            out["span_counts"] = span_counts
            out["traced_wall"] = sum(
                end - start for name, start, end, _p, _o in finished if name == "op"
            )
            out["spans"] = len(finished)
            out["span_cost"] = spans.span_cost()
            for key, value in self.recorder.counts.items():
                self.counts[key] = value
            trace_dir = os.path.join(os.path.dirname(self.workdir), "traces")
            os.makedirs(trace_dir, exist_ok=True)
            self.recorder.write(
                os.path.join(
                    trace_dir, f"{self.config['workload']}-seed{self.seed}.spans.jsonl"
                )
            )
        return out


# ---------------------------------------------------------------------------
# tracing: which public entry points become spans
# ---------------------------------------------------------------------------


def _count_lookup(recorder: spans.SpanRecorder, result) -> None:
    recorder.count("cache.reads")
    if isinstance(result, tuple):
        hit = result[0] is not None or result[1] is not None
    else:
        hit = result is not None
    if hit:
        recorder.count("cache.read_hits")


def _count_write(recorder: spans.SpanRecorder, _result) -> None:
    recorder.count("cache.writes")


def _count_statements(recorder: spans.SpanRecorder, tree) -> None:
    recorder.count("parser.statements", len(getattr(tree, "statements", ())))


def _count_records(recorder: spans.SpanRecorder, result) -> None:
    if isinstance(result, int):  # JSONL: findings written + the plugin record
        recorder.count("output.records", result + 1)
    else:  # SARIF log
        recorder.count(
            "output.records", sum(len(run["results"]) for run in result["runs"])
        )


def install_tracing(recorder: spans.SpanRecorder) -> None:
    """Wrap every public entry point the layers are measured at."""
    from repro.batch import streaming
    from repro.core import incremental
    from repro.core.cache import ModelCache
    from repro.core.ir import IRTaintEngine
    from repro.core.model import PluginModel
    from repro.core.phpsafe import PhpSafe
    from repro.core.results import JsonlFindingSink
    from repro.php.lexer import Lexer
    from repro.php.parser import Parser
    from repro.service import sarif

    recorder.wrap(Lexer, "tokenize", "Lexer.tokenize")
    recorder.wrap(Parser, "parse_file", "Parser.parse_file", _count_statements)
    recorder.wrap(PluginModel, "build", "PluginModel.build")
    recorder.wrap(IRTaintEngine, "run", "IRTaintEngine.run")
    for method in ("lookup", "lookup_summary", "lookup_ir"):
        recorder.wrap(ModelCache, method, f"ModelCache.{method}", _count_lookup)
    for method in ("store", "store_failure", "store_summary", "store_ir"):
        recorder.wrap(ModelCache, method, f"ModelCache.{method}", _count_write)
    recorder.wrap(ModelCache, "spill", "ModelCache.spill")
    for function in ("plan_rescan", "validate_rescan", "build_manifest"):
        recorder.wrap(incremental, function, f"incremental.{function}")
    recorder.wrap(PhpSafe, "analyze", "PhpSafe.analyze")
    recorder.wrap(PhpSafe, "rescan", "PhpSafe.rescan")
    recorder.wrap(
        JsonlFindingSink, "write_report", "JsonlFindingSink.write_report", _count_records
    )
    recorder.wrap(sarif, "to_sarif", "sarif.to_sarif", _count_records)
    recorder.wrap(streaming, "stream_scan", "stream_scan")


# ---------------------------------------------------------------------------
# cold-corpus
# ---------------------------------------------------------------------------


def _paper_plugins(run: Run, versions=oracle.VERSIONS):
    from repro.corpus import build_corpus

    plugins = []
    for version in versions:
        corpus = build_corpus(version, scale=oracle.SCALE)
        chosen = corpus.plugins[:TINY_PLUGINS] if run.tiny else corpus.plugins
        plugins.extend(chosen)
    return plugins


def _expected(versions=oracle.VERSIONS):
    expected = {}
    for version in versions:
        expected.update(oracle.load_expected(version))
    return expected


def cold_setup(run: Run):
    return _paper_plugins(run), _expected()


def cold_measure(run: Run, state) -> None:
    from repro.core import phpsafe
    from repro.core.phpsafe import PhpSafe
    from repro.service import sarif

    plugins, expected = state
    cache_reads = ("summary_cache_hits", "summary_cache_misses",
                   "summary_cache_stale", "ir_cache_hits", "ir_cache_misses")
    for _pass in range(run.passes):
        order = list(plugins)
        run.rng.shuffle(order)
        for plugin in order:
            run.clock.maybe_sample()
            with run.op():
                begin = time.perf_counter()
                report = PhpSafe(use_process_cache=False).analyze(plugin)
                document = sarif.to_sarif(report)
                end = time.perf_counter()
            run.record(begin, end, report.loc_analyzed)
            _tally_report(run, report)
            problem = oracle.compare(
                sarif.result_signatures(document), expected[plugin.slug]
            )
            if problem is None and any(report.perf.get(key) for key in cache_reads):
                problem = "cold guard: the analysis read a cache"
            if problem:
                run.fail(f"{plugin.slug}: {problem}")
    if phpsafe._PROCESS_CACHE is not None:
        run.fail("cold guard: the process-wide artifact cache was created")


def _tally_report(run: Run, report) -> None:
    run.add("model.files_skipped", report.files_skipped)
    run.add("taint.findings", len(report.findings))


# ---------------------------------------------------------------------------
# edit-rescan
# ---------------------------------------------------------------------------


def rescan_setup(run: Run):
    from repro.core.phpsafe import PhpSafe
    from repro.core.results import finding_signatures

    plugins = _paper_plugins(run, versions=("2014",))
    expected = _expected(("2014",))
    cache_dir = os.path.join(run.workdir, "rescan-cache")
    shutil.rmtree(cache_dir, ignore_errors=True)
    tool = PhpSafe(cache_dir=cache_dir)
    edits_of = {}
    for plugin in plugins:
        run.clock.maybe_sample()
        report, manifest, _stats = tool.rescan(plugin)
        signatures = finding_signatures([report])
        problem = oracle.compare(signatures, expected[plugin.slug])
        if problem:
            raise RuntimeError(f"set-up scan of {plugin.slug}: {problem}")
        edits_of[plugin.name] = (plugin, manifest, signatures)
    return tool, edits_of, cache_dir


def rescan_teardown(state) -> None:
    shutil.rmtree(state[2], ignore_errors=True)


def _root_walk(run: Run, edits_of) -> Dict[str, List[str]]:
    """Every analysis root of every plugin, each plugin's in a seeded
    order, so every run edits the same roots and only their order moves."""
    walk = {}
    for name in sorted(edits_of):
        plugin, manifest, _signatures = edits_of[name]
        roots = sorted(root for root in manifest["roots"] if root in plugin.files)
        run.rng.shuffle(roots)
        walk[name] = roots
    return walk


def rescan_measure(run: Run, state) -> None:
    tool, edits_of, _cache_dir = state
    for _walk in range(run.passes):
        pending = _root_walk(run, edits_of)
        # a round edits the next root of each plugin that has roots left
        while pending:
            names = sorted(pending)
            run.rng.shuffle(names)
            for name in names:
                target = pending[name].pop()
                if not pending[name]:
                    del pending[name]
                _edit(run, tool, edits_of, name, target)


def _edit(run: Run, tool, edits_of, name: str, target: str) -> None:
    """One timed one-file edit of ``target`` and its oracle check."""
    from repro.core.results import finding_signatures

    plugin, manifest, signatures = edits_of[name]
    edits = len(run.intervals) + 1
    source = plugin.files[target]
    # closing then reopening PHP mode is valid whichever mode the
    # file ends in; the echo lands two lines below the old end
    line = source.count("\n") + 3
    files = dict(plugin.files)
    files[target] = source + f"\n?>\n<?php echo $_GET['perfbench_{edits}']; ?>\n"
    edited = dataclasses.replace(plugin, files=files)
    run.clock.maybe_sample()
    with run.op():
        begin = time.perf_counter()
        report, new_manifest, stats = tool.rescan(edited, manifest)
        end = time.perf_counter()
    run.record(begin, end, report.loc_analyzed)
    _tally_report(run, report)
    run.add("incremental.roots_total", stats.roots_total)
    run.add("incremental.roots_reused", stats.roots_reused)
    run.add("incremental.fallbacks", 0 if stats.incremental else 1)
    new_signatures = finding_signatures([report])
    added = (plugin.slug, "xss", target, line, "echo")
    problem = oracle.compare(new_signatures, signatures | {added})
    if problem is None and added in signatures:
        problem = "edited line already reported"
    if problem is None and not (stats.incremental and stats.roots_reused > 0):
        problem = f"warm guard: rescan not incremental ({stats.fallback_reason})"
    if problem:
        run.fail(f"{plugin.slug} edit {edits}: {problem}")
    edits_of[name] = (edited, new_manifest, new_signatures)


# ---------------------------------------------------------------------------
# stress-stream
# ---------------------------------------------------------------------------


def _stress_tier(run: Run):
    from repro.corpus.stress import StressTier, get_tier

    if run.tiny:
        return StressTier(
            name="perfbench-tiny", tiny_plugins=4, tiny_loc=60, chain_plugins=1,
            chain_depth=4, chain_loc=30, huge_plugins=1, huge_loc=600,
            streaming_rss_mb=256,
        )
    return get_tier("scale-smoke")


def _expected_stress_findings(plugin_name: str) -> int:
    """Seeded findings per stress shape (see ``StressTier.expected_findings``)."""
    if plugin_name.startswith("stress-chain-"):
        return 2
    if plugin_name.startswith("stress-huge-"):
        return 3
    return 1


def stress_setup(run: Run):
    from repro.corpus.stress import tier_summary

    tier = _stress_tier(run)
    # walking the lazy generator once validates the inputs and gives
    # the LOC denominators; the scan regenerates plugins on the fly
    summary = tier_summary(tier, run.seed)
    return tier, summary


def _spread_shapes(run: Run, tier):
    """The tier's plugins with the big shapes spaced evenly among the
    tiny ones, tiny ones in seeded order.

    The tier yields its tiny plugins first, in one burst of about a
    second, so their latencies would sample the machine during that
    second only.  Only the tiny sources are buffered (about a megabyte);
    chain and huge plugins are still generated one at a time."""
    from repro.corpus.stress import iter_stress_plugins

    plugins = iter_stress_plugins(tier, run.seed)
    tiny = [next(plugins) for _ in range(tier.tiny_plugins)]
    run.rng.shuffle(tiny)
    big = tier.chain_plugins + tier.huge_plugins
    total = len(tiny) + big
    slots = {int((index + 0.5) * total / big) for index in range(big)}
    for position in range(total):
        yield next(plugins) if position in slots else tiny.pop()


def _timed_plugins(run: Run, plugins):
    """Yield plugins to the streaming scanner, timing each one's turn:
    from handing it over to the scanner asking for the next."""
    iterator = iter(plugins)
    while True:
        if run.recorder is not None:
            with run.recorder.span("corpus"):
                plugin = next(iterator, None)
        else:
            plugin = next(iterator, None)
        if plugin is None:
            return
        run.clock.maybe_sample()
        handed = time.perf_counter()
        yield plugin
        run.record(handed, time.perf_counter(), plugin.loc, plugin.name)


def stress_measure(run: Run, state) -> None:
    from repro.batch import streaming
    from repro.corpus.stress import stress_options
    from repro.core.results import read_finding_stream, stream_signatures

    tier, summary = state
    sink_path = os.path.join(run.workdir, "stream.jsonl")
    for _pass in range(run.passes):
        with run.op():
            result = streaming.stream_scan(
                _timed_plugins(run, _spread_shapes(run, tier)),
                sink_path,
                options=streaming.streaming_options(stress_options()),
            )
        run.add("taint.findings", result.findings)
        run.add("model.files_skipped", result.files_skipped)
        for record in read_finding_stream(sink_path):
            if record.get("record") != "plugin":
                continue
            name = str(record["plugin"])
            want = _expected_stress_findings(name)
            if record["findings"] != want:
                run.fail(f"{name}: {record['findings']} findings, expected {want}")
        distinct = len(stream_signatures(sink_path))
        if result.loc != summary["loc"] or distinct != tier.expected_findings:
            run.fail(
                f"tier: {distinct} distinct findings over {result.loc} LOC, expected "
                f"{tier.expected_findings} over {summary['loc']}"
            )


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

SERVE_CLIENTS = 2
SERVE_POLL_S = 0.01
SERVE_JOB_TIMEOUT_S = 60.0


class Node:
    """One ``phpsafe serve --jobs 2`` subprocess with its own data dir."""

    def __init__(self, workdir: str, index: int) -> None:
        self.data_dir = os.path.join(workdir, f"node-{index}")
        shutil.rmtree(self.data_dir, ignore_errors=True)
        os.makedirs(self.data_dir)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        self.log = open(os.path.join(self.data_dir, "node.log"), "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(self.port),
             "--data-dir", os.path.join(self.data_dir, "svc"), "--jobs", "2"],
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"node exited with {self.process.returncode}")
            try:
                status, _body = request(self.port, "GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.02)
        raise RuntimeError("node did not become healthy")

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM over the node and its worker processes."""
        total = 0.0
        pending = [self.process.pid]
        while pending:
            pid = pending.pop()
            try:
                with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children", "r") as handle:
                        pending.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
        return total

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def request(port: int, method: str, path: str, body: Optional[dict] = None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        connection.close()


def serve_setup(run: Run):
    plugins = {version: _paper_plugins(run, (version,)) for version in oracle.VERSIONS}
    expected = _expected()
    # every session boots a fresh node: a used node's store would
    # answer the whole mix from cache
    run.nodes_booted += 1
    node = Node(run.workdir, run.nodes_booted)
    try:
        node.wait_ready()
    except BaseException:
        node.stop()
        raise
    loc = {plugin.slug: plugin.loc for group in plugins.values() for plugin in group}
    return plugins, expected, node, loc


def serve_teardown(state) -> None:
    state[2].stop()


def _serve_mix(run: Run, by_version) -> List[object]:
    """Every 2012 plugin, then every 2014 plugin (the same names, so
    lineage rescans), then a seeded third of the 2014 plugins again
    (answered from the store, or coalesced onto a job still running)."""
    first = list(by_version["2012"])
    second = list(by_version["2014"])
    run.rng.shuffle(first)
    run.rng.shuffle(second)
    again = run.rng.sample(second, max(1, len(second) // 3))
    return first + second + again


def _serve_round(run: Run, node: Node, mix, expected, loc) -> None:
    from repro.service.sarif import result_signatures

    lock = threading.Lock()
    cursor = [0]

    def client() -> None:
        while True:
            with lock:
                if cursor[0] >= len(mix):
                    return
                plugin = mix[cursor[0]]
                cursor[0] += 1
            begin = time.perf_counter()
            try:
                status, body = request(
                    node.port, "POST", "/v1/scans",
                    {"name": plugin.name, "version": plugin.version,
                     "files": dict(plugin.files)},
                )
                submitted = time.perf_counter()
                if status not in (200, 202):
                    raise RuntimeError(f"submit answered HTTP {status}: {body}")
                cached = bool(body.get("cached"))
                coalesced = bool(body.get("coalesced"))
                job_id = body["id"]
                while body.get("state") not in ("done", "failed"):
                    if time.perf_counter() - begin > SERVE_JOB_TIMEOUT_S:
                        raise RuntimeError("job timed out")
                    time.sleep(SERVE_POLL_S)
                    status, body = request(node.port, "GET", f"/v1/scans/{job_id}")
                    if status != 200:
                        raise RuntimeError(f"status answered HTTP {status}")
                done = time.perf_counter()
                if body["state"] != "done":
                    raise RuntimeError(f"job {body['state']}: {body.get('error')}")
                status, document = request(node.port, "GET", f"/v1/scans/{job_id}/sarif")
                if status != 200:
                    raise RuntimeError(f"sarif answered HTTP {status}")
                problem = oracle.compare(
                    result_signatures(document), expected[plugin.slug]
                )
            except (OSError, RuntimeError, KeyError, ValueError) as error:
                with lock:
                    run.record(begin, time.perf_counter(), 0)
                    run.fail(f"{plugin.slug}: {error}")
                continue
            latency = done - begin
            result = body.get("result") or {}
            scan_s = 0.0 if cached else float(result.get("seconds", 0.0))
            wait_s = float(body.get("queued_seconds") or 0.0)
            with lock:
                run.record(begin, done, loc[plugin.slug])
                for key, value in (
                    ("http.submit_ms", (submitted - begin) * 1000),
                    ("queue.wait_ms", wait_s * 1000),
                    ("worker.scan_ms", scan_s * 1000),
                    ("service.overhead_ms", (latency - wait_s - scan_s) * 1000),
                ):
                    run.samples.setdefault(key, []).append(value)
                run.add("store.dedup_hits", int(cached))
                run.add("queue.coalesced", int(coalesced))
                if problem:
                    run.fail(f"{plugin.slug}: {problem}")

    def probe() -> None:
        # the only probe bursts inside a round: they measure CPU time, so
        # the workers holding the CPUs do not read as a slow host
        while not finished.wait(0.05):
            run.clock.maybe_sample()

    finished = threading.Event()
    threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    prober = threading.Thread(target=probe)
    begin = time.perf_counter()
    prober.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    run.rounds.append((begin, time.perf_counter()))
    finished.set()
    prober.join()


def serve_measure(run: Run, state) -> None:
    plugins, expected, node, loc = state
    for _pass in range(run.passes):
        _serve_round(run, node, _serve_mix(run, plugins), expected, loc)
    status, metrics = request(node.port, "GET", "/metrics")
    if status == 200:
        for key, value in (metrics.get("perf") or {}).items():
            if isinstance(value, (int, float)):
                run.add(f"perf.{key}", value)
    run.peak_rss_mb = max(run.peak_rss_mb, node.peak_rss_mb())


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

WORKLOADS: Dict[str, tuple] = {
    "cold-corpus": (cold_setup, cold_measure, None),
    "edit-rescan": (rescan_setup, rescan_measure, rescan_teardown),
    "serve-mixed": (serve_setup, serve_measure, serve_teardown),
    "stress-stream": (stress_setup, stress_measure, None),
}


def run_workload(config: Dict[str, object]) -> Dict[str, object]:
    setup, measure, teardown = WORKLOADS[str(config["workload"])]
    run = Run(config)
    os.makedirs(run.workdir, exist_ok=True)
    # traced runs take no probe bursts: their spans must cover the wall
    run.clock = hostclock.HostClock(enabled=not config.get("trace"))
    try:
        return _sessions(run, setup, measure, teardown)
    finally:
        run.clock.close()


def _sessions(run: Run, setup, measure, teardown) -> Dict[str, object]:
    from repro.perf import counters

    config = run.config
    #: (begin, end, seconds) of each set-up; seconds leave out its bursts
    setups: List[Tuple[float, float, float]] = []
    run.clock.sample(BRACKET)
    for _session in range(int(config["sessions"])):  # type: ignore[arg-type]
        for _setup in range(int(config.get("setups", 1))):  # type: ignore[arg-type]
            run.rng.seed(run.seed)
            spent = run.clock.spent
            begin = time.perf_counter()
            state = setup(run)
            end = time.perf_counter()
            setups.append((begin, end, end - begin - (run.clock.spent - spent)))
            run.clock.sample(BRACKET)
        try:
            before = counters.snapshot()
            if run.recorder is not None:
                install_tracing(run.recorder)
            try:
                measure(run, state)
            finally:
                if run.recorder is not None:
                    run.recorder.uninstall()
            for key, value in counters.since(before).items():
                run.add(f"perf.{key}", value)
            run.clock.sample(BRACKET)
        finally:
            if teardown is not None:
                teardown(state)
            del state  # free this session's state before the next set-up
    out = run.result()
    out["setup_times"] = [
        run.clock.correct(seconds, begin, end) for begin, end, seconds in setups
    ]
    return out


def main(argv: List[str]) -> int:
    config = json.loads(argv[1])
    result = run_workload(config)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
