"""Command-line interface: ``phpsafe`` / ``python -m repro``.

Subcommands:

``scan PATH``
    Analyze a plugin directory (or single ``.php`` file) with phpSAFE
    and print the findings with their flow traces.  A directory of
    plugin directories (e.g. a generated corpus version) is scanned as
    a batch; ``--jobs N`` fans the batch out over worker processes,
    ``--cache-dir`` persists the parse cache across runs, ``--timeout``
    bounds each plugin, and ``--telemetry`` writes the JSON scan report.
``compare PATH``
    Run phpSAFE, RIPS-like and Pixy-like on the same target and print a
    side-by-side summary; ``--jobs``/``--cache-dir`` reuse the batch
    machinery and ``--json`` emits machine-readable per-tool results.
``serve``
    Run the analysis-as-a-service daemon: an HTTP front end over a
    durable job queue and worker pool, with SARIF export and live
    metrics (see :mod:`repro.service`).
``corpus OUTDIR``
    Generate the synthetic 2012/2014 plugin corpora to disk, with the
    ground-truth manifest as JSON.
``evaluate``
    Run the full paper evaluation (Tables I–III, Fig. 2, Sections
    V.B–V.E) and print every table, paper-vs-measured.
``report PATH``
    Analyze and export a review report (HTML, JSON, SARIF or text).
``confirm PATH``
    Analyze, then dynamically confirm each finding in the simulated
    attack runtime (the paper's manual exploitation, automated).
``fix PATH``
    Analyze and print auto-remediation proposals (patched source goes
    to ``--out`` when given).
``approve PATH``
    Gate a plugin against the integration policy (Section VI workflow).
``history ACTION``
    Maintain the historic scan archive (Section VI future work):
    ``record`` scans a plugin version into the archive, ``diff``
    classifies the change between the two most recent scans
    (new / fixed / persistent), ``evolution`` prints the per-version
    finding-count series.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .baselines import PixyLike, RipsLike
from .core import PhpSafe, PhpSafeOptions
from .corpus import build_corpus, save_corpus
from .evaluation import (
    analyze_inertia,
    both_versions_breakdown,
    compute_overlap,
    evaluate_both,
    render_fig2,
    render_inertia,
    render_robustness,
    render_table1,
    render_table2,
    render_table3,
    vector_breakdown,
)
from .plugin import Plugin

#: ``--profile`` values: the named profiles phpSAFE users select (the
#: baselines resolve their own, e.g. Pixy's ``pixy-2007``)
SCAN_PROFILES = ("wordpress", "drupal", "joomla", "generic")


def _load_target(path: str) -> Plugin:
    if os.path.isdir(path):
        return Plugin.load_from(path)
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        source = handle.read()
    return Plugin(name=os.path.basename(path), files={os.path.basename(path): source})


def _load_targets(path: str) -> list:
    """Expand ``path`` to the plugins it holds.

    A directory with no PHP files of its own whose subdirectories do
    contain PHP (a corpus checkout, e.g. ``out/2012/``) yields one
    plugin per subdirectory; anything else is a single plugin.
    """
    if not os.path.isdir(path):
        return [_load_target(path)]
    entries = sorted(os.listdir(path))
    if any(entry.endswith(".php") for entry in entries):
        return [Plugin.load_from(path)]
    plugins = []
    for entry in entries:
        subdir = os.path.join(path, entry)
        if os.path.isdir(subdir):
            plugin = Plugin.load_from(subdir)
            if plugin.files:
                plugins.append(plugin)
    return plugins or [Plugin.load_from(path)]


def _iter_targets(path: str):
    """Lazy variant of :func:`_load_targets` for streaming scans: a
    corpus checkout yields one plugin at a time, so the corpus never
    has to fit in memory alongside the scan."""
    if not os.path.isdir(path):
        yield _load_target(path)
        return
    entries = sorted(os.listdir(path))
    if any(entry.endswith(".php") for entry in entries):
        yield Plugin.load_from(path)
        return
    yielded = False
    for entry in entries:
        subdir = os.path.join(path, entry)
        if os.path.isdir(subdir):
            plugin = Plugin.load_from(subdir)
            if plugin.files:
                yielded = True
                yield plugin
    if not yielded:
        yield Plugin.load_from(path)


def _phpsafe_options(args: argparse.Namespace) -> PhpSafeOptions:
    profile = {"profile_name": args.profile} if args.profile else {}
    return PhpSafeOptions(
        oop=not args.no_oop,
        recover=not args.strict,
        rule_packs=tuple(args.rule_pack),
        **profile,
    )


def _make_tool(args: argparse.Namespace):
    if args.tool == "phpsafe":
        return PhpSafe(options=_phpsafe_options(args))
    if args.profile or args.rule_pack:
        raise SystemExit(
            f"--profile/--rule-pack require --tool phpsafe, not {args.tool}"
        )
    if args.tool == "rips":
        return RipsLike()
    if args.tool == "pixy":
        return PixyLike()
    raise SystemExit(f"unknown tool: {args.tool}")


def _print_incidents(report, indent: str = "  ") -> None:
    for incident in report.incidents:
        print(f"{indent}~ {incident.describe()}")


def _load_sarif(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"--baseline {path}: {exc}")


def _baseline_gate(reports, baseline_path: str):
    """Classify the reports' findings against a prior SARIF log.

    Returns ``(counts, new)``: the per-state tallies and the number of
    findings not present in the baseline — what a fail-only-on-new
    gate fails on.
    """
    from .service.sarif import apply_baseline, new_result_count, to_sarif

    document = to_sarif(list(reports))
    counts = apply_baseline(document, _load_sarif(baseline_path))
    return counts, new_result_count(document)


def cmd_scan(args: argparse.Namespace) -> int:
    if args.cprofile:
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            exit_code = _cmd_scan_impl(args)
        finally:
            profiler.disable()
            stream = io.StringIO()
            stats = pstats.Stats(profiler, stream=stream)
            stats.sort_stats("cumulative").print_stats(args.cprofile)
            print(stream.getvalue().rstrip())
        return exit_code
    return _cmd_scan_impl(args)


def _cmd_scan_impl(args: argparse.Namespace) -> int:
    if args.stream:
        return _scan_stream(args)
    tool = _make_tool(args)
    targets = _load_targets(args.path)
    batch_requested = (
        args.jobs != 1 or args.cache_dir or args.timeout or args.telemetry
    )
    if len(targets) > 1 or batch_requested:
        return _scan_batch(args, tool, targets)
    plugin = targets[0]
    report = tool.analyze_timed(plugin)
    print(
        f"{tool.name}: {plugin.slug} — {report.files_analyzed} files, "
        f"{report.loc_analyzed} LOC, {report.seconds:.2f}s"
    )
    for finding in report.findings:
        print(f"  {finding.describe()}")
        if args.trace:
            for step in finding.trace:
                print(f"      {step}")
    for failure in report.failures:
        print(f"  ! {failure.file}: {failure.reason}")
    if args.show_incidents:
        _print_incidents(report)
    summary = (
        f"{len(report.findings)} finding(s), {len(report.failed_files)} failed file(s)"
    )
    if report.incidents:
        summary += (
            f", {len(report.incidents)} incident(s)"
            f" ({report.recovered_count} recovered)"
        )
    if report.files_skipped:
        summary += f", {report.files_skipped} file(s) / {report.loc_skipped} LOC skipped"
    print(summary)
    perf = getattr(report, "perf", None)
    if perf and perf.get("tokens_per_second"):
        print(
            f"perf: {perf.get('tokens_per_second', 0):,.0f} tokens/s,"
            f" {perf.get('nodes_per_second', 0):,.0f} engine steps/s,"
            f" taint intern hit rate {perf.get('taint_intern_hit_rate', 0):.0%}"
        )
    return _scan_exit_code(args, [report])


def _scan_stream(args: argparse.Namespace) -> int:
    """``scan --stream SINK``: memory-bounded streaming evaluation.

    Plugins are loaded lazily, findings go to the JSONL sink instead of
    memory, and the artifact cache is byte-capped.  Only the phpSAFE
    tool streams (the baseline tools have no cache to bound).
    """
    from .batch.streaming import stream_scan

    if args.tool != "phpsafe":
        raise SystemExit("--stream supports only --tool phpsafe")
    for flag, given in (
        ("--jobs", args.jobs != 1),
        ("--cache-dir", args.cache_dir),
        ("--timeout", args.timeout),
        ("--baseline", args.baseline),
    ):
        if given:
            raise SystemExit(f"--stream does not support {flag}")
    summary = stream_scan(
        _iter_targets(args.path),
        args.stream,
        options=_phpsafe_options(args),
        max_cache_bytes=args.max_cache_bytes,
    )
    print(
        f"phpSAFE: streamed {summary.plugins} plugin(s) — "
        f"{summary.files} files, {summary.loc} LOC, "
        f"{summary.seconds:.2f}s ({summary.loc_per_second:,.0f} LOC/s)"
    )
    print(
        f"{summary.findings} finding(s) → {args.stream}, "
        f"{summary.failures} failure(s), {summary.incidents} incident(s), "
        f"peak cache {summary.peak_cache_bytes / 1e6:.1f} MB "
        f"(cap {args.max_cache_bytes / 1e6:.1f} MB), "
        f"spilled {summary.spilled_bytes / 1e6:.1f} MB"
    )
    if args.telemetry:
        with open(args.telemetry, "w", encoding="utf-8") as handle:
            json.dump(summary.to_dict(), handle, indent=1)
            handle.write("\n")
    return 0 if not summary.findings else 1


def _scan_exit_code(args: argparse.Namespace, reports) -> int:
    """Exit 1 on findings — all of them, or under ``--fail-on new``
    only those absent from the ``--baseline`` SARIF log."""
    if args.baseline:
        counts, new = _baseline_gate(reports, args.baseline)
        print(
            f"baseline: {counts['new']} new, {counts['unchanged']} unchanged,"
            f" {counts['absent']} absent"
        )
        if args.fail_on == "new":
            return 1 if new else 0
    # without a baseline every finding is new, so "--fail-on new"
    # degenerates to the default any-finding gate (fail safe)
    return 0 if not any(report.findings for report in reports) else 1


def _scan_batch(args: argparse.Namespace, tool, targets) -> int:
    from .batch import BatchOptions, BatchScanner, ToolSpec

    spec = ToolSpec.from_tool(tool)
    if spec is None:
        raise SystemExit(f"tool {tool.name} cannot run in batch mode")
    if args.cache_dir:
        try:
            os.makedirs(args.cache_dir, exist_ok=True)
        except OSError as exc:
            raise SystemExit(f"--cache-dir {args.cache_dir}: {exc}")
    scanner = BatchScanner(
        spec,
        BatchOptions(
            jobs=args.jobs, timeout=args.timeout, cache_dir=args.cache_dir
        ),
    )
    result = scanner.scan(targets)
    telemetry = result.telemetry
    totals = telemetry.totals
    print(
        f"{tool.name}: batch of {len(targets)} plugin(s), jobs={telemetry.jobs}"
        f" — {totals.files} files, {totals.loc} LOC,"
        f" {telemetry.wall_seconds:.2f}s wall"
    )
    total_failed = 0
    for report, stats in zip(result.reports, telemetry.plugins):
        marker = "" if stats.outcome == "ok" else f" [{stats.outcome}]"
        print(
            f"  {report.plugin}: {len(report.findings)} finding(s), "
            f"{stats.seconds:.2f}s{marker}"
        )
        for finding in report.findings:
            print(f"    {finding.describe()}")
            if args.trace:
                for step in finding.trace:
                    print(f"        {step}")
        for failure in report.failures:
            print(f"    ! {failure.file}: {failure.reason}")
        if args.show_incidents:
            _print_incidents(report, indent="    ")
        total_failed += len(report.failed_files)
    print(
        f"{totals.findings} finding(s), {total_failed} failed file(s), "
        f"cache hit rate {telemetry.cache_hit_rate:.0%}, "
        f"summary cache {totals.cache.summary_hits}/"
        f"{totals.cache.summary_hits + totals.cache.summary_misses} hit(s)"
        f" ({totals.cache.summary_stale} stale), "
        f"incidents: {totals.incidents} recorded"
        f" ({totals.recovered} recovered) / {telemetry.timeouts} timeout(s)"
        f" / {telemetry.crashes} crash(es)"
        f" / {telemetry.worker_restarts} restart(s)"
    )
    if args.telemetry:
        telemetry.write(args.telemetry)
        print(f"telemetry written to {args.telemetry}")
    return _scan_exit_code(args, result.reports)


def cmd_compare(args: argparse.Namespace) -> int:
    from .batch import BatchOptions, BatchScanner, ToolSpec

    targets = _load_targets(args.path)
    if args.cache_dir:
        try:
            os.makedirs(args.cache_dir, exist_ok=True)
        except OSError as exc:
            raise SystemExit(f"--cache-dir {args.cache_dir}: {exc}")
    documents = []
    for tool in (PhpSafe(), RipsLike(), PixyLike()):
        spec = ToolSpec.from_tool(tool)
        scanner = BatchScanner(
            spec,
            BatchOptions(jobs=args.jobs, cache_dir=args.cache_dir),
        )
        result = scanner.scan(targets)
        merged = result.merged_report()
        findings = merged.findings if merged else []
        failed = merged.failed_files if merged else []
        xss = len([f for f in findings if f.kind.value == "xss"])
        sqli = len(findings) - xss
        seconds = result.telemetry.wall_seconds
        if args.json:
            documents.append(
                {
                    "tool": tool.name,
                    "xss": xss,
                    "sqli": sqli,
                    "failed_files": len(failed),
                    "seconds": round(seconds, 4),
                    "findings": [
                        {
                            "kind": finding.kind.value,
                            "plugin": finding.plugin,
                            "file": finding.file,
                            "line": finding.line,
                            "sink": finding.sink,
                            "variable": finding.variable,
                        }
                        for finding in findings
                    ],
                }
            )
            continue
        print(
            f"{tool.name:8s} XSS={xss:4d} SQLi={sqli:3d} "
            f"failed_files={len(failed):3d} time={seconds:.2f}s"
        )
        if args.verbose:
            for finding in findings:
                print(f"    {finding.describe()}")
    if args.json:
        print(
            json.dumps(
                {
                    "target": args.path,
                    "plugins": len(targets),
                    "jobs": args.jobs,
                    "tools": documents,
                },
                indent=1,
            )
        )
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    for version in args.versions:
        corpus = build_corpus(version, scale=args.scale)
        version_dir = save_corpus(corpus, args.outdir)
        print(
            f"{version}: {corpus.total_files} files, {corpus.total_loc} LOC, "
            f"{corpus.truth.vulnerable_count()} vulnerabilities → {version_dir}"
        )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    corpora = [build_corpus(version, scale=args.scale) for version in ("2012", "2014")]
    evaluations = evaluate_both(
        corpora,
        lambda: [PhpSafe(), RipsLike(), PixyLike()],
        timing_repetitions=args.repetitions,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    older, newer = evaluations["2012"], evaluations["2014"]
    print(render_table1(evaluations, convention=args.convention))
    print()
    print(render_fig2(compute_overlap(older), compute_overlap(newer)))
    print()
    print(
        render_table2(
            vector_breakdown(older),
            vector_breakdown(newer),
            both_versions_breakdown(older, newer),
        )
    )
    print()
    print(render_inertia(analyze_inertia(older, newer)))
    print()
    print(render_table3(evaluations))
    print()
    print(render_robustness(evaluations))
    return 0


def cmd_difftest(args: argparse.Namespace) -> int:
    from .difftest import (
        ConfigMatrixOracle,
        OracleOptions,
        render_oracle_reports,
        render_slice_table,
        run_slices,
    )

    failed = False
    if not args.skip_slices:
        results = run_slices()
        print(render_slice_table(results))
        print()
        failed = any(not result.ok for result in results)
    oracle = ConfigMatrixOracle(
        OracleOptions(
            versions=tuple(args.versions), scale=args.scale, jobs=args.jobs
        )
    )
    reports = oracle.run()
    print(render_oracle_reports(reports, verbose=args.verbose))
    failed = failed or any(not report.ok for report in reports)
    return 1 if failed else 0


def cmd_report(args: argparse.Namespace) -> int:
    from .core.review import to_html, to_json, to_text

    if args.baseline and args.format != "sarif":
        raise SystemExit("--baseline requires --format sarif")
    plugin = _load_target(args.path)
    report = PhpSafe().analyze_timed(plugin)
    if args.format == "html":
        rendered = to_html(report, plugin)
    elif args.format == "json":
        rendered = to_json(report)
    elif args.format == "sarif":
        from .service.sarif import apply_baseline, to_sarif

        document = to_sarif(report)
        if args.baseline:
            counts = apply_baseline(document, _load_sarif(args.baseline))
            print(
                f"baseline: {counts['new']} new, {counts['unchanged']} unchanged,"
                f" {counts['absent']} absent",
                file=sys.stderr,
            )
        rendered = json.dumps(document, indent=1)
    else:
        rendered = to_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.format} report to {args.out}")
    else:
        print(rendered)
    return 0


def cmd_confirm(args: argparse.Namespace) -> int:
    from .dynamic import confirm_findings

    plugin = _load_target(args.path)
    report = PhpSafe().analyze(plugin)
    if not report.findings:
        print("no findings to confirm")
        return 0
    confirmed = 0
    for verdict in confirm_findings(plugin, report.findings):
        print(f"{verdict.status.value:12s} {verdict.finding.describe()}")
        if verdict.evidence:
            print(f"             {verdict.evidence}")
        confirmed += verdict.confirmed
    print(f"{confirmed} of {len(report.findings)} finding(s) dynamically confirmed")
    return 1 if confirmed else 0


def cmd_fix(args: argparse.Namespace) -> int:
    from .core.autofix import apply_fixes, verify_fix

    plugin = _load_target(args.path)
    report = PhpSafe().analyze(plugin)
    if not report.findings:
        print("nothing to fix")
        return 0
    patched, proposals = apply_fixes(plugin, report.findings)
    for proposal in proposals:
        verified = verify_fix(patched, proposal.finding)
        status = "verified" if verified else "UNVERIFIED"
        print(f"[{status}] {proposal.description}")
    if args.out:
        patched.write_to(args.out)
        print(f"patched plugin written under {args.out}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .batch import ToolSpec
    from .service import AnalysisService, run_service

    tool = _make_tool(args)
    spec = ToolSpec.from_tool(tool)
    if spec is None:
        raise SystemExit(f"tool {tool.name} cannot run as a service")
    if args.coordinator:
        return _serve_coordinator(args, spec, tool.name)
    service = AnalysisService(
        data_dir=args.data_dir,
        spec=spec,
        jobs=args.jobs,
        timeout=args.timeout,
        cache_dir=args.cache_dir,
        max_queue_depth=args.max_queue_depth,
        isolation=args.isolation,
        store_dir=args.store_dir,
        node_name=args.node,
        retry_after=args.retry_after,
    )
    if service.requeued:
        print(
            f"recovered {service.requeued} interrupted job(s) from the spool",
            flush=True,
        )

    def announce(host: str, port: int) -> None:
        identity = f" node {args.node}," if args.node else ""
        print(
            f"{tool.name} service listening on http://{host}:{port}"
            f" —{identity} workers={args.jobs}, queue depth"
            f" {args.max_queue_depth}, data dir {args.data_dir}",
            flush=True,
        )

    run_service(service, args.host, args.port, on_ready=announce)
    print("service stopped: queue drained and persisted", flush=True)
    return 0


def _serve_coordinator(args: argparse.Namespace, spec, tool_name: str) -> int:
    """``phpsafe serve --coordinator --nodes name=host:port …``"""
    from .service import FleetCoordinator, HttpNodeClient, run_service

    if not args.nodes:
        raise SystemExit("--coordinator needs at least one --nodes entry")
    if not args.store_dir:
        raise SystemExit(
            "--coordinator needs --store-dir (the result store every"
            " node shares)"
        )
    clients = {}
    for entry in args.nodes:
        name, _, address = entry.partition("=")
        if not address:
            name, address = f"node{len(clients)}", name
        clients[name] = HttpNodeClient(address, timeout=args.timeout or 10.0)
    coordinator = FleetCoordinator(
        data_dir=args.data_dir,
        nodes=clients,
        spec=spec,
        store_dir=args.store_dir,
        min_live=args.min_live,
        max_queue_depth=args.max_queue_depth,
        retry_after=args.retry_after,
    )
    if coordinator.requeued:
        print(
            f"recovered {coordinator.requeued} interrupted job(s) from the"
            " dispatch ledger",
            flush=True,
        )

    def announce(host: str, port: int) -> None:
        print(
            f"{tool_name} fleet coordinator on http://{host}:{port}"
            f" — {len(clients)} node(s): "
            + ", ".join(f"{n}={c.address}" for n, c in sorted(clients.items())),
            flush=True,
        )

    run_service(coordinator, args.host, args.port, on_ready=announce)
    print("coordinator stopped: dispatch ledger persisted", flush=True)
    return 0


def cmd_approve(args: argparse.Namespace) -> int:
    from .history import ApprovalPolicy, HistoryStore, ScanRecord

    plugin = _load_target(args.path)
    report = PhpSafe().analyze(plugin)
    record = ScanRecord.from_report(
        report, version=plugin.version or "unversioned", scanned_at=args.date
    )
    previous = None
    if args.history:
        previous = HistoryStore(args.history).latest(record.plugin)
    policy = ApprovalPolicy(max_xss=args.max_xss, max_sqli=args.max_sqli)
    decision = policy.evaluate(record, previous)
    print(decision)
    for reason in decision.reasons:
        print(f"  - {reason}")
    return 0 if decision.approved else 1


def cmd_history(args: argparse.Namespace) -> int:
    from .history import HistoryStore

    store = HistoryStore(args.store)
    if args.action == "record":
        plugin = _load_target(args.path)
        report = PhpSafe().analyze(plugin)
        version = args.version or plugin.version or "unversioned"
        scan = store.record(report, version=version, scanned_at=args.date)
        store.save()
        print(
            f"recorded {scan.plugin}@{scan.version} ({scan.scanned_at}):"
            f" {scan.count()} finding(s) → {args.store}"
        )
        diff = store.diff_latest(scan.plugin)
        if diff is not None:
            print(diff.summary())
        return 0
    if args.action == "diff":
        diff = store.diff_latest(args.plugin)
        if diff is None:
            print(f"{args.plugin}: fewer than two scans recorded")
            return 1
        print(diff.summary())
        for finding in diff.introduced:
            print(
                f"  + {finding['kind']} {finding['file']}:{finding['line']}"
                f" via {finding['sink']}"
            )
        for finding in diff.fixed:
            print(
                f"  - {finding['kind']} {finding['file']}:{finding['line']}"
                f" via {finding['sink']}"
            )
        if args.verbose:
            for finding in diff.persistent:
                print(
                    f"  = {finding['kind']} {finding['file']}:{finding['line']}"
                    f" via {finding['sink']}"
                )
        return 1 if diff.introduced else 0
    # evolution
    series = store.evolution(args.plugin)
    if not series:
        print(f"{args.plugin}: no scans recorded")
        return 1
    peak = max(count for _, count in series) or 1
    for version, count in series:
        bar = "#" * round(count / peak * 40)
        print(f"  {version:16s} {count:4d} {bar}")
    return 0


def _pack_entry_name(entry: dict) -> str:
    if entry["class"]:
        return f"{entry['class']}::{entry['name']}"
    return entry["name"]


def cmd_rules(args: argparse.Namespace) -> int:
    from .rules import PackError, builtin_pack_names, load_pack

    if args.action == "show":
        refs = [args.pack]
    else:
        refs = list(args.packs) or builtin_pack_names()
        if not refs:
            print("no rule packs found")
            return 1
    exit_code = 0
    for ref in refs:
        try:
            pack = load_pack(ref)
        except PackError as exc:
            exit_code = 1
            print(f"{ref}: INVALID — {len(exc.issues)} issue(s)")
            for incident in exc.to_incidents():
                print(f"  ~ {incident.describe()}")
            continue
        counts = pack.entry_counts()
        summary = ", ".join(
            f"{count} {section}" for section, count in counts.items() if count
        )
        if args.action == "validate":
            print(f"{pack.name}@{pack.version}: ok ({summary})")
        elif args.action == "list":
            print(
                f"{pack.name:16s} {pack.version:8s} {pack.content_hash}  "
                f"{pack.title or pack.description}"
            )
        else:  # show
            print(f"{pack.name}@{pack.version} ({pack.path})")
            print(f"  content hash: {pack.content_hash}")
            if pack.title:
                print(f"  title: {pack.title}")
            if pack.description:
                print(f"  {pack.description}")
            if pack.register_globals:
                print("  register_globals: uninitialized globals are sources")
            for decl in pack.kinds:
                print(f"  kind {decl['value']}: {decl['title'] or decl['description']}")
            for instance in pack.instances:
                print(f"  instance ${instance['name']}: {instance['class']}")
            for sink in pack.sinks:
                args_ = sink["args"]
                argspec = "*" if args_ is None else ",".join(str(i) for i in args_)
                note = f" — {sink['description']}" if sink["description"] else ""
                print(
                    f"  sink {_pack_entry_name(sink)}(args {argspec}) → "
                    f"{sink['kind']}{note}"
                )
            for source in pack.sources:
                label = "superglobal" if source["superglobal"] else source["vector"]
                print(
                    f"  source {_pack_entry_name(source)} [{label}] → "
                    f"{','.join(source['kinds'])}"
                )
            for section in ("filters", "reverts", "propagation"):
                for entry in getattr(pack, section):
                    print(
                        f"  {section.rstrip('s')} {_pack_entry_name(entry)} → "
                        f"{','.join(entry['kinds'])}"
                    )
            print(f"  totals: {summary}")
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phpsafe",
        description="phpSAFE reproduction: XSS/SQLi static analysis of PHP plugins",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="analyze a plugin directory or PHP file")
    scan.add_argument("path")
    scan.add_argument("--tool", choices=("phpsafe", "rips", "pixy"), default="phpsafe")
    scan.add_argument("--no-oop", action="store_true", help="disable OOP resolution")
    scan.add_argument("--trace", action="store_true", help="print flow traces")
    scan.add_argument(
        "--strict", action="store_true",
        help="disable error recovery (a parse error skips the whole file, "
        "a unit fault fails the scan)",
    )
    scan.add_argument(
        "--show-incidents", action="store_true",
        help="print the typed robustness incidents recorded per file",
    )
    scan.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for batch scans (default: 1, serial)",
    )
    scan.add_argument(
        "--cache-dir", help="persistent parse-cache directory (batch mode)"
    )
    scan.add_argument(
        "--timeout", type=float,
        help="per-plugin deadline in seconds (batch mode)",
    )
    scan.add_argument(
        "--telemetry", help="write the batch telemetry JSON report here"
    )
    scan.add_argument(
        "--stream", metavar="SINK",
        help="memory-bounded streaming scan: load plugins lazily, cap "
             "the artifact cache by bytes, and write findings to this "
             "JSONL sink instead of accumulating reports",
    )
    scan.add_argument(
        "--max-cache-bytes", type=int, default=64 * 1024 * 1024,
        help="streaming mode's in-memory artifact-cache byte cap "
             "(default: 64 MiB)",
    )
    scan.add_argument(
        "--profile", choices=SCAN_PROFILES,
        help="analyzer knowledge-base profile (default: wordpress; "
             "'generic' is plain PHP without WordPress)",
    )
    scan.add_argument(
        "--rule-pack", action="append", default=[], metavar="PACK",
        help="rule pack to load on top of the profile: a builtin pack "
             "name (see 'phpsafe rules list') or a path to a .json/.toml "
             "pack file (repeatable)",
    )
    scan.add_argument(
        "--cprofile", type=int, nargs="?", const=25, default=0, metavar="N",
        help="profile the scan with cProfile and print the top N entries "
             "by cumulative time (default N: 25)",
    )
    scan.add_argument(
        "--baseline", metavar="SARIF",
        help="prior SARIF log to classify findings against "
             "(new / unchanged / absent)",
    )
    scan.add_argument(
        "--fail-on", choices=("any", "new"), default="any",
        help="exit non-zero on any finding (default) or only on findings "
             "not in the --baseline log",
    )
    scan.set_defaults(func=cmd_scan)

    compare = sub.add_parser("compare", help="run all three tools on a target")
    compare.add_argument("path")
    compare.add_argument("-v", "--verbose", action="store_true")
    compare.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes per tool (default: 1, serial)",
    )
    compare.add_argument(
        "--cache-dir", help="persistent parse-cache directory shared by the runs"
    )
    compare.add_argument(
        "--json", action="store_true",
        help="emit machine-readable per-tool results instead of the table",
    )
    compare.set_defaults(func=cmd_compare)

    corpus = sub.add_parser("corpus", help="generate the synthetic corpora to disk")
    corpus.add_argument("outdir")
    corpus.add_argument(
        "--versions", nargs="+", choices=("2012", "2014"), default=["2012", "2014"]
    )
    corpus.add_argument("--scale", type=float, default=0.25)
    corpus.set_defaults(func=cmd_corpus)

    evaluate = sub.add_parser("evaluate", help="reproduce the paper's evaluation")
    evaluate.add_argument("--scale", type=float, default=0.1)
    evaluate.add_argument("--repetitions", type=int, default=1)
    evaluate.add_argument("--convention", choices=("paper", "exact"), default="paper")
    evaluate.add_argument(
        "--jobs", type=int, default=1,
        help="parallel batch analysis (1 = paper-faithful serial)",
    )
    evaluate.add_argument(
        "--cache-dir", help="persistent parse-cache directory"
    )
    evaluate.set_defaults(func=cmd_evaluate)

    difftest = sub.add_parser(
        "difftest",
        help="differential correctness harness: config-matrix oracle + slice catalog",
    )
    difftest.add_argument("--scale", type=float, default=0.1)
    difftest.add_argument(
        "--versions", nargs="+", choices=("2012", "2014"), default=["2012", "2014"]
    )
    difftest.add_argument(
        "--jobs", type=int, default=2,
        help="worker count of the parallel side of the jobs axis",
    )
    difftest.add_argument(
        "--skip-slices", action="store_true",
        help="run only the config-matrix oracle, not the slice catalog",
    )
    difftest.add_argument(
        "--verbose", action="store_true",
        help="list every divergence even when an axis summary suffices",
    )
    difftest.set_defaults(func=cmd_difftest)

    report = sub.add_parser("report", help="export a review report")
    report.add_argument("path")
    report.add_argument(
        "--format", choices=("html", "json", "text", "sarif"), default="text",
        help="output format; 'sarif' emits a SARIF 2.1.0 interchange document",
    )
    report.add_argument("--out", help="write to a file instead of stdout")
    report.add_argument(
        "--baseline", metavar="SARIF",
        help="prior SARIF log: mark each result's baselineState "
             "(new / unchanged / absent); requires --format sarif",
    )
    report.set_defaults(func=cmd_report)

    serve = sub.add_parser(
        "serve", help="run the analysis-as-a-service HTTP daemon"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787)
    serve.add_argument(
        "--data-dir", default="phpsafe-service",
        help="daemon state directory: job spool, result store, parse cache",
    )
    serve.add_argument(
        "--jobs", type=int, default=2, help="concurrent analysis workers"
    )
    serve.add_argument(
        "--timeout", type=float, help="per-job deadline in seconds"
    )
    serve.add_argument(
        "--cache-dir",
        help="parse/summary cache directory (default: DATA_DIR/cache)",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=64,
        help="queued-job bound; submissions beyond it get HTTP 429",
    )
    serve.add_argument(
        "--isolation", choices=("process", "thread"), default="process",
        help="worker isolation: 'process' survives crashing jobs (default)",
    )
    serve.add_argument("--tool", choices=("phpsafe", "rips", "pixy"),
                       default="phpsafe")
    serve.add_argument("--no-oop", action="store_true",
                       help="disable OOP resolution")
    serve.add_argument("--strict", action="store_true",
                       help="disable error recovery")
    serve.add_argument(
        "--profile", choices=SCAN_PROFILES,
        help="analyzer knowledge-base profile (default: wordpress; "
             "'generic' is plain PHP without WordPress)",
    )
    serve.add_argument(
        "--rule-pack", action="append", default=[], metavar="PACK",
        help="rule pack to load on top of the profile (builtin name or "
             "path, repeatable)",
    )
    serve.add_argument(
        "--store-dir",
        help="result store directory (default DATA_DIR/store); point every"
             " fleet node and the coordinator at the same one",
    )
    serve.add_argument(
        "--node", help="fleet identity of this node (shown in /healthz)"
    )
    serve.add_argument(
        "--retry-after", type=float, default=1.0,
        help="Retry-After hint (seconds) on 429/503 answers",
    )
    serve.add_argument(
        "--coordinator", action="store_true",
        help="run as a fleet coordinator instead of an analysis node",
    )
    serve.add_argument(
        "--nodes", action="append", default=[], metavar="NAME=HOST:PORT",
        help="coordinator only: one fleet node (repeatable)",
    )
    serve.add_argument(
        "--min-live", type=int, default=1,
        help="coordinator only: below this many live nodes, shed new load"
             " with 503 (cached results still served)",
    )
    serve.set_defaults(func=cmd_serve)

    confirm = sub.add_parser("confirm", help="dynamically confirm findings")
    confirm.add_argument("path")
    confirm.set_defaults(func=cmd_confirm)

    fix = sub.add_parser("fix", help="propose and verify auto-remediations")
    fix.add_argument("path")
    fix.add_argument("--out", help="directory to write the patched plugin to")
    fix.set_defaults(func=cmd_fix)

    approve = sub.add_parser("approve", help="gate a plugin for integration")
    approve.add_argument("path")
    approve.add_argument("--max-xss", type=int, default=0)
    approve.add_argument("--max-sqli", type=int, default=0)
    approve.add_argument("--date", default="1970-01-01",
                         help="scan date recorded in the decision")
    approve.add_argument(
        "--history",
        help="scan archive (phpsafe history) supplying the previous scan "
             "for the regression check",
    )
    approve.set_defaults(func=cmd_approve)

    history = sub.add_parser(
        "history", help="maintain the historic scan archive"
    )
    history_sub = history.add_subparsers(dest="action", required=True)
    record = history_sub.add_parser(
        "record", help="scan a plugin version into the archive"
    )
    record.add_argument("path")
    record.add_argument("--store", required=True, help="archive JSON file")
    record.add_argument(
        "--version", help="version label (default: the plugin's own)"
    )
    record.add_argument("--date", default="1970-01-01",
                        help="ISO scan date used for chronological ordering")
    record.set_defaults(func=cmd_history)
    hdiff = history_sub.add_parser(
        "diff", help="classify the change between the two most recent scans"
    )
    hdiff.add_argument("plugin")
    hdiff.add_argument("--store", required=True, help="archive JSON file")
    hdiff.add_argument("-v", "--verbose", action="store_true",
                       help="also list persistent findings")
    hdiff.set_defaults(func=cmd_history)
    evolution = history_sub.add_parser(
        "evolution", help="per-version finding-count series"
    )
    evolution.add_argument("plugin")
    evolution.add_argument("--store", required=True, help="archive JSON file")
    evolution.set_defaults(func=cmd_history)

    rules = sub.add_parser(
        "rules", help="inspect and validate declarative rule packs"
    )
    rules_sub = rules.add_subparsers(dest="action", required=True)
    rules_list = rules_sub.add_parser(
        "list", help="one line per pack: name, version, content hash"
    )
    rules_list.add_argument(
        "packs", nargs="*", metavar="PACK",
        help="builtin pack names or pack file paths (default: all builtin)",
    )
    rules_list.set_defaults(func=cmd_rules)
    rules_validate = rules_sub.add_parser(
        "validate",
        help="validate packs; exit non-zero when any pack is invalid",
    )
    rules_validate.add_argument(
        "packs", nargs="*", metavar="PACK",
        help="builtin pack names or pack file paths (default: all builtin)",
    )
    rules_validate.set_defaults(func=cmd_rules)
    rules_show = rules_sub.add_parser(
        "show", help="print one pack's full rule inventory"
    )
    rules_show.add_argument("pack", metavar="PACK")
    rules_show.set_defaults(func=cmd_rules)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
