"""Fault-injection load harness for the fleet (``scripts/fleet_chaos.py``).

The acceptance bar of the multi-node service (ROADMAP item 1): a real
fleet — N ``phpsafe serve`` subprocesses behind an in-process
:class:`~repro.service.coordinator.FleetCoordinator` — must survive
mixed chaos traffic with **zero lost and zero duplicated results**:

- burst submissions of a synthetic plugin corpus (one oversized
  straggler-bait plugin included),
- duplicate submissions of the same plugins mid-flight,
- SIGKILL of a node that has work in flight (abrupt loss),
- SIGSTOP/SIGCONT of another node (a straggler that is alive but
  makes no progress).

Correctness is judged against a serial oracle: the same corpus scanned
by one in-process analyzer.  Every plugin's canonical finding
signatures (``repro.core.results.finding_signatures``) must match the
signatures decoded from the fleet's stored SARIF
(``repro.service.sarif.result_signatures``) exactly — the same parity
check the single-node service tests use.  Duplication is checked both
structurally (one result per distinct digest in the content-addressed
store) and from the client's view (duplicate submissions coalesce or
dedup onto the same result).

Throughput (sustained jobs/min) and queue-wait latency (p50/p99) are
written to ``BENCH_service.json`` as one plain JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..batch.scheduler import ToolSpec
from ..benchscale import write_bench
from ..core import PhpSafe
from ..core.results import finding_signatures
from ..plugin import Plugin
from .coordinator import FleetCoordinator
from .fleet import HttpNodeClient, LocalNodeProcess, RetryPolicy
from .queue import DONE, FAILED, RUNNING
from .sarif import result_signatures


@dataclass
class ChaosConfig:
    """One chaos run's knobs (CLI flags map 1:1)."""

    nodes: int = 3
    kills: int = 1
    stalls: int = 1
    stall_seconds: float = 4.0
    plugins: int = 18
    duplicates: int = 6
    jobs_per_node: int = 1
    seed: int = 7
    deadline_seconds: float = 300.0
    out: Optional[str] = "BENCH_service.json"
    keep: bool = False
    verbose: bool = False
    workdir: Optional[str] = None


@dataclass
class ChaosReport:
    """What happened, for the caller and the bench file."""

    section: Dict[str, object] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def synth_corpus(count: int, seed: int) -> List[Plugin]:
    """``count`` distinct vulnerable plugins plus one oversized one.

    Each plugin has a unique digest (index-salted sources) and a known
    mix of tainted/escaped sinks so the serial oracle has real findings
    to compare.  The last plugin is deliberately large — tens of
    analysis units — to act as straggler bait for SIGSTOP chaos.
    """
    rng = random.Random(seed)
    plugins: List[Plugin] = []
    for index in range(count):
        salt = rng.randrange(10**9)
        files = {
            "admin.php": (
                "<?php\n"
                f"// chaos plugin {index} salt {salt}\n"
                f"$name_{index} = $_GET['name'];\n"
                f"echo $name_{index};\n"
                f"echo esc_html($_GET['safe_{index}']);\n"
            ),
            "db.php": (
                "<?php\n"
                "function lookup_%d($wpdb) {\n"
                "    $id = $_REQUEST['id'];\n"
                "    return $wpdb->query(\"SELECT * FROM t WHERE id = $id\");\n"
                "}\n" % index
            ),
        }
        plugins.append(
            Plugin(name=f"chaos-{index:03d}", version="1.0", files=files)
        )
    big_units = []
    for unit in range(40):
        big_units.append(
            "function big_%d($x) {\n"
            "    $v = $_POST['field_%d'];\n"
            "    for ($i = 0; $i < 3; $i++) { $v = $v . $x; }\n"
            "    echo $v;\n"
            "}\n" % (unit, unit)
        )
    plugins.append(
        Plugin(
            name="chaos-oversized",
            version="1.0",
            files={"big.php": "<?php\n" + "".join(big_units)},
        )
    )
    return plugins


def serial_oracle(
    plugins: Sequence[Plugin], spec: ToolSpec
) -> Dict[str, Set[Tuple]]:
    """Single-process ground truth: plugin slug → finding signatures."""
    tool = spec.build()
    return {
        plugin.slug: finding_signatures([tool.analyze(plugin)])
        for plugin in plugins
    }


def _submit_with_retry(
    coordinator: FleetCoordinator,
    payload: Dict[str, object],
    policy: RetryPolicy,
    rng: random.Random,
    log,
) -> Tuple[Dict[str, object], int]:
    """The load generator's client loop: honor Retry-After on 429/503.

    Returns ``(job body, retries used)``; raises RuntimeError when the
    fleet never accepted the submission.
    """
    retries = 0
    for attempt in range(policy.max_attempts + 4):
        status, body = coordinator.submit(payload)
        if status in (200, 202):
            return body, retries
        if status in (429, 503):
            retries += 1
            hint = body.get("retry_after")
            delay = float(hint) if hint else policy.delay(attempt, rng)
            log(f"backpressure {status}; retrying in {delay:.2f}s")
            time.sleep(delay)
            continue
        raise RuntimeError(f"submission rejected ({status}): {body.get('error')}")
    raise RuntimeError("fleet never accepted the submission")


def run_chaos(config: ChaosConfig) -> ChaosReport:
    """Run one fleet chaos scenario; see the module docstring."""
    report = ChaosReport()
    rng = random.Random(config.seed)

    def log(message: str) -> None:
        if config.verbose:
            print(f"[chaos] {message}", flush=True)

    spec = ToolSpec.from_tool(PhpSafe())
    assert spec is not None
    plugins = synth_corpus(config.plugins, config.seed)
    log(f"serial oracle over {len(plugins)} plugins…")
    oracle = serial_oracle(plugins, spec)

    workdir = config.workdir or tempfile.mkdtemp(prefix="fleet-chaos-")
    store_dir = os.path.join(workdir, "store")
    nodes: List[LocalNodeProcess] = []
    coordinator: Optional[FleetCoordinator] = None
    try:
        log(f"starting {config.nodes} nodes (workdir {workdir})…")
        for index in range(config.nodes):
            nodes.append(
                LocalNodeProcess(
                    f"node{index}",
                    data_dir=os.path.join(workdir, f"node{index}"),
                    store_dir=store_dir,
                    jobs=config.jobs_per_node,
                )
            )
        for node in nodes:
            node.wait_healthy()
        clients = {
            node.name: HttpNodeClient(node.address, timeout=2.0)
            for node in nodes
        }
        coordinator = FleetCoordinator(
            data_dir=os.path.join(workdir, "coordinator"),
            nodes=clients,
            spec=spec,
            store_dir=store_dir,
            min_live=1,
            lease_seconds=15.0,
            probe_interval=0.25,
            poll_interval=0.1,
            poll_fail_threshold=3,
            verbose=config.verbose,
            seed=config.seed,
        )
        coordinator.start()

        # -- burst traffic -------------------------------------------------
        policy = RetryPolicy(base_delay=0.2, max_attempts=6)
        submissions: List[Tuple[str, str]] = []  # (plugin slug, job id)
        client_retries = 0
        started = time.perf_counter()
        order = list(plugins)
        rng.shuffle(order)
        for plugin in order:
            payload = {
                "name": plugin.name,
                "version": plugin.version,
                "files": dict(plugin.files),
            }
            body, retries = _submit_with_retry(
                coordinator, payload, policy, rng, log
            )
            client_retries += retries
            submissions.append((plugin.slug, str(body["id"])))
        log(f"burst of {len(submissions)} submissions in")

        # -- chaos: SIGKILL nodes that have work in flight -----------------
        killed: List[LocalNodeProcess] = []
        stalled: List[LocalNodeProcess] = []
        kill_budget = min(config.kills, max(0, config.nodes - 1))
        deadline = time.monotonic() + 30
        while kill_budget and time.monotonic() < deadline:
            busy = {
                job.node
                for job in coordinator.queue.jobs_in(RUNNING)
                if job.node
            }
            victims = [
                node
                for node in nodes
                if node.name in busy
                and node not in killed
                and len(killed) < config.nodes - 1
            ]
            if victims:
                victim = victims[0]
                log(f"SIGKILL {victim.name} (pid {victim.pid}) mid-job")
                victim.kill()
                killed.append(victim)
                kill_budget -= 1
            else:
                time.sleep(0.1)

        # -- chaos: SIGSTOP a straggler ------------------------------------
        stall_budget = config.stalls
        candidates = [node for node in nodes if node not in killed]
        for node in candidates:
            if not stall_budget or len(candidates) - len(stalled) <= 1:
                break
            log(f"SIGSTOP {node.name} for {config.stall_seconds}s (straggler)")
            node.pause()
            stalled.append(node)
            stall_budget -= 1
        # duplicate submissions land while the straggler is stopped
        duplicate_slugs = [
            plugin.slug
            for plugin in rng.sample(plugins, min(config.duplicates, len(plugins)))
        ]
        duplicate_ids: List[Tuple[str, str]] = []
        by_slug = {plugin.slug: plugin for plugin in plugins}
        for slug in duplicate_slugs:
            plugin = by_slug[slug]
            payload = {
                "name": plugin.name,
                "version": plugin.version,
                "files": dict(plugin.files),
            }
            body, retries = _submit_with_retry(
                coordinator, payload, policy, rng, log
            )
            client_retries += retries
            duplicate_ids.append((slug, str(body["id"])))
        if stalled:
            time.sleep(config.stall_seconds)
            for node in stalled:
                log(f"SIGCONT {node.name}")
                node.resume()

        # -- drain ---------------------------------------------------------
        all_ids = submissions + duplicate_ids
        deadline = time.monotonic() + config.deadline_seconds
        pending = {job_id: slug for slug, job_id in all_ids}
        while pending and time.monotonic() < deadline:
            for job_id in list(pending):
                _status, body = coordinator.job_status(job_id)
                if body.get("state") in (DONE, FAILED):
                    del pending[job_id]
            if pending:
                time.sleep(0.2)
        elapsed = time.perf_counter() - started
        if pending:
            report.failures.append(
                f"{len(pending)} job(s) never resolved within"
                f" {config.deadline_seconds}s: {sorted(pending.values())}"
            )

        # -- verify: zero lost ---------------------------------------------
        lost: List[str] = []
        mismatched: List[str] = []
        failed_jobs: List[str] = []
        digests: Dict[str, str] = {}
        for slug, job_id in all_ids:
            _status, body = coordinator.job_status(job_id)
            if body.get("state") != DONE:
                failed_jobs.append(
                    f"{slug} ({body.get('state')}: {body.get('error')})"
                )
                continue
            digest = str(body["digest"])
            digests[slug] = digest
            document = coordinator.store.get_result(
                digest, coordinator.fingerprint
            )
            if document is None or "sarif" not in document:
                lost.append(slug)
                continue
            fleet_signatures = result_signatures(document["sarif"])
            if fleet_signatures != oracle[slug]:
                mismatched.append(
                    f"{slug}: fleet {len(fleet_signatures)} vs serial"
                    f" {len(oracle[slug])} signatures"
                )
        if failed_jobs:
            report.failures.append(f"jobs failed: {failed_jobs}")
        if lost:
            report.failures.append(f"results lost (no stored SARIF): {lost}")
        if mismatched:
            report.failures.append(
                f"finding-signature mismatches vs serial scan: {mismatched}"
            )

        # -- verify: zero duplicated ---------------------------------------
        distinct = len(set(digests.values()))
        stored = coordinator.store.result_count()
        if stored != distinct:
            report.failures.append(
                f"duplicate results: store holds {stored} result(s) for"
                f" {distinct} distinct digest(s)"
            )
        for slug, job_id in duplicate_ids:
            if digests.get(slug) is None:
                continue
            original = next(
                (jid for s, jid in submissions if s == slug), None
            )
            if original is None:
                continue
            _status, body = coordinator.job_status(original)
            if str(body.get("digest")) != digests[slug]:
                report.failures.append(
                    f"duplicate submission of {slug} diverged from original"
                )

        # -- metrics → BENCH_service.json ----------------------------------
        _status, metrics = coordinator.metrics()
        fleet = metrics["fleet"]
        coord = metrics["coordinator"]
        completed = coord["completed"]
        section: Dict[str, object] = {
            "nodes": config.nodes,
            "kills": len(killed),
            "stalls": len(stalled),
            "plugins": len(plugins),
            "duplicates": len(duplicate_ids),
            "jobs_submitted": len(all_ids),
            "jobs_completed": completed,
            "elapsed_seconds": round(elapsed, 3),
            "jobs_per_minute": (
                round(completed / elapsed * 60.0, 2) if elapsed else 0.0
            ),
            "queue_wait_mean_seconds": coord["queue_wait"]["mean"],
            "queue_wait_p50_seconds": coord["queue_wait"]["p50"],
            "queue_wait_p99_seconds": coord["queue_wait"]["p99"],
            "client_retries": client_retries,
            "dispatch_retries": fleet["retries"],
            "failovers": fleet["failovers"],
            "steals": fleet["steals"],
            "steal_dedups": fleet["steal_dedups"],
            "shed_503": fleet["shed_503"],
            "nodes_lost": fleet["nodes_lost"],
            "nodes_recovered": fleet["nodes_recovered"],
            "quarantined": coord["quarantined"],
            "lost_results": len(lost),
            "duplicated_results": max(0, stored - distinct),
            "signature_parity": not mismatched,
        }
        if killed and not (fleet["steals"] or fleet["steal_dedups"]):
            # a kill with nothing stolen means the chaos missed its
            # target — the run proves less than it claims
            report.failures.append(
                "SIGKILL chaos produced no steal and no steal-dedup"
            )
        report.section = section
        return report
    finally:
        if coordinator is not None:
            coordinator.shutdown(timeout=5)
            coordinator.close()
        for node in nodes:
            node.stop()
        if not config.keep:
            shutil.rmtree(workdir, ignore_errors=True)
        elif config.verbose:
            print(f"[chaos] kept workdir {workdir}", flush=True)


def run_and_gate(config: ChaosConfig) -> int:
    """Run the scenario, write the bench file, print the verdict."""
    report = run_chaos(config)
    if report.section:
        if config.out:
            write_bench(config.out, report.section)
            print(f"fleet bench → {config.out}")
        print(json.dumps(report.section, indent=1))
    if not report.ok:
        for failure in report.failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "chaos run clean: zero lost, zero duplicated,"
        " finding signatures identical to the serial scan"
    )
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="fault-injection load harness for the phpsafe fleet"
    )
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--kill", dest="kills", type=int, default=1,
                        help="nodes to SIGKILL mid-job")
    parser.add_argument("--stall", dest="stalls", type=int, default=1,
                        help="nodes to SIGSTOP as stragglers")
    parser.add_argument("--stall-seconds", type=float, default=4.0)
    parser.add_argument("--plugins", type=int, default=18,
                        help="distinct synthetic plugins in the burst")
    parser.add_argument("--duplicates", type=int, default=6,
                        help="duplicate submissions injected mid-flight")
    parser.add_argument("--jobs-per-node", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--deadline", type=float, default=300.0,
                        help="seconds to wait for the fleet to drain")
    parser.add_argument("--out", default="BENCH_service.json",
                        help="bench file to write ('' disables)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller corpus for CI smoke")
    parser.add_argument("--keep", action="store_true",
                        help="keep the scratch workdir for debugging")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def config_from_args(args: argparse.Namespace) -> ChaosConfig:
    plugins = args.plugins
    duplicates = args.duplicates
    if args.quick:
        plugins = min(plugins, 8)
        duplicates = min(duplicates, 3)
    return ChaosConfig(
        nodes=args.nodes,
        kills=args.kills,
        stalls=args.stalls,
        stall_seconds=args.stall_seconds,
        plugins=plugins,
        duplicates=duplicates,
        jobs_per_node=args.jobs_per_node,
        seed=args.seed,
        deadline_seconds=args.deadline,
        out=args.out or None,
        keep=args.keep,
        verbose=args.verbose,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(
        list(argv) if argv is not None else None
    )
    return run_and_gate(config_from_args(args))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
