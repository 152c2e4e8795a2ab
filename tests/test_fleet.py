"""Fleet layer: hash ring, retry policy, leases, coordinator, chaos.

Everything here runs in-process (LocalNodeClient over real
AnalysisService instances with thread isolation) so the suite stays
fast and deterministic; the out-of-process path is covered by
``scripts/fleet_chaos.py`` / the ``fleet-chaos-smoke`` CI job.  The one
exception starts a real node to check that killing it leaves none of
its processes behind.
"""

import os
import random
import time
import urllib.error
import urllib.request

import pytest

from repro.plugin import Plugin
from repro.service import (
    AnalysisService,
    BackgroundServer,
    FleetCoordinator,
    HashRing,
    HttpNodeClient,
    JobQueue,
    LocalNodeClient,
    LocalNodeProcess,
    NodeError,
    NodeHandle,
    RetryPolicy,
)
from repro.service.fleet import DOWN, UP
from repro.service.server import spec_fingerprint
from repro.batch import ToolSpec
from repro.batch.telemetry import ServiceStats, aggregate_fleet

VULN = "<?php echo $_GET['q'];"


def vuln_plugin(name):
    return Plugin(name=name, files={"index.php": f"<?php echo $_GET['{name}'];"})


def wait_done(service, ids, timeout=30.0):
    deadline = time.time() + timeout
    states = []
    while time.time() < deadline:
        states = [service.job_status(i)[1]["state"] for i in ids]
        if all(state in ("done", "failed") for state in states):
            return states
        time.sleep(0.02)
    raise AssertionError(f"jobs did not finish: {states}")


# ---------------------------------------------------------------------------
# hash ring
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_owner_is_stable(self):
        ring = HashRing(("a", "b", "c"))
        owners = {f"key{i}": ring.owner(f"key{i}") for i in range(50)}
        again = HashRing(("c", "b", "a"))  # insertion order must not matter
        assert owners == {key: again.owner(key) for key in owners}

    def test_keys_spread_over_nodes(self):
        ring = HashRing(("a", "b", "c"), replicas=64)
        counts = {"a": 0, "b": 0, "c": 0}
        for i in range(300):
            counts[ring.owner(f"digest-{i}")] += 1
        # consistent hashing is not perfectly uniform, but no node may
        # be starved or own nearly everything
        assert all(count > 30 for count in counts.values()), counts

    def test_removal_moves_only_lost_arc(self):
        ring = HashRing(("a", "b", "c"))
        before = {f"key{i}": ring.owner(f"key{i}") for i in range(200)}
        ring.remove("b")
        for key, owner in before.items():
            new_owner = ring.owner(key)
            if owner == "b":
                assert new_owner in ("a", "c")
            else:
                # survivors keep every key they already owned
                assert new_owner == owner
        assert set(ring.nodes) == {"a", "c"}

    def test_preference_starts_with_owner_and_covers_all(self):
        ring = HashRing(("a", "b", "c"))
        for i in range(20):
            order = ring.preference(f"k{i}")
            assert order[0] == ring.owner(f"k{i}")
            assert sorted(order) == ["a", "b", "c"]

    def test_empty_ring(self):
        ring = HashRing()
        assert ring.owner("x") is None
        assert ring.preference("x") == []


class TestRetryPolicy:
    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.0)
        delays = [policy.delay(i) for i in range(6)]
        assert delays[0] == pytest.approx(0.1)
        assert delays == sorted(delays)
        assert delays[-1] == pytest.approx(1.0)

    def test_jitter_spreads_but_never_exceeds_raw(self):
        policy = RetryPolicy(base_delay=0.5, max_delay=5.0, jitter=0.5)
        rng = random.Random(11)
        samples = {policy.delay(2, rng) for _ in range(50)}
        raw = 0.5 * 2.0 ** 2
        assert all(raw * 0.5 <= s <= raw for s in samples)
        assert len(samples) > 10  # actually jittered


class TestNodeHandle:
    def test_down_after_threshold_and_recovery(self):
        handle = NodeHandle("n", client=None, fail_threshold=2)
        assert not handle.record_failure()
        assert handle.state != DOWN
        assert handle.record_failure()  # second consecutive miss: down
        assert handle.state == DOWN
        assert handle.record_success()  # one success flips back
        assert handle.state == UP


# ---------------------------------------------------------------------------
# queue leases (fleet dispatch ledger semantics)
# ---------------------------------------------------------------------------


class TestQueueLeases:
    def test_claim_attaches_lease(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        queue.submit("d1", "f1", "p1")
        job = queue.claim(owner="dispatch-0", lease_seconds=30)
        assert job.lease_owner == "dispatch-0"
        assert job.lease_expires > time.time()

    def test_expire_leases_steals_lapsed_rows_only(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        queue.submit("d1", "f1", "p1")
        queue.submit("d2", "f1", "p2")
        lapsed = queue.claim(owner="a", lease_seconds=0.01)
        healthy = queue.claim(owner="b", lease_seconds=60)
        time.sleep(0.02)
        expired = queue.expire_leases()
        assert [(job.id, outcome) for job, outcome in expired] == [
            (lapsed.id, "stolen")
        ]
        assert queue.get(lapsed.id).state == "queued"
        assert queue.get(healthy.id).state == "running"

    def test_extend_lease_keeps_job_unstealable(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        queue.submit("d1", "f1", "p1")
        job = queue.claim(owner="a", lease_seconds=0.05)
        queue.extend_lease(job.id, 60)
        time.sleep(0.06)
        assert queue.expire_leases() == []

    def test_steal_keeps_attempt_release_refunds(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.sqlite"), max_attempts=5)
        queue.submit("d1", "f1", "p1")
        job = queue.claim()
        assert job.attempts == 1
        assert queue.steal(job.id) == "stolen"
        assert queue.get(job.id).attempts == 1  # charged
        job = queue.claim()
        assert job.attempts == 2
        queue.release(job.id)
        assert queue.get(job.id).attempts == 1  # refunded

    def test_rebalance_exhaustion_quarantines_not_requeues_forever(
        self, tmp_path
    ):
        """Regression: a job stolen until ``max_attempts`` must land in
        quarantine (failed, incident in the error), never flip back to
        ``queued`` in an endless rebalance loop."""
        queue = JobQueue(str(tmp_path / "q.sqlite"), max_attempts=2)
        queue.submit("d1", "f1", "p1")
        job = queue.claim(owner="a", lease_seconds=0.01)
        time.sleep(0.02)
        assert queue.expire_leases()[0][1] == "stolen"
        job = queue.claim(owner="b", lease_seconds=0.01)
        assert job.attempts == 2
        time.sleep(0.02)
        expired = queue.expire_leases()
        assert expired[0][1] == "quarantined"
        final = queue.get(job.id)
        assert final.state == "failed"
        assert "quarantined after 2 attempt(s)" in final.error
        # and it must stay failed: nothing left to claim
        assert queue.claim() is None

    def test_steal_noop_on_finished_job(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        queue.submit("d1", "f1", "p1")
        job = queue.claim()
        queue.complete(job.id)
        assert queue.steal(job.id) == "noop"


# ---------------------------------------------------------------------------
# coordinator (in-process fleet)
# ---------------------------------------------------------------------------


class DeadAfterPersist:
    """Node client simulating kill-after-persist-before-ack.

    Submissions pass through to a real service (which runs the job and
    persists its result to the shared store), but every status poll —
    the ack path — raises :class:`NodeError`, as if the node died the
    instant after writing the result.
    """

    def __init__(self, service, settle=2.0):
        self.service = service
        self.settle = settle
        self.address = "local:dead-after-persist"
        self._submitted_at = None

    def submit(self, payload):
        self._submitted_at = time.time()
        return self.service.submit(payload)

    def status(self, job_id):
        if self._submitted_at is not None:
            # give the real worker time to persist before "dying"
            remaining = self._submitted_at + self.settle - time.time()
            if remaining > 0:
                time.sleep(remaining)
        raise NodeError("node died before acking")

    def health(self):
        status, body = self.service.health()
        if status != 200:
            raise NodeError("unhealthy")
        return body

    def metrics(self):
        status, body = self.service.metrics()
        if status != 200:
            raise NodeError("no metrics")
        return body


class AcceptThenDie:
    """A node that accepts every submission, then never acks.

    Models a node that takes the job and crashes before producing a
    result: the coordinator's steal path must charge each interrupted
    attempt and quarantine the job once attempts are exhausted."""

    address = "local:accept-then-die"

    def __init__(self):
        self.accepted = 0

    def submit(self, payload):
        self.accepted += 1
        return 202, {"id": f"remote-{self.accepted}", "state": "queued"}

    def status(self, job_id):
        raise NodeError("died mid-job, nothing persisted")

    def health(self):
        return {"status": "ok"}

    def metrics(self):
        raise NodeError("no metrics")


def make_fleet(tmp_path, node_count=2, **coordinator_kwargs):
    store_dir = str(tmp_path / "store")
    services, clients = [], {}
    for index in range(node_count):
        service = AnalysisService(
            str(tmp_path / f"node{index}"),
            jobs=1,
            isolation="thread",
            store_dir=store_dir,
            node_name=f"node{index}",
        )
        service.start()
        services.append(service)
        clients[f"node{index}"] = LocalNodeClient(service)
    defaults = dict(
        store_dir=store_dir,
        probe_interval=0.1,
        poll_interval=0.05,
        poll_fail_threshold=2,
        lease_seconds=5.0,
        retry_policy=RetryPolicy(base_delay=0.02, max_delay=0.2, max_attempts=3),
        seed=3,
    )
    defaults.update(coordinator_kwargs)
    coordinator = FleetCoordinator(
        str(tmp_path / "coordinator"), clients, **defaults
    )
    coordinator.start()
    return coordinator, services, clients


def stop_fleet(coordinator, services):
    coordinator.shutdown(timeout=5)
    coordinator.close()
    for service in services:
        service.shutdown(timeout=5)
        service.close()


class TestFleetCoordinator:
    def test_shards_jobs_and_matches_single_node_results(self, tmp_path):
        coordinator, services, _ = make_fleet(tmp_path, node_count=3)
        try:
            plugins = [vuln_plugin(f"plug{i}") for i in range(6)]
            ids = []
            for plugin in plugins:
                status, body = coordinator.submit(
                    {"name": plugin.name, "files": dict(plugin.files)}
                )
                assert status == 202, body
                ids.append(body["id"])
            states = wait_done(coordinator, ids)
            assert states == ["done"] * len(ids)
            used_nodes = {
                coordinator.job_status(job_id)[1]["node"] for job_id in ids
            }
            assert len(used_nodes) > 1  # actually sharded
            # every result is in the shared store under the fleet key
            for job_id in ids:
                _s, body = coordinator.job_status(job_id)
                assert (
                    coordinator.store.get_result(
                        body["digest"], coordinator.fingerprint
                    )
                    is not None
                )
        finally:
            stop_fleet(coordinator, services)

    def test_duplicate_submissions_coalesce_or_dedup(self, tmp_path):
        coordinator, services, _ = make_fleet(tmp_path, node_count=2)
        try:
            plugin = vuln_plugin("dupe")
            payload = {"name": plugin.name, "files": dict(plugin.files)}
            _s, first = coordinator.submit(payload)
            status2, second = coordinator.submit(payload)
            # same digest in flight: coalesced onto the same job
            assert status2 in (200, 202)
            wait_done(coordinator, [first["id"], second["id"]])
            status3, third = coordinator.submit(payload)
            assert status3 == 200 and third["cached"] is True
            assert coordinator.store.result_count() == 1
        finally:
            stop_fleet(coordinator, services)

    def test_exactly_once_when_node_dies_after_persist(self, tmp_path):
        """Satellite: kill a node after result-persist but before ack.
        The resteal must dedup on (digest, fingerprint): no re-run, one
        result, client sees ``done``."""
        store_dir = str(tmp_path / "store")
        backend = AnalysisService(
            str(tmp_path / "backend"),
            jobs=1,
            isolation="thread",
            store_dir=store_dir,
        )
        backend.start()
        dying = DeadAfterPersist(backend, settle=3.0)
        coordinator = FleetCoordinator(
            str(tmp_path / "coordinator"),
            {"dying": dying},
            store_dir=store_dir,
            probe_interval=0.1,
            poll_interval=0.05,
            poll_fail_threshold=2,
            lease_seconds=5.0,
            seed=3,
        )
        coordinator.start()
        try:
            plugin = vuln_plugin("persisted")
            status, body = coordinator.submit(
                {"name": plugin.name, "files": dict(plugin.files)}
            )
            assert status == 202
            states = wait_done(coordinator, [body["id"]], timeout=30)
            assert states == ["done"]
            assert coordinator.fleet.steal_dedups == 1
            assert coordinator.fleet.steals == 0  # deduped, not re-run
            assert coordinator.store.result_count() == 1
            _s, final = coordinator.job_status(body["id"])
            assert final["result"]["digest"] == final["digest"]
            assert final["result"]["outcome"] == "ok"
        finally:
            coordinator.shutdown(timeout=5)
            coordinator.close()
            backend.shutdown(timeout=5)
            backend.close()

    def test_dead_node_quarantines_job_with_incident(self, tmp_path):
        """A job whose every dispatch dies exhausts max_attempts and
        quarantines — counted in telemetry, incident recorded, and the
        row never flips back to queued."""
        coordinator = FleetCoordinator(
            str(tmp_path / "coordinator"),
            {"dead": AcceptThenDie()},
            store_dir=str(tmp_path / "store"),
            probe_interval=30.0,  # keep the prober from marking it down:
            poll_interval=0.05,   # exercise the dispatch-retry path itself
            poll_fail_threshold=2,
            max_attempts=2,
            lease_seconds=5.0,
            retry_policy=RetryPolicy(
                base_delay=0.01, max_delay=0.05, max_attempts=2
            ),
            fail_threshold=1000,
            seed=3,
        )
        coordinator.start()
        try:
            plugin = vuln_plugin("doomed")
            status, body = coordinator.submit(
                {"name": plugin.name, "files": dict(plugin.files)}
            )
            assert status == 202
            deadline = time.time() + 20
            while time.time() < deadline:
                _s, state = coordinator.job_status(body["id"])
                if state["state"] == "failed":
                    break
                time.sleep(0.05)
            assert state["state"] == "failed", state
            assert "quarantined" in state["error"]
            assert coordinator.stats.quarantined == 1
            assert coordinator.incidents, "incident must be recorded"
            assert coordinator.incidents[0]["digest"] == state["digest"]
            # quarantine is terminal: nothing left to claim
            assert coordinator.queue.claim() is None
        finally:
            coordinator.shutdown(timeout=5)
            coordinator.close()

    def test_degraded_mode_sheds_load_but_serves_cached(self, tmp_path):
        coordinator, services, clients = make_fleet(
            tmp_path, node_count=1, min_live=1, fail_threshold=1
        )
        try:
            plugin = vuln_plugin("cached-before-outage")
            payload = {"name": plugin.name, "files": dict(plugin.files)}
            _s, body = coordinator.submit(payload)
            wait_done(coordinator, [body["id"]])
            # node goes dark
            services[0].accepting = False
            clients["node0"].service = _Unreachable()
            deadline = time.time() + 10
            while time.time() < deadline and coordinator._live_count():
                time.sleep(0.05)
            assert coordinator._live_count() == 0
            status, shed = coordinator.submit(
                {"name": "fresh", "files": {"i.php": VULN}}
            )
            assert status == 503
            assert shed["retry_after"] == coordinator.retry_after
            assert shed["degraded"] is True
            assert coordinator.fleet.shed_503 == 1
            # the already-analyzed plugin still gets its cached answer
            status, cached = coordinator.submit(payload)
            assert status == 200 and cached["cached"] is True
            _s, health = coordinator.health()
            assert health["status"] == "degraded"
        finally:
            clients["node0"].service = services[0]
            stop_fleet(coordinator, services)

    def test_fleet_status_and_metrics_aggregate(self, tmp_path):
        coordinator, services, _ = make_fleet(tmp_path, node_count=2)
        try:
            plugin = vuln_plugin("metrics")
            _s, body = coordinator.submit(
                {"name": plugin.name, "files": dict(plugin.files)}
            )
            wait_done(coordinator, [body["id"]])
            status, fleet = coordinator.fleet_status()
            assert status == 200
            assert set(fleet["nodes"]) == {"node0", "node1"}
            assert fleet["degraded"] is False
            status, metrics = coordinator.metrics()
            assert status == 200
            assert metrics["schema"].endswith("/v8")
            assert metrics["nodes"] == {"total": 2, "up": 2, "down": 0}
            assert metrics["coordinator"]["completed"] == 1
            assert metrics["coordinator"]["queue_wait"]["p99"] >= 0
            assert metrics["fleet"]["dispatched"] >= 1
        finally:
            stop_fleet(coordinator, services)
        # the fleet's mean wait divides by the waits summed, which
        # cover failed jobs too, exactly as each node's own mean does
        node = ServiceStats(
            completed=1, failed=2, queue_wait_seconds=3.0, waits_recorded=3
        )
        document = {"service": node.to_dict()}
        fleet = aggregate_fleet({"node0": document, "node1": None})["service"]
        assert node.mean_queue_wait == fleet["mean_queue_wait"] == 1.0
        assert fleet["waits_recorded"] == 3


class _Unreachable:
    """Stand-in service whose every call raises (node unplugged)."""

    def __getattr__(self, name):
        def boom(*args, **kwargs):
            raise NodeError("unplugged")

        return boom


# ---------------------------------------------------------------------------
# Retry-After over HTTP + fingerprint determinism
# ---------------------------------------------------------------------------


class TestRetryAfterHeader:
    def test_429_carries_retry_after_header(self, tmp_path):
        service = AnalysisService(
            str(tmp_path / "svc"),
            jobs=1,
            isolation="thread",
            max_queue_depth=0,
            retry_after=2.5,
        )
        server = BackgroundServer(service)
        host, port = server.start()
        try:
            body = b'{"name": "x", "files": {"i.php": "<?php echo 1;"}}'
            request = urllib.request.Request(
                f"http://{host}:{port}/v1/scans",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=10)
            assert info.value.code == 429
            assert info.value.headers["Retry-After"] == "3"  # ceil(2.5)
        finally:
            server.stop(drain_timeout=5)
            service.close()


class TestSpecFingerprint:
    def test_fingerprint_is_deterministic_across_processes(self):
        """The fleet's exactly-once key must not depend on hash
        randomization (frozenset repr order varies per process)."""
        import subprocess
        import sys

        import os

        code = (
            "from repro.batch import ToolSpec\n"
            "from repro.core import PhpSafe\n"
            "from repro.service.server import spec_fingerprint\n"
            "print(spec_fingerprint(ToolSpec.from_tool(PhpSafe())))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        runs = set()
        for seed in ("0", "1", "random"):
            env = dict(os.environ)
            env["PYTHONPATH"] = src + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            env["PYTHONHASHSEED"] = seed
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            runs.add(out.stdout.strip())
        assert len(runs) == 1, runs
        from repro.core import PhpSafe

        assert runs == {spec_fingerprint(ToolSpec.from_tool(PhpSafe()))}


# ---------------------------------------------------------------------------
# out-of-process node
# ---------------------------------------------------------------------------


def live_group_members(pgid):
    """Pids of the non-zombie processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:  # the process exited meanwhile
            continue
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_killed_node_leaves_no_process_of_its_group(tmp_path):
    node = LocalNodeProcess(
        "node0", data_dir=str(tmp_path / "node0"), store_dir=str(tmp_path / "store")
    )
    try:
        node.wait_healthy()
        client = HttpNodeClient(node.address, timeout=10.0)
        plugin = vuln_plugin("orphan")
        _status, body = client.submit(
            {"name": plugin.name, "files": dict(plugin.files)}
        )
        deadline = time.time() + 60
        while client.status(body["id"])[1]["state"] not in ("done", "failed"):
            assert time.time() < deadline, "scan did not finish"
            time.sleep(0.1)
        # the node and the process-pool worker that ran the scan
        assert len(live_group_members(node.pid)) >= 2
    finally:
        node.kill()
        node.stop()  # closes the node's log
    deadline = time.time() + 10
    while live_group_members(node.pid):
        assert time.time() < deadline, live_group_members(node.pid)
        time.sleep(0.05)
