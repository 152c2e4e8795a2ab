"""Fleet coordinator: shard scans across N ``phpsafe serve`` nodes.

The paper's "analysis as a service" at marketplace scale (ROADMAP
item 1): one coordinator fronts N independent nodes, shards jobs by
plugin digest on a consistent-hash ring, and keeps serving correct
results through node loss, stragglers and overload.  The pieces:

Sharding
    :class:`~repro.service.fleet.HashRing` maps each plugin digest to
    an owner node plus a failover order.  Losing a node moves only its
    arc of the ring; everything else keeps its owner (warm caches).

Durable dispatch ledger
    The coordinator reuses :class:`~repro.service.queue.JobQueue` as
    its ledger.  A dispatcher claims a job **with a lease** and keeps
    the lease alive while its node works; rows whose lease lapses are
    stolen back by the reaper thread, so no coordinator thread death
    can strand a job.

Exactly-once results
    Nodes share one content-addressed
    :class:`~repro.service.store.ResultStore` keyed on
    ``(plugin digest, analyzer fingerprint)``.  Every steal and every
    re-dispatch checks the store *first*: if the dying node already
    persisted the result, the steal dedups into a completion instead
    of re-running the scan.  Duplicate submissions coalesce in the
    ledger exactly as on a single node.

Retry / backoff
    Node submission failures retry on the ring's failover order with
    bounded exponential backoff + jitter
    (:class:`~repro.service.fleet.RetryPolicy`); 429/503 node answers
    are honored via their ``retry_after`` hint.

Work stealing & quarantine
    A node that dies (SIGKILL) or stalls (SIGSTOP) stops answering
    status polls; after ``poll_fail_threshold`` consecutive misses the
    dispatcher steals the job — dedup-first — and another node runs
    it.  Stealing never refunds the queue attempt, so a job that keeps
    dying quarantines (``failed``, incident recorded in telemetry)
    after ``max_attempts`` instead of ping-ponging forever.

Degraded mode
    When fewer than ``min_live`` nodes answer probes, new work is shed
    with ``503 + Retry-After`` instead of queueing unboundedly — but
    submissions whose digest is already in the store still get their
    cached result (read-only service stays up), and queued jobs simply
    wait for recovery.
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..batch.scheduler import ToolSpec
from ..batch.telemetry import FleetStats, ServiceStats, percentile, aggregate_fleet
from .fleet import DOWN, HashRing, NodeError, NodeHandle, RetryPolicy, probe_loop
from .queue import DONE, FAILED, JobQueue, QueueFull
from .server import StoreReadMixin, plugin_from_payload, spec_fingerprint
from .store import ResultStore

_Response = Tuple[int, Dict[str, object]]


class FleetCoordinator(StoreReadMixin):
    """Shard, dispatch, steal, degrade — the fleet's brain.

    Duck-types the service interface of
    :class:`~repro.service.server.AnalysisService` (``submit``,
    ``job_status``, ``sarif``, ``sarif_baseline``, ``health``,
    ``metrics``), so :class:`~repro.service.server.ServiceServer` can
    front a coordinator exactly as it fronts a single node; adds
    ``fleet_status`` which the HTTP layer exposes as ``GET /fleet``.

    ``nodes`` maps node name to a client exposing
    ``submit/status/health/metrics`` — an
    :class:`~repro.service.fleet.HttpNodeClient` for real fleets, a
    :class:`~repro.service.fleet.LocalNodeClient` in the tests.
    """

    def __init__(
        self,
        data_dir: str,
        nodes: Dict[str, object],
        spec: Optional[ToolSpec] = None,
        store_dir: Optional[str] = None,
        min_live: int = 1,
        max_queue_depth: int = 256,
        max_attempts: int = 3,
        lease_seconds: float = 30.0,
        probe_interval: float = 0.5,
        poll_interval: float = 0.2,
        poll_fail_threshold: int = 3,
        retry_policy: Optional[RetryPolicy] = None,
        retry_after: float = 1.0,
        dispatchers: Optional[int] = None,
        fail_threshold: int = 2,
        verbose: bool = False,
        seed: Optional[int] = None,
    ) -> None:
        if not nodes:
            raise ValueError("a fleet needs at least one node")
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        self.spec = spec or ToolSpec()
        self.fingerprint = spec_fingerprint(self.spec)
        self.store = ResultStore(store_dir or os.path.join(data_dir, "store"))
        self.queue = JobQueue(
            os.path.join(data_dir, "jobs.sqlite"),
            max_depth=max_queue_depth,
            max_attempts=max_attempts,
        )
        self.requeued = self.queue.recover()
        self.ring = HashRing(tuple(sorted(nodes)))
        self.handles = {
            name: NodeHandle(name, client, fail_threshold=fail_threshold)
            for name, client in nodes.items()
        }
        self.min_live = max(1, min_live)
        self.lease_seconds = lease_seconds
        self.probe_interval = probe_interval
        self.poll_interval = poll_interval
        self.poll_fail_threshold = max(1, poll_fail_threshold)
        self.retry = retry_policy or RetryPolicy()
        self.retry_after = retry_after
        self.dispatchers = dispatchers or max(2, 2 * len(nodes))
        self.verbose = verbose
        self.fleet = FleetStats(nodes_total=len(nodes))
        self.stats = ServiceStats()
        #: quarantine/loss incidents, newest last (bounded in accessors)
        self.incidents: List[Dict[str, object]] = []
        self._waits: List[float] = []
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self.accepting = True
        self._started_at = time.monotonic()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        prober = threading.Thread(
            target=probe_loop,
            args=(self.handles, self._stop, self.probe_interval),
            kwargs={"on_transition": self._on_transition},
            name="fleet-prober",
            daemon=True,
        )
        reaper = threading.Thread(
            target=self._reaper_loop, name="fleet-reaper", daemon=True
        )
        self._threads = [prober, reaper]
        for index in range(self.dispatchers):
            self._threads.append(
                threading.Thread(
                    target=self._dispatch_loop,
                    args=(f"dispatch-{index}",),
                    name=f"fleet-dispatch-{index}",
                    daemon=True,
                )
            )
        for thread in self._threads:
            thread.start()

    def shutdown(self, timeout: Optional[float] = None) -> bool:
        """Graceful: stop accepting, drain the ledger, stop threads.

        Returns True when the ledger drained (no queued/running rows)
        within ``timeout``; the spool survives either way, so a restart
        resumes exactly where this left off.
        """
        self.accepting = False
        deadline = None if timeout is None else time.monotonic() + timeout
        drained = False
        while True:
            counts = self.queue.counts()
            if counts["queued"] == 0 and counts["running"] == 0:
                drained = True
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        self._stop.set()
        self.queue.wake()
        for thread in self._threads:
            thread.join(timeout=10)
        return drained

    def close(self) -> None:
        self._stop.set()
        self.queue.close()

    # -- submission --------------------------------------------------------

    def submit(self, payload: Dict[str, object]) -> _Response:
        if not self.accepting:
            return 503, {
                "error": "coordinator is shutting down",
                "retry_after": self.retry_after,
            }
        try:
            plugin = plugin_from_payload(self.store, payload)
        except ValueError as error:
            return 400, {"error": str(error)}
        digest = self.store.put_plugin(plugin)
        cached = self.store.get_result(digest, self.fingerprint)
        if cached is not None:
            # cached results stay served even in degraded mode — the
            # read-only half of the degradation ladder
            job, _created = self.queue.submit(
                digest, self.fingerprint, plugin.slug, cached=True
            )
            with self._lock:
                self.stats.deduped += 1
            body = job.to_dict()
            body["cached"] = True
            return 200, body
        live = self._live_count()
        if live < self.min_live:
            with self._lock:
                self.fleet.shed_503 += 1
            return 503, {
                "error": (
                    f"fleet degraded: {live}/{len(self.handles)} nodes live"
                    f" (minimum {self.min_live}); load shed"
                ),
                "degraded": True,
                "retry": True,
                "retry_after": self.retry_after,
            }
        try:
            job, created = self.queue.submit(digest, self.fingerprint, plugin.slug)
        except QueueFull as error:
            with self._lock:
                self.stats.rejected += 1
            return 429, {
                "error": str(error),
                "retry": True,
                "retry_after": self.retry_after,
            }
        with self._lock:
            if created:
                self.stats.accepted += 1
            depth = self.queue.depth()
            if depth > self.stats.queue_depth_peak:
                self.stats.queue_depth_peak = depth
        body = job.to_dict()
        body["coalesced"] = not created
        body["shard"] = self.ring.owner(digest)
        return 202, body

    # -- health / introspection --------------------------------------------

    def health(self) -> _Response:
        live = self._live_count()
        degraded = live < self.min_live
        return 200, {
            "status": "degraded" if degraded else "ok",
            "role": "coordinator",
            "accepting": self.accepting,
            "nodes": {"total": len(self.handles), "live": live},
            "queue_depth": self.queue.depth(),
        }

    def fleet_status(self) -> _Response:
        live = self._live_count()
        nodes = {
            name: {
                "state": handle.state,
                "address": getattr(handle.client, "address", ""),
                "consecutive_failures": handle.consecutive_failures,
                "probes": handle.probes,
            }
            for name, handle in sorted(self.handles.items())
        }
        with self._lock:
            fleet = self.fleet.to_dict()
            incidents = list(self.incidents[-20:])
        return 200, {
            "role": "coordinator",
            "degraded": live < self.min_live,
            "min_live": self.min_live,
            "nodes": nodes,
            "fleet": fleet,
            "incidents": incidents,
            "queue": self.queue.counts(),
        }

    def metrics(self) -> _Response:
        node_documents: Dict[str, Optional[Dict[str, object]]] = {}
        for name, handle in self.handles.items():
            try:
                node_documents[name] = handle.client.metrics()
            except NodeError:
                node_documents[name] = None
        document = aggregate_fleet(node_documents)
        uptime = time.monotonic() - self._started_at
        with self._lock:
            waits = list(self._waits)
            fleet = self.fleet.to_dict()
            coordinator = {
                "accepted": self.stats.accepted,
                "rejected": self.stats.rejected,
                "deduped": self.stats.deduped,
                "completed": self.stats.completed,
                "failed": self.stats.failed,
                "quarantined": self.stats.quarantined,
                "queue_depth_peak": self.stats.queue_depth_peak,
                "jobs_per_minute": (
                    round(self.stats.completed / uptime * 60.0, 3) if uptime else 0.0
                ),
                "uptime_seconds": round(uptime, 3),
            }
        coordinator["queue"] = self.queue.counts()
        coordinator["requeued_at_startup"] = self.requeued
        coordinator["queue_wait"] = {
            "mean": round(sum(waits) / len(waits), 6) if waits else 0.0,
            "p50": round(percentile(waits, 0.5), 6),
            "p99": round(percentile(waits, 0.99), 6),
            "samples": len(waits),
        }
        document["fleet"] = fleet
        document["coordinator"] = coordinator
        return 200, document

    # -- dispatch machinery ------------------------------------------------

    def _live_count(self) -> int:
        return sum(
            1 for handle in self.handles.values() if handle.state != DOWN
        )

    def _live_order(self, digest: str) -> List[str]:
        """Ring preference for a digest, down nodes filtered out."""
        return [
            name
            for name in self.ring.preference(digest)
            if self.handles[name].state != DOWN
        ]

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[fleet] {message}", file=sys.stderr, flush=True)

    def _on_transition(self, handle: NodeHandle, went_down: bool) -> None:
        with self._lock:
            if went_down:
                self.fleet.nodes_lost += 1
            else:
                self.fleet.nodes_recovered += 1
        self._log(
            f"node {handle.name} {'DOWN' if went_down else 'UP'}"
            f" ({self._live_count()}/{len(self.handles)} live)"
        )

    def _reaper_loop(self) -> None:
        """Backstop work stealing: requeue rows whose lease lapsed.

        The dispatcher that owns a job normally steals it itself when
        its node stops answering; the reaper catches everything else —
        a wedged dispatcher thread, a coordinator pause, clock weirdness.
        """
        while not self._stop.is_set():
            for job, outcome in self.queue.expire_leases():
                if outcome == "stolen":
                    if self.store.get_result(job.digest, job.fingerprint) is not None:
                        self.queue.complete(job.id)
                        with self._lock:
                            self.fleet.steal_dedups += 1
                            self.stats.completed += 1
                    else:
                        with self._lock:
                            self.fleet.steals += 1
                        self._log(f"reaper stole job {job.id} (lease expired)")
                elif outcome == "quarantined":
                    self._record_quarantine(job, "lease expired")
            self._stop.wait(max(0.2, self.lease_seconds / 10.0))

    def _dispatch_loop(self, owner: str) -> None:
        # blocks while the ledger is empty; None means stopping
        while (
            job := self.queue.claim(
                owner=owner, lease_seconds=self.lease_seconds, stop=self._stop
            )
        ) is not None:
            try:
                self._run_job(job)
            except Exception as error:  # pragma: no cover - defensive
                self.queue.fail(job.id, f"dispatcher error: {error}")
                with self._lock:
                    self.stats.failed += 1
                self._log(f"dispatcher {owner} error on {job.id}: {error}")

    def _run_job(self, job) -> None:
        with self._lock:
            self.stats.queue_wait_seconds += job.queued_seconds
            self.stats.waits_recorded += 1
            self._waits.append(job.queued_seconds)
        # dedup-first: a steal or duplicate may already be answered
        if self.store.get_result(job.digest, job.fingerprint) is not None:
            self.queue.complete(job.id)
            with self._lock:
                if job.attempts > 1:
                    self.fleet.steal_dedups += 1
                self.stats.completed += 1
            return
        dispatched = self._dispatch_to_node(job)
        if dispatched is None:
            return
        handle, remote_id = dispatched
        self._watch(job, handle, remote_id)

    def _dispatch_to_node(self, job):
        """Submit the job to a live node, walking the ring's failover
        order with bounded backoff.  Returns ``(handle, remote_job_id)``
        or None when the job was parked/failed (already accounted)."""
        for attempt in range(self.retry.max_attempts):
            if self._stop.is_set():
                self.queue.release(job.id)
                return None
            order = self._live_order(job.digest)
            if not order:
                with self._lock:
                    self.fleet.no_live_node_waits += 1
                self.queue.release(job.id)
                self._stop.wait(self.retry.delay(attempt, self._rng))
                return None
            hinted_delay: Optional[float] = None
            for position, name in enumerate(order):
                handle = self.handles[name]
                try:
                    status, body = handle.client.submit(
                        {"digest": job.digest, "name": job.plugin}
                    )
                except NodeError as error:
                    with self._lock:
                        self.fleet.failovers += 1
                    if handle.record_failure():
                        self._on_transition(handle, True)
                    self._log(f"submit to {name} failed: {error}")
                    continue
                if handle.record_success():
                    self._on_transition(handle, False)
                if status in (200, 202):
                    self.queue.assign_node(job.id, name)
                    with self._lock:
                        self.fleet.dispatched += 1
                        if position:
                            self.fleet.failovers += 1
                    return handle, str(body["id"])
                if status in (429, 503):
                    # the node is talking: honor its Retry-After hint
                    hint = body.get("retry_after")
                    if hint is not None:
                        hint = float(hint)
                        hinted_delay = (
                            hint if hinted_delay is None else min(hinted_delay, hint)
                        )
                    with self._lock:
                        self.fleet.retries += 1
                    continue
                # 400 and friends are permanent verdicts on the payload
                self.queue.fail(
                    job.id,
                    f"node {name} rejected ({status}): {body.get('error')}",
                )
                with self._lock:
                    self.stats.failed += 1
                return None
            wait = (
                hinted_delay
                if hinted_delay is not None
                else self.retry.delay(attempt, self._rng)
            )
            self.queue.extend_lease(job.id, self.lease_seconds + wait)
            self._stop.wait(wait)
        # every node refused for a whole backoff ladder: park the job
        # (refund the attempt — no node ever started work) and let a
        # later claim retry when capacity returns
        with self._lock:
            self.fleet.retries += 1
        self.queue.release(job.id)
        self._stop.wait(self.retry.delay(self.retry.max_attempts, self._rng))
        return None

    def _watch(self, job, handle: NodeHandle, remote_id: str) -> None:
        """Poll the node until the job resolves; steal when it stops
        answering (SIGKILL, SIGSTOP, network loss)."""
        poll_failures = 0
        while not self._stop.is_set():
            self.queue.extend_lease(job.id, self.lease_seconds)
            try:
                status, body = handle.client.status(remote_id)
            except NodeError:
                poll_failures += 1
                if handle.record_failure():
                    self._on_transition(handle, True)
                if poll_failures >= self.poll_fail_threshold or handle.is_down:
                    self._steal(job, f"node {handle.name} unresponsive")
                    return
                self._stop.wait(self.poll_interval)
                continue
            poll_failures = 0
            if handle.record_success():
                self._on_transition(handle, False)
            if status == 404:
                # the node restarted with a fresh spool and forgot us
                self._steal(job, f"node {handle.name} lost job {remote_id}")
                return
            state = body.get("state")
            if state == DONE:
                if self.store.get_result(job.digest, job.fingerprint) is None:
                    # node claims done but never persisted — treat as loss
                    self._steal(
                        job, f"node {handle.name} finished without a result"
                    )
                    return
                self.queue.complete(job.id)
                with self._lock:
                    self.stats.completed += 1
                return
            if state == FAILED:
                self.queue.fail(
                    job.id,
                    str(body.get("error") or f"failed on node {handle.name}"),
                )
                with self._lock:
                    self.stats.failed += 1
                return
            self._stop.wait(self.poll_interval)
        # shutting down mid-watch: leave the row running — the lease
        # will lapse and recover()/the reaper resumes it next start

    def _steal(self, job, reason: str) -> None:
        """Take the job away from its node — dedup-first.

        The exactly-once path: if the node persisted the result before
        dying (kill-after-persist-before-ack), the steal collapses into
        a completion keyed on ``(digest, fingerprint)`` — no re-run, the
        client sees one result."""
        if self.store.get_result(job.digest, job.fingerprint) is not None:
            self.queue.complete(job.id)
            with self._lock:
                self.fleet.steal_dedups += 1
                self.stats.completed += 1
            self._log(f"steal of {job.id} deduped ({reason})")
            return
        outcome = self.queue.steal(job.id, reason)
        if outcome == "stolen":
            with self._lock:
                self.fleet.steals += 1
            self._log(f"stole {job.id}: {reason}")
        elif outcome == "quarantined":
            self._record_quarantine(job, reason)

    def _record_quarantine(self, job, reason: str) -> None:
        incident = {
            "job": job.id,
            "digest": job.digest,
            "plugin": job.plugin,
            "attempts": job.attempts,
            "reason": reason,
            "at": time.time(),
        }
        with self._lock:
            self.stats.quarantined += 1
            self.stats.failed += 1
            self.incidents.append(incident)
            del self.incidents[:-100]
        self._log(
            f"quarantined {job.id} ({job.plugin}) after"
            f" {job.attempts} attempt(s): {reason}"
        )
