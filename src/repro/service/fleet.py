"""Fleet primitives: hash ring, node clients, retry policy, node procs.

The multi-node service (ROADMAP item 1, the paper's "made available as
a service" at marketplace scale) is built from four small pieces that
live here so the coordinator stays readable:

:class:`HashRing`
    Consistent hashing with virtual nodes.  Jobs shard by plugin
    digest; :meth:`HashRing.preference` yields the full failover order
    for a key, so losing a node moves only that node's arc of the ring
    (≈1/N of the keys) instead of reshuffling everything.

:class:`RetryPolicy`
    Bounded exponential backoff with jitter.  Every retry loop in the
    fleet (node submission, probe recovery, load-generator 429/503
    handling) draws its delays from one of these.

:class:`HttpNodeClient` / :class:`LocalNodeClient`
    The wire to one ``phpsafe serve`` node.  HTTP error *responses*
    (429, 503, 400…) are returned to the caller — they are the node
    talking; :class:`NodeError` is raised only when the node is not
    talking at all (connection refused, timeout, garbage).  The local
    variant wraps an in-process :class:`AnalysisService` for tests and
    doubles as the interface's documentation.

:class:`NodeHandle`
    Health bookkeeping for one node: consecutive probe failures flip
    it ``up → down`` at a threshold, one success flips it back.

:class:`LocalNodeProcess`
    Spawns a real ``python -m repro serve`` subprocess (own spool and
    cache, shared result store) and can SIGKILL / SIGSTOP / SIGCONT it
    — the fault injectors of the chaos harness.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal as signal_module
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: node health states
UP = "up"
DOWN = "down"
UNKNOWN = "unknown"


class NodeError(Exception):
    """The node did not answer at all (dead, wedged, unreachable)."""


# ---------------------------------------------------------------------------
# consistent hashing
# ---------------------------------------------------------------------------


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each node is hashed onto the ring ``replicas`` times; a key is
    owned by the first point clockwise from its own hash.  Removing a
    node hands its arcs to the next points — every other key keeps its
    owner, which is what makes rebalance after node loss cheap.
    """

    def __init__(self, nodes: Tuple[str, ...] = (), replicas: int = 64) -> None:
        self.replicas = replicas
        self._nodes: List[str] = []
        self._points: List[Tuple[int, str]] = []
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.sha256(value.encode("utf-8")).digest()[:8], "big"
        )

    @property
    def nodes(self) -> List[str]:
        return list(self._nodes)

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.append(node)
        for replica in range(self.replicas):
            self._points.append((self._hash(f"{node}#{replica}"), node))
        self._points.sort()

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.remove(node)
        self._points = [point for point in self._points if point[1] != node]

    def owner(self, key: str) -> Optional[str]:
        """The node a key shards to (None on an empty ring)."""
        order = self.preference(key, count=1)
        return order[0] if order else None

    def preference(self, key: str, count: Optional[int] = None) -> List[str]:
        """Distinct nodes in ring order starting at ``key``'s position.

        The first entry is the owner; the rest are the failover order a
        dispatcher walks when nodes are down.
        """
        if not self._points:
            return []
        wanted = len(self._nodes) if count is None else min(count, len(self._nodes))
        start = bisect_right(self._points, (self._hash(key), chr(0x10FFFF)))
        order: List[str] = []
        seen = set()
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in seen:
                seen.add(node)
                order.append(node)
                if len(order) == wanted:
                    break
        return order


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter.

    ``delay(attempt)`` for attempt 0, 1, 2… is
    ``min(cap, base * multiplier**attempt)`` scaled by a random factor
    in ``[1 - jitter, 1]`` — full delays would synchronize retries
    across dispatchers (thundering herd), jitter spreads them.
    """

    base_delay: float = 0.1
    max_delay: float = 5.0
    multiplier: float = 2.0
    jitter: float = 0.5
    max_attempts: int = 4

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        raw = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        if self.jitter <= 0:
            return raw
        scale = 1.0 - (rng or random).random() * self.jitter
        return raw * scale


# ---------------------------------------------------------------------------
# node clients
# ---------------------------------------------------------------------------


class HttpNodeClient:
    """Talk to one ``phpsafe serve`` node over HTTP.

    Returns ``(status, body)`` for every HTTP exchange the node
    completed — including 4xx/5xx, which are service answers (429
    backpressure, 503 drain) the coordinator must see.  Raises
    :class:`NodeError` when no exchange happened: that is the signal a
    node is gone and its work must be stolen.
    """

    def __init__(self, address: str, timeout: float = 10.0) -> None:
        self.address = address.rstrip("/")
        if "://" not in self.address:
            self.address = "http://" + self.address
        self.timeout = timeout

    def _request(
        self, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Tuple[int, Dict[str, object]]:
        data = (
            json.dumps(payload).encode("utf-8") if payload is not None else None
        )
        request = urllib.request.Request(self.address + path, data=data)
        if data is not None:
            request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.status, json.loads(
                    response.read().decode("utf-8")
                )
        except urllib.error.HTTPError as error:
            try:
                return error.code, json.loads(error.read().decode("utf-8"))
            except ValueError:
                return error.code, {"error": f"non-JSON {error.code} reply"}
        except (urllib.error.URLError, ConnectionError, socket.timeout, OSError) as error:
            raise NodeError(f"{self.address}{path}: {error}") from error
        except ValueError as error:  # garbage body on a 2xx
            raise NodeError(f"{self.address}{path}: bad JSON ({error})") from error

    def submit(self, payload: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
        return self._request("/v1/scans", payload)

    def status(self, job_id: str) -> Tuple[int, Dict[str, object]]:
        return self._request(f"/v1/scans/{job_id}")

    def health(self) -> Dict[str, object]:
        status, body = self._request("/healthz")
        if status != 200:
            raise NodeError(f"{self.address}/healthz returned {status}")
        return body

    def metrics(self) -> Dict[str, object]:
        status, body = self._request("/metrics")
        if status != 200:
            raise NodeError(f"{self.address}/metrics returned {status}")
        return body


class LocalNodeClient:
    """In-process node client over an :class:`AnalysisService`.

    Used by the unit tests (no subprocesses, fully deterministic) and
    as the executable definition of the node-client interface.
    """

    def __init__(self, service) -> None:
        self.service = service
        self.address = f"local:{id(service):x}"

    def submit(self, payload: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
        return self.service.submit(payload)

    def status(self, job_id: str) -> Tuple[int, Dict[str, object]]:
        return self.service.job_status(job_id)

    def health(self) -> Dict[str, object]:
        status, body = self.service.health()
        if status != 200:
            raise NodeError(f"{self.address} health returned {status}")
        return body

    def metrics(self) -> Dict[str, object]:
        status, body = self.service.metrics()
        if status != 200:
            raise NodeError(f"{self.address} metrics returned {status}")
        return body


class NodeHandle:
    """One fleet node's health bookkeeping (probe side)."""

    def __init__(self, name: str, client, fail_threshold: int = 2) -> None:
        self.name = name
        self.client = client
        self.fail_threshold = max(1, fail_threshold)
        self.state = UNKNOWN
        self.consecutive_failures = 0
        self.probes = 0
        self.last_change = time.monotonic()

    @property
    def is_down(self) -> bool:
        return self.state == DOWN

    def record_success(self) -> bool:
        """Returns True on a down→up transition."""
        self.probes += 1
        self.consecutive_failures = 0
        recovered = self.state == DOWN
        if self.state != UP:
            self.state = UP
            self.last_change = time.monotonic()
        return recovered

    def record_failure(self) -> bool:
        """Returns True on an up/unknown→down transition."""
        self.probes += 1
        self.consecutive_failures += 1
        if self.state != DOWN and self.consecutive_failures >= self.fail_threshold:
            self.state = DOWN
            self.last_change = time.monotonic()
            return True
        return False


# ---------------------------------------------------------------------------
# local node processes (chaos harness, bench fleet)
# ---------------------------------------------------------------------------


def free_port() -> int:
    """A currently-free TCP port on localhost (best effort)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class LocalNodeProcess:
    """A real ``phpsafe serve`` node as a child process.

    Own job spool and parse cache; the result store is shared with the
    rest of the fleet via ``store_dir``.  The chaos harness's fault
    injectors live here: :meth:`kill` (SIGKILL: node loss mid-job),
    :meth:`pause`/:meth:`resume` (SIGSTOP/SIGCONT: a straggler that is
    alive but not making progress).

    The node starts in a session of its own, so it leads a process
    group that its worker processes join: a SIGKILL goes to the whole
    group, because a killed node cannot reap its workers itself.
    """

    def __init__(
        self,
        name: str,
        data_dir: str,
        store_dir: str,
        jobs: int = 1,
        port: Optional[int] = None,
        extra_args: Tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.data_dir = data_dir
        self.port = port or free_port()
        self.address = f"127.0.0.1:{self.port}"
        os.makedirs(data_dir, exist_ok=True)
        src_dir = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.log_path = os.path.join(data_dir, "node.log")
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--host",
                "127.0.0.1",
                "--port",
                str(self.port),
                "--data-dir",
                data_dir,
                "--store-dir",
                store_dir,
                "--jobs",
                str(jobs),
                "--node",
                name,
                *extra_args,
            ],
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.paused = False
        self.killed = False

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.poll() is None

    def wait_healthy(self, timeout: float = 60.0) -> None:
        client = HttpNodeClient(self.address, timeout=5.0)
        deadline = time.time() + timeout
        while time.time() < deadline:
            if not self.alive():
                raise NodeError(
                    f"node {self.name} exited {self.process.returncode}"
                    f" before becoming healthy (log: {self.log_path})"
                )
            try:
                client.health()
                return
            except NodeError:
                time.sleep(0.1)
        raise NodeError(f"node {self.name} never became healthy")

    # -- fault injectors ---------------------------------------------------

    def kill(self) -> None:
        """SIGKILL: abrupt node loss, no drain, no goodbye."""
        self._kill_group()
        self.killed = True

    def _kill_group(self) -> None:
        """SIGKILL the node's process group: the node and its workers.

        Runs even after the node itself exited, since its workers may
        still be running."""
        try:
            os.killpg(self.pid, signal_module.SIGKILL)
        except ProcessLookupError:  # the whole group is already gone
            pass
        self.process.wait(timeout=30)

    def pause(self) -> None:
        """SIGSTOP: the node stops making progress but stays 'alive'."""
        if self.alive():
            os.kill(self.pid, signal_module.SIGSTOP)
            self.paused = True

    def resume(self) -> None:
        """SIGCONT a paused node."""
        if self.paused and self.alive():
            os.kill(self.pid, signal_module.SIGCONT)
        self.paused = False

    # -- shutdown ----------------------------------------------------------

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful SIGTERM stop (drains in-flight work)."""
        self.resume()
        if self.alive():
            self.process.send_signal(signal_module.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self._kill_group()
        try:
            self._log.close()
        except OSError:  # pragma: no cover - best effort
            pass


def probe_loop(
    handles: Dict[str, NodeHandle],
    stop: threading.Event,
    interval: float,
    on_transition=None,
) -> None:
    """Shared prober body: round-robin ``/healthz`` over the handles.

    ``on_transition(handle, went_down)`` fires on every state flip; the
    coordinator uses it to count losses/recoveries and log.
    """
    while not stop.is_set():
        for handle in handles.values():
            try:
                handle.client.health()
            except NodeError:
                if handle.record_failure() and on_transition is not None:
                    on_transition(handle, True)
            else:
                if handle.record_success() and on_transition is not None:
                    on_transition(handle, False)
        stop.wait(interval)
