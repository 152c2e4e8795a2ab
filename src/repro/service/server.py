"""Analysis-as-a-service: the daemon behind ``phpsafe serve``.

The paper positions phpSAFE as a web service plugin developers and
marketplace maintainers submit code to (Section III); this module is
that front end for the reproduction.  Two layers:

:class:`AnalysisService`
    The service brain, fully usable without HTTP (the integration
    tests drive it directly): content-addressed submission through the
    :class:`~repro.service.store.ResultStore`, durable queueing with
    bounded depth, the :class:`~repro.service.workers.WorkerPool`, and
    live metrics on telemetry schema v9.

:class:`ServiceServer` / :func:`run_service`
    A stdlib-only asyncio HTTP/1.1 front end::

        POST /v1/scans            submit {"name", "files": {path: src}}
                                  or {"path": "/plugin/checkout"}
        GET  /v1/scans/{id}       job status + result document
        GET  /v1/scans/{id}/sarif SARIF 2.1.0 report
        GET  /v1/scans/{id}/sarif/baseline
                                  same report with each result's
                                  baselineState (new/unchanged/absent)
                                  vs the nearest prior scan of the
                                  plugin's lineage — the service side
                                  of the fail-only-on-new gate
        GET  /healthz             liveness
        GET  /metrics             telemetry v9 + queue state
        GET  /fleet               coordinator-only: per-node fleet view

    Responses are JSON; overload returns 429 (and degraded fleets 503)
    with a ``Retry-After`` header clients are expected to honor.
    SIGTERM/SIGINT trigger
    the graceful sequence: stop accepting, drain in-flight jobs,
    leave everything else queued in the sqlite spool — zero accepted
    jobs lost across a restart.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import os
import signal as signal_module
import threading
import time
from hashlib import sha256
from typing import Callable, Dict, Optional, Tuple

from ..batch.scheduler import ToolSpec
from ..batch.telemetry import ServiceStats
from ..plugin import Plugin
from .queue import DONE, FAILED, JobQueue, QueueFull
from .store import ResultStore
from .workers import RESULT_SCHEMA, WorkerPool

#: request body cap (a plugin source upload, JSON-encoded)
MAX_BODY_BYTES = 32 * 1024 * 1024

_Response = Tuple[int, Dict[str, object]]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _canonical(value: object) -> object:
    """Hash-stable view of an options object.

    ``repr`` alone is NOT stable across processes: set/frozenset
    iteration order follows randomized string hashing, so two fleet
    nodes would disagree on the same configuration's fingerprint and
    never share cached results.  Dataclasses expand field by field,
    sets and dicts sort, everything else falls back to ``repr``."""
    import dataclasses

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (field.name, _canonical(getattr(value, field.name)))
                for field in dataclasses.fields(value)
            ),
        )
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(repr(_canonical(item)) for item in value)))
    if isinstance(value, dict):
        return (
            "dict",
            tuple(
                sorted((repr(key), repr(_canonical(item)))
                       for key, item in value.items())
            ),
        )
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    return repr(value)


def spec_fingerprint(spec: ToolSpec) -> str:
    """Analyzer-configuration identity of stored results: the same
    plugin bytes analyzed under different options must not share a
    cached report.  Shared by every store writer (single-node service,
    fleet nodes, coordinator) so they key results identically — and
    deterministic across processes (see :func:`_canonical`).

    Beyond the options dataclass, the fingerprint folds in the
    knowledge base the spec's tool consults: ``_canonical`` only sees
    pack *references* (profile names, pack paths), and the baselines'
    profiles are not in their spec at all, but editing a pack file
    changes its content hash and must invalidate stored results and
    dedup decisions too.  The result schema is folded in as well, so a
    document stored in an older layout is re-analyzed, never served."""
    parts: Tuple[object, ...] = (
        RESULT_SCHEMA, spec.name, _canonical(spec.options)
    )
    profile = getattr(spec.build(), "profile", None)
    if profile is not None:
        parts = parts + (profile.fingerprint(),)
    return sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


def plugin_from_payload(store: ResultStore, payload: Dict[str, object]) -> Plugin:
    """Resolve a submission payload to a :class:`Plugin`.

    Accepts, in precedence order: ``{"digest": ...}`` (submit by
    reference to a plugin already persisted in the — possibly shared —
    store; how a fleet coordinator re-dispatches a stolen job without
    shipping the bytes again), ``{"path": ...}`` (a checkout or single
    file on the service host), or ``{"name", "files": {path: src}}``
    (an inline upload).  Raises :class:`ValueError` on anything else.
    """
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    digest = payload.get("digest")
    if digest:
        if not isinstance(digest, str):
            raise ValueError("'digest' must be a string")
        plugin = store.load_plugin(digest)
        if plugin is None:
            raise ValueError(f"unknown plugin digest {digest[:16]!r}…")
        return plugin
    path = payload.get("path")
    if path:
        if not isinstance(path, str) or not os.path.exists(path):
            raise ValueError(f"path does not exist: {path!r}")
        if os.path.isdir(path):
            plugin = Plugin.load_from(path)
        else:
            with open(path, "r", encoding="utf-8", errors="replace") as handle:
                source = handle.read()
            name = os.path.basename(path)
            plugin = Plugin(name=name, files={name: source})
        if not plugin.files:
            raise ValueError(f"no PHP files under {path!r}")
        return plugin
    files = payload.get("files")
    if not isinstance(files, dict) or not files:
        raise ValueError("payload needs a non-empty 'files' object or a 'path'")
    for file_path, source in files.items():
        if not isinstance(file_path, str) or not isinstance(source, str):
            raise ValueError("'files' must map relative paths to source text")
    return Plugin(
        name=str(payload.get("name") or "submission"),
        version=str(payload.get("version") or ""),
        files=dict(files),
    )


class StoreReadMixin:
    """Read-side endpoints shared by the single-node service and the
    fleet coordinator: both resolve jobs from ``self.queue`` and
    results/lineage from ``self.store``, so status, SARIF and
    SARIF-baseline lookups are one implementation."""

    def job_status(self, job_id: str) -> _Response:
        job = self.queue.get(job_id)
        if job is None:
            return 404, {"error": f"unknown scan id {job_id!r}"}
        body = job.to_dict()
        if job.state in (DONE, FAILED):
            document = self.store.get_result(job.digest, job.fingerprint)
            if document is not None:
                body["result"] = {
                    key: value for key, value in document.items() if key != "sarif"
                }
        return 200, body

    def sarif(self, job_id: str) -> _Response:
        job = self.queue.get(job_id)
        if job is None:
            return 404, {"error": f"unknown scan id {job_id!r}"}
        if job.state not in (DONE, FAILED):
            return 409, {"error": "scan not finished", "state": job.state}
        document = self.store.get_result(job.digest, job.fingerprint)
        if document is None or "sarif" not in document:
            return 404, {"error": "no stored result for this scan"}
        return 200, document["sarif"]  # type: ignore[return-value]

    def sarif_baseline(self, job_id: str) -> _Response:
        """The scan's SARIF log with each result's ``baselineState``
        computed against the nearest prior scan of the same plugin
        lineage (same analyzer fingerprint).  A first scan — nothing
        prior in the lineage — marks every result ``new``.
        """
        from .sarif import apply_baseline, new_result_count

        status, document = self.sarif(job_id)
        if status != 200:
            return status, document
        job = self.queue.get(job_id)
        assert job is not None  # sarif() already resolved it
        baseline: Dict[str, object] = {"runs": []}
        plugin = self.store.load_plugin(job.digest)
        if plugin is not None:
            for digest in reversed(self.store.lineage(plugin.name)):
                if digest == job.digest:
                    continue
                prior = self.store.get_result(digest, job.fingerprint)
                if prior is not None and "sarif" in prior:
                    baseline = prior["sarif"]  # type: ignore[assignment]
                    break
        counts = apply_baseline(document, baseline)
        # log-level properties bag (SARIF §3.13.8): the gate's counts
        document.setdefault("properties", {})["baseline"] = dict(counts)
        document["properties"]["newResults"] = new_result_count(document)
        return 200, document


class AnalysisService(StoreReadMixin):
    """Queue + store + worker pool behind one submission API."""

    def __init__(
        self,
        data_dir: str,
        spec: Optional[ToolSpec] = None,
        jobs: int = 2,
        timeout: Optional[float] = None,
        cache_dir: Optional[str] = None,
        max_queue_depth: int = 64,
        max_attempts: int = 2,
        isolation: str = "process",
        store_dir: Optional[str] = None,
        node_name: Optional[str] = None,
        retry_after: float = 1.0,
    ) -> None:
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        self.spec = spec or ToolSpec()
        self.fingerprint = spec_fingerprint(self.spec)
        #: fleet identity of this node (None outside a fleet)
        self.node_name = node_name
        #: Retry-After hint attached to 429/503 answers
        self.retry_after = retry_after
        # ``store_dir`` lets fleet nodes share one content-addressed
        # result store (atomic writes make that safe by design) while
        # keeping spool and cache private per node
        self.store = ResultStore(store_dir or os.path.join(data_dir, "store"))
        self.queue = JobQueue(
            os.path.join(data_dir, "jobs.sqlite"),
            max_depth=max_queue_depth,
            max_attempts=max_attempts,
        )
        #: jobs a previous daemon left running; requeued at startup so
        #: a crash/restart never loses accepted work
        self.requeued = self.queue.recover()
        self.stats = ServiceStats()
        self.pool = WorkerPool(
            self.queue,
            self.store,
            spec=self.spec,
            jobs=jobs,
            timeout=timeout,
            cache_dir=cache_dir or os.path.join(data_dir, "cache"),
            isolation=isolation,
            stats=self.stats,
        )
        self.accepting = True
        self._started_at = time.monotonic()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.pool.start()

    def shutdown(self, timeout: Optional[float] = None) -> bool:
        """Graceful: stop accepting, drain in-flight, keep the spool."""
        self.accepting = False
        return self.pool.stop(timeout=timeout)

    def close(self) -> None:
        self.queue.close()

    # -- submission --------------------------------------------------------

    def submit(self, payload: Dict[str, object]) -> _Response:
        if not self.accepting:
            return 503, {
                "error": "service is shutting down",
                "retry_after": self.retry_after,
            }
        try:
            plugin = plugin_from_payload(self.store, payload)
        except ValueError as error:
            return 400, {"error": str(error)}
        digest = self.store.put_plugin(plugin)
        cached = self.store.get_result(digest, self.fingerprint)
        if cached is not None:
            job, _created = self.queue.submit(
                digest, self.fingerprint, plugin.slug, cached=True
            )
            self.stats.deduped += 1
            body = job.to_dict()
            body["cached"] = True
            return 200, body
        try:
            job, created = self.queue.submit(digest, self.fingerprint, plugin.slug)
        except QueueFull as error:
            self.stats.rejected += 1
            return 429, {
                "error": str(error),
                "retry": True,
                "retry_after": self.retry_after,
            }
        if created:
            self.stats.accepted += 1
        depth = self.queue.depth()
        if depth > self.stats.queue_depth_peak:
            self.stats.queue_depth_peak = depth
        body = job.to_dict()
        body["coalesced"] = not created
        return 202, body

    # -- reads (status/SARIF lookups come from StoreReadMixin) -------------

    def health(self) -> _Response:
        body = {
            "status": "ok",
            "accepting": self.accepting,
            "workers": self.pool.jobs,
            "queue_depth": self.queue.depth(),
        }
        if self.node_name:
            body["node"] = self.node_name
        return 200, body

    def metrics(self) -> _Response:
        self.stats.queue_depth = self.queue.depth()
        self.stats.uptime_seconds = time.monotonic() - self._started_at
        self.pool.telemetry.wall_seconds = self.stats.uptime_seconds
        document = self.pool.telemetry.to_dict()
        document["queue"] = self.queue.counts()
        document["requeued_at_startup"] = self.requeued
        if self.node_name:
            document["node"] = self.node_name
        return 200, document


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------


class ServiceServer:
    """Minimal asyncio HTTP/1.1 server over an :class:`AnalysisService`."""

    def __init__(
        self, service: AnalysisService, host: str = "127.0.0.1", port: int = 8787
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        # port 0 means "pick one"; report what the OS chose
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request handling --------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _BadRequest as error:
                await self._respond(writer, error.status, {"error": str(error)})
                return
            status, document = await self._dispatch(method, path, body)
            await self._respond(writer, status, document)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        except Exception as error:  # pragma: no cover - defensive
            try:
                await self._respond(
                    writer, 500, {"error": f"internal error: {error!r}"}
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        request_line = await reader.readline()
        if not request_line:
            raise _BadRequest("empty request")
        try:
            method, path, _version = request_line.decode("latin-1").split()
        except ValueError:
            raise _BadRequest("malformed request line")
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _BadRequest("bad Content-Length")
        if content_length > MAX_BODY_BYTES:
            raise _BadRequest(
                f"body of {content_length} bytes exceeds {MAX_BODY_BYTES}",
                status=413,
            )
        body = await reader.readexactly(content_length) if content_length else b""
        return method.upper(), path.split("?", 1)[0], body

    async def _dispatch(self, method: str, path: str, body: bytes) -> _Response:
        loop = asyncio.get_running_loop()
        service = self.service
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "GET only"}
            return service.health()
        if path == "/fleet" and hasattr(service, "fleet_status"):
            if method != "GET":
                return 405, {"error": "GET only"}
            return await loop.run_in_executor(None, service.fleet_status)
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "GET only"}
            return await loop.run_in_executor(None, service.metrics)
        if path == "/v1/scans":
            if method != "POST":
                return 405, {"error": "POST only"}
            try:
                payload = json.loads(body.decode("utf-8") or "null")
            except (UnicodeDecodeError, ValueError):
                return 400, {"error": "request body is not valid JSON"}
            return await loop.run_in_executor(
                None, functools.partial(service.submit, payload)
            )
        if path.startswith("/v1/scans/"):
            if method != "GET":
                return 405, {"error": "GET only"}
            rest = path[len("/v1/scans/") :]
            if rest.endswith("/sarif/baseline"):
                job_id = rest[: -len("/sarif/baseline")].strip("/")
                return await loop.run_in_executor(
                    None, functools.partial(service.sarif_baseline, job_id)
                )
            if rest.endswith("/sarif"):
                job_id = rest[: -len("/sarif")].strip("/")
                return await loop.run_in_executor(
                    None, functools.partial(service.sarif, job_id)
                )
            job_id = rest.strip("/")
            return await loop.run_in_executor(
                None, functools.partial(service.job_status, job_id)
            )
        return 404, {"error": f"no route for {path}"}

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter, status: int, document: Dict[str, object]
    ) -> None:
        payload = json.dumps(document, indent=1).encode("utf-8")
        reason = _REASONS.get(status, "OK")
        extra = ""
        if status in (429, 503) and isinstance(document, dict):
            # overload/degraded answers carry the backoff hint both in
            # the body (JSON clients) and as the standard header
            retry_after = document.get("retry_after")
            if retry_after is not None:
                extra = f"Retry-After: {max(1, math.ceil(float(retry_after)))}\r\n"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json; charset=utf-8\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extra}"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()


class _BadRequest(Exception):
    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


# ---------------------------------------------------------------------------
# running it
# ---------------------------------------------------------------------------


async def serve(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = 8787,
    install_signal_handlers: bool = True,
    on_ready: Optional[Callable[[str, int], None]] = None,
    shutdown_timeout: Optional[float] = None,
) -> None:
    """Serve until SIGTERM/SIGINT, then shut down gracefully."""
    server = ServiceServer(service, host, port)
    await server.start()
    service.start()
    if on_ready is not None:
        on_ready(server.host, server.port)
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    if install_signal_handlers:
        for sig in (signal_module.SIGTERM, signal_module.SIGINT):
            try:
                loop.add_signal_handler(sig, stop_event.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
    try:
        await stop_event.wait()
    finally:
        # stop accepting first, then drain in-flight jobs; queued jobs
        # stay in the sqlite spool for the next daemon
        service.accepting = False
        await server.close()
        await loop.run_in_executor(
            None, functools.partial(service.shutdown, shutdown_timeout)
        )
        for sig in installed:
            loop.remove_signal_handler(sig)


def run_service(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = 8787,
    on_ready: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Blocking entry point used by ``phpsafe serve``."""
    asyncio.run(serve(service, host, port, on_ready=on_ready))


class BackgroundServer:
    """The full HTTP service on a background thread (tests, smoke runs)."""

    def __init__(
        self, service: AnalysisService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.server = ServiceServer(service, host, port)
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(
            target=self._thread_main, name="phpsafe-http", daemon=True
        )

    def _thread_main(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.close())
            self._loop.close()

    def start(self) -> Tuple[str, int]:
        self.service.start()
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("HTTP front end failed to start")
        return self.server.host, self.server.port

    def stop(self, drain_timeout: Optional[float] = None) -> None:
        """Graceful: close the listener, then drain the worker pool."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self.service.shutdown(timeout=drain_timeout)
