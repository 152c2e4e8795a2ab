"""Analysis-as-a-service subsystem (``phpsafe serve``).

The paper's phpSAFE is "a web application … made available as a
service"; this package is the reproduction's long-running daemon:
an asyncio HTTP front end (:mod:`.server`), a durable SQLite job queue
(:mod:`.queue`), a worker pool draining it through the batch pipeline
(:mod:`.workers`), a content-addressed payload/result store
(:mod:`.store`), a SARIF 2.1.0 exporter (:mod:`.sarif`), and — at
fleet scale — consistent-hash sharding primitives (:mod:`.fleet`)
plus the multi-node coordinator (:mod:`.coordinator`).
"""

from .coordinator import FleetCoordinator
from .fleet import (
    HashRing,
    HttpNodeClient,
    LocalNodeClient,
    LocalNodeProcess,
    NodeError,
    NodeHandle,
    RetryPolicy,
    free_port,
)
from .queue import DONE, FAILED, QUEUED, RUNNING, Job, JobQueue, QueueFull
from .sarif import result_signatures, to_sarif
from .server import (
    AnalysisService,
    BackgroundServer,
    ServiceServer,
    run_service,
    serve,
)
from .store import ResultStore, plugin_digest
from .workers import RESULT_SCHEMA, WorkerPool, result_document

__all__ = [
    "AnalysisService",
    "BackgroundServer",
    "DONE",
    "FAILED",
    "FleetCoordinator",
    "HashRing",
    "HttpNodeClient",
    "Job",
    "JobQueue",
    "LocalNodeClient",
    "LocalNodeProcess",
    "NodeError",
    "NodeHandle",
    "QUEUED",
    "QueueFull",
    "RESULT_SCHEMA",
    "ResultStore",
    "RetryPolicy",
    "RUNNING",
    "ServiceServer",
    "WorkerPool",
    "free_port",
    "plugin_digest",
    "result_document",
    "result_signatures",
    "run_service",
    "serve",
    "to_sarif",
]
