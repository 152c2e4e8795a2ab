"""Analysis-service subsystem: store, queue, SARIF, workers, HTTP."""

import http.client
import json
import os
import threading
import time

import pytest

from repro.batch import ToolSpec
from repro.batch.telemetry import SCHEMA, ScanTelemetry, ServiceStats
from repro.core import PhpSafe
from repro.core.results import ToolReport, finding_signatures
from repro.core.tool import AnalyzerTool
from repro.incidents import Incident, IncidentSeverity, IncidentStage
from repro.plugin import Plugin
from repro.service import (
    AnalysisService,
    BackgroundServer,
    JobQueue,
    QueueFull,
    ResultStore,
    plugin_digest,
    result_signatures,
    to_sarif,
)
from repro.service.sarif import result_count

VULN = "<?php echo $_GET['q'];"
SAFE = "<?php echo esc_html($_GET['q']);"


def small_plugins():
    return [
        Plugin(name="alpha", files={"index.php": VULN}),
        Plugin(name="beta", files={"index.php": SAFE, "lib.php": "<?php $x = 1;"}),
        Plugin(name="gamma", files={"index.php": "<?php echo $_COOKIE['c'];"}),
        Plugin(name="delta", files={"admin.php": "<?php echo $_POST['d'];"}),
    ]


def wait_done(service, ids, timeout=30.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        states = [service.job_status(i)[1]["state"] for i in ids]
        if all(state in ("done", "failed") for state in states):
            return states
        time.sleep(0.02)
    raise AssertionError(f"jobs did not finish: {states}")


def submit_plugin(service, plugin):
    code, body = service.submit(
        {"name": plugin.name, "version": plugin.version, "files": dict(plugin.files)}
    )
    assert code in (200, 202), body
    return body


class CrashOnBomb(AnalyzerTool):
    """Kills its worker process outright for one plugin name."""

    name = "crash-on-bomb"

    def analyze(self, plugin: Plugin) -> ToolReport:
        if plugin.name == "bomb":
            os._exit(23)
        report = ToolReport(tool=self.name, plugin=plugin.slug)
        report.files_analyzed = plugin.file_count
        return report


class LockOnBomb(AnalyzerTool):
    """Returns a report that cannot be pickled back for one plugin name."""

    name = "lock-on-bomb"

    def analyze(self, plugin: Plugin) -> ToolReport:
        report = ToolReport(tool=self.name, plugin=plugin.slug)
        if plugin.name == "bomb":
            report.perf["lock"] = threading.Lock()
        return report


# ---------------------------------------------------------------------------
# result store
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_digest_is_content_only(self):
        files = {"a.php": "<?php 1;", "b.php": "<?php 2;"}
        one = Plugin(name="one", version="1.0", files=dict(files))
        two = Plugin(name="two", version="9.9", files=dict(files))
        assert plugin_digest(one) == plugin_digest(two)
        changed = Plugin(name="one", files={**files, "a.php": "<?php 3;"})
        assert plugin_digest(changed) != plugin_digest(one)

    def test_plugin_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        plugin = Plugin(name="p", version="2.0", files={"x.php": VULN})
        digest = store.put_plugin(plugin)
        loaded = store.load_plugin(digest)
        assert loaded.name == "p" and loaded.version == "2.0"
        assert loaded.files == plugin.files
        assert store.load_plugin("0" * 64) is None

    def test_results_keyed_by_fingerprint(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put_result("d1", "cfgA", {"outcome": "ok"})
        assert store.get_result("d1", "cfgA") == {"outcome": "ok"}
        assert store.get_result("d1", "cfgB") is None
        assert store.get_result("d2", "cfgA") is None
        assert store.result_count() == 1

    def test_corrupt_result_treated_as_absent(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put_result("d1", "cfg", {"outcome": "ok"})
        path = store._shard_path(store._results_dir, store.result_key("d1", "cfg"))
        with open(path, "w") as handle:
            handle.write("{truncated")
        assert store.get_result("d1", "cfg") is None
        # quarantined: the bad object was removed
        assert not os.path.exists(path)


# ---------------------------------------------------------------------------
# durable queue
# ---------------------------------------------------------------------------


class TestJobQueue:
    def test_lifecycle(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        job, created = queue.submit("digest-a", "cfg", plugin="alpha")
        assert created and job.state == "queued"
        claimed = queue.claim()
        assert claimed.id == job.id and claimed.state == "running"
        assert claimed.attempts == 1
        queue.complete(claimed.id)
        done = queue.get(job.id)
        assert done.state == "done" and done.finished_at is not None
        assert queue.claim() is None

    def test_fifo_order(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        first, _ = queue.submit("d1")
        second, _ = queue.submit("d2")
        assert queue.claim().id == first.id
        assert queue.claim().id == second.id

    def test_bounded_depth_raises(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.sqlite"), max_depth=2)
        queue.submit("d1")
        queue.submit("d2")
        with pytest.raises(QueueFull):
            queue.submit("d3")
        # draining frees capacity
        queue.claim()
        queue.submit("d3")

    def test_duplicate_submission_coalesces(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        job, created = queue.submit("d1", "cfg")
        again, created_again = queue.submit("d1", "cfg")
        assert created and not created_again
        assert again.id == job.id
        assert queue.depth() == 1
        # a different analyzer fingerprint is different work
        _, created_other = queue.submit("d1", "other-cfg")
        assert created_other

    def test_cached_submission_born_done(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        job, created = queue.submit("d1", "cfg", cached=True)
        assert created and job.state == "done" and job.cached
        assert queue.depth() == 0

    def test_persistence_and_recover(self, tmp_path):
        path = str(tmp_path / "q.sqlite")
        queue = JobQueue(path)
        queued, _ = queue.submit("d-queued")
        running, _ = queue.submit("d-running")
        queue.submit("d-done")
        assert queue.claim().digest == "d-queued"
        queue.complete(queued.id)
        claimed = queue.claim()
        assert claimed.digest == "d-running"
        queue.close()  # daemon dies mid-analysis

        reopened = JobQueue(path)
        assert reopened.recover() == 1
        job = reopened.get(claimed.id)
        assert job.state == "queued" and job.started_at is None
        counts = reopened.counts()
        assert counts["queued"] == 2 and counts["done"] == 1
        assert counts["running"] == 0

    def test_recover_quarantines_exhausted_attempts(self, tmp_path):
        path = str(tmp_path / "q.sqlite")
        queue = JobQueue(path, max_attempts=2)
        job, _ = queue.submit("d-bomb")
        for _round in range(2):
            claimed = queue.claim()
            assert claimed.id == job.id
            queue.close()
            queue = JobQueue(path, max_attempts=2)
            queue.recover()
        # two interrupted claims: the third recover fails it for good
        assert queue.get(job.id).state == "failed"
        assert "abandoned" in queue.get(job.id).error

    def test_release_returns_job_to_queue(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        job, _ = queue.submit("d1")
        claimed = queue.claim()
        queue.release(claimed.id)
        back = queue.get(job.id)
        assert back.state == "queued" and back.attempts == 0

    def test_fork_waits_until_no_thread_is_in_a_queue_call(self, tmp_path):
        # a worker forked mid-call would inherit SQLite's mutexes locked
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        forked = threading.Event()

        def fork():
            pid = os.fork()
            if pid == 0:
                os._exit(0)
            os.waitpid(pid, 0)
            forked.set()

        forker = threading.Thread(target=fork, daemon=True)
        with queue._lock:  # this thread is inside a queue call
            forker.start()
            assert not forked.wait(0.2)
        assert forked.wait(10)
        forker.join()
        queue.submit("d1")  # the queue still works in the parent


class BlockedClaimer:
    """A ``claim(stop=...)`` blocked on another thread."""

    def __init__(self, queue):
        self.queue = queue
        self.stop = threading.Event()
        self.claimed = []
        self.thread = threading.Thread(
            target=lambda: self.claimed.append(queue.claim(stop=self.stop)),
            daemon=True,
        )
        self.thread.start()
        deadline = time.monotonic() + 5
        while not queue._queued._waiters:  # parked on the condition
            assert time.monotonic() < deadline, "claimer never blocked"
            time.sleep(0.001)

    def result(self):
        self.thread.join(timeout=5)
        assert not self.thread.is_alive(), "claimer was not woken"
        return self.claimed[0]


class TestBlockingClaim:
    """Each change that queues a row wakes a blocked claimer; nothing
    else does.  The 5 s joins bound a hang, they time nothing."""

    def test_submit_wakes(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        claimer = BlockedClaimer(queue)
        job, _ = queue.submit("d1")
        assert claimer.result().id == job.id

    def test_release_wakes(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        job, _ = queue.submit("d1")
        queue.claim()
        claimer = BlockedClaimer(queue)
        queue.release(job.id)
        assert claimer.result().id == job.id

    def test_stolen_lease_wakes(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        job, _ = queue.submit("d1")
        queue.claim(owner="a", lease_seconds=1)
        claimer = BlockedClaimer(queue)
        expired = queue.expire_leases(now=time.time() + 60)
        assert [outcome for _job, outcome in expired] == ["stolen"]
        assert claimer.result().id == job.id

    def test_recover_wakes(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        job, _ = queue.submit("d1")
        queue.claim()
        claimer = BlockedClaimer(queue)
        assert queue.recover() == 1
        assert claimer.result().id == job.id

    def test_cached_submit_does_not_wake(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        claimer = BlockedClaimer(queue)
        queue.submit("d-cached", cached=True)
        claimer.thread.join(timeout=0.2)
        assert claimer.thread.is_alive()
        job, _ = queue.submit("d-fresh")
        assert claimer.result().id == job.id

    def test_stop_and_wake_return_none(self, tmp_path):
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        claimer = BlockedClaimer(queue)
        claimer.stop.set()
        queue.wake()
        assert claimer.result() is None
        # a stopping claimer leaves queued rows alone
        queue.submit("d1")
        assert queue.claim(stop=claimer.stop) is None
        assert queue.depth() == 1

    def test_spool_stays_durable(self, tmp_path):
        """WAL for cheap commits, but ``synchronous`` stays FULL (2):
        a committed row survives power loss before the 202 goes out."""
        queue = JobQueue(str(tmp_path / "q.sqlite"))
        assert queue._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert queue._conn.execute("PRAGMA synchronous").fetchone()[0] == 2


# ---------------------------------------------------------------------------
# SARIF export
# ---------------------------------------------------------------------------


class TestSarif:
    def report(self, source=VULN):
        return PhpSafe().analyze(Plugin(name="demo", files={"index.php": source}))

    def test_document_shape(self):
        document = to_sarif(self.report())
        assert document["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in document["$schema"]
        (run,) = document["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "phpSAFE"
        assert any(rule["id"] == "phpsafe/xss" for rule in driver["rules"])
        assert run["invocations"][0]["executionSuccessful"] is True

    def test_finding_maps_to_result(self):
        report = self.report()
        (run,) = to_sarif(report)["runs"]
        (result,) = run["results"]
        assert result["ruleId"] == "phpsafe/xss"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "index.php"
        assert location["region"]["startLine"] == report.findings[0].line
        assert result["level"] == "error"
        # the flow trace travels as a codeFlow
        steps = run["results"][0]["codeFlows"][0]["threadFlows"][0]["locations"]
        assert len(steps) == len(report.findings[0].trace)

    def test_round_trip_exactly_once(self):
        reports = [
            PhpSafe().analyze(plugin)
            for plugin in small_plugins()
        ]
        document = to_sarif(reports)
        expected = finding_signatures(reports)
        assert result_signatures(document) == expected
        assert result_count(document) == sum(len(r.findings) for r in reports)

    def test_incidents_become_notifications(self):
        report = self.report()
        report.incidents.append(
            Incident(
                stage=IncidentStage.PARSE,
                severity=IncidentSeverity.WARNING,
                file="index.php",
                reason="resynced",
                recovered=True,
                line=3,
            )
        )
        (run,) = to_sarif(report)["runs"]
        (notification,) = run["invocations"][0]["toolExecutionNotifications"]
        assert notification["level"] == "warning"
        assert notification["descriptor"]["id"] == "phpsafe/incident/parse"
        assert "resynced" in notification["message"]["text"]

    def test_clean_report_has_no_results(self):
        document = to_sarif(self.report(SAFE))
        assert document["runs"][0]["results"] == []

    def test_fingerprint_survives_separator_characters(self):
        from repro.service.sarif import _fingerprint, _split_fingerprint
        from repro.config.vulnerability import VulnKind
        from repro.core.results import Finding

        finding = Finding(
            kind=VulnKind.XSS, file="dir|sub\\file.php", line=7, sink="echo"
        )
        parts = _split_fingerprint(_fingerprint(finding, "p|lug"))
        assert parts == ["p|lug", "xss", "dir|sub\\file.php", "7", "echo"]


# ---------------------------------------------------------------------------
# service integration
# ---------------------------------------------------------------------------


class TestServiceIntegration:
    def make_service(self, tmp_path, **kwargs):
        kwargs.setdefault("jobs", 2)
        kwargs.setdefault("isolation", "thread")
        return AnalysisService(data_dir=str(tmp_path / "svc"), **kwargs)

    def test_concurrent_submissions_match_serial_scan(self, tmp_path):
        plugins = small_plugins()
        service = self.make_service(tmp_path, jobs=3)
        service.start()
        try:
            ids = [submit_plugin(service, plugin)["id"] for plugin in plugins]
            states = wait_done(service, ids)
            assert states == ["done"] * len(plugins)
            sarif_signatures = set()
            for job_id in ids:
                code, document = service.sarif(job_id)
                assert code == 200
                sarif_signatures |= result_signatures(document)
            serial = [PhpSafe().analyze(plugin) for plugin in plugins]
            assert sarif_signatures == finding_signatures(serial)
        finally:
            service.shutdown()

    def test_resubmission_is_served_from_store(self, tmp_path):
        plugin = small_plugins()[0]
        service = self.make_service(tmp_path, jobs=1)
        service.start()
        try:
            first = submit_plugin(service, plugin)
            wait_done(service, [first["id"]])
            code, body = service.submit(
                {"name": plugin.name, "files": dict(plugin.files)}
            )
            assert code == 200 and body["cached"] is True
            assert body["state"] == "done"
            assert service.stats.deduped == 1
            # renaming the same bytes still hits the store
            code, body = service.submit({"name": "other", "files": dict(plugin.files)})
            assert code == 200 and body["cached"] is True
        finally:
            service.shutdown()

    def test_overload_returns_429(self, tmp_path):
        service = self.make_service(tmp_path, jobs=1, max_queue_depth=2)
        # pool deliberately not started: jobs pile up in the queue
        plugins = small_plugins()
        assert submit_plugin(service, plugins[0])["state"] == "queued"
        assert submit_plugin(service, plugins[1])["state"] == "queued"
        code, body = service.submit(
            {"name": plugins[2].name, "files": dict(plugins[2].files)}
        )
        assert code == 429 and "capacity" in body["error"]
        assert service.stats.rejected == 1
        # resubmitting an already-queued digest coalesces, not rejects
        code, body = service.submit(
            {"name": plugins[0].name, "files": dict(plugins[0].files)}
        )
        assert code == 202 and body["coalesced"] is True

    def test_idle_pool_stops_promptly(self, tmp_path):
        service = self.make_service(tmp_path, jobs=2)
        service.start()
        deadline = time.monotonic() + 5
        # both dispatchers parked in the blocking claim
        while len(service.queue._queued._waiters) < 2:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        assert service.pool.stop(timeout=5) is True
        assert not service.pool.running
        service.close()

    def test_shutdown_drains_without_losing_jobs(self, tmp_path):
        plugins = small_plugins() * 3  # 12 submissions, mostly coalesced
        service = self.make_service(tmp_path, jobs=1)
        ids = [submit_plugin(service, plugin)["id"] for plugin in plugins]
        service.start()
        assert service.shutdown(timeout=30)
        states = {service.job_status(job_id)[1]["state"] for job_id in ids}
        # drained: nothing is mid-flight, nothing disappeared
        assert states <= {"done", "queued"}
        counts = service.queue.counts()
        assert counts["running"] == 0
        assert counts["done"] + counts["queued"] == len(set(ids))

    def test_restart_resumes_interrupted_work(self, tmp_path):
        plugins = small_plugins()[:2]
        first = self.make_service(tmp_path, jobs=1)
        ids = [submit_plugin(first, plugin)["id"] for plugin in plugins]
        # simulate a daemon crash mid-analysis: one job claimed, never
        # finished, process gone
        claimed = first.queue.claim()
        assert claimed.state == "running"
        first.close()

        second = AnalysisService(
            data_dir=str(tmp_path / "svc"), jobs=2, isolation="thread"
        )
        assert second.requeued == 1
        second.start()
        try:
            states = wait_done(second, ids)
            assert states == ["done", "done"]
        finally:
            second.shutdown()

    def test_worker_crash_fails_job_and_pool_survives(self, tmp_path):
        spec = ToolSpec(name="tests.test_service:CrashOnBomb")
        service = AnalysisService(
            data_dir=str(tmp_path / "svc"),
            spec=spec,
            jobs=1,
            isolation="process",
        )
        service.start()
        try:
            bomb = submit_plugin(
                service, Plugin(name="bomb", files={"index.php": "<?php 1;"})
            )
            innocent = submit_plugin(
                service, Plugin(name="ok", files={"index.php": "<?php 2;"})
            )
            states = wait_done(service, [bomb["id"], innocent["id"]], timeout=60)
            assert states == ["failed", "done"]
            code, status = service.job_status(bomb["id"])
            assert status["result"]["outcome"] == "crashed"
            incidents = status["result"]["report"]["incidents"]
            assert any(i["severity"] == "fatal" for i in incidents)
            assert service.pool.telemetry.worker_restarts == 1
        finally:
            service.shutdown()

    def test_executor_error_fails_job_and_dispatcher_keeps_serving(
        self, tmp_path
    ):
        spec = ToolSpec(name="tests.test_service:LockOnBomb")
        service = self.make_service(tmp_path, spec=spec, jobs=1, isolation="process")
        service.start()
        try:
            bomb = submit_plugin(
                service, Plugin(name="bomb", files={"index.php": "<?php 1;"})
            )
            innocent = submit_plugin(
                service, Plugin(name="ok", files={"index.php": "<?php 2;"})
            )
            states = wait_done(service, [bomb["id"], innocent["id"]], timeout=60)
            assert states == ["failed", "done"]
            code, status = service.job_status(bomb["id"])
            assert status["result"]["outcome"] == "crashed"
            (failure,) = status["result"]["report"]["failures"]
            assert failure["reason"].startswith("scheduler error: ")
            incidents = status["result"]["report"]["incidents"]
            assert any(i["severity"] == "fatal" for i in incidents)
            # the worker process survived: no restart was needed
            assert service.pool.telemetry.worker_restarts == 0
        finally:
            service.shutdown()

    def test_thread_failure_report_names_the_tool_like_a_good_job(
        self, tmp_path, monkeypatch
    ):
        rescan = PhpSafe.rescan

        def explode_on_bomb(tool, plugin, manifest=None):
            if plugin.name == "bomb":
                raise RuntimeError("analysis blew up")
            return rescan(tool, plugin, manifest)

        monkeypatch.setattr(PhpSafe, "rescan", explode_on_bomb)
        service = self.make_service(tmp_path, jobs=1)
        service.start()
        try:
            bomb = submit_plugin(
                service, Plugin(name="bomb", files={"index.php": "<?php 1;"})
            )
            good = submit_plugin(service, small_plugins()[0])
            states = wait_done(service, [bomb["id"], good["id"]])
            assert states == ["failed", "done"]
            drivers = []
            for job in (bomb, good):
                code, document = service.sarif(job["id"])
                assert code == 200
                (run,) = document["runs"]
                drivers.append(run["tool"]["driver"]["name"])
            assert drivers == ["phpSAFE", "phpSAFE"]
        finally:
            service.shutdown()

    def test_metrics_schema_v6(self, tmp_path):
        plugin = small_plugins()[0]
        service = self.make_service(tmp_path, jobs=1)
        service.start()
        try:
            job = submit_plugin(service, plugin)
            wait_done(service, [job["id"]])
            code, document = service.metrics()
            assert code == 200
            assert document["schema"] == SCHEMA == "repro.batch.telemetry/v8"
            assert document["service"]["completed"] == 1
            assert document["service"]["accepted"] == 1
            assert document["queue"]["done"] == 1
            assert document["service"]["waits_recorded"] == 1
            assert "plugins" not in document
        finally:
            service.shutdown()


    def test_metrics_size_independent_of_jobs_served(self, tmp_path):
        plugins = [
            Plugin(name=f"p{i}", files={"index.php": f"<?php echo $_GET['q{i}'];"})
            for i in range(20)
        ]
        service = self.make_service(tmp_path, jobs=1)
        service.start()
        try:
            ids = [submit_plugin(service, plugins[0])["id"]]
            wait_done(service, ids)
            one = len(json.dumps(service.metrics()[1]))
            ids += [submit_plugin(service, plugin)["id"] for plugin in plugins[1:]]
            assert set(wait_done(service, ids)) == {"done"}
            twenty = len(json.dumps(service.metrics()[1]))
        finally:
            service.shutdown()
        # counters gain a digit here and there; a row per job would add
        # about 0.9 KB for each of the 19 extra jobs
        assert abs(twenty - one) < 256, (one, twenty)


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------


@pytest.fixture()
def http_service(tmp_path):
    service = AnalysisService(
        data_dir=str(tmp_path / "svc"), jobs=2, isolation="thread"
    )
    server = BackgroundServer(service)
    host, port = server.start()

    def request(method, path, body=None):
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request(method, path, body=json.dumps(body) if body is not None else None)
        response = conn.getresponse()
        document = json.loads(response.read().decode("utf-8"))
        conn.close()
        return response.status, document

    yield request
    server.stop()


class TestHttpServer:
    def test_healthz(self, http_service):
        code, body = http_service("GET", "/healthz")
        assert code == 200 and body["status"] == "ok" and body["accepting"]

    def test_submit_poll_sarif(self, http_service):
        code, body = http_service(
            "POST", "/v1/scans", {"name": "alpha", "files": {"index.php": VULN}}
        )
        assert code == 202
        job_id = body["id"]
        deadline = time.time() + 30
        while time.time() < deadline:
            code, status = http_service("GET", f"/v1/scans/{job_id}")
            if status["state"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert status["state"] == "done"
        assert len(status["result"]["report"]["findings"]) == 1
        code, sarif = http_service("GET", f"/v1/scans/{job_id}/sarif")
        assert code == 200 and sarif["version"] == "2.1.0"
        assert result_count(sarif) == 1

    def test_error_statuses(self, http_service):
        assert http_service("GET", "/v1/scans/unknown")[0] == 404
        assert http_service("GET", "/nowhere")[0] == 404
        assert http_service("POST", "/v1/scans", {"files": {}})[0] == 400
        assert http_service("POST", "/healthz", {})[0] == 405
        code, body = http_service(
            "POST", "/v1/scans", {"path": "/does/not/exist"}
        )
        assert code == 400

    def test_sarif_before_completion_conflicts(self, http_service, tmp_path):
        # pool is running, so race a fresh submission: claim may happen
        # fast — accept either 409 (still pending) or 200 (finished)
        code, body = http_service(
            "POST", "/v1/scans", {"name": "g", "files": {"i.php": VULN + " ?>x"}}
        )
        job_id = body["id"]
        code, _document = http_service("GET", f"/v1/scans/{job_id}/sarif")
        assert code in (200, 409)

    def test_metrics_over_http(self, http_service):
        code, document = http_service("GET", "/metrics")
        assert code == 200
        assert document["schema"] == "repro.batch.telemetry/v8"
        assert "service" in document and "queue" in document


# ---------------------------------------------------------------------------
# scoped perf counters
# ---------------------------------------------------------------------------


class TestScopedPerf:
    def test_scoped_delta_isolated_per_thread(self):
        from repro.perf import scoped

        deltas = {}

        def work(name, file_count):
            plugin = Plugin(
                name=name,
                files={
                    f"f{i}.php": f"<?php ${name}{i} = {i}; echo {i};"
                    for i in range(file_count)
                },
            )
            with scoped() as scope:
                PhpSafe().analyze(plugin)
            deltas[name] = scope.delta

        threads = [
            threading.Thread(target=work, args=("a", 5)),
            threading.Thread(target=work, args=("b", 2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # each scope saw exactly its own thread's work, not the union
        assert deltas["a"]["files_parsed"] == 5
        assert deltas["b"]["files_parsed"] == 2

    def test_scope_report_merges_rates(self):
        from repro.perf import scoped

        with scoped() as scope:
            PhpSafe().analyze(Plugin(name="p", files={"i.php": VULN}))
        merged = scope.report()
        assert merged["files_parsed"] == 1
        assert "tokens_per_second" in merged

    def test_telemetry_service_section_optional(self):
        telemetry = ScanTelemetry(jobs=1)
        assert "service" not in telemetry.to_dict()
        telemetry.service = ServiceStats(completed=3, uptime_seconds=60.0)
        document = telemetry.to_dict()
        assert document["service"]["jobs_per_minute"] == 3.0
