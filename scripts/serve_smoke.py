#!/usr/bin/env python
"""End-to-end smoke test for the ``phpsafe serve`` daemon.

Exercises the full out-of-process path CI cares about:

1. start ``python -m repro serve`` as a subprocess,
2. wait for ``/healthz``,
3. submit a generated-corpus plugin over HTTP and poll it to ``done``,
4. fetch the SARIF report and validate its 2.1.0 shape,
5. load the queue with more submissions, SIGTERM the daemon mid-run,
   and prove the graceful sequence lost zero accepted jobs (every row
   in the sqlite spool is ``done`` or ``queued``, never ``running``)
   and left both the spool and the workers' ``cache/objects.sqlite``
   artifact store passing ``PRAGMA integrity_check``.

Stdlib only; run from the repo root::

    python scripts/serve_smoke.py
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.corpus.generator import build_corpus  # noqa: E402

BASE_TIMEOUT = 120.0


def api(base, path, payload=None, method=None):
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def wait_health(base, deadline):
    while time.time() < deadline:
        try:
            status, body = api(base, "/healthz")
            if status == 200 and body.get("status") == "ok":
                return
        except (urllib.error.URLError, ConnectionError, OSError):
            pass
        time.sleep(0.2)
    raise SystemExit("daemon never became healthy")


def wait_done(base, job_id, deadline):
    while time.time() < deadline:
        status, body = api(base, f"/v1/scans/{job_id}")
        check(status == 200, f"status poll returned {status}")
        if body["state"] in ("done", "failed"):
            return body
        time.sleep(0.2)
    raise SystemExit(f"job {job_id} never finished")


def check(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"  ok: {message}")


def validate_sarif(document):
    check(document.get("version") == "2.1.0", "SARIF version is 2.1.0")
    check("sarif-schema-2.1.0" in document.get("$schema", ""), "schema URI present")
    runs = document.get("runs")
    check(isinstance(runs, list) and len(runs) == 1, "exactly one run")
    driver = runs[0]["tool"]["driver"]
    check(driver.get("name"), "driver has a name")
    rule_ids = {rule["id"] for rule in driver.get("rules", [])}
    results = runs[0].get("results", [])
    check(isinstance(results, list), "results is a list")
    for result in results:
        check(result["ruleId"] in rule_ids, f"result rule {result['ruleId']} declared")
        location = result["locations"][0]["physicalLocation"]
        check(location["artifactLocation"]["uri"], "result has a file")
        check(location["region"]["startLine"] >= 1, "result has a line")
        check(
            "phpsafe/findingSignature/v1" in result.get("partialFingerprints", {}),
            "result carries the canonical fingerprint",
        )
    return len(results)


def payload_for(plugin):
    return {
        "name": plugin.name,
        "version": plugin.version,
        "files": dict(plugin.files),
    }


def main():
    corpus = build_corpus("2014", scale=0.05)
    plugins = corpus.plugins
    print(f"corpus: {len(plugins)} plugins at scale 0.05")

    data_dir = tempfile.mkdtemp(prefix="phpsafe-smoke-")
    port = int(os.environ.get("SMOKE_PORT", "8797"))
    base = f"http://127.0.0.1:{port}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            str(port),
            "--data-dir",
            data_dir,
            "--jobs",
            "2",
        ],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        deadline = time.time() + BASE_TIMEOUT
        wait_health(base, deadline)
        print("daemon healthy, submitting a corpus plugin")

        status, body = api(base, "/v1/scans", payload_for(plugins[0]))
        check(status == 202, f"submission accepted (got {status})")
        job = wait_done(base, body["id"], deadline)
        check(job["state"] == "done", f"scan finished done (got {job['state']})")

        status, sarif = api(base, f"/v1/scans/{job['id']}/sarif")
        check(status == 200, "SARIF endpoint returns 200")
        results = validate_sarif(sarif)
        print(f"  SARIF validated: {results} result(s)")

        status, metrics = api(base, "/metrics")
        check(status == 200, "metrics endpoint returns 200")
        check(
            metrics.get("schema") == "repro.batch.telemetry/v8",
            "metrics on telemetry schema v8",
        )
        check("service" in metrics and "queue" in metrics, "service + queue sections")

        # load the queue, then SIGTERM mid-run: graceful drain must not
        # lose a single accepted job
        accepted = 1  # the first submission above
        for plugin in plugins[1:]:
            status, body = api(base, "/v1/scans", payload_for(plugin))
            check(status in (200, 202), f"busy submission accepted ({plugin.name})")
            if status == 202 and not body.get("coalesced"):
                accepted += 1
        print(f"{accepted} accepted jobs in flight; sending SIGTERM")
        daemon.send_signal(signal.SIGTERM)
        output, _ = daemon.communicate(timeout=BASE_TIMEOUT)
        check(daemon.returncode == 0, f"daemon exited 0 (got {daemon.returncode})")
        check("service stopped" in output, "daemon announced graceful stop")

        conn = sqlite3.connect(os.path.join(data_dir, "jobs.sqlite"))
        integrity = conn.execute("PRAGMA integrity_check").fetchone()[0]
        rows = dict(
            conn.execute("SELECT state, COUNT(*) FROM jobs GROUP BY state").fetchall()
        )
        conn.close()
        check(integrity == "ok", f"spool integrity_check ok (got {integrity!r})")
        total = sum(rows.values())
        check(rows.get("running", 0) == 0, "no job stranded in running")
        check(rows.get("failed", 0) == 0, f"no job failed ({rows})")
        check(
            total >= accepted,
            f"all {accepted} accepted jobs persisted (spool has {total})",
        )
        print(f"queue after SIGTERM: {rows}")

        # the workers' shared artifact store must survive the SIGTERM too
        conn = sqlite3.connect(os.path.join(data_dir, "cache", "objects.sqlite"))
        integrity = conn.execute("PRAGMA integrity_check").fetchone()[0]
        objects = conn.execute("SELECT COUNT(*) FROM objects").fetchone()[0]
        conn.close()
        check(integrity == "ok", f"cache integrity_check ok (got {integrity!r})")
        check(objects > 0, f"cache persisted artifacts ({objects} rows)")
        print("PASS: serve smoke complete")
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)


if __name__ == "__main__":
    sys.exit(main())
