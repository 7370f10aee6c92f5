"""End-to-end telemetry tests of the serve daemon: Prometheus text over
HTTP (parser-validated), the ring-buffer time-series at /v1/telemetry,
worker heartbeats in /healthz, the SLO watchdog flipping health to
degraded under an injected stall, and a job lifecycle reconstructed from
the JSON log stream by job_id alone."""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.core import SierraOptions
from repro.obs import log as obs_log
from repro.serve import DONE, FAILED, ServeClient, ServeDaemon

from tests.obs.test_telemetry import _check_histogram, parse_exposition


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-telemetry")
    cache = root / "cache"
    cache.mkdir()
    with ServeDaemon(
        str(root / "runs.sqlite"),
        options=SierraOptions(cache_dir=str(cache)),
        workers=2,
        port=0,
        sample_interval_s=0.05,
    ) as running:
        yield running


@pytest.fixture(scope="module")
def client(daemon):
    return ServeClient(daemon.url)


def _wait_until(predicate, timeout_s=15.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    return predicate()


# ----------------------------------------------------------------------
# /metrics content negotiation
# ----------------------------------------------------------------------
@pytest.mark.serve_smoke
def test_metrics_text_negotiation_is_valid_exposition(client):
    client.wait(str(client.submit("quickstart")["job_id"]), timeout_s=90)

    text = client.metrics_text()
    families = parse_exposition(text)  # strict line-level validation
    assert families["serve_requests_total"]["type"] == "counter"
    assert families["serve_jobs_completed"]["samples"][0][2] >= 1
    assert families["serve_queue_depth"]["type"] == "gauge"
    _check_histogram(families["serve_job_seconds"], "serve_job_seconds")
    _check_histogram(
        families["serve_request_seconds_healthz"], "serve_request_seconds_healthz"
    )

    # ?format=prometheus negotiates the same body without the header
    assert parse_exposition(client._get_text("/metrics?format=prometheus"))

    # the JSON scrape still answers by default, labeled with identity
    scraped = client.metrics()
    assert "serve.requests_total" in scraped
    assert isinstance(scraped["pid"], int)
    assert scraped["uptime_seconds"] > 0
    assert "scrape_monotonic" in scraped


# ----------------------------------------------------------------------
# /v1/telemetry
# ----------------------------------------------------------------------
@pytest.mark.serve_smoke
def test_telemetry_endpoint_streams_live_samples(client):
    def three_samples():
        payload = client.telemetry()
        return payload if len(payload["samples"]) >= 3 else None

    payload = _wait_until(three_samples)
    assert payload["interval_s"] == 0.05
    assert payload["slo"]["status"] in ("ok", "degraded")
    assert {o["name"] for o in payload["objectives"]} == {
        "p99_job_latency", "queue_wait", "failure_ratio", "worker_stall",
    }
    samples = payload["samples"]
    assert samples == sorted(samples, key=lambda s: s["monotonic"])
    latest = samples[-1]
    for key in ("queue_depth", "jobs_running", "workers_busy", "workers_idle",
                "uptime_seconds", "ts_utc"):
        assert key in latest
    # percentile gaps are None, never a fake 0.0 (empty-histogram NaN)
    assert all(s["request_p99_s"] is None or s["request_p99_s"] > 0
               for s in samples)

    limited = client.telemetry(limit=2)
    assert len(limited["samples"]) <= 2


# ----------------------------------------------------------------------
# /healthz worker heartbeats
# ----------------------------------------------------------------------
@pytest.mark.serve_smoke
def test_healthz_reports_per_worker_heartbeats(client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["workers"] == 2  # back-compat count
    workers = health["worker_status"]
    assert [w["worker"] for w in workers] == ["worker-0", "worker-1"]
    for worker in workers:
        assert worker["heartbeat_age_s"] >= 0
        assert "busy" in worker and "job_id" in worker
        assert worker["jobs_finished"] >= 0
    assert "queue_wait_s" in health
    assert health["uptime_seconds"] > 0
    assert isinstance(health["pid"], int)


# ----------------------------------------------------------------------
# the SLO watchdog under an injected stall
# ----------------------------------------------------------------------
@pytest.mark.serve_smoke
def test_injected_stall_degrades_healthz_and_records_alerts(tmp_path):
    # a dedicated daemon: tiny job budget so the hang resolves fast, and
    # a worker_stall SLO tight enough to fire inside it
    with ServeDaemon(
        str(tmp_path / "stall.sqlite"),
        workers=1,
        port=0,
        job_timeout_s=2.0,
        sample_interval_s=0.05,
        slo={
            "worker_stall": 0.3,
            "worker_stall.window_s": 0.6,
            "worker_stall.min_samples": 2,
            # the failed hang job lands ~2.3s in the cumulative job
            # histogram; keep the latency SLO out of this test's way or
            # health would stay degraded long after the stall resolves
            "p99_job_latency": 600.0,
        },
    ) as daemon:
        client = ServeClient(daemon.url)
        job = client.submit("quickstart", {"inject_hang": True})

        degraded = _wait_until(
            lambda: (h := client.health())["status"] == "degraded" and h
        )
        assert degraded, "healthz never flipped degraded under the stall"
        (violation,) = [
            v for v in degraded["violations"] if v["objective"] == "worker_stall"
        ]
        assert violation["metric"] == "max_heartbeat_age_s"
        assert violation["value"] > violation["threshold"] == 0.3
        assert violation["since_utc"]
        # the stalled worker is visible by name, frozen on its job
        (worker,) = degraded["worker_status"]
        assert worker["busy"] and worker["job_id"] == job["job_id"]
        assert worker["heartbeat_age_s"] > 0.3

        # the hang is killed at the 2s job budget and the job fails...
        final = client.wait(str(job["job_id"]), timeout_s=30)
        assert final["status"] == FAILED

        # ...after which the objective resolves and health recovers
        recovered = _wait_until(lambda: client.health()["status"] == "ok")
        assert recovered, "healthz never recovered after the stall ended"

        # the transitions are durable ledger rows, diffable later
        alerts = _wait_until(
            lambda: (a := daemon.ledger.alerts())
            and [r["state"] for r in a] == ["firing", "resolved"]
            and a
        )
        assert alerts, f"expected firing+resolved rows, got {daemon.ledger.alerts()}"
        assert all(r["objective"] == "worker_stall" for r in alerts)
        assert alerts[0]["value"] > alerts[0]["threshold"] == 0.3
        assert alerts[0]["detail"]["metric"] == "max_heartbeat_age_s"


# ----------------------------------------------------------------------
# the JSON log stream: one job's lifecycle by job_id alone
# ----------------------------------------------------------------------
@pytest.mark.serve_smoke
def test_job_lifecycle_reconstructable_from_log_stream(daemon, client):
    stream = io.StringIO()
    obs_log.configure(level="info", json_mode=True, stream=stream)
    try:
        job = client.submit("newsreader")
        final = client.wait(str(job["job_id"]), timeout_s=90)
        assert final["status"] == DONE
        # the worker thread logs job.done after store.finish; give the
        # line a beat to land in the stream
        _wait_until(lambda: "job.done" in stream.getvalue(), timeout_s=10)
    finally:
        obs_log.unconfigure()

    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    mine = [r for r in records if r.get("job_id") == job["job_id"]]
    lifecycle = [r["event"] for r in mine]
    assert lifecycle.index("job.submitted") < lifecycle.index("job.claimed")
    assert lifecycle.index("job.claimed") < lifecycle.index("job.done")
    by_event = {r["event"]: r for r in mine}
    assert by_event["job.submitted"]["app"] == "newsreader"
    assert by_event["job.claimed"]["worker"].startswith("worker-")
    assert by_event["job.done"]["run_id"]
    assert by_event["job.done"]["elapsed_s"] > 0
    # every line in the stream is JSON with pid + ts (machine-parseable)
    assert all("pid" in r and "ts" in r for r in records)


@pytest.mark.serve_smoke
def test_failed_job_logs_warning_with_error(daemon, client):
    stream = io.StringIO()
    obs_log.configure(level="info", json_mode=True, stream=stream)
    try:
        job = client.submit("quickstart", {"inject_fail": True})
        final = client.wait(str(job["job_id"]), timeout_s=60)
        assert final["status"] == FAILED
        _wait_until(lambda: "job.failed" in stream.getvalue(), timeout_s=10)
    finally:
        obs_log.unconfigure()
    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    (failed,) = [
        r for r in records
        if r.get("event") == "job.failed" and r.get("job_id") == job["job_id"]
    ]
    assert failed["level"] == "WARNING"
    assert failed["error_type"]
