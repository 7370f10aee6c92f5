"""``repro serve``: the analysis-as-a-service HTTP daemon.

Stdlib only — a :class:`http.server.ThreadingHTTPServer` front end over
the job store and worker pool, with the run-history ledger as the one
durable backing file. Layering follows the routes / engine / metrics
split: this module is *routes only* — request parsing, status codes,
JSON shaping; the engine is the worker pool calling the detector as a
library; metrics live in the :mod:`repro.obs.metrics` registry.

Endpoints (all JSON unless noted):

======================  ====================================================
``POST /v1/jobs``       submit ``{"app": ..., "options": {...}}`` → 202 + job
``GET /v1/jobs``        recent jobs (``?status=queued|running|done|failed``)
``GET /v1/jobs/<id>``   one job (poll this until ``status`` is terminal)
``GET /v1/runs/<ref>/report``  the race report of one ledger run
``GET /v1/diff/<a>/<b>``       differential analysis between two runs
``GET /v1/telemetry``   the ring-buffer samples + SLO verdict (``?limit=N``)
``GET /metrics``        registry scrape — JSON by default, Prometheus text
                        0.0.4 under ``Accept: text/plain`` or
                        ``?format=prometheus``
``GET /healthz``        liveness: SLO status, queue depths, per-worker
                        heartbeat age + claimed job
======================  ====================================================

Error mapping: unknown app or bad options → 400, unknown job/run → 404,
malformed ledger → 500 — a corrupt backing store must be loud, never an
empty 200.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlparse

from repro.core import SierraOptions
from repro.corpus.scheduler import fork_context
from repro.obs import log as obs_log
from repro.obs import metrics, telemetry
from repro.obs.history import LedgerError, RunLedger
from repro.obs.telemetry import SloWatchdog, TelemetrySampler
from repro.serve.jobs import DONE, FAILED, QUEUED, RUNNING, JobStore
from repro.serve.workers import LATENCY_BUCKETS, WorkerPool, merge_job_options

_log = obs_log.get_logger("serve.http")

#: default bind — loopback; a deployment fronting real traffic puts a
#: reverse proxy here, the daemon itself does no TLS or auth
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8787

#: client-side default resolution (``repro submit`` et al.)
SERVE_URL_ENV = "REPRO_SERVE_URL"


class _Handler(BaseHTTPRequestHandler):
    """One request. ``self.server`` is the :class:`_Server` (daemon ref)."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    @property
    def daemon(self) -> "ServeDaemon":
        return self.server.daemon  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:
        pass  # the structured log in _timed() is the access log

    def _send_json(self, code: int, payload: Dict[str, object]) -> None:
        self._send_bytes(
            code,
            json.dumps(payload, indent=2, sort_keys=True).encode("utf-8"),
            "application/json",
        )

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        self._send_bytes(code, text.encode("utf-8"), content_type)

    def _send_bytes(self, code: int, body: bytes, content_type: str) -> None:
        self._last_status = code
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self.daemon._m_errors.inc()
        self._send_json(code, {"error": message})

    def _read_body(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        payload = json.loads(raw.decode("utf-8") or "{}")
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # -- dispatch ------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        self._timed(self._route_get)

    def do_POST(self) -> None:  # noqa: N802
        self._timed(self._route_post)

    #: route → the per-endpoint latency histogram's label (bounded set:
    #: histograms are pre-created at daemon init, never per request)
    _ENDPOINTS = (
        "healthz", "metrics", "telemetry", "jobs", "job", "submit",
        "report", "diff", "other",
    )

    def _classify(self, method: str, parts) -> str:
        if parts == ["healthz"]:
            return "healthz"
        if parts == ["metrics"]:
            return "metrics"
        if parts == ["v1", "telemetry"]:
            return "telemetry"
        if parts == ["v1", "jobs"]:
            return "submit" if method == "POST" else "jobs"
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            return "job"
        if len(parts) == 4 and parts[:2] == ["v1", "runs"]:
            return "report"
        if len(parts) == 4 and parts[:2] == ["v1", "diff"]:
            return "diff"
        return "other"

    def _timed(self, route) -> None:
        self.daemon._m_requests.inc()
        self._last_status: Optional[int] = None
        parts = [unquote(p) for p in urlparse(self.path).path.split("/") if p]
        endpoint = self._classify(self.command, parts)
        t0 = time.perf_counter()
        try:
            route()
        except BrokenPipeError:
            pass  # client hung up mid-response; nothing to answer
        except LedgerError as exc:
            self._error(500, f"ledger: {exc}")
        except Exception as exc:  # noqa: BLE001 — one request, not the daemon
            self._error(500, f"{type(exc).__name__}: {exc}")
        finally:
            elapsed = time.perf_counter() - t0
            self.daemon._m_request_seconds.observe(elapsed)
            per_endpoint = self.daemon._m_endpoint_seconds.get(endpoint)
            if per_endpoint is not None:
                per_endpoint.observe(elapsed)
            status = self._last_status
            obs_log.event(
                _log,
                "http.request",
                level=(
                    logging.WARNING
                    if status is not None and status >= 500
                    else logging.DEBUG
                ),
                method=self.command,
                path=self.path,
                endpoint=endpoint,
                status=status,
                seconds=round(elapsed, 4),
            )

    def _wants_prometheus(self, url) -> bool:
        """Content negotiation for ``/metrics``: an explicit
        ``?format=prometheus|text`` wins; otherwise an ``Accept`` header
        asking for ``text/plain`` (what Prometheus sends) gets the text
        exposition, everything else keeps the JSON scrape."""
        fmt = (parse_qs(url.query).get("format") or [None])[0]
        if fmt is not None:
            return fmt in ("prometheus", "text")
        accept = self.headers.get("Accept") or ""
        return "text/plain" in accept or "openmetrics" in accept

    def _route_get(self) -> None:
        url = urlparse(self.path)
        parts = [unquote(p) for p in url.path.split("/") if p]
        if parts == ["healthz"]:
            return self._get_health()
        if parts == ["metrics"]:
            self.daemon.refresh_gauges()
            if self._wants_prometheus(url):
                return self._send_text(
                    200,
                    telemetry.render_prometheus(),
                    telemetry.PROMETHEUS_CONTENT_TYPE,
                )
            return self._send_json(
                200,
                telemetry.labeled_scrape(
                    started_monotonic=self.daemon.started_monotonic
                ),
            )
        if parts == ["v1", "telemetry"]:
            return self._get_telemetry(url)
        if parts == ["v1", "jobs"]:
            status = (parse_qs(url.query).get("status") or [None])[0]
            if status is not None and status not in (QUEUED, RUNNING, DONE, FAILED):
                return self._error(400, f"unknown status filter {status!r}")
            jobs = self.daemon.store.jobs(status=status)
            return self._send_json(200, {"jobs": [j.to_dict() for j in jobs]})
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            job = self.daemon.store.get(parts[2])
            if job is None:
                return self._error(404, f"unknown job {parts[2]!r}")
            return self._send_json(200, job.to_dict())
        if len(parts) == 4 and parts[:2] == ["v1", "runs"] and parts[3] == "report":
            return self._get_report(parts[2])
        if len(parts) == 4 and parts[:2] == ["v1", "diff"]:
            return self._get_diff(parts[2], parts[3])
        return self._error(404, f"no route for GET {url.path}")

    def _route_post(self) -> None:
        parts = [unquote(p) for p in urlparse(self.path).path.split("/") if p]
        if parts == ["v1", "jobs"]:
            return self._post_job()
        return self._error(404, f"no route for POST {self.path}")

    # -- handlers ------------------------------------------------------
    def _get_health(self) -> None:
        slo = self.daemon.watchdog.status()
        self._send_json(
            200,
            {
                "status": slo["status"],
                "violations": slo["violations"],
                "workers": self.daemon.pool.workers,
                "worker_status": self.daemon.pool.worker_status(),
                "jobs": self.daemon.store.counts(),
                "queue_wait_s": self.daemon.store.oldest_queued_age_s(),
                "history": self.daemon.history,
                "uptime_seconds": round(
                    telemetry.process_uptime_s(self.daemon.started_monotonic), 3
                ),
                "pid": os.getpid(),
            },
        )

    def _get_telemetry(self, url) -> None:
        query = parse_qs(url.query)
        limit: Optional[int] = None
        if "limit" in query:
            try:
                limit = int(query["limit"][0])
            except ValueError:
                return self._error(400, f"bad limit {query['limit'][0]!r}")
        self._send_json(200, self.daemon.telemetry_payload(limit=limit))

    def _post_job(self) -> None:
        from repro.cli import is_known_app

        try:
            body = self._read_body()
        except (ValueError, UnicodeDecodeError) as exc:
            return self._error(400, f"bad request body: {exc}")
        app = body.get("app")
        options = body.get("options") or {}
        if not isinstance(app, str) or not app:
            return self._error(400, "missing required field 'app'")
        if not isinstance(options, dict):
            return self._error(400, "'options' must be a JSON object")
        if not is_known_app(app):
            return self._error(400, f"unknown app {app!r}")
        try:
            # validate the overrides up front: a bad submission must fail
            # the submitter, not the worker that claims it later
            merge_job_options(self.daemon.pool.options, options)
        except (ValueError, TypeError) as exc:
            return self._error(400, str(exc))
        job = self.daemon.store.submit(app, options)
        self.daemon.pool.kick()
        self.daemon._m_submitted.inc()
        obs_log.event(
            _log, "job.submitted", job_id=job.job_id, app=app,
            options=sorted(options) or None,
        )
        payload = job.to_dict()
        payload["poll"] = f"/v1/jobs/{job.job_id}"
        self._send_json(202, payload)

    def _get_report(self, ref: str) -> None:
        ledger = self.daemon.ledger
        try:
            run = ledger.resolve(ref)
        except LedgerError as exc:
            return self._error(404, str(exc))
        run_id = str(run["run_id"])
        self._send_json(
            200,
            {
                "run_id": run_id,
                "kind": run["kind"],
                "ts_utc": run["ts_utc"],
                "options": run["options"],
                "meta": run["meta"],
                "apps": ledger.app_runs(run_id),
                "races": ledger.races(run_id, with_reports=True),
            },
        )

    def _get_diff(self, ref_a: str, ref_b: str) -> None:
        from repro.obs.diffing import diff_runs

        try:
            diff = diff_runs(self.daemon.ledger, ref_a, ref_b)
        except LedgerError as exc:
            return self._error(404, str(exc))
        self._send_json(200, diff.to_dict())


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], daemon: "ServeDaemon") -> None:
        super().__init__(address, _Handler)
        self.daemon = daemon


class ServeDaemon:
    """The assembled service: job store + worker pool + HTTP front end.

    >>> daemon = ServeDaemon("runs.sqlite", workers=4)
    >>> daemon.start()          # binds, recovers orphaned jobs, spawns pool
    >>> daemon.url
    'http://127.0.0.1:8787'
    >>> daemon.stop()

    ``port=0`` binds an ephemeral port (tests, embedded load generators);
    read the real one back from :attr:`url`.
    """

    def __init__(
        self,
        history: str,
        options: Optional[SierraOptions] = None,
        workers: int = 2,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        job_timeout_s: float = 120.0,
        sample_interval_s: float = 1.0,
        sample_capacity: int = 600,
        slo: Optional[Dict[str, float]] = None,
    ) -> None:
        # every refusal comes before the store and the ledger open: a
        # refused daemon leaves no file and no connection behind
        fork_context()  # a platform without fork cannot run a job
        # telemetry: one thread samples into the ring buffer, then
        # evaluates the SLO watchdog over it
        self.sampler = TelemetrySampler(
            self._sample, interval_s=sample_interval_s, capacity=sample_capacity
        )
        self.watchdog = SloWatchdog(
            self.sampler,
            objectives=telemetry.objectives_with_overrides(job_timeout_s, slo),
            on_alert=self._on_alert,
        )
        self.sampler.on_sample = self.watchdog.evaluate_once
        if workers < 1:
            raise ValueError(f"worker pool needs >= 1 worker, got {workers}")
        self.history = history
        self.store = JobStore(history)
        self.ledger = RunLedger(history)
        self.pool = WorkerPool(
            self.store,
            self.ledger,
            options=options,
            workers=workers,
            job_timeout_s=job_timeout_s,
        )
        self._address = (host, port)
        self._httpd: Optional[_Server] = None
        self._http_thread: Optional[threading.Thread] = None
        self.recovered_jobs = 0
        self.started_monotonic = time.monotonic()
        # request instruments, bound once (see WorkerPool on fork safety)
        self._m_requests = metrics.counter(
            "serve.requests_total", "HTTP requests handled"
        )
        self._m_errors = metrics.counter(
            "serve.errors_total", "HTTP error responses"
        )
        self._m_submitted = metrics.counter(
            "serve.jobs_submitted", "jobs accepted via POST /v1/jobs"
        )
        self._m_request_seconds = metrics.histogram(
            "serve.request_seconds", "per-request latency", buckets=LATENCY_BUCKETS
        )
        # per-endpoint latency: one histogram per route label, all
        # pre-created here so the hot path never takes the registry
        # lock (fork safety, same reasoning as the worker pool)
        self._m_endpoint_seconds: Dict[str, metrics.Histogram] = {
            endpoint: metrics.histogram(
                f"serve.request_seconds.{endpoint}",
                f"per-request latency of the {endpoint} endpoint",
                buckets=LATENCY_BUCKETS,
            )
            for endpoint in _Handler._ENDPOINTS
        }
        # daemon-owned gauges, refreshed on every sample and scrape
        self._g_queue_depth = metrics.gauge(
            "serve.queue_depth", "jobs waiting in the queue"
        )
        self._g_jobs_running = metrics.gauge(
            "serve.jobs_running", "jobs currently claimed by a worker"
        )
        self._g_workers_busy = metrics.gauge(
            "serve.workers_busy", "worker threads running a job"
        )
        self._g_workers_idle = metrics.gauge(
            "serve.workers_idle", "worker threads waiting for work"
        )
        self._g_uptime = metrics.gauge(
            "serve.uptime_seconds", "seconds since daemon start"
        )

    # -- telemetry plumbing ---------------------------------------------
    def refresh_gauges(self) -> Tuple[Dict[str, int], list]:
        """Point-in-time gauges for scrapes and samples; returns the
        job counts and worker status it read so callers reuse them."""
        counts = self.store.counts()
        workers = self.pool.worker_status()
        busy = sum(1 for w in workers if w["busy"])
        self._g_queue_depth.set(counts[QUEUED])
        self._g_jobs_running.set(counts[RUNNING])
        self._g_workers_busy.set(busy)
        self._g_workers_idle.set(max(0, self.pool.workers - busy))
        self._g_uptime.set(
            round(telemetry.process_uptime_s(self.started_monotonic), 3)
        )
        return counts, workers

    def _sample(self) -> Dict[str, object]:
        """One ring-buffer sample (the sampler thread calls this)."""
        counts, workers = self.refresh_gauges()
        heartbeats = [w["heartbeat_age_s"] for w in workers]
        job_h = self.pool._job_seconds
        req_h = self._m_request_seconds
        return {
            "queue_depth": counts[QUEUED],
            "jobs_running": counts[RUNNING],
            "jobs_done": counts[DONE],
            "jobs_failed": counts[FAILED],
            "jobs_completed_total": counts[DONE] + counts[FAILED],
            "requests_total": self._m_requests.value,
            "workers_busy": sum(1 for w in workers if w["busy"]),
            "workers_idle": max(
                0, self.pool.workers - sum(1 for w in workers if w["busy"])
            ),
            "workers": workers,
            "max_heartbeat_age_s": max(heartbeats) if heartbeats else None,
            "queue_wait_s": self.store.oldest_queued_age_s(),
            # NaN (empty histogram) becomes None: a JSON gap, never 0.0
            "job_p50_s": telemetry.nan_to_none(job_h.percentile(50)),
            "job_p99_s": telemetry.nan_to_none(job_h.percentile(99)),
            "request_p50_s": telemetry.nan_to_none(req_h.percentile(50)),
            "request_p99_s": telemetry.nan_to_none(req_h.percentile(99)),
            "uptime_seconds": round(
                telemetry.process_uptime_s(self.started_monotonic), 3
            ),
        }

    def _on_alert(self, kind: str, violation: Dict[str, object]) -> None:
        """SLO transition: one structured log event + one durable ledger
        row — regressions stay visible longitudinally."""
        obs_log.event(
            _log,
            "slo.firing" if kind == "firing" else "slo.resolved",
            level=logging.WARNING if kind == "firing" else logging.INFO,
            objective=violation.get("objective"),
            metric=violation.get("metric"),
            value=violation.get("value"),
            threshold=violation.get("threshold"),
            burn_rate=violation.get("burn_rate"),
        )
        try:
            self.ledger.record_alert(
                str(violation.get("objective")),
                kind,
                value=violation.get("value"),  # type: ignore[arg-type]
                threshold=violation.get("threshold"),  # type: ignore[arg-type]
                detail=violation,
            )
        except LedgerError:
            pass  # health reporting must survive a wedged ledger

    def telemetry_payload(self, limit: Optional[int] = None) -> Dict[str, object]:
        """The ``GET /v1/telemetry`` body."""
        return {
            "interval_s": self.sampler.interval_s,
            "capacity": self.sampler.capacity,
            "samples": self.sampler.snapshot(limit),
            "slo": self.watchdog.status(),
            "objectives": [
                {
                    "name": o.name,
                    "metric": o.metric,
                    "threshold": o.threshold,
                    "window_s": o.window_s,
                    "description": o.description,
                }
                for o in self.watchdog.objectives
            ],
            "pid": os.getpid(),
            "uptime_seconds": round(
                telemetry.process_uptime_s(self.started_monotonic), 3
            ),
        }

    @property
    def url(self) -> str:
        if self._httpd is None:
            raise RuntimeError("daemon not started")
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Bind, requeue orphaned jobs, start workers, telemetry, HTTP.

        Recovery waits for the bind: a daemon that cannot take its port
        (another daemon on the same ledger holds it) must not requeue
        that daemon's running jobs. A failed start closes the socket, the
        store and the ledger before it re-raises."""
        try:
            self._httpd = _Server(self._address, self)
            self.recovered_jobs = self.store.recover()
        except BaseException:
            if self._httpd is not None:
                self._httpd.server_close()
                self._httpd = None
            self.ledger.close()
            self.store.close()
            raise
        self.started_monotonic = time.monotonic()
        self.pool.start()
        self.sampler.start()
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
            name="repro-serve-http",
        )
        self._http_thread.start()
        obs_log.event(
            _log, "serve.started", url=self.url, workers=self.pool.workers,
            recovered_jobs=self.recovered_jobs, history=self.history,
        )

    def stop(self) -> None:
        # telemetry first: the sampler (and the watchdog it runs) reads
        # the store and pool, which must still be alive while it winds down
        self.sampler.stop()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join(5.0)
            self._http_thread = None
        self.pool.stop()
        self.ledger.close()
        self.store.close()
        obs_log.event(_log, "serve.stopped", history=self.history)

    def __enter__(self) -> "ServeDaemon":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
