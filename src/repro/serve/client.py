"""Stdlib HTTP client for the ``repro serve`` daemon.

Backs the ``repro submit`` / ``repro status`` / ``repro fetch`` CLI
commands.
Transport errors and non-2xx responses raise :class:`ServeError` with
the server's own message when one came back — a client must never
mistake "connection refused" for "no races".
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional
from urllib.parse import quote

from repro.serve.server import DEFAULT_HOST, DEFAULT_PORT, SERVE_URL_ENV


class ServeError(Exception):
    """The daemon is unreachable, or answered with an error."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


def serve_url_from_env(explicit: Optional[str] = None) -> str:
    """Resolve the daemon URL: explicit flag, then ``REPRO_SERVE_URL``,
    then the default loopback bind."""
    return (
        explicit
        or os.environ.get(SERVE_URL_ENV)
        or f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"
    )


class ServeClient:
    """One daemon endpoint (``http://host:port``), JSON in/out."""

    def __init__(self, base_url: Optional[str] = None, timeout_s: float = 30.0):
        self.base_url = serve_url_from_env(base_url).rstrip("/")
        self.timeout_s = timeout_s

    # -- transport -----------------------------------------------------
    def _request(
        self, method: str, path: str, body: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            method=method,
            data=(
                json.dumps(body).encode("utf-8") if body is not None else None
            ),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8")).get("error", "")
            except (ValueError, UnicodeDecodeError, OSError):
                detail = ""
            raise ServeError(
                f"{method} {path}: HTTP {exc.code}"
                + (f" — {detail}" if detail else ""),
                status=exc.code,
            ) from exc
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise ServeError(f"{self.base_url}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServeError(f"{method} {path}: non-object response")
        return payload

    def _get_text(self, path: str, accept: Optional[str] = None) -> str:
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            headers={"Accept": accept} if accept else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                return response.read().decode("utf-8")
        except (urllib.error.URLError, OSError) as exc:
            raise ServeError(f"{self.base_url}: {exc}") from exc

    # -- API -----------------------------------------------------------
    def health(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def submit(
        self, app: str, options: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """Enqueue one analysis; returns the job dict (``job_id`` inside)."""
        return self._request(
            "POST", "/v1/jobs", {"app": app, "options": options or {}}
        )

    def job(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/jobs/{quote(job_id, safe='')}")

    def jobs(self, status: Optional[str] = None) -> List[Dict[str, object]]:
        path = "/v1/jobs" + (f"?status={quote(status)}" if status else "")
        return list(self._request("GET", path).get("jobs", []))

    def wait(
        self,
        job_id: str,
        timeout_s: float = 300.0,
        poll_interval_s: float = 0.05,
    ) -> Dict[str, object]:
        """Poll until the job reaches a terminal status.

        Raises :class:`ServeError` when ``timeout_s`` elapses first —
        the "not a hung client" contract: a dead worker shows up as a
        ``failed`` job or as this timeout, never as an endless loop.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            job = self.job(job_id)
            if job.get("status") in ("done", "failed"):
                return job
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"job {job_id} still {job.get('status')!r} after {timeout_s:g}s"
                )
            time.sleep(poll_interval_s)

    def report(self, run_ref: str) -> Dict[str, object]:
        """The race report of one ledger run (id, prefix, or ``latest``)."""
        return self._request(
            "GET", f"/v1/runs/{quote(run_ref, safe='')}/report"
        )

    def diff(self, ref_a: str, ref_b: str) -> Dict[str, object]:
        return self._request(
            "GET",
            f"/v1/diff/{quote(ref_a, safe='')}/{quote(ref_b, safe='')}",
        )

    def metrics(self) -> Dict[str, object]:
        return self._request("GET", "/metrics")

    def metrics_text(self) -> str:
        """The Prometheus text exposition of ``/metrics`` (what a scraper
        negotiating ``text/plain`` sees)."""
        return self._get_text("/metrics", accept="text/plain; version=0.0.4")

    def telemetry(self, limit: Optional[int] = None) -> Dict[str, object]:
        """The daemon's ring-buffer time-series and SLO status."""
        path = "/v1/telemetry" + (f"?limit={int(limit)}" if limit else "")
        return self._request("GET", path)

    def dashboard(self) -> str:
        """The self-contained dashboard HTML."""
        return self._get_text("/dashboard")
