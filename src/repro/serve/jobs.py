"""Job queue for the ``repro serve`` daemon, stored in the run ledger.

The ledger database (:mod:`repro.obs.history`) doubles as the job store:
one ``jobs`` table rides alongside ``runs``/``app_runs``/``races``, so a
completed job and the analysis run it produced live in the same durable
file — ``job.run_id`` is the foreign key from "what was requested" to
"what was found", and a daemon restart recovers queued work for free.

Job lifecycle::

    queued --claim()--> running --finish()--> done | failed

``claim`` is atomic under one ``BEGIN IMMEDIATE`` transaction, so N
worker threads (or a second daemon process pointed at the same ledger)
never run the same job twice. Jobs left ``running`` by a crashed daemon
are requeued by :meth:`JobStore.recover` at startup — a killed worker
must surface as a retried or failed job, never as a client polling
forever.

All connections go through :func:`repro.obs.history.connect_ledger`
(WAL + busy timeout + explicit transactions), the concurrency contract
the whole ledger file shares.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Dict, List, Optional

from repro.obs.history import LEDGER_BUSY_TIMEOUT_S, LedgerError, connect_ledger

#: job states (terminal: done, failed)
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

_JOBS_TABLE = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id        TEXT PRIMARY KEY,
    app           TEXT NOT NULL,
    options_json  TEXT NOT NULL DEFAULT '{}',
    status        TEXT NOT NULL DEFAULT 'queued',
    submitted_utc TEXT NOT NULL,
    started_utc   TEXT,
    finished_utc  TEXT,
    worker        TEXT,
    run_id        TEXT,
    error_json    TEXT,
    elapsed_s     REAL NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS jobs_by_status ON jobs(status, submitted_utc);
"""


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


def new_job_id() -> str:
    """Sortable-by-time job id (``j20260808T120000-3fb2a1c4``)."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    return f"j{stamp}-{uuid.uuid4().hex[:8]}"


@dataclass
class Job:
    """One row of the ``jobs`` table."""

    job_id: str
    app: str
    status: str
    options: Dict[str, object] = field(default_factory=dict)
    submitted_utc: str = ""
    started_utc: Optional[str] = None
    finished_utc: Optional[str] = None
    worker: Optional[str] = None
    run_id: Optional[str] = None
    error: Optional[Dict[str, str]] = None
    elapsed_s: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.status in (DONE, FAILED)

    def to_dict(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "app": self.app,
            "status": self.status,
            "options": dict(self.options),
            "submitted_utc": self.submitted_utc,
            "started_utc": self.started_utc,
            "finished_utc": self.finished_utc,
            "worker": self.worker,
            "run_id": self.run_id,
            "error": dict(self.error) if self.error else None,
            "elapsed_s": self.elapsed_s,
        }


def _job_from_row(row: sqlite3.Row) -> Job:
    def _json(blob, what):
        if not blob:
            return None
        try:
            return json.loads(blob)
        except (TypeError, ValueError) as exc:
            raise LedgerError(f"malformed job store: bad {what} JSON ({exc})") from exc

    return Job(
        job_id=row["job_id"],
        app=row["app"],
        status=row["status"],
        options=_json(row["options_json"], "options") or {},
        submitted_utc=row["submitted_utc"],
        started_utc=row["started_utc"],
        finished_utc=row["finished_utc"],
        worker=row["worker"],
        run_id=row["run_id"],
        error=_json(row["error_json"], "error"),
        elapsed_s=row["elapsed_s"],
    )


class JobStore:
    """The jobs table of one ledger db (thread-safe, also a context mgr)."""

    def __init__(self, path: str, timeout_s: float = LEDGER_BUSY_TIMEOUT_S) -> None:
        self.path = path
        self._lock = threading.RLock()
        try:
            self._db = connect_ledger(path, timeout_s)
            self._db.executescript(_JOBS_TABLE)
        except sqlite3.DatabaseError as exc:
            raise LedgerError(f"{path}: not a usable job store ({exc})") from exc
        self._db.row_factory = sqlite3.Row

    @contextmanager
    def _txn(self):
        with self._lock:
            self._db.execute("BEGIN IMMEDIATE")
            try:
                yield self._db
            except BaseException:
                self._db.execute("ROLLBACK")
                raise
            else:
                self._db.execute("COMMIT")

    @contextmanager
    def quiesced(self):
        """Keep every other thread out of this connection's sqlite calls
        for the block (they all run under this lock)."""
        with self._lock:
            yield

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- producer side -------------------------------------------------
    def submit(self, app: str, options: Optional[Dict[str, object]] = None) -> Job:
        """Enqueue one analysis request; returns the minted job."""
        job = Job(
            job_id=new_job_id(),
            app=app,
            status=QUEUED,
            options=dict(options or {}),
            submitted_utc=_utc_now(),
        )
        try:
            with self._txn() as db:
                db.execute(
                    "INSERT INTO jobs (job_id, app, options_json, status,"
                    " submitted_utc) VALUES (?, ?, ?, ?, ?)",
                    (
                        job.job_id,
                        job.app,
                        json.dumps(job.options, sort_keys=True),
                        job.status,
                        job.submitted_utc,
                    ),
                )
        except sqlite3.DatabaseError as exc:
            raise LedgerError(f"{self.path}: cannot enqueue job ({exc})") from exc
        return job

    # -- worker side ---------------------------------------------------
    def claim(self, worker: str) -> Optional[Job]:
        """Atomically take the oldest queued job; None when the queue is
        empty. Exactly one claimer wins each job (single ``BEGIN
        IMMEDIATE`` transaction)."""
        try:
            with self._txn() as db:
                row = db.execute(
                    "SELECT * FROM jobs WHERE status = ? "
                    "ORDER BY submitted_utc, rowid LIMIT 1",
                    (QUEUED,),
                ).fetchone()
                if row is None:
                    return None
                db.execute(
                    "UPDATE jobs SET status = ?, worker = ?, started_utc = ? "
                    "WHERE job_id = ?",
                    (RUNNING, worker, _utc_now(), row["job_id"]),
                )
        except sqlite3.DatabaseError as exc:
            raise LedgerError(f"{self.path}: cannot claim job ({exc})") from exc
        job = _job_from_row(row)
        job.status = RUNNING
        job.worker = worker
        return job

    def finish(
        self,
        job_id: str,
        status: str,
        run_id: Optional[str] = None,
        error: Optional[Dict[str, str]] = None,
        elapsed_s: float = 0.0,
    ) -> None:
        """Record a terminal outcome (``done`` or ``failed``)."""
        if status not in (DONE, FAILED):
            raise ValueError(f"finish() takes a terminal status, not {status!r}")
        try:
            with self._txn() as db:
                db.execute(
                    "UPDATE jobs SET status = ?, finished_utc = ?, run_id = ?,"
                    " error_json = ?, elapsed_s = ? WHERE job_id = ?",
                    (
                        status,
                        _utc_now(),
                        run_id,
                        json.dumps(error, sort_keys=True) if error else None,
                        float(elapsed_s),
                        job_id,
                    ),
                )
        except sqlite3.DatabaseError as exc:
            raise LedgerError(f"{self.path}: cannot finish job ({exc})") from exc

    def recover(self) -> int:
        """Requeue jobs a dead daemon left ``running``; returns how many.

        Called once at daemon startup, before workers start: an analysis
        interrupted by a crash re-runs rather than staying ``running``
        forever under a client's poll loop.
        """
        try:
            with self._txn() as db:
                cursor = db.execute(
                    "UPDATE jobs SET status = ?, worker = NULL, started_utc = NULL "
                    "WHERE status = ?",
                    (QUEUED, RUNNING),
                )
                return cursor.rowcount
        except sqlite3.DatabaseError as exc:
            raise LedgerError(f"{self.path}: cannot recover jobs ({exc})") from exc

    # -- reading -------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            try:
                row = self._db.execute(
                    "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
                ).fetchone()
            except sqlite3.DatabaseError as exc:
                raise LedgerError(f"{self.path}: malformed job store ({exc})") from exc
        return _job_from_row(row) if row is not None else None

    def jobs(self, status: Optional[str] = None) -> List[Job]:
        """The 200 most recent jobs, newest first (the shape ``GET
        /v1/jobs`` wants); ``status`` filters."""
        sql = "SELECT * FROM jobs"
        args: List[object] = []
        if status is not None:
            sql += " WHERE status = ?"
            args.append(status)
        sql += " ORDER BY submitted_utc DESC, rowid DESC LIMIT 200"
        with self._lock:
            try:
                rows = self._db.execute(sql, tuple(args)).fetchall()
            except sqlite3.DatabaseError as exc:
                raise LedgerError(f"{self.path}: malformed job store ({exc})") from exc
        return [_job_from_row(row) for row in rows]

    def oldest_queued_age_s(self) -> Optional[float]:
        """Seconds the oldest still-queued job has waited (None when the
        queue is empty) — the ``queue_wait`` SLO's input."""
        with self._lock:
            try:
                row = self._db.execute(
                    "SELECT submitted_utc FROM jobs WHERE status = ? "
                    "ORDER BY submitted_utc, rowid LIMIT 1",
                    (QUEUED,),
                ).fetchone()
            except sqlite3.DatabaseError as exc:
                raise LedgerError(f"{self.path}: malformed job store ({exc})") from exc
        if row is None:
            return None
        try:
            submitted = datetime.fromisoformat(row["submitted_utc"])
        except (TypeError, ValueError):
            return None
        age = (datetime.now(timezone.utc) - submitted).total_seconds()
        return round(max(0.0, age), 3)

    def counts(self) -> Dict[str, int]:
        """``{status: count}`` over the whole table (health endpoint)."""
        out = {status: 0 for status in (QUEUED, RUNNING, DONE, FAILED)}
        with self._lock:
            try:
                rows = self._db.execute(
                    "SELECT status, COUNT(*) FROM jobs GROUP BY status"
                ).fetchall()
            except sqlite3.DatabaseError as exc:
                raise LedgerError(f"{self.path}: malformed job store ({exc})") from exc
        for status, count in rows:
            out[str(status)] = int(count)
        return out
