"""The serve daemon's persistent worker pool.

N worker threads share one :class:`~repro.serve.jobs.JobStore` and one
:class:`~repro.obs.history.RunLedger` (both thread-safe). Each thread
loops: claim the oldest queued job, run the detector, append the result
to the ledger as one ``serve`` run, mark the job ``done``/``failed``.

The detector runs as a **library inside a forked child per job**: each
job gets a fresh one-task :class:`~repro.corpus.scheduler.Worker`, the
handle the corpus scheduler's shards use, so a job that crashes the
analysis, hangs past the budget, or corrupts its own heap takes down one
fork, not the daemon: the worker thread survives, records the failure on
the job, and claims the next one. Forking also gives every job a private
metrics registry (scrape windows cannot interleave across concurrent
jobs) while the **on-disk substrate cache is shared**, so a re-submitted
app warm-starts from the previous job's substrate bundle
(``pointsto.worklist_iterations == 0``).

:meth:`WorkerPool.stop` forks nothing more and cancels the jobs in
flight (SIGTERM, then SIGKILL after a grace), so shutdown is bounded. A
cancelled job stays ``running``; the next daemon start requeues it.

Each job's refutation ``parallelism`` is capped by the core budget
(:func:`~repro.corpus.scheduler.core_budget`), as the corpus driver caps
its shards', so ``workers`` concurrent jobs cannot oversubscribe the
machine. A platform without ``fork`` cannot build the pool
(:class:`ValueError`).
"""

from __future__ import annotations

import dataclasses
import logging
import threading
import time
from contextlib import contextmanager
from typing import Dict, Optional

from repro.core import SierraOptions
from repro.corpus.scheduler import (
    Worker,
    WorkItem,
    core_budget,
    fork_context,
    preload_for_fork,
)
from repro.obs import log as obs_log
from repro.obs import metrics
from repro.obs.history import KIND_SERVE, LedgerError, RunLedger
from repro.serve.jobs import DONE, FAILED, Job, JobStore

_log = obs_log.get_logger("serve.worker")

#: job-option keys a client may send: the analysis knobs of
#: :class:`SierraOptions` (the server owns cache_dir — a client must not
#: point workers at an arbitrary filesystem path) plus the fault-
#: injection testing aids the corpus driver also exposes
ANALYSIS_JOB_OPTIONS = frozenset(
    f.name for f in dataclasses.fields(SierraOptions)
) - {"cache_dir"}
INJECT_JOB_OPTIONS = frozenset({"inject_fail", "inject_hang"})
ALLOWED_JOB_OPTIONS = ANALYSIS_JOB_OPTIONS | INJECT_JOB_OPTIONS

#: statuses of the per-job analysis record that still count as a served
#: result (degraded = exact results, lost parallelism — same contract as
#: the corpus driver)
_SERVED_STATUSES = ("ok", "degraded")

#: request/job latency buckets, in seconds (back-compat alias; the
#: canonical definition lives with the other bucket presets)
LATENCY_BUCKETS = metrics.TIME_BUCKETS


def merge_job_options(
    base: SierraOptions, job_options: Dict[str, object]
) -> Dict[str, object]:
    """The daemon's default options overlaid with one job's overrides,
    as the plain dict the forked analysis child takes. Unknown keys
    raise ``ValueError`` (the server maps that to HTTP 400 at submit
    time; here it guards jobs enqueued by other writers)."""
    unknown = set(job_options) - ALLOWED_JOB_OPTIONS
    if unknown:
        raise ValueError(
            "unknown job option(s): " + ", ".join(sorted(repr(k) for k in unknown))
        )
    options_dict = dataclasses.asdict(base)
    for key, value in job_options.items():
        if key in ANALYSIS_JOB_OPTIONS:
            options_dict[key] = value
    return options_dict


class WorkerPool:
    """N daemon threads draining the job store (start/stop lifecycle)."""

    def __init__(
        self,
        store: JobStore,
        ledger: RunLedger,
        options: Optional[SierraOptions] = None,
        workers: int = 2,
        job_timeout_s: float = 120.0,
        poll_interval_s: float = 0.05,
    ) -> None:
        self._mp_context = fork_context()
        self.store = store
        self.ledger = ledger
        self.options = options or SierraOptions()
        self.workers = workers
        self.job_timeout_s = job_timeout_s
        self.poll_interval_s = poll_interval_s
        self._threads: list = []
        self._stop = threading.Event()
        self._wake = threading.Event()
        # per-worker heartbeat/claim state: updated on every loop tick
        # while idle, *frozen at claim time* while a job runs — so a
        # wedged worker's heartbeat age grows visibly in /healthz long
        # before the job budget expires
        self._status_lock = threading.Lock()
        self._worker_state: Dict[str, Dict[str, object]] = {}
        # the forked jobs in flight, for stop() to cancel; registered,
        # with the stop flag re-checked, under this lock
        self._lock = threading.Lock()
        self._in_flight: set = set()
        # instruments are created once, here: the hot paths below only
        # touch pre-bound objects, so no thread holds the registry lock
        # at an inopportune fork moment
        self._jobs_done = metrics.counter(
            "serve.jobs_completed", "serve jobs finished done"
        )
        self._jobs_failed = metrics.counter(
            "serve.jobs_failed", "serve jobs finished failed"
        )
        self._job_seconds = metrics.histogram(
            "serve.job_seconds", "per-job wall clock", buckets=LATENCY_BUCKETS
        )

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        # before any worker thread exists: jobs fork from those threads
        preload_for_fork()
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._loop, args=(f"worker-{i}",), daemon=True,
                name=f"repro-serve-{i}",
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Stop claiming, cancel the forked jobs in flight, join the threads.

        A cancelled job stays ``running``: the next daemon's
        :meth:`JobStore.recover` requeues it."""
        self._stop.set()
        self._wake.set()
        with self._lock:
            for worker in self._in_flight:
                worker.cancel()
        for thread in self._threads:
            thread.join(10.0)
        self._threads = []

    def kick(self) -> None:
        """Wake sleeping workers (called on every submission)."""
        self._wake.set()

    # -- heartbeats ----------------------------------------------------
    def _beat(self, worker_name: str, busy: bool, job_id: Optional[str] = None) -> None:
        with self._status_lock:
            state = self._worker_state.setdefault(
                worker_name, {"jobs_finished": 0}
            )
            state["busy"] = busy
            state["job_id"] = job_id
            state["heartbeat_monotonic"] = time.monotonic()
            if not busy and state.get("_was_busy"):
                state["jobs_finished"] = int(state.get("jobs_finished", 0)) + 1
            state["_was_busy"] = busy

    def worker_status(self) -> list:
        """Per-worker liveness for ``/healthz`` and the sampler:
        ``heartbeat_age_s`` (frozen while a job runs — growth == stall),
        busy flag, the claimed ``job_id``, jobs finished so far."""
        now = time.monotonic()
        with self._status_lock:
            out = []
            for name in sorted(self._worker_state):
                state = self._worker_state[name]
                out.append(
                    {
                        "worker": name,
                        "busy": bool(state.get("busy")),
                        "job_id": state.get("job_id"),
                        "heartbeat_age_s": round(
                            now - float(state.get("heartbeat_monotonic", now)), 3
                        ),
                        "jobs_finished": int(state.get("jobs_finished", 0)),
                    }
                )
        return out

    # -- the loop ------------------------------------------------------
    def _loop(self, worker_name: str) -> None:
        self._beat(worker_name, busy=False)
        while not self._stop.is_set():
            try:
                job = self.store.claim(worker_name)
            except LedgerError:
                # the store went away under us (daemon shutting down,
                # ledger file unlinked) — nothing sane left to do here
                return
            if job is None:
                self._beat(worker_name, busy=False)
                self._wake.wait(self.poll_interval_s)
                self._wake.clear()
                continue
            self._beat(worker_name, busy=True, job_id=job.job_id)
            obs_log.event(
                _log, "job.claimed", job_id=job.job_id, app=job.app,
                worker=worker_name,
            )
            try:
                self._run_job(job, worker_name)
            except Exception as exc:  # noqa: BLE001 — the thread must survive
                try:
                    self.store.finish(
                        job.job_id,
                        FAILED,
                        error={"type": type(exc).__name__, "message": str(exc)},
                    )
                except LedgerError:
                    pass
                self._jobs_failed.inc()
                obs_log.event(
                    _log, "job.failed", level=logging.WARNING,
                    job_id=job.job_id, app=job.app, worker=worker_name,
                    error_type=type(exc).__name__, error=str(exc),
                )
            finally:
                self._beat(worker_name, busy=False)

    @contextmanager
    def _sqlite_quiesced(self):
        """Held across each job's fork. sqlite's process-wide mutexes are
        copied into the child as they stand, so a fork while another
        daemon thread is inside a ledger or job-store call can leave one
        locked forever, and a child that then called sqlite would hang.
        A job child makes no sqlite call (the daemon writes the job's
        ledger rows); the guard keeps the fork safe regardless. Every
        daemon-side sqlite call runs under one of these two locks."""
        with self.store.quiesced(), self.ledger.quiesced():
            yield

    def _run_job(self, job: Job, worker_name: str) -> None:
        options_dict = merge_job_options(self.options, job.options)
        # ``workers`` jobs run at once: cap each one's refutation pool so
        # they share the cores, as run_corpus does for its shards
        options_dict["parallelism"] = core_budget(
            self.workers, int(options_dict.get("parallelism") or 1)
        )
        item = WorkItem(
            index=0,
            name=job.app,
            inject_fail=bool(job.options.get("inject_fail")),
            inject_hang=bool(job.options.get("inject_hang")),
        )
        t0 = time.perf_counter()
        # bind the job's identity for the extent of the analysis: the
        # forked child inherits the binding, so detector-stage log lines
        # carry job_id/app with no plumbing through the driver
        with obs_log.bind(job_id=job.job_id, app=job.app, worker=worker_name):
            worker = Worker(self._mp_context, fork_guard=self._sqlite_quiesced)
            with self._lock:
                if self._stop.is_set():
                    return  # no fork once stop() began: the job stays running
                worker.start()
                self._in_flight.add(worker)
            try:
                record = worker.run(item, options_dict, self.job_timeout_s)
            finally:
                with self._lock:
                    self._in_flight.discard(worker)
            if worker.cancelled:
                return  # left running, for the next start's recover()
        elapsed = time.perf_counter() - t0

        # one ledger run per job: the same row shape `repro analyze
        # --history` writes, so `repro diff <oneshot> <serve-job>` proves
        # (or refutes) serve/CLI equivalence with no special casing
        run_id = self.ledger.begin_run(
            KIND_SERVE,
            options_dict,
            meta={"app": job.app, "job_id": job.job_id, "worker": worker_name},
        )
        self.ledger.record_app(
            run_id,
            job.app,
            status=record.status,
            elapsed_s=record.elapsed_s,
            stages=record.stages,
            metrics=record.metrics,
            races=record.races,
        )
        if record.status in _SERVED_STATUSES:
            self.store.finish(job.job_id, DONE, run_id=run_id, elapsed_s=elapsed)
            self._jobs_done.inc()
            obs_log.event(
                _log, "job.done", job_id=job.job_id, app=job.app,
                worker=worker_name, run_id=run_id,
                elapsed_s=round(elapsed, 4), races=len(record.races or ()),
            )
        else:
            error = record.error or {
                "type": "AnalysisFailed", "message": record.status,
            }
            self.store.finish(
                job.job_id,
                FAILED,
                run_id=run_id,
                error=error,
                elapsed_s=elapsed,
            )
            self._jobs_failed.inc()
            obs_log.event(
                _log, "job.failed", level=logging.WARNING,
                job_id=job.job_id, app=job.app, worker=worker_name,
                run_id=run_id, elapsed_s=round(elapsed, 4),
                error_type=error.get("type"), error=error.get("message"),
            )
        self._job_seconds.observe(elapsed)
