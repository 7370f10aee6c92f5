"""Fault-isolated batch driver: ``repro corpus-analyze`` (§6 campaigns).

The paper evaluates SIERRA over a 20-app corpus; a batch run over real
apps must survive individual apps that crash the analysis, hang, or blow
their path budget. This driver runs the full detector pipeline over every
corpus app with **per-app fault isolation**:

* each app runs in a forked worker process under a wall-clock timeout
  (one of the scheduler's persistent shards, re-forked only after a kill
  or a death); a hung app is killed and recorded as ``timeout``, a
  crashed one as ``error`` with the full traceback — the batch always
  continues;
* the per-app :class:`repro.obs.Recorder` captures the detector's stage
  events, warnings, and degradation signals (e.g. the refutation pool
  falling back to serial) and ships them back to the parent;
* the run emits a structured ``RUN_report.json`` (schema below) and a
  meaningful exit code: 0 when every app is ``ok``, 1 otherwise.

Statuses: ``ok`` (clean), ``degraded`` (completed, but a fallback path
fired — exact results, lost parallelism), ``error`` (exception or dead
worker), ``timeout`` (wall-clock budget exceeded).

``--inject-fail`` / ``--inject-hang`` are first-class testing aids: fault
isolation that is only exercised by real faults is fault isolation that
has never been tested.
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing
import platform
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.obs import log as obs_log

_log = obs_log.get_logger("corpus.driver")

#: JSON layout version of RUN_report.json (2: run_id/history provenance
#: block embedded when the batch records into a run-history ledger)
SCHEMA = 2

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"

#: generous per-app wall-clock budget: the largest synthetic app analyzes in
#: under a second, so anything near this is a hang, not a slow app
DEFAULT_TIMEOUT_S = 120.0

def default_corpus() -> List[str]:
    """The full batch corpus: the figure apps plus all 20 Table 2 apps."""
    # lazy import: repro.cli imports repro.corpus at module load
    from repro.cli import _FIGURE_APPS
    from repro.corpus.specs import TWENTY_APPS

    return sorted(_FIGURE_APPS) + [f"paper:{row.name}" for row in TWENTY_APPS]


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------
@dataclass
class AppRunRecord:
    """Outcome of one app's pipeline run inside the batch."""

    app: str
    status: str
    elapsed_s: float = 0.0
    stages: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    report: Dict[str, int] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    degradations: List[str] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list)
    #: {"type", "message", "traceback"} for error/timeout statuses
    error: Optional[Dict[str, str]] = None
    isolated: bool = True
    #: transport-only (ledger rows computed in the worker, where the report
    #: objects live): not serialized into RUN_report.json — the ledger is
    #: their durable home, the JSON report stays a summary
    races: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> Dict[str, object]:
        return {
            "status": self.status,
            "elapsed_s": round(self.elapsed_s, 4),
            "stages": dict(self.stages),
            "counters": dict(self.counters),
            "report": dict(self.report),
            "warnings": list(self.warnings),
            "degradations": list(self.degradations),
            "events": list(self.events),
            "error": dict(self.error) if self.error else None,
            "isolated": self.isolated,
        }


@dataclass
class RunReport:
    """Aggregate outcome of one ``corpus-analyze`` batch."""

    records: List[AppRunRecord] = field(default_factory=list)
    timeout_s: float = DEFAULT_TIMEOUT_S
    isolated: bool = True
    options: Dict[str, object] = field(default_factory=dict)
    elapsed_s: float = 0.0
    #: set when the batch recorded into a run-history ledger
    run_id: Optional[str] = None
    history_path: Optional[str] = None
    #: worker-pool width the batch ran at (1 = serial)
    shards: int = 1
    #: per-shard SierraOptions.parallelism after the core budget (None:
    #: the user's setting rode through unchanged)
    effective_parallelism: Optional[int] = None
    #: calibrated-cost-model block when a ledger supplied prior
    #: observations: apps known, fitted scale, prediction error
    cost_model: Optional[Dict[str, object]] = None

    def by_status(self, status: str) -> List[AppRunRecord]:
        return [r for r in self.records if r.status == status]

    def summary(self) -> Dict[str, object]:
        return {
            "total": len(self.records),
            "ok": len(self.by_status(STATUS_OK)),
            "degraded": len(self.by_status(STATUS_DEGRADED)),
            "error": len(self.by_status(STATUS_ERROR)),
            "timeout": len(self.by_status(STATUS_TIMEOUT)),
            "elapsed_s": round(self.elapsed_s, 4),
            "exit_code": self.exit_code,
        }

    @property
    def exit_code(self) -> int:
        """0 iff every app completed cleanly; 1 on any error/timeout/degrade."""
        return 0 if all(r.ok for r in self.records) else 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA,
            "python": platform.python_version(),
            "timeout_s": self.timeout_s,
            "isolated": self.isolated,
            "options": dict(self.options),
            "run_id": self.run_id,
            "history": self.history_path,
            "shards": self.shards,
            "effective_parallelism": self.effective_parallelism,
            "cost_model": self.cost_model,
            "apps": {r.app: r.to_dict() for r in self.records},
            "summary": self.summary(),
        }

    def write(self, path: str) -> None:
        import json

        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ----------------------------------------------------------------------
# per-app execution (shared by the worker process and the inline fallback)
# ----------------------------------------------------------------------
def _execute_app(
    name: str,
    options_dict: Dict[str, object],
    inject_fail: bool,
    inject_hang_s: float,
    inject_cache_corrupt: bool = False,
) -> Dict[str, object]:
    """Run one app's pipeline; return the JSON-ready payload.

    Raises whatever the pipeline raises — the caller decides whether that
    crosses a process boundary (isolated mode) or a try/except (inline).
    """
    from repro.cli import load_app
    from repro.core import Sierra, SierraOptions
    from repro.obs import metrics
    from repro.obs.history import collect_stage_timings, race_row

    # bind the app for the extent of the analysis: every detector-stage
    # log line (bridged off the obs bus) carries it, in this process or
    # a forked worker alike
    with obs_log.bind(app=name), obs.Recorder() as recorder:
        if inject_fail:
            raise RuntimeError(f"injected failure for {name!r} (--inject-fail)")
        if inject_hang_s > 0:
            # a real stage block: the streamed stage_start is what lets the
            # parent's timeout record name the stage the worker died inside
            with obs.stage("inject-hang", app=name):
                time.sleep(inject_hang_s)
        if inject_cache_corrupt and options_dict.get("cache_dir"):
            from repro.cache import corrupt_store_for_testing

            damaged = corrupt_store_for_testing(str(options_dict["cache_dir"]))
            obs.emit_warning(
                f"injected cache corruption for {name!r}: truncated "
                f"{damaged} entries (--inject-cache-corrupt)",
                stage="cache",
                entries=damaged,
            )
        apk = load_app(name)
        result = Sierra(SierraOptions(**options_dict)).analyze(apk)
    report = result.report
    metrics_blob = metrics.registry().collect()
    if result.profile:
        # reserved key: profiled batches ship their attribution summary
        # with the metrics so the ledger (and repro diff blame) sees it
        metrics_blob["profile"] = result.profile
    return {
        "status": STATUS_DEGRADED if recorder.degraded else STATUS_OK,
        "stages": collect_stage_timings(result),
        "counters": metrics.collect_counters(),
        "report": {
            "racy_pairs": report.racy_pairs,
            "races_after_refutation": report.races_after_refutation,
        },
        "warnings": recorder.warnings(),
        "degradations": recorder.degradations(),
        "events": recorder.to_dicts(),
        # ledger rows, computed here where the report objects live: the
        # parent records them without re-running the analysis
        "races": [race_row(r) for r in report.reports],
        "metrics": metrics_blob,
    }


def _error_payload(exc: BaseException) -> Dict[str, object]:
    return {
        "status": STATUS_ERROR,
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        },
    }


def _run_one_inline(
    name: str,
    options_dict: Dict[str, object],
    inject_fail: bool,
    inject_hang_s: float,
    inject_cache_corrupt: bool = False,
) -> AppRunRecord:
    t0 = time.perf_counter()
    try:
        payload = _execute_app(
            name, options_dict, inject_fail, inject_hang_s, inject_cache_corrupt
        )
    except Exception as exc:
        payload = _error_payload(exc)
    record = AppRunRecord(app=name, **_record_kwargs(payload))
    record.elapsed_s = time.perf_counter() - t0
    record.isolated = False
    return record


def _record_kwargs(payload: Dict[str, object]) -> Dict[str, object]:
    allowed = {f.name for f in dataclasses.fields(AppRunRecord)} - {"app"}
    return {k: v for k, v in payload.items() if k in allowed}


def _aggregate_status(records: List[AppRunRecord]) -> str:
    """Overall status for the ledger's ``*`` row (worst app wins)."""
    for status in (STATUS_ERROR, STATUS_TIMEOUT, STATUS_DEGRADED):
        if any(r.status == status for r in records):
            return status
    return STATUS_OK


def _sum_stages(records: List[AppRunRecord]) -> Dict[str, float]:
    """Per-stage wall clock summed across the batch's apps."""
    totals: Dict[str, float] = {}
    for record in records:
        for stage, seconds in record.stages.items():
            totals[stage] = totals.get(stage, 0.0) + float(seconds)
    return {stage: round(s, 6) for stage, s in sorted(totals.items())}


# ----------------------------------------------------------------------
# remote mode: the driver as a load generator against `repro serve`
# ----------------------------------------------------------------------
@dataclass
class RemoteAppRecord:
    """Outcome of one app submitted to a serve daemon."""

    app: str
    status: str  # done | failed
    job_id: Optional[str] = None
    run_id: Optional[str] = None
    #: client-observed submit→terminal latency (queue wait included: this
    #: is what a caller of the service actually experiences)
    latency_s: float = 0.0
    error: Optional[Dict[str, str]] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "status": self.status,
            "job_id": self.job_id,
            "run_id": self.run_id,
            "latency_s": round(self.latency_s, 4),
            "error": dict(self.error) if self.error else None,
        }


@dataclass
class RemoteRunReport:
    """Aggregate outcome of one ``--target-url`` load run."""

    target_url: str
    concurrency: int
    records: List[RemoteAppRecord] = field(default_factory=list)
    elapsed_s: float = 0.0

    def latencies(self) -> List[float]:
        return [r.latency_s for r in self.records]

    def summary(self) -> Dict[str, object]:
        from repro.serve import percentile

        latencies = self.latencies()
        done = sum(1 for r in self.records if r.status == "done")
        return {
            "total": len(self.records),
            "done": done,
            "failed": len(self.records) - done,
            "elapsed_s": round(self.elapsed_s, 4),
            "apps_per_s": (
                round(len(self.records) / self.elapsed_s, 3) if self.elapsed_s else 0.0
            ),
            "latency_p50_s": round(percentile(latencies, 50), 4),
            "latency_p99_s": round(percentile(latencies, 99), 4),
            "latency_max_s": round(max(latencies), 4) if latencies else 0.0,
            "exit_code": self.exit_code,
        }

    @property
    def exit_code(self) -> int:
        return 0 if all(r.status == "done" for r in self.records) else 1


def run_corpus_remote(
    apps: Optional[Sequence[str]] = None,
    target_url: str = "",
    options=None,
    concurrency: int = 4,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    progress: Optional[Callable[[RemoteAppRecord], None]] = None,
) -> RemoteRunReport:
    """Drive a ``repro serve`` daemon with the corpus: the load generator.

    Submits every app as a job from ``concurrency`` client threads, polls
    each to a terminal status, and records the client-observed latency
    (apps/sec, p50/p99). Unknown app names raise :class:`ValueError` up
    front (same contract as the local batch); an unreachable daemon raises
    :class:`~repro.serve.ServeError` before anything is submitted.
    """
    import queue as queue_mod
    import threading

    from repro.cli import is_known_app
    from repro.serve import ServeClient, ServeError

    names = list(apps) if apps else default_corpus()
    unknown = [n for n in names if not is_known_app(n)]
    if unknown:
        raise ValueError(
            "unknown corpus app(s): " + ", ".join(repr(n) for n in unknown)
        )
    concurrency = max(1, min(int(concurrency), len(names)))

    client = ServeClient(target_url, timeout_s=min(timeout_s, 30.0))
    client.health()  # connection refused must fail the run up front

    job_options: Dict[str, object] = {}
    if options is not None:
        from repro.serve import ALLOWED_JOB_OPTIONS

        job_options = {
            k: v
            for k, v in dataclasses.asdict(options).items()
            if k in ALLOWED_JOB_OPTIONS
        }

    todo: "queue_mod.Queue[str]" = queue_mod.Queue()
    for name in names:
        todo.put(name)
    report = RemoteRunReport(target_url=client.base_url, concurrency=concurrency)
    results_lock = threading.Lock()

    def drive() -> None:
        while True:
            try:
                name = todo.get_nowait()
            except queue_mod.Empty:
                return
            t0 = time.perf_counter()
            try:
                job = client.submit(name, job_options)
                final = client.wait(str(job["job_id"]), timeout_s=timeout_s)
                record = RemoteAppRecord(
                    app=name,
                    status=str(final["status"]),
                    job_id=str(job["job_id"]),
                    run_id=final.get("run_id"),
                    latency_s=time.perf_counter() - t0,
                    error=final.get("error"),
                )
            except ServeError as exc:
                record = RemoteAppRecord(
                    app=name,
                    status="failed",
                    latency_s=time.perf_counter() - t0,
                    error={"type": "ServeError", "message": str(exc)},
                )
            with results_lock:
                report.records.append(record)
            if progress is not None:
                progress(record)

    t0 = time.perf_counter()
    threads = [
        threading.Thread(target=drive, daemon=True, name=f"loadgen-{i}")
        for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.elapsed_s = time.perf_counter() - t0
    report.records.sort(key=lambda r: r.app)
    return report


def _cost_model_block(cost_model, names, predictions) -> Dict[str, object]:
    """JSON block + registry histogram for the calibrated cost model.

    The ``corpus.cost_model.predicted_vs_actual`` histogram observes the
    calibrated model's relative prediction error per completed app; the
    block also scores the *static* model on the same apps, so a test can
    verify calibration tightened prediction error instead of taking it on
    faith.
    """
    from repro.obs import metrics

    block: Dict[str, object] = {
        "calibrated_apps": sum(1 for n in names if cost_model.knows(n)),
        "scale_s_per_cost": round(cost_model.scale_s_per_cost, 6),
        "blend": cost_model.blend,
    }
    if predictions:
        hist = metrics.histogram(
            "corpus.cost_model.predicted_vs_actual",
            "relative error |predicted - actual| / actual of the calibrated "
            "scheduler cost model",
            buckets=(0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0),
        )
        calibrated_errs = []
        static_errs = []
        for predicted, static_predicted, actual in predictions:
            err = abs(predicted - actual) / actual
            hist.observe(err)
            calibrated_errs.append(err)
            static_errs.append(abs(static_predicted - actual) / actual)
        block["predictions"] = len(predictions)
        block["mean_abs_rel_err"] = round(
            sum(calibrated_errs) / len(calibrated_errs), 4
        )
        block["static_mean_abs_rel_err"] = round(
            sum(static_errs) / len(static_errs), 4
        )
    return block


def run_corpus(
    apps: Optional[Sequence[str]] = None,
    options=None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    isolate: bool = True,
    out_path: Optional[str] = None,
    inject_fail: Sequence[str] = (),
    inject_hang: Sequence[str] = (),
    inject_cache_corrupt: Sequence[str] = (),
    progress: Optional[Callable[[AppRunRecord], None]] = None,
    history: Optional[str] = None,
    shards: int = 1,
    progress_line: bool = False,
) -> RunReport:
    """Run the pipeline over ``apps`` (default: the full corpus).

    Isolated batches run on the sharded work-stealing scheduler
    (:mod:`repro.corpus.scheduler`): a persistent pool of ``shards``
    forked workers pulls apps largest-predicted-cost-first, stealing from
    the busiest shard when idle. Each app still runs under ``timeout_s``;
    a worker crash, analysis exception, or hang is recorded on that app's
    :class:`AppRunRecord` (and the shard respawned) while the batch moves
    on. With ``shards > 1`` the per-worker ``SierraOptions.parallelism``
    is capped by the core budget (``max(1, cores // shards)``) so the pool
    cannot oversubscribe the machine; the cap is reported as
    ``effective_parallelism``. ``isolate=False`` (or a platform without
    ``fork``) runs apps in-process instead — exceptions are still caught
    per app, but timeouts are **not enforceable** and a hard crash would
    take the batch down; the report says which mode ran.

    ``progress_line=True`` streams a live done/total + apps/sec + ETA
    line to stderr (distinct from the ``progress`` callback, which fires
    per completed record in completion order).

    ``inject_fail`` / ``inject_hang`` name apps whose worker raises /
    sleeps past the budget before analysis — the fault-injection hooks the
    acceptance tests (and operators validating a deployment) use.
    ``inject_cache_corrupt`` names apps whose worker truncates every
    persistent-cache entry before analysis (no-op without
    ``options.cache_dir``): the corruption-fallback testing aid — the app
    must still analyze correctly, cold, with a loud warning.

    ``history`` names a run-history ledger db: the batch appends one run
    row, one app row per analyzed app (stages, metrics scrape, fingerprinted
    races) and one ``*`` aggregate row (summed stages, overall status), and
    ``RUN_report.json`` embeds the minted run id. A malformed ledger raises
    :class:`~repro.obs.history.LedgerError` *before* any app runs.

    Unknown app names fail the whole batch up front with :class:`ValueError`
    — a batch that silently analyzed 19 of 20 requested apps is exactly the
    accounting failure this driver exists to prevent.
    """
    from repro.cli import is_known_app
    from repro.core import SierraOptions

    names = list(apps) if apps else default_corpus()
    unknown = [n for n in names if not is_known_app(n)]
    if unknown:
        raise ValueError(
            "unknown corpus app(s): " + ", ".join(repr(n) for n in unknown)
        )

    options = options or SierraOptions()
    options_dict = dataclasses.asdict(options)
    hang_s = timeout_s + 30.0  # sleeps comfortably past the budget

    mp_context = None
    if isolate:
        try:
            mp_context = multiprocessing.get_context("fork")
        except ValueError:
            print(
                "corpus-analyze: fork unavailable; running without process "
                "isolation (timeouts not enforced)",
                file=sys.stderr,
            )

    ledger = None
    if history:
        from repro.obs.history import AGGREGATE_APP, KIND_CORPUS, RunLedger

        # open (and validate) the ledger before any app runs: a corrupt db
        # must fail the batch up front, not after 20 apps of work
        ledger = RunLedger(history)

    from repro.corpus.families import estimate_cost
    from repro.corpus.specs import CalibratedCostModel

    static_costs = {name: estimate_cost(name) for name in names}
    # when the ledger has prior observations, binpacking and the ETA use
    # observed cost blended with the static estimate; a cold ledger (or
    # none) degrades to the static model unchanged
    cost_model = None
    if ledger is not None:
        model = CalibratedCostModel.from_ledger(ledger, estimate_cost)
        if model.calibrated:
            cost_model = model
    predictions: List[tuple] = []  # (calibrated_s, static_s, actual_s)

    def observe_prediction(record: AppRunRecord) -> None:
        if cost_model is None or not record.ok or record.elapsed_s <= 0:
            return
        static = static_costs.get(record.app, 0.0)
        predicted = cost_model.predict_seconds(record.app, static)
        if predicted:
            predictions.append(
                (predicted, cost_model.scale_s_per_cost * static, record.elapsed_s)
            )

    run = RunReport(
        timeout_s=timeout_s,
        isolated=mp_context is not None,
        options=options_dict,
        shards=(
            max(1, min(int(shards), len(names))) if mp_context is not None else 1
        ),
    )
    try:
        if ledger is not None:
            run.run_id = ledger.begin_run(
                KIND_CORPUS, options_dict, meta={"apps": names}
            )
            run.history_path = history
        obs_log.event(
            _log, "corpus.start", apps=len(names),
            isolated=mp_context is not None, run_id=run.run_id,
            shards=run.shards,
        )
        t0 = time.perf_counter()

        def ledger_app(record: AppRunRecord) -> None:
            ledger.record_app(
                run.run_id,
                record.app,
                status=record.status,
                elapsed_s=record.elapsed_s,
                stages=record.stages,
                metrics=record.metrics,
                races=record.races,
            )

        if mp_context is not None:
            from repro.corpus import scheduler as sched

            requested = int(options_dict.get("parallelism") or 1)
            effective_options = options_dict
            if run.shards > 1:
                budget = sched.core_budget(run.shards, requested)
                if budget != requested:
                    effective_options = dict(options_dict, parallelism=budget)
                run.effective_parallelism = budget
            items = [
                sched.WorkItem(
                    index=i,
                    name=name,
                    cost=(
                        cost_model.cost(name, static_costs[name])
                        if cost_model is not None
                        else static_costs[name]
                    ),
                    inject_fail=name in inject_fail,
                    inject_hang_s=hang_s if name in inject_hang else 0.0,
                    inject_cache_corrupt=name in inject_cache_corrupt,
                )
                for i, name in enumerate(names)
            ]
            line = (
                sched.ProgressLine(len(items), sum(it.cost for it in items))
                if progress_line
                else None
            )

            def flush(batch: List[AppRunRecord]) -> None:
                """Stream a burst of finished apps out, in completion
                order: one ledger transaction per burst, then the
                caller's per-record progress callback."""
                if ledger is not None:
                    with ledger.batch():
                        for record in batch:
                            ledger_app(record)
                for record in batch:
                    observe_prediction(record)
                if progress is not None:
                    for record in batch:
                        progress(record)

            run.records = sched.run_sharded(
                mp_context,
                items,
                effective_options,
                shards=run.shards,
                timeout_s=timeout_s,
                on_batch=flush,
                progress=line,
            )
        else:
            for name in names:
                fail = name in inject_fail
                hang = hang_s if name in inject_hang else 0.0
                corrupt = name in inject_cache_corrupt
                obs_log.event(_log, "app.start", app=name, run_id=run.run_id)
                record = _run_one_inline(name, options_dict, fail, hang, corrupt)
                obs_log.event(
                    _log, "app.finish",
                    level=logging.INFO if record.ok else logging.WARNING,
                    app=name, run_id=run.run_id, status=record.status,
                    elapsed_s=round(record.elapsed_s, 4),
                    error_type=record.error.get("type") if record.error else None,
                )
                run.records.append(record)
                if ledger is not None:
                    ledger_app(record)
                observe_prediction(record)
                if progress is not None:
                    progress(record)
        run.elapsed_s = time.perf_counter() - t0
        if cost_model is not None:
            run.cost_model = _cost_model_block(
                cost_model, names, predictions
            )
        obs_log.event(_log, "corpus.finish", run_id=run.run_id, **run.summary())
        if ledger is not None:
            ledger.record_app(
                run.run_id,
                AGGREGATE_APP,
                status=_aggregate_status(run.records),
                elapsed_s=run.elapsed_s,
                stages=_sum_stages(run.records),
                metrics={},
                races=(),
            )
    finally:
        if ledger is not None:
            ledger.close()
    if out_path:
        run.write(out_path)
    return run
