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
* each app's obs events — the detector's stages, warnings, and
  degradation signals (e.g. the refutation pool falling back to serial)
  — are kept on its record: a forked worker streams them to the parent
  as they happen, an in-process run records them with a
  :class:`repro.obs.Recorder`;
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
#: block embedded when the batch records into a run-history ledger; 3: the
#: ``cost_model`` key is gone, since the scheduler orders by static cost
#: and fits no model)
SCHEMA = 3

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
    #: the app's obs events (``RunEvent.to_dict`` form), in emission order
    events: List[Dict[str, object]] = field(default_factory=list)
    #: {"type", "message", "traceback"} for error/timeout statuses
    error: Optional[Dict[str, str]] = None
    isolated: bool = True
    #: transport-only (ledger rows computed in the worker, where the report
    #: objects live): not serialized into RUN_report.json — the ledger is
    #: their durable home, the JSON report stays a summary
    races: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # one rule for isolated, in-process and serve records: warnings,
        # degradations and the ok -> degraded step are read off the events
        if self.status == STATUS_OK and self.degradations:
            self.status = STATUS_DEGRADED

    def _messages(self, kind: str) -> List[str]:
        return [
            str(e.get("message", "")) for e in self.events if e.get("kind") == kind
        ]

    @property
    def warnings(self) -> List[str]:
        return self._messages(obs.WARNING)

    @property
    def degradations(self) -> List[str]:
        return self._messages(obs.DEGRADED)

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
            "warnings": self.warnings,
            "degradations": self.degradations,
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
    Installs no obs hook: the caller owns the app's event list.
    """
    from repro.cli import load_app
    from repro.core import Sierra, SierraOptions
    from repro.obs import metrics
    from repro.obs.history import collect_stage_timings, race_row

    # bind the app for the extent of the analysis: every detector-stage
    # log line (bridged off the obs bus) carries it, in this process or
    # a forked worker alike
    with obs_log.bind(app=name):
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
        "status": STATUS_OK,
        "stages": collect_stage_timings(result),
        "counters": metrics.collect_counters(),
        "report": {
            "racy_pairs": report.racy_pairs,
            "races_after_refutation": report.races_after_refutation,
        },
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
    with obs.Recorder() as recorder:
        try:
            payload = _execute_app(
                name, options_dict, inject_fail, inject_hang_s, inject_cache_corrupt
            )
        except Exception as exc:
            payload = _error_payload(exc)
    record = AppRunRecord(
        app=name, events=recorder.to_dicts(), **_record_kwargs(payload)
    )
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

    Isolated batches run on the sharded scheduler
    (:mod:`repro.corpus.scheduler`): a persistent pool of ``shards``
    forked workers takes apps from one queue, largest static cost
    (:func:`~repro.corpus.families.estimate_cost`) first. Each app still
    runs under ``timeout_s``; a worker crash, analysis exception, or hang
    is recorded on that app's :class:`AppRunRecord` (and the shard
    respawned) while the batch moves on. With ``shards > 1`` the per-worker ``SierraOptions.parallelism``
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

        def flush(batch: List[AppRunRecord]) -> None:
            """Stream a burst of finished apps out, in completion order:
            one ledger transaction per burst, then the caller's
            per-record progress callback."""
            if ledger is not None:
                with ledger.batch():
                    for record in batch:
                        ledger.record_app(
                            run.run_id,
                            record.app,
                            status=record.status,
                            elapsed_s=record.elapsed_s,
                            stages=record.stages,
                            metrics=record.metrics,
                            races=record.races,
                        )
            if progress is not None:
                for record in batch:
                    progress(record)

        if mp_context is not None:
            from repro.corpus import scheduler as sched
            from repro.corpus.families import estimate_cost

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
                    cost=estimate_cost(name),
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
                flush([record])
        run.elapsed_s = time.perf_counter() - t0
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
