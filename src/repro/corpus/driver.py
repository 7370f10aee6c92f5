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
  — are kept on its record: the worker streams them to the parent as
  they happen;
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
import platform
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
#: and fits no model; 4: events are ``span_*`` only — the Table 4 stages
#: are the root spans — and ``options`` has no ``profile`` key; 5: the
#: run and its apps have no ``isolated`` key, since every app runs in a
#: forked worker)
SCHEMA = 5

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
    #: transport-only (ledger rows computed in the worker, where the report
    #: objects live): not serialized into RUN_report.json — the ledger is
    #: their durable home, the JSON report stays a summary
    races: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # one rule for batch and serve records: warnings, degradations
        # and the ok -> degraded step are read off the events
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
        }


@dataclass
class RunReport:
    """Aggregate outcome of one ``corpus-analyze`` batch."""

    records: List[AppRunRecord] = field(default_factory=list)
    timeout_s: float = DEFAULT_TIMEOUT_S
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
# per-app execution (inside the forked worker)
# ----------------------------------------------------------------------
def _execute_app(
    name: str,
    options_dict: Dict[str, object],
    inject_fail: bool,
    inject_hang_s: float,
    corrupted_entries: Optional[int] = None,
) -> Dict[str, object]:
    """Run one app's pipeline; return the JSON-ready payload.

    Raises whatever the pipeline raises: the worker loop turns it into an
    error payload. Installs no obs hook: the caller owns the app's event
    list.
    ``corrupted_entries`` is set for an app named by
    ``--inject-cache-corrupt``: how many cache entries the batch truncated
    before its first app started, reported as a warning on this app.
    """
    from repro.cli import load_app
    from repro.core import Sierra, SierraOptions
    from repro.obs import metrics
    from repro.obs.history import collect_stage_timings, race_row

    # bind the app for the extent of the analysis: every detector-stage
    # log line (bridged off the obs bus) carries it
    with obs_log.bind(app=name):
        if inject_fail:
            raise RuntimeError(f"injected failure for {name!r} (--inject-fail)")
        if inject_hang_s > 0:
            # a real root span: the streamed span_start is what lets the
            # parent's timeout record name the stage the worker died inside
            with obs.span("inject-hang", app=name):
                time.sleep(inject_hang_s)
        if corrupted_entries is not None:
            obs.emit_warning(
                f"injected cache corruption for {name!r}: truncated "
                f"{corrupted_entries} entries (--inject-cache-corrupt)",
                stage="cache",
                entries=corrupted_entries,
            )
        apk = load_app(name)
        result = Sierra(SierraOptions(**options_dict)).analyze(apk)
    report = result.report
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
        "metrics": metrics.registry().collect(),
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

    Batches run on the sharded scheduler (:mod:`repro.corpus.scheduler`):
    a persistent pool of ``shards`` forked workers takes apps from one
    queue, largest static cost
    (:func:`~repro.corpus.families.estimate_cost`) first. Each app runs
    under ``timeout_s``; a worker crash, analysis exception, or hang is
    recorded on that app's :class:`AppRunRecord` (and the shard
    respawned) while the batch moves on. With ``shards > 1`` the
    per-worker ``SierraOptions.parallelism`` is capped by the core budget
    (``max(1, cores // shards)``) so the pool cannot oversubscribe the
    machine; the cap is reported as ``effective_parallelism``. A platform
    without the ``fork`` start method raises :class:`ValueError` before
    the ledger opens, since no other way to run an app enforces its
    timeout.

    ``progress_line=True`` streams a live done/total + apps/sec + ETA
    line to stderr (distinct from the ``progress`` callback, which fires
    per completed record in completion order).

    ``inject_fail`` / ``inject_hang`` name apps whose worker raises /
    sleeps past the budget before analysis — the fault-injection hooks the
    acceptance tests (and operators validating a deployment) use.
    ``inject_cache_corrupt`` names apps whose run reports that every
    persistent-cache entry was truncated (no-op without
    ``options.cache_dir``): the corruption-fallback testing aid — every
    app must still analyze correctly, cold, with a loud warning. The
    truncation happens once, before the first app starts, so no shard
    reads the cache while it is being damaged.

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
    from repro.corpus import scheduler as sched
    from repro.corpus.families import estimate_cost

    names = list(apps) if apps else default_corpus()
    unknown = [n for n in names if not is_known_app(n)]
    if unknown:
        raise ValueError(
            "unknown corpus app(s): " + ", ".join(repr(n) for n in unknown)
        )

    options = options or SierraOptions()
    options_dict = dataclasses.asdict(options)
    mp_context = sched.fork_context()

    ledger = None
    if history:
        from repro.obs.history import AGGREGATE_APP, KIND_CORPUS, RunLedger

        # open (and validate) the ledger before any app runs: a corrupt db
        # must fail the batch up front, not after 20 apps of work
        ledger = RunLedger(history)

    # damage the cache once, before any app runs: shards read it
    # concurrently, so truncating it from inside one app's run would race
    # the others and make the pass depend on timing
    corrupted: Optional[int] = None
    corrupt_apps = set(inject_cache_corrupt) & set(names)
    if corrupt_apps and options_dict.get("cache_dir"):
        from repro.cache import corrupt_store_for_testing

        corrupted = corrupt_store_for_testing(str(options_dict["cache_dir"]))

    def corrupted_for(name: str) -> Optional[int]:
        return corrupted if name in corrupt_apps else None

    run = RunReport(
        timeout_s=timeout_s,
        options=options_dict,
        shards=max(1, min(int(shards), len(names))),
    )
    try:
        if ledger is not None:
            run.run_id = ledger.begin_run(
                KIND_CORPUS, options_dict, meta={"apps": names}
            )
            run.history_path = history
        obs_log.event(
            _log, "corpus.start", apps=len(names), run_id=run.run_id,
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
                inject_hang=name in inject_hang,
                corrupted_entries=corrupted_for(name),
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
