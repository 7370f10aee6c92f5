"""Every way of running the pipeline reproduces the serial cold run.

One serial cold baseline over :data:`APPS`, computed once per module, and
one leg per execution mode: parallel refutation, warm substrate cache,
incremental resume, sharded batch and the serve daemon. Every leg is
compared on one key per app (:func:`key`): the sorted (fingerprint,
verdict, rank) ledger rows, the racy-pair counts before and after
refutation, and ``edges_by_rule`` wherever the leg holds the report.

The app-set legs are plain functions of an app list (:data:`LEGS`), so
``benchmarks/test_modes_matrix.py`` runs them over all 20 paper apps.
"""

from __future__ import annotations

import dataclasses
import gc
from dataclasses import dataclass
from typing import Dict, List

import pytest

from repro.cli import load_app
from repro.core import Sierra, SierraOptions
from repro.corpus.driver import STATUS_OK, run_corpus
from repro.obs import metrics
from repro.obs.history import KIND_ANALYZE, RunLedger, race_row
from repro.serve import DONE, ServeClient, ServeDaemon
from tests.cache.test_incremental import mutated_quickstart
from tests.perf.test_effort_counters import EXPECTED

#: the effort gate's apps plus one size-1 app of each family it lacks
APPS = [*EXPECTED] + [
    f"family:{family}:1:1" for family in ("storm", "chain", "looper", "lifecycle")
]


def key(rows, racy_pairs, races_after_refutation, edges_by_rule=None) -> dict:
    """What every mode must reproduce for one app."""
    out = {
        "rows": sorted((r["fingerprint"], r["verdict"], r["rank"]) for r in rows),
        "racy_pairs": racy_pairs,
        "races_after_refutation": races_after_refutation,
    }
    if edges_by_rule is not None:
        out["edges_by_rule"] = dict(edges_by_rule)
    return out


def result_key(result) -> dict:
    report = result.report
    return key(
        [race_row(r) for r in report.reports],
        report.racy_pairs,
        report.races_after_refutation,
        report.edges_by_rule,
    )


def analyze(app: str, **options):
    return Sierra(SierraOptions(**options)).analyze(load_app(app))


def report_dict(result) -> dict:
    report = result.report.to_dict()
    report.pop("timings_seconds")
    return report


def metric_totals() -> Dict[str, float]:
    """The finished run's nonzero instruments: one registered after the
    baseline ran reads 0 for it, which is the same scrape."""
    return {name: v for name, v in metrics.registry().totals().items() if v}


@dataclass
class Baseline:
    """The serial cold run of each app."""

    keys: Dict[str, dict]
    #: ledger rows (:func:`race_row`), for recording a run in a ledger
    races: Dict[str, List[dict]]
    #: the whole report minus ``timings_seconds``
    reports: Dict[str, dict]
    totals: Dict[str, Dict[str, float]]

    def check(self, app: str, actual: dict) -> None:
        expected = dict(self.keys[app])
        if "edges_by_rule" not in actual:
            del expected["edges_by_rule"]
        assert actual == expected, f"{app} differs from its serial cold run"


def serial_leg(apps) -> Baseline:
    base = Baseline({}, {}, {}, {})
    for app in apps:
        result = analyze(app)
        base.totals[app] = metric_totals()
        base.keys[app] = result_key(result)
        base.races[app] = [race_row(r) for r in result.report.reports]
        base.reports[app] = report_dict(result)
    return base


def parallel_leg(apps, baseline: Baseline, tmp_path) -> None:
    """Refutation over a pool of three: the candidates split into chunks
    of uneven size. This leg holds the whole report and the run's metric
    totals, so both are compared too."""
    candidates = 0
    for app in apps:
        result = analyze(app, parallelism=3)
        totals = metric_totals()
        baseline.check(app, result_key(result))
        assert report_dict(result) == baseline.reports[app], app
        assert totals == baseline.totals[app], app
        candidates += totals.get("refutation.candidates", 0)
    assert candidates > 0  # the pool had work


def warm_leg(apps, baseline: Baseline, tmp_path) -> None:
    """A cold fill, then a warm run over one cache directory."""
    cache = str(tmp_path / "cache")
    for app in apps:
        baseline.check(app, result_key(analyze(app, cache_dir=cache)))
        warm = analyze(app, cache_dir=cache)
        assert metrics.registry().value("cache.substrate_hits") == 1, app
        baseline.check(app, result_key(warm))


def sharded_leg(apps, baseline: Baseline, tmp_path) -> None:
    run = run_corpus(apps, shards=2)
    assert run.shards == 2
    assert [r.app for r in run.records] == list(apps)
    for record in run.records:
        assert record.status == STATUS_OK, (record.app, record.error)
        baseline.check(
            record.app,
            key(
                record.races,
                record.report["racy_pairs"],
                record.report["races_after_refutation"],
            ),
        )


def serve_leg(apps, baseline: Baseline, tmp_path) -> None:
    """One job per app on a two-worker daemon, read back from the ledger
    over HTTP. The app with the most races is also diffed, through
    ``GET /v1/diff``, against its serial rows recorded as a one-shot run."""
    history = str(tmp_path / "runs.sqlite")
    with ServeDaemon(history, workers=2, port=0) as daemon:
        client = ServeClient(daemon.url)
        jobs = {app: str(client.submit(app)["job_id"]) for app in apps}
        run_ids = {}
        for app, job_id in jobs.items():
            final = client.wait(job_id, timeout_s=120)
            assert final["status"] == DONE, (app, final.get("error"))
            run_ids[app] = str(final["run_id"])
            report = client.report(run_ids[app])
            gauges = report["apps"][app]["metrics"]
            baseline.check(
                app,
                key(
                    report["races"],
                    gauges["sierra.racy_pairs"]["value"],
                    gauges["sierra.races_reported"]["value"],
                ),
            )
        app = max(apps, key=lambda a: len(baseline.races[a]))
        with RunLedger(history) as ledger:
            oneshot = ledger.begin_run(
                KIND_ANALYZE, dataclasses.asdict(SierraOptions()), meta={"app": app}
            )
            ledger.record_app(oneshot, app, races=baseline.races[app])
        diff = client.diff(oneshot, run_ids[app])
        assert diff["new_races"] == diff["fixed_races"] == diff["verdict_flips"] == []


#: the legs that run over an app list, by execution mode
LEGS = {
    "parallel": parallel_leg,
    "warm": warm_leg,
    "sharded": sharded_leg,
    "serve": serve_leg,
}


@pytest.fixture(scope="module", autouse=True)
def collection_off():
    """Analyze with automatic garbage collection off, as ``python -m
    repro`` and every corpus or serve worker does: reference counting
    alone frees an analyzed app, and this module's six runs per app
    would otherwise pay about a fifth of their time for collections."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
        gc.collect()


@pytest.fixture(scope="module")
def baseline() -> Baseline:
    return serial_leg(APPS)


def test_parallel_refutation_matches_serial(baseline, tmp_path):
    parallel_leg(APPS, baseline, tmp_path)


def test_warm_cache_matches_serial(baseline, tmp_path):
    warm_leg(APPS, baseline, tmp_path)


def test_incremental_resume_matches_cold(tmp_path):
    """Resume the cached fixpoint after an additive change; the cold run
    of the same mutated program is this leg's baseline."""
    cache = str(tmp_path / "cache")
    analyze("quickstart", cache_dir=cache)
    resumed = Sierra(SierraOptions(cache_dir=cache)).analyze(mutated_quickstart())
    assert metrics.registry().value("cache.incremental_runs") == 1
    cold = Sierra(SierraOptions()).analyze(mutated_quickstart())
    assert result_key(resumed) == result_key(cold)


def test_sharded_batch_matches_serial(baseline, tmp_path):
    sharded_leg(APPS, baseline, tmp_path)


@pytest.mark.serve_smoke
def test_serve_matches_serial(baseline, tmp_path):
    serve_leg(APPS, baseline, tmp_path)
