"""The benchmark harness behind ``python -m repro bench``.

Runs the synthetic corpus through the full pipeline, records per-stage
wall-clock timings plus substrate effort counters (closure row merges,
points-to worklist iterations, refutation nodes expanded), and measures the
fast-path substrates against their naive baselines:

* HBG — build the real SHBG (all seven rules) over the app's extraction
  with the bitset closure and with
  :class:`~repro.util.graph.NaiveTransitiveClosure`, each side paying the
  Table 3 edge-count cost the way the respective pipeline served it;
* points-to — solve phase A with the delta-worklist driver and with the
  original whole-program-passes driver.

The result is written to ``BENCH_pipeline.json`` so later changes have a
recorded trajectory to regress against (``benchmarks/run_bench.py`` fails
when any stage slows down more than 2x over the recording).
"""

from __future__ import annotations

import gc
import json
import platform
import time
from typing import Dict, List, Optional, Sequence

from repro.core import Sierra, SierraOptions
from repro.util.graph import NaiveTransitiveClosure, TransitiveClosure

#: JSON layout version of BENCH_pipeline.json
SCHEMA = 1

#: default corpus: the four figure apps plus three Table 2 stand-ins of
#: increasing size; "paper:K-9 Mail" is the largest synthetic-corpus app
DEFAULT_APPS: List[str] = [
    "quickstart",
    "newsreader",
    "dbapp",
    "opensudoku",
    "paper:APV",
    "paper:OpenSudoku",
    "paper:K-9 Mail",
]

#: the app the substrate speedups are measured on (largest corpus app)
SPEEDUP_APP = "paper:K-9 Mail"


def _load_app(name: str):
    # lazy import: repro.cli imports repro.perf for the bench subcommand
    from repro.cli import load_app

    return load_app(name)


# ----------------------------------------------------------------------
# pipeline benching
# ----------------------------------------------------------------------
def collect_stage_timings(result) -> Dict[str, float]:
    """Per-stage wall clock of a :class:`~repro.core.SierraResult`."""
    report = result.report
    return {
        "cg_pa": round(report.time_cg_pa, 4),
        "hbg": round(report.time_hbg, 4),
        "refutation": round(report.time_refutation, 4),
        "total": round(report.time_total, 4),
    }


#: BENCH/RUN counter vocabulary → the registry metric each one scrapes.
#: Substrates register these where the work happens (``core/hb.py``,
#: ``analysis/pointsto.py``, ``core/refute.py``, ``core/detector.py``);
#: this table is only the rename into the stable report schema.
COUNTER_METRICS: Dict[str, str] = {
    "harnesses": "sierra.harnesses",
    "actions": "sierra.actions",
    "hb_edges": "sierra.hb_edges",
    "closure_ops": "hb.closure_ops",
    "pointsto_worklist_iterations": "pointsto.worklist_iterations",
    "refutation_nodes_expanded": "refutation.nodes_expanded",
    "refutation_cache_hits": "refutation.cache_hits",
}


def collect_counters(result=None) -> Dict[str, int]:
    """Substrate effort counters of the most recent pipeline run.

    Shared by the bench harness and the ``corpus-analyze`` batch driver so
    both emit the same counter vocabulary. Values come from the
    :mod:`repro.obs.metrics` registry — ``Sierra.analyze`` opens a fresh
    scrape window (``reset_run``) per run, so the registry holds exactly
    the finished run's effort. ``result`` is kept in the signature for
    call-site symmetry with :func:`collect_stage_timings`; it is unused.
    """
    from repro.obs import metrics

    registry = metrics.registry()
    return {key: int(registry.value(name)) for key, name in COUNTER_METRICS.items()}


def _bench_app_result(name: str, options: Optional[SierraOptions] = None):
    """One pipeline run: (BENCH record, full SierraResult)."""
    apk = _load_app(name)
    # start every app from a collected heap: where its own allocations then
    # trigger full collections (a 0.1 s pause on K-9) no longer depends on
    # what ran before it, so two bench runs time the same pauses in the
    # same stages
    gc.collect()
    result = Sierra(options or SierraOptions()).analyze(apk)
    report = result.report
    record = {
        "stages": collect_stage_timings(result),
        "counters": collect_counters(result),
        "report": {
            "racy_pairs": report.racy_pairs,
            "races_after_refutation": report.races_after_refutation,
            "edges_by_rule": dict(report.edges_by_rule),
        },
    }
    return record, result


def bench_app(name: str, options: Optional[SierraOptions] = None) -> Dict[str, object]:
    """Run the pipeline once and record stage timings + effort counters."""
    record, _result = _bench_app_result(name, options)
    return record


# ----------------------------------------------------------------------
# substrate benches (fast implementation vs the seed's naive baseline)
# ----------------------------------------------------------------------
def bench_hbg(name: str = SPEEDUP_APP, repeats: int = 3) -> Dict[str, object]:
    """HBG stage with the bitset closure vs the naive set-based closure.

    Both builds run the real rule pipeline on the app's real extraction; the
    closure implementation is injected. The naive side also pays the seed's
    Table 3 cost (``closure_edges()`` materialized for the edge count and
    again for the ordered fraction), the bitset side popcounts. One warmup
    build per side fills the extraction's shared dominance/ICFG caches, then
    the best of ``repeats`` is kept.
    """
    from repro.analysis.context import make_selector
    from repro.core.extract import extract_actions
    from repro.core.harness import generate_harnesses
    from repro.core.hb import build_shbg

    apk = _load_app(name)
    harness = generate_harnesses(apk)
    ext = extract_actions(apk, harness, selector=make_selector("action", 2))

    def run(closure_factory, seed_cost: bool):
        t0 = time.perf_counter()
        shbg = build_shbg(ext, closure=closure_factory())
        if seed_cost:  # what the pre-bitset pipeline did, twice per report
            count = len(shbg.closure.closure_edges())
            count = len(shbg.closure.closure_edges())
        else:
            count = shbg.hb_edge_count()
            count = shbg.hb_edge_count()
        return time.perf_counter() - t0, count, shbg.edges_by_rule()

    run(NaiveTransitiveClosure, True)  # warmup (shared caches)
    run(TransitiveClosure, False)
    gc.collect()
    naive = min((run(NaiveTransitiveClosure, True) for _ in range(repeats)),
                key=lambda r: r[0])
    gc.collect()
    bitset = min((run(TransitiveClosure, False) for _ in range(repeats)),
                 key=lambda r: r[0])
    assert naive[1:] == bitset[1:], "closure implementations disagree"
    return {
        "app": name,
        "actions": len(ext.actions),
        "hb_edges": naive[1],
        "naive_s": round(naive[0], 4),
        "bitset_s": round(bitset[0], 4),
        "speedup": round(naive[0] / bitset[0], 2) if bitset[0] else float("inf"),
    }


def bench_pointsto(name: str = SPEEDUP_APP, repeats: int = 3) -> Dict[str, object]:
    """Delta-worklist vs whole-program-passes points-to on phase A.

    Best of ``repeats`` per solver; the fixpoints are asserted equal.
    """
    from repro.analysis.context import InsensitiveSelector
    from repro.analysis.pointsto import PointerAnalysis
    from repro.core.harness import generate_harnesses

    apk = _load_app(name)
    harness = generate_harnesses(apk)

    def run(solver: str):
        t0 = time.perf_counter()
        analysis = PointerAnalysis(
            apk.program,
            harness.entries,
            selector=InsensitiveSelector(),
            layouts=apk.layouts,
            dispatch_table=harness.dispatch_table,
            solver=solver,
        )
        result = analysis.solve()
        return time.perf_counter() - t0, analysis, result

    gc.collect()
    passes = min((run("passes") for _ in range(repeats)), key=lambda r: r[0])
    gc.collect()
    worklist = min((run("worklist") for _ in range(repeats)), key=lambda r: r[0])
    passes_s, passes_pa, passes_res = passes
    worklist_s, worklist_pa, worklist_res = worklist
    assert passes_res.variable_count() == worklist_res.variable_count()
    assert len(passes_res.call_graph) == len(worklist_res.call_graph)
    return {
        "app": name,
        "passes_s": round(passes_s, 4),
        "worklist_s": round(worklist_s, 4),
        "passes": passes_pa.passes_run,
        "worklist_iterations": worklist_pa.worklist_iterations,
        "call_graph_nodes": len(worklist_res.call_graph),
        "speedup": round(passes_s / worklist_s, 2) if worklist_s else float("inf"),
    }


# ----------------------------------------------------------------------
# warm re-analysis bench (persistent substrate cache)
# ----------------------------------------------------------------------
#: cache effort counters added to the warm pass records (the cold/base
#: vocabulary in :data:`COUNTER_METRICS` stays unchanged — BENCH baselines
#: and corpus reports keep their schema)
_WARM_COUNTER_METRICS: Dict[str, str] = {
    "cache_substrate_hits": "cache.substrate_hits",
    "cache_substrate_misses": "cache.substrate_misses",
    "cache_refutation_memo_hits": "cache.refutation_memo_hits",
    "cache_refutation_memo_stored": "cache.refutation_memo_stored",
    "refutation_cache_hits": "refutation.cache_hits",
}


def _warm_counters() -> Dict[str, int]:
    from repro.obs import metrics

    registry = metrics.registry()
    return {
        key: int(registry.value(name))
        for key, name in _WARM_COUNTER_METRICS.items()
    }


def run_warm_bench(
    apps: Sequence[str],
    cache_dir: str,
    parallelism: int = 1,
    history: Optional[str] = None,
) -> Dict[str, object]:
    """Cold-then-warm per app against the persistent substrate cache.

    Both passes run with the cache enabled: the first populates it (cold —
    assuming a fresh cache directory), the second replays it (warm). Every
    per-app result of both passes is recorded as an ``analyze`` ledger run
    — race fingerprints and refutation verdicts included — and the two
    runs are then machine-diffed (:func:`repro.obs.diffing.diff_runs`):
    the cache is only a speedup if the warm results are *identical*, so
    any new/fixed race or verdict flip marks the warm suite as divergent
    (``repro bench --warm`` exits 2 on that).

    The equivalence ledger defaults to ``warm_equivalence.sqlite`` inside
    the cache directory when no ``history`` ledger is given.
    """
    import dataclasses
    import os

    from repro.obs.diffing import diff_runs
    from repro.obs.history import KIND_ANALYZE, RunLedger

    options = SierraOptions(parallelism=parallelism, cache_dir=cache_dir)
    os.makedirs(cache_dir, exist_ok=True)
    ledger_path = history or os.path.join(cache_dir, "warm_equivalence.sqlite")
    passes: Dict[str, Dict[str, object]] = {}
    run_ids: Dict[str, str] = {}
    with RunLedger(ledger_path) as ledger:
        for mode in ("cold", "warm"):
            run_id = ledger.begin_run(
                KIND_ANALYZE,
                dataclasses.asdict(options),
                meta={"bench_warm_pass": mode},
            )
            run_ids[mode] = run_id
            records: Dict[str, Dict[str, object]] = {}
            for name in apps:
                record, result = _bench_app_result(name, options)
                record["counters"].update(_warm_counters())
                ledger.record_analysis(
                    run_id, name, result, elapsed_s=record["stages"]["total"]
                )
                records[name] = record
            passes[mode] = records
        diff = diff_runs(ledger, run_ids["cold"], run_ids["warm"])

    divergences = []
    if diff.new_races:
        divergences.append(f"{len(diff.new_races)} new races")
    if diff.fixed_races:
        divergences.append(f"{len(diff.fixed_races)} fixed races")
    if diff.verdict_flips:
        divergences.append(f"{len(diff.verdict_flips)} verdict flips")

    warm_apps: Dict[str, Dict[str, object]] = {}
    for name in apps:
        cold_s = passes["cold"][name]["stages"]["total"]
        warm_s = passes["warm"][name]["stages"]["total"]
        warm_apps[name] = {
            "cold_total_s": cold_s,
            "warm_total_s": warm_s,
            "warm_speedup": round(cold_s / warm_s, 2) if warm_s else float("inf"),
            "stages": passes["warm"][name]["stages"],
            "counters": passes["warm"][name]["counters"],
        }
    return {
        "cache_dir": cache_dir,
        "ledger": ledger_path,
        "cold_run": run_ids["cold"],
        "warm_run": run_ids["warm"],
        "cold_apps": passes["cold"],
        "apps": warm_apps,
        "equivalence": {
            "identical": not divergences,
            "divergences": "; ".join(divergences),
            "new_races": len(diff.new_races),
            "fixed_races": len(diff.fixed_races),
            "verdict_flips": len(diff.verdict_flips),
        },
    }


# ----------------------------------------------------------------------
# serve bench (daemon throughput + serve/CLI equivalence)
# ----------------------------------------------------------------------
def run_serve_bench(
    apps: Sequence[str],
    workers: int = 2,
    concurrency: int = 4,
    history: Optional[str] = None,
    cache_dir: Optional[str] = None,
    job_timeout_s: float = 120.0,
) -> Dict[str, object]:
    """Bench the ``repro serve`` daemon and prove it result-equivalent.

    Two phases over one ledger file:

    1. **one-shot baseline** — every app runs through the pipeline the way
       ``repro analyze --history`` does, recorded as one ``analyze`` run
       per app;
    2. **serve load run** — an in-process :class:`ServeDaemon` (ephemeral
       port, ``workers`` forked workers) takes the same apps from
       ``concurrency`` client threads via the corpus driver's
       ``--target-url`` load generator, which yields the throughput
       (apps/sec) and client-observed latency percentiles (p50/p99).

    Each app's serve run is then machine-diffed against its one-shot run
    (:func:`repro.obs.diffing.diff_runs`): the daemon is only a faster
    front end if race fingerprints and refutation verdicts are
    *identical*, so any divergence marks the block non-equivalent
    (``repro bench --serve`` and ``benchmarks/run_bench.py --serve``
    exit 2 on that).
    """
    import dataclasses
    import os
    import tempfile

    from repro.corpus.driver import run_corpus_remote
    from repro.obs.diffing import diff_runs
    from repro.obs.history import KIND_ANALYZE, RunLedger
    from repro.serve import ServeDaemon

    ledger_path = history or os.path.join(
        tempfile.mkdtemp(prefix="repro-serve-bench-"), "serve_bench.sqlite"
    )
    options = SierraOptions(cache_dir=cache_dir)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)

    # phase 1: the CLI one-shot baseline, one analyze run per app (the
    # same granularity serve jobs record at, so diff_runs compares 1:1)
    oneshot_runs: Dict[str, str] = {}
    with RunLedger(ledger_path) as ledger:
        for name in apps:
            record, result = _bench_app_result(name, options)
            run_id = ledger.begin_run(
                KIND_ANALYZE,
                dataclasses.asdict(options),
                meta={"app": name, "bench_serve_pass": "oneshot"},
            )
            ledger.record_analysis(
                run_id, name, result, elapsed_s=record["stages"]["total"]
            )
            oneshot_runs[name] = run_id

    # phase 2: the daemon under load (sampling fast: a bench run is
    # seconds long, and the telemetry block below should see it happen)
    with ServeDaemon(
        ledger_path,
        options=options,
        workers=workers,
        port=0,
        job_timeout_s=job_timeout_s,
        sample_interval_s=0.25,
    ) as daemon:
        load = run_corpus_remote(
            apps=apps,
            target_url=daemon.url,
            concurrency=concurrency,
            timeout_s=job_timeout_s,
        )
        isolated = daemon.pool.isolated
        # read the ring buffer while the daemon is still alive: how much
        # of the load the sampler witnessed, and whether any SLO fired
        daemon.sampler.sample_once()
        samples = daemon.sampler.snapshot()
        depths = [
            s["queue_depth"]
            for s in samples
            if isinstance(s.get("queue_depth"), (int, float))
        ]
        slo = daemon.watchdog.status()
        telemetry_block = {
            "samples": len(samples),
            "peak_queue_depth": max(depths) if depths else 0,
            "slo_status": slo["status"],
            "slo_violations": [v["objective"] for v in slo["violations"]],
        }

    summary = load.summary()
    app_records: Dict[str, Dict[str, object]] = {}
    divergent: List[str] = []
    with RunLedger(ledger_path) as ledger:
        for record in load.records:
            entry: Dict[str, object] = {
                "job_status": record.status,
                "latency_s": round(record.latency_s, 4),
                "oneshot_run": oneshot_runs.get(record.app),
                "serve_run": record.run_id,
            }
            if record.status != "done" or not record.run_id:
                divergent.append(f"{record.app}: job {record.status}")
            else:
                diff = diff_runs(
                    ledger, oneshot_runs[record.app], record.run_id
                )
                entry["equivalent"] = not (
                    diff.new_races or diff.fixed_races or diff.verdict_flips
                )
                if not entry["equivalent"]:
                    divergent.append(
                        f"{record.app}: {len(diff.new_races)} new, "
                        f"{len(diff.fixed_races)} fixed, "
                        f"{len(diff.verdict_flips)} flips"
                    )
            app_records[record.app] = entry

    return {
        "ledger": ledger_path,
        "workers": workers,
        "concurrency": load.concurrency,
        "isolated": isolated,
        "elapsed_s": summary["elapsed_s"],
        "apps_per_s": summary["apps_per_s"],
        "latency_p50_s": summary["latency_p50_s"],
        "latency_p99_s": summary["latency_p99_s"],
        "telemetry": telemetry_block,
        "apps": app_records,
        "equivalence": {
            "identical": not divergent,
            "divergences": "; ".join(divergent),
        },
    }


# ----------------------------------------------------------------------
# corpus throughput + recall bench
# ----------------------------------------------------------------------
def run_corpus_bench(
    count: int = 100,
    seed: int = 0,
    shard_counts: Optional[Sequence[int]] = None,
    families: Optional[Sequence[str]] = None,
    max_size: int = 2,
    timeout_s: float = 120.0,
) -> Dict[str, object]:
    """Bench the sharded corpus scheduler on a seeded family corpus.

    One seeded corpus (:func:`repro.corpus.families.seeded_corpus`), run
    once per shard count. Three verdicts come out:

    * **throughput** — apps/sec, p50/p99 per-app latency, and scaling
      efficiency (speedup over 1 shard divided by shard count) per width;
    * **equivalence** — every sharded run's per-app (fingerprint, verdict)
      sets must be identical to the 1-shard run's: the scheduler may only
      reorder work, never change results;
    * **ground truth** — the 1-shard run's detected race fields scored
      against each app's injected :class:`GroundTruth` manifest
      (micro-averaged recall/precision), which the regression gate in
      ``benchmarks/run_bench.py --corpus`` tracks across commits.
    """
    from repro.corpus.driver import run_corpus
    from repro.corpus.families import (
        FAMILY_NAMES,
        aggregate_scores,
        family_ground_truth,
        score_detection,
        seeded_corpus,
    )
    from repro.corpus.scheduler import available_cores
    from repro.obs import metrics
    from repro.serve import percentile

    names = seeded_corpus(
        families=families, count=count, seed=seed, max_size=max_size
    )
    cores = available_cores()
    if shard_counts is None:
        shard_counts = sorted({1, 2, 4, cores})
    if 1 not in shard_counts:
        shard_counts = [1] + sorted(shard_counts)
    truths = {name: family_ground_truth(name) for name in names}

    def run_once(shards: int):
        steals_before = metrics.registry().value("corpus.steals")
        report = run_corpus(
            names,
            options=SierraOptions(),
            timeout_s=timeout_s,
            out_path=None,
            shards=shards,
        )
        latencies = [r.elapsed_s for r in report.records]
        summary = report.summary()
        block = {
            "elapsed_s": round(report.elapsed_s, 4),
            "apps_per_s": (
                round(len(names) / report.elapsed_s, 3) if report.elapsed_s else 0.0
            ),
            "latency_p50_s": round(percentile(latencies, 50), 4),
            "latency_p99_s": round(percentile(latencies, 99), 4),
            "ok": summary["ok"],
            "degraded": summary["degraded"],
            "error": summary["error"],
            "timeout": summary["timeout"],
            "steals": int(
                metrics.registry().value("corpus.steals") - steals_before
            ),
            "effective_parallelism": report.effective_parallelism,
        }
        outcomes = {
            r.app: (
                r.status,
                frozenset(
                    (row["fingerprint"], row["verdict"]) for row in r.races
                ),
            )
            for r in report.records
        }
        return report, block, outcomes

    shard_blocks: Dict[str, Dict[str, object]] = {}
    divergences: List[str] = []
    baseline_report = baseline_outcomes = None
    baseline_rate = 0.0
    for shards in shard_counts:
        report, block, outcomes = run_once(shards)
        if shards == 1:
            baseline_report, baseline_outcomes = report, outcomes
            baseline_rate = block["apps_per_s"]
        else:
            block["speedup"] = (
                round(block["apps_per_s"] / baseline_rate, 3)
                if baseline_rate
                else 0.0
            )
            block["scaling_efficiency"] = round(block["speedup"] / shards, 3)
            for app in names:
                if outcomes[app] != baseline_outcomes[app]:
                    divergences.append(f"{app} @ {shards} shards")
        shard_blocks[str(shards)] = block

    scores = []
    for record in baseline_report.records:
        detected = [row["field"] for row in record.races]
        scores.append(score_detection(truths[record.app], detected))
    truth_block = aggregate_scores(scores)
    truth_block["apps_with_misses"] = sum(1 for s in scores if s["missed"])

    return {
        "count": len(names),
        "seed": seed,
        "families": list(families) if families else list(FAMILY_NAMES),
        "max_size": max_size,
        "cores": cores,
        "timeout_s": timeout_s,
        "shards": shard_blocks,
        "equivalence": {
            "identical": not divergences,
            "divergences": "; ".join(divergences),
        },
        "ground_truth": truth_block,
    }


def run_profile_bench(app: str = SPEEDUP_APP) -> Dict[str, object]:
    """One profiled pipeline run — the BENCH record's ``profile`` block.

    Runs ``app`` with cost attribution enabled
    (:mod:`repro.obs.profile`), verifies the collapsed-stack export
    parses back (a broken flamegraph must fail the bench, not the
    operator's flamegraph.pl invocation later), and distills the
    summary: per-stage coverage, measured self-overhead, and the top
    attributed units per kind.
    """
    from repro.obs import profile as profile_mod

    record, result = _bench_app_result(app, SierraOptions(profile=True))
    summary = result.profile or {}
    flame_text = profile_mod.collapsed_stacks(summary)
    flame_rows = profile_mod.parse_collapsed(flame_text)  # must round-trip
    top_units = {
        kind: [
            {"name": row["name"], "seconds": row["seconds"]} for row in rows[:5]
        ]
        for kind, rows in summary.get("units", {}).items()
    }
    return {
        "app": app,
        "stages": summary.get("stages", {}),
        "coverage": summary.get("coverage", 0.0),
        "self_overhead_s": summary.get("self_overhead_s", 0.0),
        "elapsed_s": round(record["stages"].get("total", 0.0), 4),
        "flamegraph_stacks": len(flame_rows),
        "top_units": top_units,
        "cache": summary.get("cache", {}),
    }


# ----------------------------------------------------------------------
# driver + regression gate
# ----------------------------------------------------------------------
def run_bench(
    apps: Sequence[str] = DEFAULT_APPS,
    speedup_app: Optional[str] = SPEEDUP_APP,
    out_path: Optional[str] = "BENCH_pipeline.json",
    parallelism: int = 1,
    history: Optional[str] = None,
    cache_dir: Optional[str] = None,
    warm: bool = False,
    serve: bool = False,
    serve_workers: int = 2,
    serve_concurrency: int = 4,
    corpus: bool = False,
    corpus_count: int = 100,
    corpus_seed: int = 0,
    corpus_shards: Optional[Sequence[int]] = None,
    corpus_max_size: int = 2,
    profile: bool = False,
    profile_app: Optional[str] = None,
) -> Dict[str, object]:
    """Run the full bench suite; write and return the BENCH record.

    ``history`` names a run-history ledger db: the suite appends one
    ``bench`` run with a per-app row (stages + counters scrape; bench runs
    carry no race rows) so ``repro diff`` can gate timings across bench
    runs. A malformed ledger raises
    :class:`~repro.obs.history.LedgerError` before any bench runs.

    ``warm=True`` (requires ``cache_dir``) additionally runs
    :func:`run_warm_bench` and attaches its record under ``"warm"``. The
    per-app numbers under ``"apps"`` are the warm suite's *cold* pass, so
    the written file stays a valid cold baseline for the regression gate.

    ``serve=True`` additionally runs :func:`run_serve_bench` — an
    in-process daemon under load — and attaches throughput (apps/sec),
    client latency percentiles (p50/p99) and the serve/CLI equivalence
    verdict under ``"serve"``.

    ``corpus=True`` additionally runs :func:`run_corpus_bench` — a seeded
    family corpus through the sharded scheduler at several widths — and
    attaches apps/sec per shard count, scaling efficiency, sharded-vs-
    serial equivalence and ground-truth recall/precision under
    ``"corpus"``.

    ``profile=True`` additionally runs :func:`run_profile_bench` — one
    attribution-enabled run of ``profile_app`` (default: the speedup
    app) — and attaches coverage, self-overhead, flamegraph stack count
    and top attributed units under ``"profile"``.
    """
    if warm and not cache_dir:
        raise ValueError("warm bench requires a cache directory")
    ledger = None
    if history:
        from repro.obs.history import KIND_BENCH, RunLedger

        ledger = RunLedger(history)
    options = SierraOptions(parallelism=parallelism)
    data: Dict[str, object] = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "parallelism": parallelism,
    }
    # substrate speedups first, on a fresh heap: the pipeline runs below
    # leave megabytes of live objects behind, and gen-2 collections inside
    # the timed loops would tax the fast (sub-100ms) sides hardest
    if speedup_app is not None:
        hbg = bench_hbg(speedup_app)
        pointsto = bench_pointsto(speedup_app)
        slow = hbg["naive_s"] + pointsto["passes_s"]
        fast = hbg["bitset_s"] + pointsto["worklist_s"]
        data["speedup"] = {
            "app": speedup_app,
            "hbg": hbg,
            "pointsto": pointsto,
            "hbg_cg_pa_combined": round(slow / fast, 2) if fast else float("inf"),
        }
    if warm:
        warm_data = run_warm_bench(
            apps, cache_dir, parallelism=parallelism, history=history
        )
        # the warm suite's cold pass doubles as this record's app numbers:
        # the written file stays a valid cold baseline
        data["apps"] = warm_data.pop("cold_apps")
        data["warm"] = warm_data
    else:
        if cache_dir:
            options = SierraOptions(parallelism=parallelism, cache_dir=cache_dir)
            data["cache_dir"] = cache_dir
        data["apps"] = {name: bench_app(name, options) for name in apps}
    if serve:
        data["serve"] = run_serve_bench(
            apps,
            workers=serve_workers,
            concurrency=serve_concurrency,
            cache_dir=cache_dir,
        )
    if corpus:
        data["corpus"] = run_corpus_bench(
            count=corpus_count,
            seed=corpus_seed,
            shard_counts=corpus_shards,
            max_size=corpus_max_size,
        )
    if profile:
        data["profile"] = run_profile_bench(
            profile_app or speedup_app or SPEEDUP_APP
        )
    if ledger is not None:
        try:
            run_id = ledger.begin_run(
                KIND_BENCH,
                {"apps": list(apps), "parallelism": parallelism},
                meta={"speedup_app": speedup_app},
            )
            for name, record in data["apps"].items():
                ledger.record_app(
                    run_id,
                    name,
                    status="ok",
                    elapsed_s=record["stages"].get("total", 0.0),
                    stages=record["stages"],
                    metrics={k: {"type": "counter", "value": v}
                             for k, v in record["counters"].items()},
                    races=(),
                )
            data["run_id"] = run_id
            data["history"] = history
        finally:
            ledger.close()
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return data


#: stages below this baseline duration are noise, not signal
_REGRESSION_FLOOR_S = 0.05


def compare_to_baseline(
    current: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = 2.0,
) -> List[str]:
    """Stage-level regressions of ``current`` against ``baseline``.

    Returns human-readable violation strings; empty means no stage of any
    app shared by both records slowed down more than ``threshold``x.
    """
    violations: List[str] = []
    base_apps = baseline.get("apps", {})
    for app, record in current.get("apps", {}).items():
        base_record = base_apps.get(app)
        if base_record is None:
            continue
        for stage, seconds in record["stages"].items():
            base_seconds = base_record["stages"].get(stage)
            if base_seconds is None:
                continue
            allowed = max(base_seconds, _REGRESSION_FLOOR_S) * threshold
            if seconds > allowed:
                violations.append(
                    f"{app}/{stage}: {seconds:.3f}s > {threshold}x baseline "
                    f"({base_seconds:.3f}s)"
                )
    return violations
