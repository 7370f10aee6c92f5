"""Workload ``corpus-rescan``: a corpus operator's nightly re-scan.

Set-up runs ``repro corpus-analyze --shards <nproc> --cache <dir>
--history <db>`` cold over a seeded family corpus (all five families, the
generator's skewed size histogram up to size 3), which fills the cache and
the ledger. Each timed pass then re-scans a seeded list of the same shape
from a fresh copy of that state: in every (family, size) stratum about
70 % of the names are unchanged (cache reads) and the rest are new (cold
analysis plus cache writes). The new/unchanged split of each stratum is
fixed, so every seed gets the same mix; the seed picks which apps repeat
and which new apps appear.

Every list is re-scanned ``REPEATS`` times, interleaved with the other
lists, and each list counts with its median pass: a shared machine that
stalls for a few seconds slows one repetition, not the result.

The sharded scheduler, the substrate cache (reads beside writes) and the
ledger do most of the work.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from perfbench import common, runstate
from perfbench.groundtruth import HitCheck, Score, fingerprints, truth_for
from perfbench.spans import Tracer
from perfbench.stats import describe, summarize

#: apps in the cold corpus: every family at sizes 0-2, and size 3 twice,
#: in the proportions of the generator's skewed size histogram
FILL_APPS = 40
MAX_SIZE = 3
#: share of each re-scan pass that is new to the cache
NEW_SHARE = 0.3
#: per-app deadline passed to ``corpus-analyze --timeout``
APP_TIMEOUT_S = 60.0
PASS_TIMEOUT_S = 170.0
#: distinct re-scan lists per second of ``--seconds``, each re-scanned
#: REPEATS times; a pass of FILL_APPS takes 2-3 s on a shared 2-core
#: machine. The pass count depends only on ``--seconds``, never on how fast
#: the program runs, so every run and every commit re-scans the same mix
LISTS_PER_SECOND = 0.2
MIN_LISTS = 2
REPEATS = 3

_OK = ("ok", "degraded")


def corpus_args(names: List[str], state: str, out: str) -> List[str]:
    return [
        runstate.PYTHON, "-m", "repro", "corpus-analyze",
        "--apps", *names,
        "--shards", str(common.nproc()),
        "--cache", os.path.join(state, "cache"),
        "--history", os.path.join(state, "ledger.db"),
        "--timeout", str(APP_TIMEOUT_S),
        "--out", out,
    ]


def stratum(name: str) -> Tuple[str, int]:
    _, family, size, _ = name.split(":")
    return family, int(size)


class PassPlanner:
    """Seeded re-scan lists with a fixed new/unchanged mix per stratum.

    Slot ``j`` of a stratum (counted over the whole run) is new when
    ``floor(NEW_SHARE * j + phase)`` steps, so every stratum gets its share
    within one app at any point of the run; phases differ per stratum so
    the large apps' cold slots do not all land in the same pass.
    """

    def __init__(self, fill: List[str], seed: int) -> None:
        self.fill = fill
        self.rng = random.Random(seed)
        self.by_stratum: Dict[Tuple[str, int], List[str]] = {}
        for name in fill:
            self.by_stratum.setdefault(stratum(name), []).append(name)
        self.slots = {key: 0 for key in self.by_stratum}
        self.phase = {
            key: (i * 0.618034) % 1.0 for i, key in enumerate(sorted(self.by_stratum))
        }
        self.next_seed = seed * 100_000 + 50_000

    def _is_new(self, key) -> bool:
        j = self.slots[key]
        self.slots[key] += 1
        phase = self.phase[key]
        return int(NEW_SHARE * (j + 1) + phase) > int(NEW_SHARE * j + phase)

    def next_pass(self) -> Tuple[List[str], set]:
        names, new = [], set()
        pools = {key: self.rng.sample(v, len(v)) for key, v in self.by_stratum.items()}
        for position in self.fill:
            key = stratum(position)
            if self._is_new(key):
                family, size = key
                name = f"family:{family}:{size}:{self.next_seed}"
                self.next_seed += 1
                new.add(name)
            else:
                name = pools[key].pop()
            names.append(name)
        return names, new


@dataclass
class Pass:
    """One timed ``corpus-analyze`` process and what it wrote."""

    names: List[str]
    new: set
    state: str  # the copy of the filled state it re-scanned
    wall_s: float
    started: float  # time.monotonic() at spawn, the clock of the event stamps
    report: dict  # RUN_report.json
    races: Dict[str, list]  # app -> ledger race rows
    rows: Dict[str, dict]  # app -> ledger app row


def read_pass(state: str, out: str) -> Tuple[dict, Dict[str, list], Dict[str, dict]]:
    """RUN_report.json plus the ledger's race and per-app rows of that run."""
    from repro.obs.history import AGGREGATE_APP, RunLedger

    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    with RunLedger(os.path.join(state, "ledger.db")) as ledger:
        races: Dict[str, list] = {}
        for row in ledger.races(report["run_id"], with_reports=True):
            races.setdefault(row["app"], []).append(row)
        rows = ledger.app_runs(report["run_id"])
    rows.pop(AGGREGATE_APP, None)
    return report, races, rows


def run(seed: int, seconds: float, trace: bool, run_dir: str) -> common.Result:
    from repro.corpus import seeded_corpus

    result = common.Result()
    fill = seeded_corpus(count=FILL_APPS, seed=seed, max_size=MAX_SIZE)

    def setup_once(i: int, pycache: str):
        state = os.path.join(run_dir, f"state-{i}")
        os.makedirs(state)
        out = os.path.join(state, "fill.json")
        # the fill may write bytecode for modules the program only imports
        # lazily (the fork pool's); timed passes then run with writes off
        ex = runstate.run_process(
            corpus_args(fill, state, out),
            runstate.base_env(pycache, write_bytecode=True),
            PASS_TIMEOUT_S, stdout=os.path.join(state, "fill.log"), stderr="+",
        )
        if ex.returncode != 0:
            raise RuntimeError(f"cold fill exited {ex.returncode}")
        return pycache, state

    setup_s, (pycache, state) = common.repeated_setup(
        run_dir, setup_once, lambda old: shutil.rmtree(old[1], ignore_errors=True),
        reps=1 if trace else common.SETUP_REPS,
    )
    env = runstate.base_env(pycache)
    check = HitCheck()
    _, fill_races, _ = read_pass(state, os.path.join(state, "fill.json"))
    for app in fill:
        check.record_cold(app, fill_races.get(app, []))

    planner = PassPlanner(fill, seed)
    lists = [
        planner.next_pass()
        for _ in range(max(MIN_LISTS, round(LISTS_PER_SECOND * seconds)))
    ]
    runs = []  # (list index, Exit, state copy, report path, monotonic start)
    for repeat in range(REPEATS):
        for index, (names, _new) in enumerate(lists):
            copy = os.path.join(run_dir, f"pass-{index}-{repeat}")
            shutil.copytree(state, copy)
            out = os.path.join(copy, "pass.json")
            started = time.monotonic()
            ex = runstate.run_process(
                corpus_args(names, copy, out), env, PASS_TIMEOUT_S,
                stdout=os.path.join(copy, "pass.log"), stderr="+",
            )
            runs.append((index, ex, copy, out, started))

    score = Score()
    passes: Dict[int, List[Pass]] = {index: [] for index in range(len(lists))}
    latencies: List[float] = []
    truth: Dict[str, frozenset] = {}
    for index, ex, copy, out, started in runs:
        names, new = lists[index]
        result.attempted += len(names)
        try:
            report, races, rows = read_pass(copy, out)
        except (OSError, ValueError, KeyError) as exc:
            common.warn(f"pass {index}: exit {ex.returncode}, no report ({exc})")
            result.failed += len(names)
            latencies.extend([APP_TIMEOUT_S] * len(names))
            continue
        if not (trace and index == 0 and not passes[0]):
            shutil.rmtree(copy, ignore_errors=True)  # the traced run keeps pass 0
        for name in names:
            # the ledger keeps each app's dispatch-to-result time unrounded
            row = rows.get(name)
            ok = row is not None and row["status"] in _OK
            result.failed += not ok
            latencies.append(row["elapsed_s"] if ok else APP_TIMEOUT_S)
            if not ok:
                continue
            app_races = races.get(name, [])
            if name not in truth:
                truth[name] = truth_for(name)
            score.add(truth[name], [r["field"] for r in app_races])
            if name not in new:
                check.check_hit(name, app_races)
        passes[index].append(
            Pass(names, new, copy, ex.seconds, started, report, races, rows)
        )

    peak_rss = max(r[1].maxrss_mb for r in runs)
    # each list counts with its median pass
    median_wall = [
        statistics.median(p.wall_s for p in passes[i]) for i in passes if passes[i]
    ]
    apps = sum(len(lists[i][0]) for i in passes if passes[i])
    completed = 1.0 - result.failed / result.attempted
    summary = summarize(latencies)
    result.note(describe("per-app elapsed", latencies))
    result.note(
        "pass wall: " + "; ".join(
            f"list {i}: " + ", ".join(f"{p.wall_s:.3f}" for p in passes[i])
            for i in passes
        ) + " s; new apps per list: " + ", ".join(str(len(n)) for _, n in lists)
    )
    result.note(
        f"lists={len(lists)} repeats={REPEATS} apps={result.attempted} "
        f"failed_ratio={1.0 - completed:.4f} recall={score.recall:.4f} "
        f"precision={score.precision:.4f} hits_checked={check.compared} "
        f"peak_rss={peak_rss:.1f} MB"
    )
    if check.mismatches:
        result.problems.append(
            f"cache hits differ from their cold result: {check.mismatches[:5]}"
        )
    if score.recall < 1.0:
        result.problems.append(f"recall {score.recall:.4f} < 1.0")
    if not median_wall:
        result.problems.append("no re-scan pass completed")
        return result
    result.end_to_end = {
        "latency_p50_s": summary["p50"],
        "latency_tail_s": summary["tail"],
        "throughput_apps_per_s": apps * completed / sum(median_wall),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "recall": score.recall,
        "precision": score.precision,
        "completed_ratio": completed,
    }
    if trace:
        done = [p for i in passes for p in passes[i]]
        result.per_layer = traced(done, pycache, state, run_dir, result)
    return result


def cache_ratios(rows: List[dict]) -> Dict[str, float]:
    """Substrate and refutation-memo hit ratios from ledger metric scrapes."""

    def total(name: str) -> float:
        return sum(float(r["metrics"].get(name, {}).get("value") or 0) for r in rows)

    hits, misses = total("cache.substrate_hits"), total("cache.substrate_misses")
    candidates = total("refutation.candidates")
    return {
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.memo_hit_ratio": (
            total("cache.refutation_memo_hits") / candidates if candidates else 0.0
        ),
    }


def ledger_write_s(records: List[Tuple[str, dict, list]], path: str) -> float:
    """Mean seconds per app to write ``(app, app row, race rows)`` records
    again through ``RunLedger.record_app``, into a fresh ledger."""
    from repro.obs.history import RunLedger

    with RunLedger(path) as ledger:
        run_id = ledger.begin_run("corpus", {}, meta={"replay": True})
        t0 = time.perf_counter()
        for app, row, races in records:
            ledger.record_app(
                run_id, app, status=row["status"], elapsed_s=row["elapsed_s"],
                stages=row["stages"], metrics=row["metrics"], races=races,
            )
        return (time.perf_counter() - t0) / max(1, len(records))


def program_spans(tracer: Tracer, passes: List[Pass]) -> None:
    """Spans from what the program exposes: one per pass (benchmark side)
    and one per stage of every app, from RUN_report.json's event stamps."""
    for index, p in enumerate(passes):
        root = tracer.add("corpus.pass", p.started, p.started + p.wall_s, f"pass-{index}")
        for app, record in p.report["apps"].items():
            opened = {}
            for event in record.get("events", ()):
                kind = event.get("kind")
                if kind in ("stage_start", "span_start"):
                    opened[event.get("span_id")] = event
                elif kind in ("stage_end", "span_end") and event.get("span_id") in opened:
                    begin = opened.pop(event["span_id"])
                    tracer.add(f"program.{event.get('stage')}", begin["ts"], event["ts"],
                               f"{app}@pass-{index}", parent=root.id)


def traced(passes: List[Pass], pycache, state, run_dir, result) -> Dict[str, float]:
    from perfbench.replay import ReplaySet, engine_metrics

    out: Dict[str, float] = {"cli.startup_s": common.startup_probe(pycache)}
    elapsed = [[row["elapsed_s"] for row in p.rows.values()] for p in passes]
    busy = [sum(e) for e in elapsed]
    out["corpus.app_busy_s"] = statistics.mean(busy)
    out["corpus.pool_idle_ratio"] = 1.0 - sum(busy) / (
        common.nproc() * sum(p.wall_s for p in passes)
    )
    out["corpus.app_p50_s"] = statistics.median(e for per_pass in elapsed for e in per_pass)
    out.update(cache_ratios([row for p in passes for row in p.rows.values()]))
    first = passes[0]
    done = [app for app in first.names if app in first.rows]
    out["cache.bytes"] = float(runstate.dir_bytes(os.path.join(first.state, "cache")))
    out["obs.ledger_write_s"] = ledger_write_s(
        [(app, first.rows[app], first.races.get(app, [])) for app in done],
        os.path.join(run_dir, "ledger-replay.db"),
    )

    # replay the first pass in process against copies of the cache it
    # started from: hits take the bundle, new apps analyse and save
    snapshot = os.path.join(run_dir, "cache-traced")
    twin_cache = os.path.join(run_dir, "cache-untraced")
    shutil.copytree(os.path.join(state, "cache"), snapshot)
    shutil.copytree(os.path.join(state, "cache"), twin_cache)
    jobs = [
        (f"{app}@pass-0", app, fingerprints(first.races.get(app, []))) for app in done
    ]
    replayed = ReplaySet(os.path.join(run_dir, "replay.json"), snapshot, twin_cache)
    for request, app, expected in jobs:
        replayed.add(request, app, expected, paired=True)
    for request in replayed.mismatches:
        result.problems.append(f"{request}: replay differs from the ledger")
    spans = replayed.layer_totals()
    out.update(engine_metrics(replayed))
    out["trace.residual_s"] = statistics.median(
        first.rows[app]["elapsed_s"] - spans[request] for request, app, _ in jobs
    )
    program_spans(replayed.tracer, passes)
    replayed.tracer.write(os.path.join(runstate.WORK, "trace-corpus-rescan.json"))
    result.note(
        f"traced: {len(jobs)} replays, residual median {out['trace.residual_s']:.4f} s, "
        f"cache hit ratio {out['cache.hit_ratio']:.3f}"
    )
    return out
