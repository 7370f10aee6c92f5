"""Workload ``analyze-cli``: one user running ``repro analyze`` per app.

A closed loop with one client. Each sample is a fresh
``python -m repro analyze paper:<Name> --json`` process whose report goes
to a file. Samples cover the twenty paper apps (the Table 2/4 set) in whole
passes, so every run has the same app mix; the seed shuffles the order
within each pass. Start-up and the analysis engine do all the work: no
cache, ledger, fork or daemon.

The traced run replays every sample in process, one span per layer call,
and reports what part of each sample's latency the layers account for.
"""

from __future__ import annotations

import json
import os
import random
import statistics
from typing import Dict, List, Optional

from perfbench import common, runstate
from perfbench.groundtruth import Score, fingerprints, report_races, truth_for
from perfbench.stats import describe, summarize

#: a sample that runs this long is killed and counted as failed
CLI_TIMEOUT_S = 60.0

#: whole passes over the twenty apps per second of ``--seconds``: a pass
#: takes 12-16 s on a shared 2-core machine. The pass count depends only on
#: ``--seconds``, never on how fast the program runs; two passes give the
#: tail percentile ten samples beyond it
PASSES_PER_SECOND = 0.2
MIN_PASSES = 2

#: set-ups per run; ``setup_s`` is their median. A set-up takes about
#: 2.5 s on a 2-core machine, most of it the bytecode compile, whose time
#: wanders more between runs than the samples' does
SETUP_REPS = 5

#: stated bound on the residual (latency minus start-up minus layer spans):
#: the median residual over a run's samples, as a share of the median
#: latency. It is a few tens of milliseconds (argument parsing, the
#: detector's bookkeeping, interpreter teardown); a larger one means the
#: replayed layers no longer cover the CLI's work, and the traced run fails
RESIDUAL_MEDIAN_SHARE = 0.15
#: single samples also carry the drift of a shared machine between a sample
#: and its replay; one beyond this share of its latency is reported only
RESIDUAL_SAMPLE_SHARE = 0.5


def paper_apps() -> List[str]:
    from repro.corpus import TWENTY_APPS

    return [f"paper:{row.name}" for row in TWENTY_APPS]


def analyze_args(app: str) -> List[str]:
    return [runstate.PYTHON, "-m", "repro", "analyze", app, "--json"]


def run(seed: int, seconds: float, trace: bool, run_dir: str) -> common.Result:
    result = common.Result()
    apps = paper_apps()
    warm_report = os.path.join(run_dir, "warmup.json")
    truth: Dict[str, frozenset] = {}

    def setup_once(_i: int, pycache: str) -> str:
        truth.clear()
        truth.update({app: truth_for(app) for app in apps})
        # the warm-up may write bytecode for modules the program only
        # imports lazily; timed samples then run with writes off
        ex = runstate.run_process(
            analyze_args(apps[0]),
            runstate.base_env(pycache, write_bytecode=True),
            CLI_TIMEOUT_S,
            stdout=warm_report,
        )
        if ex.returncode != 0:
            raise RuntimeError(f"warm-up analyze exited {ex.returncode}")
        return pycache

    setup_s, pycache = common.repeated_setup(
        run_dir, setup_once, reps=1 if trace else SETUP_REPS
    )
    env = runstate.base_env(pycache)
    rng = random.Random(seed)

    samples = []  # (request, app, latency_s, races or None)
    replayed = startups = None
    if trace:
        from perfbench.replay import ReplaySet

        replayed, startups = ReplaySet(os.path.join(run_dir, "replay.json")), []
    score = Score()
    peak_rss = 0.0
    report_path = os.path.join(run_dir, "report.json")
    passes = max(MIN_PASSES, round(PASSES_PER_SECOND * seconds))
    for pass_index in range(passes):
        order = list(apps)
        rng.shuffle(order)
        for app in order:
            request = f"{app}#{pass_index}"
            ex = runstate.run_process(
                analyze_args(app), env, CLI_TIMEOUT_S, stdout=report_path
            )
            peak_rss = max(peak_rss, ex.maxrss_mb)
            races = None
            if ex.returncode == 0 and not ex.timed_out:
                try:
                    with open(report_path, encoding="utf-8") as fh:
                        report = json.load(fh)
                    if report.get("app", "").lower() != app[len("paper:"):].lower():
                        raise ValueError(f"report is for {report.get('app')!r}")
                    races = report_races(report)
                except (OSError, ValueError) as exc:
                    common.warn(f"{app}: unparsable report ({exc})")
            else:
                common.warn(f"{app}: exit {ex.returncode} timed_out={ex.timed_out}")
            result.attempted += 1
            if races is None:
                result.failed += 1
                samples.append((request, app, CLI_TIMEOUT_S, None))
                continue
            score.add(truth[app], [r["field"] for r in races])
            samples.append((request, app, ex.seconds, races))
            if replayed is not None:
                # probe start-up and replay right after the sample, so all
                # three see the same state of a shared machine
                startups.append(common.startup_once(env))
                replayed.add(request, app, fingerprints(races), paired=pass_index == 0)

    latencies = [s[2] for s in samples]
    ok_latencies = [s[2] for s in samples if s[3] is not None]
    summary = summarize(latencies)
    result.note(describe("latency", latencies))
    result.note(
        f"passes={passes} apps={len(apps)} failed_ratio="
        f"{result.failed / result.attempted:.4f} recall={score.recall:.4f} "
        f"precision={score.precision:.4f} peak_rss={peak_rss:.1f} MB"
    )
    if score.recall < 1.0:
        result.problems.append(f"recall {score.recall:.4f} < 1.0")
    result.end_to_end = {
        "latency_p50_s": summary["p50"],
        "latency_tail_s": summary["tail"],
        "throughput_apps_per_s": len(ok_latencies) / sum(latencies),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "recall": score.recall,
        "precision": score.precision,
        "completed_ratio": 1.0 - result.failed / result.attempted,
    }
    if trace:
        result.per_layer = traced(samples, startups, replayed, result)
    return result


def traced(samples, startups, replayed, result: common.Result) -> Dict[str, float]:
    """Per-layer metrics from the replays made right after each sample."""
    from perfbench.replay import engine_metrics

    for request in replayed.mismatches:
        result.problems.append(f"{request}: replay differs from the CLI report")
    replayed.tracer.write(os.path.join(runstate.WORK, "trace-analyze-cli.json"))
    spans = replayed.layer_totals()
    done = [s for s in samples if s[3] is not None]
    if not done:
        result.problems.append("no sample completed")
        return {}
    residuals = [
        latency - startup - spans[request]
        for (request, _app, latency, _races), startup in zip(done, startups)
    ]
    latencies = [s[2] for s in done]
    out = engine_metrics(replayed)
    out["cli.startup_s"] = statistics.median(startups)
    out["trace.residual_s"] = statistics.median(residuals)
    worst = max((r / latency for r, latency in zip(residuals, latencies)), key=abs)
    result.note(describe("cli.startup", startups))
    result.note(describe("trace.residual", residuals))
    result.note(
        f"traced: {len(done)} replays; median residual "
        f"{residual_share(residuals, latencies):.1%} of the median latency "
        f"(limit {RESIDUAL_MEDIAN_SHARE:.0%}); largest single residual {worst:.1%} "
        f"of its sample; tracing overhead {out['trace.overhead_s'] * 1e3:.3f} ms/sample"
    )
    problem = residual_problem(residuals, latencies)
    if problem:
        result.problems.append(problem)
    if abs(worst) > RESIDUAL_SAMPLE_SHARE:
        common.warn(f"a sample's residual is {worst:.1%} of its latency")
    return out


def residual_share(residuals: List[float], latencies: List[float]) -> float:
    """The median residual as a share of the median latency."""
    return statistics.median(residuals) / statistics.median(latencies)


def residual_problem(residuals: List[float], latencies: List[float]) -> Optional[str]:
    """Why the layer spans do not account for the samples, or ``None``."""
    share = residual_share(residuals, latencies)
    if abs(share) <= RESIDUAL_MEDIAN_SHARE:
        return None
    return (
        f"median residual is {share:.1%} of the median latency (limit "
        f"{RESIDUAL_MEDIAN_SHARE:.0%}): the replayed layers do not account for "
        f"the CLI's work"
    )
