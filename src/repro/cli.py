"""Command-line interface: ``python -m repro <command>``.

The paper's tool takes an APK and produces a ranked race list; this CLI does
the same over the reproduction's corpus:

* ``analyze <app>``  — run the SIERRA pipeline, print the ranked reports;
* ``compare <app>``  — static vs the EventRacer-style dynamic baseline,
  plus optional replay verification of the static candidates;
* ``corpus``         — list the available apps (figures, 20-app dataset,
  F-Droid population).

``<app>`` is ``quickstart`` / ``newsreader`` / ``dbapp`` / ``opensudoku``,
``paper:<Name>`` (a Table 2 row, e.g. ``paper:K-9 Mail``), or
``fdroid:<index>`` (0–173).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import signal
import sys
import time
from typing import List, Optional, Tuple

from repro import obs
from repro.android.apk import Apk
from repro.core import Sierra, SierraOptions, format_table, render_evidence_tree
from repro.corpus import (
    TWENTY_APPS,
    build_newsreader_app,
    build_opensudoku_app,
    build_quickstart_app,
    build_receiver_app,
    classify_report_field,
    fdroid_spec,
    synthesize_app,
    twenty_app_specs,
)

_FIGURE_APPS = {
    "quickstart": build_quickstart_app,
    "newsreader": build_newsreader_app,
    "dbapp": build_receiver_app,
    "opensudoku": build_opensudoku_app,
}


def load_app(name: str) -> Apk:
    """Resolve an ``<app>`` argument to an APK (see module docstring)."""
    if name in _FIGURE_APPS:
        return _FIGURE_APPS[name]()
    if name.startswith("paper:"):
        # shell-friendly: ``paper:K-9_Mail`` == ``paper:K-9 Mail``
        wanted = name[len("paper:") :].replace("_", " ")
        for spec in twenty_app_specs():
            if spec.name.lower() == wanted.lower():
                apk, _truth = synthesize_app(spec)
                return apk
        raise SystemExit(
            f"unknown paper app {wanted!r}; choose from: "
            + ", ".join(row.name for row in TWENTY_APPS)
        )
    if name.startswith("fdroid:"):
        if not is_known_app(name):
            raise SystemExit("fdroid index must be 0..173")
        apk, _truth = synthesize_app(fdroid_spec(int(name[len("fdroid:") :])))
        return apk
    if name.startswith("family:"):
        from repro.corpus.families import synthesize_family_app

        try:
            apk, _truth = synthesize_family_app(name)
        except ValueError as exc:
            raise SystemExit(str(exc))
        return apk
    raise SystemExit(
        f"unknown app {name!r}; use one of {sorted(_FIGURE_APPS)}, "
        "paper:<Name>, fdroid:<index>, or family:<family>:<size>:<seed>"
    )


def is_known_app(name: str) -> bool:
    """Does ``<app>`` resolve, without paying for synthesis? Used to fail
    batch runs (corpus-analyze, serve submissions) fast on bad names."""
    if name in _FIGURE_APPS:
        return True
    if name.startswith("paper:"):
        wanted = name[len("paper:") :].replace("_", " ").lower()
        return any(row.name.lower() == wanted for row in TWENTY_APPS)
    if name.startswith("fdroid:"):
        try:
            return 0 <= int(name[len("fdroid:") :]) < 174
        except ValueError:
            return False
    if name.startswith("family:"):
        from repro.corpus.families import parse_family_name

        try:
            parse_family_name(name)
        except ValueError:
            return False
        return True
    return False


def _options_from(args: argparse.Namespace) -> SierraOptions:
    from repro.cache import cache_dir_from_env

    return SierraOptions(
        selector=args.selector,
        k=args.k,
        refute=not args.no_refute,
        path_budget=args.path_budget,
        compare_without_as=args.compare_no_as,
        index_sensitive_arrays=getattr(args, "index_sensitive", False),
        parallelism=getattr(args, "parallelism", 1),
        cache_dir=cache_dir_from_env(getattr(args, "cache", None)),
        only_field=getattr(args, "only_field", None),
    )


def _history_path(args: argparse.Namespace) -> Optional[str]:
    return obs.history_path_from_env(getattr(args, "history", None))


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_analyze(args: argparse.Namespace) -> int:
    apk = load_app(args.app)
    options = _options_from(args)
    # --trace records the run; without it no hook is installed at all
    recorder = (
        obs.Recorder(capture_memory=args.trace_memory) if args.trace else None
    )
    started = time.monotonic()
    with recorder or contextlib.nullcontext():
        result = Sierra(options).analyze(apk)
    elapsed = time.monotonic() - started
    if recorder is not None:
        from repro.obs.tracing import write_chrome_trace

        traced = write_chrome_trace(
            args.trace, recorder.events, f"sierra:{apk.name}"
        )
    report = result.report

    if options.only_field and report.racy_pairs_selected == 0:
        candidates = sorted({p.field_name for p in result.racy_pairs})
        print(
            f"analyze: --only-field {options.only_field!r} matches none of "
            f"{apk.name}'s {len(result.racy_pairs)} racy pairs",
            file=sys.stderr,
        )
        if candidates:
            print("candidate fields:", file=sys.stderr)
            for field in candidates:
                print(f"  - {field}", file=sys.stderr)
        return 2

    history = _history_path(args)
    if history:
        from repro.obs.history import KIND_ANALYZE, RunLedger

        with RunLedger(history) as ledger:
            run_id = ledger.begin_run(
                KIND_ANALYZE, dataclasses.asdict(options), meta={"app": apk.name}
            )
            ledger.record_analysis(run_id, apk.name, result, elapsed_s=elapsed)
        print(f"recorded run {run_id} in {history}", file=sys.stderr)

    if recorder is not None:
        print(
            f"wrote {args.trace} ({traced} events; "
            "load in chrome://tracing or https://ui.perfetto.dev)",
            file=sys.stderr,
        )

    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
        return 0

    print(f"app: {apk.name}")
    print(
        f"harnesses={report.harnesses} actions={report.actions} "
        f"hb_edges={report.hb_edges} ordered={report.ordered_fraction:.1%}"
    )
    line = f"racy pairs={report.racy_pairs}"
    if report.racy_pairs_no_as is not None:
        line += f" (without action-sensitivity: {report.racy_pairs_no_as})"
    if report.only_field is not None:
        line += (
            f", selected for {report.only_field!r}={report.racy_pairs_selected}"
        )
    line += f", after refutation={report.races_after_refutation}"
    print(line)
    print(
        f"stages: cg+pa={report.time_cg_pa:.2f}s hbg={report.time_hbg:.2f}s "
        f"refutation={report.time_refutation:.2f}s"
    )
    print()
    if not report.reports:
        print("no races reported.")
        return 0
    rows = [
        {
            "#": race.rank,
            "Field": race.field_name,
            "Kind": race.kind,
            "Tier": race.tier,
            "Flags": ",".join(
                flag
                for flag, on in (
                    ("NPE-risk", race.pointer_race),
                    ("guard-var", race.benign_guard),
                )
                if on
            ),
            "Actions": " vs ".join(
                result.extraction.by_id(i).label for i in race.pair.actions
            ),
        }
        for race in report.reports[: args.top]
    ]
    print(format_table(rows))
    if args.ground_truth:
        true_n = sum(
            1 for r in report.reports if classify_report_field(r.field_name) == "true"
        )
        print(
            f"\nground truth: {true_n} true, {len(report.reports) - true_n} "
            "false positives"
        )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Print the evidence tree behind one reported race (the provenance
    block the detector attaches to every ranked report)."""
    apk = load_app(args.app)
    result = Sierra(_options_from(args)).analyze(apk)
    reports = result.report.reports
    wanted = args.race_id
    try:
        rank = int(wanted)
        matches = [r for r in reports if r.rank == rank]
        hint = f"use a rank 1..{len(reports)} or a field name"
    except ValueError:
        matches = [r for r in reports if r.field_name == wanted]
        hint = "use a reported field name or a rank; see `repro analyze`"
    if not matches:
        print(
            f"explain: no reported race matches {wanted!r} on {apk.name} "
            f"({len(reports)} reports; {hint})",
            file=sys.stderr,
        )
        return 2
    for i, report in enumerate(matches):
        if i:
            print()
        print(render_evidence_tree(report))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.dynamic import run_eventracer, verify_candidates

    apk = load_app(args.app)
    static = Sierra(_options_from(args)).analyze(apk)
    dynamic = run_eventracer(
        apk, schedules=args.schedules, max_events=args.events
    )
    static_fields = {p.field_name for p in static.surviving}
    dynamic_fields = {r.field_name for r in dynamic.races}

    print(f"app: {apk.name}")
    print(f"SIERRA (static): {len(static.surviving)} races on {len(static_fields)} fields")
    print(
        f"EventRacer ({args.schedules} schedules x {args.events} events): "
        f"{dynamic.race_count} races on {len(dynamic_fields)} fields "
        f"({dynamic.filtered_by_coverage} filtered by race coverage, "
        f"{dynamic.pointer_guarded_count()} pointer-guard FP risks)"
    )
    missed = static_fields - dynamic_fields
    print(f"missed by the dynamic run: {len(missed)} fields")
    for field in sorted(missed)[:10]:
        print(f"  - {field}")

    if args.replay:
        replay = verify_candidates(
            apk, static, schedules=args.schedules * 8, max_events=args.events
        )
        counts = replay.counts()
        print(
            f"replay verification: {counts['harmful']} harmful, "
            f"{counts['benign']} benign, {counts['unconfirmed']} unconfirmed"
        )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run one app with cost attribution on and render the results."""
    from repro.obs import profile as profile_mod

    apk = load_app(args.app)
    options = _options_from(args)
    options.profile = True
    started = time.monotonic()
    result = Sierra(options).analyze(apk)
    elapsed = time.monotonic() - started
    summary = result.profile or {}

    history = _history_path(args)
    if history:
        from repro.obs.history import KIND_ANALYZE, RunLedger

        with RunLedger(history) as ledger:
            run_id = ledger.begin_run(
                KIND_ANALYZE, dataclasses.asdict(options), meta={"app": apk.name}
            )
            ledger.record_analysis(run_id, apk.name, result, elapsed_s=elapsed)
        print(f"recorded run {run_id} in {history}", file=sys.stderr)

    if args.flamegraph:
        text = profile_mod.collapsed_stacks(summary)
        profile_mod.parse_collapsed(text)  # refuse to write a broken export
        with open(args.flamegraph, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(
            f"wrote {args.flamegraph} ({len(text.splitlines())} stacks; "
            "feed to flamegraph.pl or speedscope)",
            file=sys.stderr,
        )

    if args.json:
        import json

        print(json.dumps(summary, indent=2))
        return 0

    print(profile_mod.format_summary(summary, top=args.top))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the analysis daemon in the foreground until interrupted."""
    from repro.serve import ServeDaemon, ServeError

    history = _history_path(args)
    if not history:
        print(
            "serve: the job queue lives in the history ledger "
            "(pass --history DB or set REPRO_HISTORY)",
            file=sys.stderr,
        )
        return 2
    from repro.obs.history import LedgerError
    from repro.serve import DEFAULT_HOST, DEFAULT_PORT

    slo_overrides = {}
    for pair in args.slo or ():
        key, sep, value = pair.partition("=")
        if not sep:
            print(f"serve: --slo takes KEY=VALUE, got {pair!r}", file=sys.stderr)
            return 2
        try:
            slo_overrides[key] = float(value)
        except ValueError:
            print(f"serve: --slo value must be a number, got {pair!r}",
                  file=sys.stderr)
            return 2

    try:
        daemon = ServeDaemon(
            history,
            options=_options_from(args),
            workers=args.workers,
            host=args.host or DEFAULT_HOST,
            port=DEFAULT_PORT if args.port is None else args.port,
            job_timeout_s=args.job_timeout,
            isolate=not args.no_isolation,
            sample_interval_s=args.sample_interval,
            slo=slo_overrides or None,
        )
        daemon.start()
    except ValueError as exc:
        # bad --slo objective/field name, bad sample interval
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    except (LedgerError, ServeError, OSError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    mode = "forked" if daemon.pool.isolated else "in-process (no fork here)"
    print(f"serving on {daemon.url} — {args.workers} {mode} worker(s)")
    print(f"job queue + results: {history}")
    if daemon.recovered_jobs:
        print(f"requeued {daemon.recovered_jobs} job(s) a previous daemon left running")
    print("Ctrl-C to stop", file=sys.stderr)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
        return 0
    finally:
        daemon.stop()


def cmd_submit(args: argparse.Namespace) -> int:
    """Client: enqueue one analysis on a running daemon."""
    import json

    from repro.serve import ServeClient, ServeError

    options = {}
    for pair in args.option or ():
        key, sep, value = pair.partition("=")
        if not sep:
            print(f"submit: --option takes KEY=VALUE, got {pair!r}", file=sys.stderr)
            return 2
        try:
            options[key] = json.loads(value)
        except ValueError:
            options[key] = value  # bare strings need no quoting
    client = ServeClient(args.url)
    try:
        job = client.submit(args.app, options)
        if args.wait:
            job = client.wait(str(job["job_id"]), timeout_s=args.timeout)
    except ServeError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(job, indent=2, sort_keys=True))
    if args.wait:
        return 0 if job.get("status") == "done" else 1
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Client: poll one job, or list recent jobs."""
    import json

    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.url)
    try:
        if args.job_id:
            payload: object = client.job(args.job_id)
        else:
            payload = {"jobs": client.jobs(status=args.status)}
    except ServeError as exc:
        print(f"status: {exc}", file=sys.stderr)
        return 2 if exc.status is None else 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_fetch(args: argparse.Namespace) -> int:
    """Client: fetch a race report — by job id (``j...``) or run ref."""
    import json

    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.url)
    try:
        ref = args.ref
        if ref.startswith("j"):
            job = client.job(ref)
            if not job.get("run_id"):
                print(
                    f"fetch: job {ref} is {job.get('status')!r} — no run yet",
                    file=sys.stderr,
                )
                return 1
            ref = str(job["run_id"])
        report = client.report(ref)
    except ServeError as exc:
        print(f"fetch: {exc}", file=sys.stderr)
        return 2 if exc.status is None else 1
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_corpus_analyze(args: argparse.Namespace) -> int:
    from repro.corpus.driver import run_corpus

    def progress(record):
        line = f"[{record.status:>8s}] {record.app} ({record.elapsed_s:.2f}s)"
        if record.error is not None:
            line += f" — {record.error['type']}: {record.error['message']}"
        elif record.degradations:
            line += f" — {record.degradations[0]}"
        print(line, flush=True)

    from repro.obs.history import LedgerError

    try:
        run = run_corpus(
            apps=args.apps,
            options=_options_from(args),
            timeout_s=args.timeout,
            isolate=not args.no_isolation,
            out_path=args.out or None,
            inject_fail=set(args.inject_fail or ()),
            inject_hang=set(args.inject_hang or ()),
            inject_cache_corrupt=set(args.inject_cache_corrupt or ()),
            progress=progress,
            history=_history_path(args),
            shards=args.shards,
            progress_line=args.progress,
        )
    except (ValueError, LedgerError) as exc:
        # same exit code argparse uses for unusable invocations
        print(f"corpus-analyze: {exc}", file=sys.stderr)
        return 2

    summary = run.summary()
    print(
        f"\n{summary['total']} apps in {summary['elapsed_s']:.1f}s: "
        f"{summary['ok']} ok, {summary['degraded']} degraded, "
        f"{summary['error']} error, {summary['timeout']} timeout"
    )
    if args.out:
        print(f"wrote {args.out}")
    if getattr(run, "run_id", None):
        print(f"recorded run {run.run_id} in {run.history_path}", file=sys.stderr)
    return run.exit_code


def cmd_corpus_synth(args: argparse.Namespace) -> int:
    """``repro corpus-synth``: emit a seeded family corpus (names to
    stdout, ground-truth manifest to ``--out``)."""
    from repro.corpus.families import corpus_manifest, seeded_corpus

    try:
        names = seeded_corpus(
            families=args.families or None,
            count=args.count,
            seed=args.seed,
            max_size=args.max_size,
        )
    except ValueError as exc:
        print(f"corpus-synth: {exc}", file=sys.stderr)
        return 2
    for name in names:
        print(name)
    if args.out:
        import json

        manifest = corpus_manifest(names)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out} ({manifest['count']} apps)", file=sys.stderr)
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """Differential run analysis over the history ledger (exit 0 clean,
    1 when ``--gate`` trips, 2 on malformed ledgers / bad run refs)."""
    from repro.obs.diffing import (
        DEFAULT_METRIC_THRESHOLD,
        DEFAULT_TIME_THRESHOLD,
        diff_runs,
        render_diff,
    )
    from repro.obs.history import LedgerError, RunLedger

    history = _history_path(args)
    if not history:
        print(
            "diff: no history ledger (pass --history PATH or set REPRO_HISTORY)",
            file=sys.stderr,
        )
        return 2
    time_threshold = (
        DEFAULT_TIME_THRESHOLD if args.time_threshold is None else args.time_threshold
    )
    metric_threshold = (
        DEFAULT_METRIC_THRESHOLD
        if args.metric_threshold is None
        else args.metric_threshold
    )
    try:
        with RunLedger(history) as ledger:
            diff = diff_runs(
                ledger,
                args.run_a,
                args.run_b,
                time_threshold=time_threshold,
                metric_threshold=metric_threshold,
            )
    except LedgerError as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(diff.to_dict(), indent=2))
    else:
        print(render_diff(diff))
    return diff.gate_exit_code() if args.gate else 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    """Render the history ledger as one self-contained HTML file."""
    from repro.obs.dashboard import write_dashboard
    from repro.obs.history import LedgerError, RunLedger

    history = _history_path(args)
    if not history:
        print(
            "dashboard: no history ledger (pass --history PATH or set "
            "REPRO_HISTORY)",
            file=sys.stderr,
        )
        return 2
    from repro.obs.dashboard import ledger_jobs

    try:
        with RunLedger(history) as ledger:
            # serve-aware when the ledger doubles as a job store: embed
            # the jobs table and any SLO alert history alongside the runs
            write_dashboard(
                ledger,
                args.out,
                title=args.title,
                jobs=ledger_jobs(ledger),
                alerts=ledger.alerts(limit=200),
            )
    except LedgerError as exc:
        print(f"dashboard: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}")
    return 0


def _resolve_cache_dir(args: argparse.Namespace, command: str) -> Optional[str]:
    import os

    from repro.cache import cache_dir_from_env

    cache_dir = cache_dir_from_env(getattr(args, "cache", None))
    if not cache_dir:
        print(
            f"{command}: no cache directory (pass --cache DIR or set "
            "REPRO_CACHE)",
            file=sys.stderr,
        )
        return None
    if not os.path.isdir(cache_dir):
        print(f"{command}: {cache_dir} is not a directory", file=sys.stderr)
        return None
    return cache_dir


def cmd_cache_stats(args: argparse.Namespace) -> int:
    from repro.cache import SubstrateStore

    cache_dir = _resolve_cache_dir(args, "cache stats")
    if cache_dir is None:
        return 2
    store = SubstrateStore(cache_dir)
    try:
        stats = store.stats()
    finally:
        store.close()
    if args.json:
        import json

        print(json.dumps(stats, indent=2))
        return 0
    print(f"cache: {stats['root']}")
    print(f"entries: {stats['entries']} ({stats['bytes']} bytes)")
    for kind, info in sorted(stats["by_kind"].items()):
        print(f"  {kind:>10s}: {info['entries']} entries, {info['bytes']} bytes")
    print(
        f"hits={stats['hits']} misses={stats['misses']} "
        f"corrupt={stats['corrupt']} evicted={stats['evicted']} "
        f"hit_rate={stats['hit_rate']:.1%}"
    )
    return 0


def cmd_cache_gc(args: argparse.Namespace) -> int:
    from repro.cache import SubstrateStore

    cache_dir = _resolve_cache_dir(args, "cache gc")
    if cache_dir is None:
        return 2
    store = SubstrateStore(cache_dir)
    try:
        result = store.gc(max_age_days=args.max_age_days, max_bytes=args.max_bytes)
    finally:
        store.close()
    print(
        f"evicted {result['removed']} entries ({result['freed_bytes']} bytes); "
        f"{result['kept']} kept"
    )
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    rows = [
        {"App": name, "Source": "figure", "Activities": "-"}
        for name in sorted(_FIGURE_APPS)
    ]
    for row in TWENTY_APPS:
        rows.append(
            {
                "App": f"paper:{row.name}",
                "Source": "Table 2 stand-in",
                "Activities": row.harnesses,
            }
        )
    print(format_table(rows))
    print("\nplus fdroid:0 .. fdroid:173 (Table 5 population)")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SIERRA reproduction: static event-based race detection",
    )
    parser.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error", "off"),
                        help="emit the structured event log to stderr at this "
                        "level (default: $REPRO_LOG_LEVEL when set, else off)")
    parser.add_argument("--log-json", action="store_true", default=None,
                        help="format the event log as JSON lines (default: "
                        "$REPRO_LOG_JSON when set, else human-readable text)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_analysis_flags(p):
        p.add_argument("--selector", default="action",
                       choices=("insensitive", "kcfa", "kobj", "hybrid", "action"))
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--no-refute", action="store_true")
        p.add_argument("--path-budget", type=int, default=5000)
        p.add_argument("--compare-no-as", action="store_true",
                       help="also run without action sensitivity (Table 3 column)")
        p.add_argument("--index-sensitive", action="store_true",
                       help="refine constant-index array cells (paper future work)")
        p.add_argument("--parallelism", type=int, default=1,
                       help="refutation worker processes (1 = serial)")
        p.add_argument("--cache", metavar="DIR", default=None,
                       help="persistent substrate cache directory "
                       "(default: $REPRO_CACHE when set; omit both to "
                       "disable caching)")

    def add_history_flag(p):
        p.add_argument("--history", metavar="DB", default=None,
                       help="append this run to a sqlite run-history ledger "
                       "(default: $REPRO_HISTORY when set)")

    analyze = sub.add_parser("analyze", help="run the SIERRA pipeline on an app")
    analyze.add_argument("app")
    analyze.add_argument("--top", type=int, default=25, help="reports to print")
    analyze.add_argument("--ground-truth", action="store_true",
                         help="score reports against synthetic ground truth")
    analyze.add_argument("--json", action="store_true",
                         help="emit the full report as JSON")
    analyze.add_argument("--trace", metavar="PATH", default=None,
                         help="write a Chrome trace-event file of the run "
                         "(open in chrome://tracing or ui.perfetto.dev)")
    analyze.add_argument("--trace-memory", action="store_true",
                         help="capture peak-RSS (and tracemalloc, when "
                         "tracing) per span in the trace")
    analyze.add_argument("--only-field", metavar="SIG", default=None,
                         help="targeted query: refute and report only racy "
                         "pairs on this field signature (exit 2 listing "
                         "candidates when nothing matches)")
    add_analysis_flags(analyze)
    add_history_flag(analyze)
    analyze.set_defaults(func=cmd_analyze)

    profile_p = sub.add_parser(
        "profile",
        help="run the pipeline with cost attribution: per-method/field/rule "
        "top-K tables, --json schema, --flamegraph collapsed stacks",
    )
    profile_p.add_argument("app")
    profile_p.add_argument("--top", type=int, default=10,
                           help="rows per attribution table (default 10)")
    profile_p.add_argument("--json", action="store_true",
                           help="emit the attribution summary as JSON")
    profile_p.add_argument("--flamegraph", metavar="PATH", default=None,
                           help="write collapsed stacks consumable by "
                           "flamegraph.pl / speedscope")
    add_analysis_flags(profile_p)
    add_history_flag(profile_p)
    profile_p.set_defaults(func=cmd_profile)

    explain = sub.add_parser(
        "explain",
        help="print the evidence tree for one reported race "
        "(HB gap, aliasing facts, refutation verdicts)",
    )
    explain.add_argument("app")
    explain.add_argument("race_id",
                         help="report rank (1-based, as printed by analyze) "
                         "or racy field name")
    add_analysis_flags(explain)
    explain.set_defaults(func=cmd_explain)

    compare = sub.add_parser("compare", help="static vs dynamic baseline")
    compare.add_argument("app")
    compare.add_argument("--schedules", type=int, default=3)
    compare.add_argument("--events", type=int, default=50)
    compare.add_argument("--replay", action="store_true",
                         help="replay-verify the static candidates")
    add_analysis_flags(compare)
    compare.set_defaults(func=cmd_compare)

    corpus = sub.add_parser("corpus", help="list available apps")
    corpus.set_defaults(func=cmd_corpus)

    batch = sub.add_parser(
        "corpus-analyze",
        help="batch-run the pipeline over the corpus with per-app fault "
        "isolation; writes RUN_report.json",
    )
    batch.add_argument("--apps", nargs="*", default=None,
                       help="apps to run (default: figure apps + all 20 paper apps)")
    batch.add_argument("--timeout", type=float, default=120.0,
                       help="per-app wall-clock budget in seconds (default 120)")
    batch.add_argument("--out", default="RUN_report.json",
                       help="report path (empty string to skip writing)")
    batch.add_argument("--no-isolation", action="store_true",
                       help="run apps in-process (no worker fork, timeouts "
                       "not enforced; for debugging)")
    batch.add_argument("--inject-fail", action="append", metavar="APP",
                       help="fault injection: APP's worker raises before "
                       "analysis (testing aid, repeatable)")
    batch.add_argument("--inject-hang", action="append", metavar="APP",
                       help="fault injection: APP's worker sleeps past the "
                       "budget (testing aid, repeatable)")
    batch.add_argument("--inject-cache-corrupt", action="append", metavar="APP",
                       help="fault injection: corrupt every cache entry "
                       "before APP's analysis runs (testing aid, repeatable; "
                       "requires --cache)")
    batch.add_argument("--shards", type=int, default=1,
                       help="worker-pool width for the sharded scheduler "
                       "(default 1; per-shard refutation parallelism is "
                       "core-budgeted to cores//shards)")
    batch.add_argument("--progress", action="store_true",
                       help="stream a live done/total + apps/sec + ETA line "
                       "to stderr")
    add_analysis_flags(batch)
    add_history_flag(batch)
    batch.set_defaults(func=cmd_corpus_analyze)

    synth = sub.add_parser(
        "corpus-synth",
        help="generate a seeded app-family corpus: names to stdout, "
        "ground-truth manifest to --out",
    )
    synth.add_argument("--families", nargs="*", default=None,
                       help="families to draw from (default: all of "
                       "mesh storm lifecycle looper chain)")
    synth.add_argument("--count", type=int, default=100,
                       help="number of apps (default 100)")
    synth.add_argument("--seed", type=int, default=0,
                       help="corpus seed; same seed + args = identical corpus")
    synth.add_argument("--max-size", type=int, default=2,
                       help="largest size knob to draw (0..4, default 2; "
                       "each step is ~4x the idiom density)")
    synth.add_argument("--out", default=None, metavar="PATH",
                       help="write the machine-readable GroundTruth "
                       "manifest JSON here")
    synth.set_defaults(func=cmd_corpus_synth)

    cache_p = sub.add_parser(
        "cache",
        help="inspect or prune the persistent substrate cache",
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="print entry counts, sizes and hit rates")
    cache_stats.add_argument("--cache", metavar="DIR", default=None,
                             help="cache directory (default: $REPRO_CACHE)")
    cache_stats.add_argument("--json", action="store_true",
                             help="emit stats as JSON")
    cache_stats.set_defaults(func=cmd_cache_stats)
    cache_gc = cache_sub.add_parser(
        "gc", help="evict stale entries (by age, then LRU to a size budget)")
    cache_gc.add_argument("--cache", metavar="DIR", default=None,
                          help="cache directory (default: $REPRO_CACHE)")
    cache_gc.add_argument("--max-age-days", type=float, default=None,
                          help="evict entries unused for this many days")
    cache_gc.add_argument("--max-bytes", type=int, default=None,
                          help="evict least-recently-used entries until the "
                          "store fits this byte budget")
    cache_gc.set_defaults(func=cmd_cache_gc)

    diff = sub.add_parser(
        "diff",
        help="differential run analysis: new/fixed races, verdict flips, "
        "timing and metric deltas between two ledger runs",
    )
    diff.add_argument("run_a", help="baseline run (id, prefix, latest, latest~N)")
    diff.add_argument("run_b", help="candidate run (id, prefix, latest, latest~N)")
    diff.add_argument("--gate", action="store_true",
                      help="exit 1 on new races or timing regressions")
    diff.add_argument("--time-threshold", type=float, default=None,
                      help="relative stage-slowdown threshold (default 0.25)")
    diff.add_argument("--metric-threshold", type=float, default=None,
                      help="relative metric-delta threshold (default 0.25)")
    diff.add_argument("--json", action="store_true",
                      help="emit the diff as JSON")
    add_history_flag(diff)
    diff.set_defaults(func=cmd_diff)

    dashboard = sub.add_parser(
        "dashboard",
        help="render the run-history ledger as a single self-contained "
        "HTML file (no external resources)",
    )
    dashboard.add_argument("-o", "--out", default="dashboard.html",
                           help="output HTML path (default dashboard.html)")
    dashboard.add_argument("--title", default="SIERRA run history",
                           help="page title")
    add_history_flag(dashboard)
    dashboard.set_defaults(func=cmd_dashboard)

    serve = sub.add_parser(
        "serve",
        help="run the analysis daemon: HTTP API + persistent worker pool "
        "over the history ledger's job queue",
    )
    serve.add_argument("--host", default=None,
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="bind port (default 8787; 0 picks a free port)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker threads draining the job queue (default 2)")
    serve.add_argument("--job-timeout", type=float, default=120.0,
                       help="per-job wall-clock budget in seconds (default 120)")
    serve.add_argument("--no-isolation", action="store_true",
                       help="run jobs in-process (no worker fork, timeouts "
                       "not enforced; for debugging)")
    serve.add_argument("--sample-interval", type=float, default=1.0,
                       help="telemetry ring-buffer sampling interval in "
                       "seconds (default 1.0)")
    serve.add_argument("--slo", action="append", metavar="KEY=VALUE",
                       help="SLO override (repeatable): KEY is an objective "
                       "name to set its threshold (p99_job_latency, "
                       "queue_wait, failure_ratio, worker_stall) or "
                       "objective.field for window_s / burn_threshold / "
                       "min_samples / min_events, e.g. --slo queue_wait=30 "
                       "--slo failure_ratio.window_s=120")
    add_analysis_flags(serve)
    add_history_flag(serve)
    serve.set_defaults(func=cmd_serve)

    def add_url_flag(p):
        p.add_argument("--url", default=None,
                       help="daemon base URL (default: $REPRO_SERVE_URL, "
                       "then http://127.0.0.1:8787)")

    submit = sub.add_parser(
        "submit", help="client: enqueue one analysis on a running daemon")
    submit.add_argument("app")
    submit.add_argument("--option", action="append", metavar="KEY=VALUE",
                        help="job option override (repeatable), e.g. "
                        "--option selector=kcfa --option k=3")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes (exit 0 done, 1 failed)")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="--wait budget in seconds (default 300)")
    add_url_flag(submit)
    submit.set_defaults(func=cmd_submit)

    status = sub.add_parser(
        "status", help="client: poll one job, or list recent jobs")
    status.add_argument("job_id", nargs="?", default=None,
                        help="job id (omit to list recent jobs)")
    status.add_argument("--status", default=None,
                        choices=("queued", "running", "done", "failed"),
                        help="filter the listing by state")
    add_url_flag(status)
    status.set_defaults(func=cmd_status)

    fetch = sub.add_parser(
        "fetch",
        help="client: fetch the race report behind a job id or run ref",
    )
    fetch.add_argument("ref", help="job id (j...), run id, prefix, or latest")
    add_url_flag(fetch)
    fetch.set_defaults(func=cmd_fetch)
    return parser


#: conventional exit status for a consumer hanging up early: 128 + SIGPIPE,
#: what the shell reports for a process actually killed by the signal
SIGPIPE_EXIT = 128 + int(getattr(signal, "SIGPIPE", 13))


def _silence_broken_pipes() -> None:
    """Point stdout/stderr at ``os.devnull`` after a broken pipe.

    Closing just stdout is not enough: the interpreter flushes *both*
    streams at exit, and when the consumer (``head``, a dying pager) took
    stderr down with the same pipe, that exit-time flush tracebacks after
    main() already returned cleanly. Redirecting the underlying file
    descriptors makes every later write — ours or the interpreter's —
    land harmlessly in the null device.
    """
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
    except OSError:
        return
    try:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (OSError, ValueError):
                pass
            try:
                os.dup2(devnull, stream.fileno())
            except (OSError, ValueError, AttributeError):
                pass
    finally:
        os.close(devnull)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    obs.log.configure(level=args.log_level, json_mode=args.log_json)
    try:
        return args.func(args)
    except BrokenPipeError:
        # output piped into `head` etc.; exit quietly like a well-behaved
        # tool, with the conventional 128+SIGPIPE status
        _silence_broken_pipes()
        return SIGPIPE_EXIT


if __name__ == "__main__":
    sys.exit(main())
