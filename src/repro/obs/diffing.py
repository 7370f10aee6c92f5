"""Differential run analysis: what changed between two ledger runs.

``repro diff <run-a> <run-b>`` compares two runs recorded in the
:mod:`repro.obs.history` ledger the way a production deployment compares
"before the change" with "after the change" (RacerD's diff-based
reporting shape):

* **races** — classified by stable fingerprint into *new* (in B, not A),
  *fixed* (in A, not B), and *persisting*; persisting races whose
  refutation verdict changed (e.g. ``survived`` → ``survived-budget-
  exceeded``) are flagged as *verdict flips* — the race did not move but
  the evidence behind it weakened or strengthened;
* **stage timings** — per app and stage, with a noise threshold: a stage
  must slow down by more than ``time_threshold`` (relative) *and* exceed
  an absolute floor before it counts as a regression;
* **metrics** — per scraped registry metric, relative deltas beyond
  ``metric_threshold`` (effort counters drifting up is the early warning
  that timings are about to).

``repro diff --gate`` turns the comparison into a CI gate: exit 1 on any
new race or timing regression, 0 otherwise (2 is reserved for malformed
ledgers and bad run references, raised as
:class:`~repro.obs.history.LedgerError` by the ledger layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Dict, List, Optional

from repro.obs.history import AGGREGATE_APP, RunLedger

#: a stage must slow down >25% to count as a regression...
DEFAULT_TIME_THRESHOLD = 0.25
#: ...and its baseline must be above this floor (sub-50ms stages are noise)
TIME_FLOOR_S = 0.05
#: report metric deltas beyond 25% relative change
DEFAULT_METRIC_THRESHOLD = 0.25
#: metrics below this absolute baseline are never flagged (1 -> 2 is 100%)
METRIC_FLOOR = 10


@dataclass
class RunDiff:
    """Everything that changed between run A (baseline) and run B."""

    run_a: Dict[str, object]
    run_b: Dict[str, object]
    new_races: List[Dict[str, object]] = field(default_factory=list)
    fixed_races: List[Dict[str, object]] = field(default_factory=list)
    persisting_races: List[Dict[str, object]] = field(default_factory=list)
    verdict_flips: List[Dict[str, object]] = field(default_factory=list)
    stage_deltas: List[Dict[str, object]] = field(default_factory=list)
    metric_deltas: List[Dict[str, object]] = field(default_factory=list)
    #: apps present in only one run (coverage changed: diff is partial)
    apps_only_a: List[str] = field(default_factory=list)
    apps_only_b: List[str] = field(default_factory=list)
    #: SLO alerts the serve watchdog recorded between the two runs —
    #: a regression that fired in production context, not just in a diff
    alerts: List[Dict[str, object]] = field(default_factory=list)
    options_changed: bool = False

    @property
    def timing_regressions(self) -> List[Dict[str, object]]:
        return [d for d in self.stage_deltas if d["regression"]]

    @property
    def clean(self) -> bool:
        """Nothing gate-worthy: no new races, no timing regressions."""
        return not self.new_races and not self.timing_regressions

    def gate_exit_code(self) -> int:
        """0 clean, 1 on new races or timing regression (the --gate contract)."""
        return 0 if self.clean else 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "run_a": self.run_a["run_id"],
            "run_b": self.run_b["run_id"],
            "options_changed": self.options_changed,
            "new_races": list(self.new_races),
            "fixed_races": list(self.fixed_races),
            "persisting_races": len(self.persisting_races),
            "verdict_flips": list(self.verdict_flips),
            "stage_deltas": list(self.stage_deltas),
            "metric_deltas": list(self.metric_deltas),
            "apps_only_in_a": list(self.apps_only_a),
            "apps_only_in_b": list(self.apps_only_b),
            "alerts": list(self.alerts),
            "clean": self.clean,
        }


def _race_key(race: Dict[str, object]) -> tuple:
    return (str(race["app"]), str(race["fingerprint"]))


def _diff_races(diff: RunDiff, races_a, races_b) -> None:
    by_a = {_race_key(r): r for r in races_a}
    by_b = {_race_key(r): r for r in races_b}
    for key, race in by_b.items():
        if key not in by_a:
            diff.new_races.append(race)
            continue
        diff.persisting_races.append(race)
        before = by_a[key]
        if before["verdict"] != race["verdict"]:
            diff.verdict_flips.append(
                {
                    "app": race["app"],
                    "fingerprint": race["fingerprint"],
                    "field": race["field"],
                    "verdict_a": before["verdict"],
                    "verdict_b": race["verdict"],
                }
            )
    diff.fixed_races.extend(race for key, race in by_a.items() if key not in by_b)


#: which attribution kinds explain which stage (regression blame)
_BLAME_KINDS = {
    "cg_pa": ("pointsto.method", "extract.phase"),
    "hbg": ("hb.rule",),
    "refutation": ("refute.field",),
}
#: top-N blamed units attached per regressed stage
BLAME_TOP = 3


def _profile_units(record: Dict[str, object]) -> Optional[Dict[str, list]]:
    """The per-unit attribution tables of one app record, when the run
    was profiled (``repro profile``)."""
    prof = record.get("metrics", {}).get("profile")  # type: ignore[union-attr]
    if not isinstance(prof, dict):
        return None
    units = prof.get("units")
    return units if isinstance(units, dict) else None


def _blame(stage: str, units_a, units_b) -> List[Dict[str, object]]:
    """Which semantic units got slower: per-unit second deltas between
    two attribution tables, largest first."""
    rows: List[Dict[str, object]] = []
    for kind in _BLAME_KINDS.get(stage, ()):
        before = {
            str(r.get("name")): float(r.get("seconds", 0.0))
            for r in units_a.get(kind, [])
        }
        for row in units_b.get(kind, []):
            name = str(row.get("name"))
            delta = float(row.get("seconds", 0.0)) - before.get(name, 0.0)
            if delta > 0.0:
                rows.append({"kind": kind, "unit": name, "delta_s": round(delta, 4)})
    rows.sort(key=lambda r: r["delta_s"], reverse=True)  # type: ignore[arg-type,return-value]
    return rows[:BLAME_TOP]


def _diff_stages(
    diff: RunDiff, apps_a, apps_b, time_threshold: float, time_floor: float
) -> None:
    for app in sorted(set(apps_a) & set(apps_b)):
        stages_a = apps_a[app].get("stages", {})
        stages_b = apps_b[app].get("stages", {})
        for stage in sorted(set(stages_a) & set(stages_b)):
            a, b = float(stages_a[stage]), float(stages_b[stage])
            delta = b - a
            ratio = b / a if a else (float("inf") if b else 1.0)
            regression = b > max(a, time_floor) * (1.0 + time_threshold)
            if regression or abs(delta) > max(a, time_floor) * time_threshold:
                entry = {
                    "app": app,
                    "stage": stage,
                    "a_s": round(a, 4),
                    "b_s": round(b, 4),
                    "delta_s": round(delta, 4),
                    "ratio": round(ratio, 3),
                    "regression": regression,
                }
                units_a = _profile_units(apps_a[app])
                units_b = _profile_units(apps_b[app])
                if units_a is not None and units_b is not None:
                    blame = _blame(stage, units_a, units_b)
                    if blame:
                        entry["blame"] = blame
                diff.stage_deltas.append(entry)


def _metric_scalar(entry: object):
    """Scalar view of one scraped metric entry (histograms use their sum)."""
    if isinstance(entry, dict):
        value = entry.get("sum") if entry.get("type") == "histogram" else entry.get("value")
    else:
        value = entry
    return value if isinstance(value, (int, float)) else None


def _diff_metrics(diff: RunDiff, apps_a, apps_b, metric_threshold: float) -> None:
    for app in sorted(set(apps_a) & set(apps_b)):
        metrics_a = apps_a[app].get("metrics", {})
        metrics_b = apps_b[app].get("metrics", {})
        for name in sorted(set(metrics_a) & set(metrics_b)):
            a = _metric_scalar(metrics_a[name])
            b = _metric_scalar(metrics_b[name])
            if a is None or b is None or a == b:
                continue
            base = max(abs(a), METRIC_FLOOR)
            if abs(b - a) <= base * metric_threshold:
                continue
            diff.metric_deltas.append(
                {
                    "app": app,
                    "metric": name,
                    "a": a,
                    "b": b,
                    "delta": b - a,
                    "relative": round((b - a) / base, 3),
                }
            )


def _next_second(ts_utc: str) -> str:
    """Upper clamp for the alert window: one second past ``ts_utc``.

    Run rows stamp at whole-second precision while alert rows carry
    milliseconds, and the ledger compares the ISO strings
    lexicographically — an alert at ``...:05.123+00:00`` sorts *after*
    a same-second run at ``...:05+00:00``. Widening the bound by one
    second (re-emitted at millisecond precision) keeps alerts recorded
    inside run B's second in the window.
    """
    try:
        bound = datetime.fromisoformat(ts_utc) + timedelta(seconds=1)
    except ValueError:
        return ts_utc
    return bound.isoformat(timespec="milliseconds")


def diff_runs(
    ledger: RunLedger,
    ref_a: str,
    ref_b: str,
    time_threshold: float = DEFAULT_TIME_THRESHOLD,
    time_floor: float = TIME_FLOOR_S,
    metric_threshold: float = DEFAULT_METRIC_THRESHOLD,
) -> RunDiff:
    """Compare two ledger runs (A is the baseline, B the candidate).

    Raises :class:`~repro.obs.history.LedgerError` on malformed ledgers
    or unresolvable run references — the caller's exit-2 path.
    """
    run_a = ledger.resolve(ref_a)
    run_b = ledger.resolve(ref_b)
    diff = RunDiff(
        run_a=run_a,
        run_b=run_b,
        options_changed=run_a["options_digest"] != run_b["options_digest"],
    )
    apps_a = ledger.app_runs(str(run_a["run_id"]))
    apps_b = ledger.app_runs(str(run_b["run_id"]))
    # the aggregate row sums per-app stage time; diffing it double-counts
    per_a = {app: rec for app, rec in apps_a.items() if app != AGGREGATE_APP}
    per_b = {app: rec for app, rec in apps_b.items() if app != AGGREGATE_APP}
    diff.apps_only_a = sorted(set(per_a) - set(per_b))
    diff.apps_only_b = sorted(set(per_b) - set(per_a))
    _diff_races(
        diff,
        ledger.races(str(run_a["run_id"])),
        ledger.races(str(run_b["run_id"])),
    )
    _diff_stages(diff, per_a, per_b, time_threshold, time_floor)
    _diff_metrics(diff, per_a, per_b, metric_threshold)
    ts_a, ts_b = str(run_a["ts_utc"]), str(run_b["ts_utc"])
    diff.alerts = ledger.alerts(
        since_utc=min(ts_a, ts_b), until_utc=_next_second(max(ts_a, ts_b))
    )
    return diff


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _race_line(race: Dict[str, object]) -> str:
    return (
        f"  {race['fingerprint']}  {race['app']}: {race['kind']}-race on "
        f"{race['field']} (tier {race['tier']}, verdict {race['verdict']})"
    )


def render_diff(diff: RunDiff) -> str:
    """Human-readable diff report (the default ``repro diff`` output)."""
    a, b = diff.run_a, diff.run_b
    lines = [
        f"run A (baseline): {a['run_id']}  [{a['kind']}, {a['ts_utc']}]",
        f"run B (candidate): {b['run_id']}  [{b['kind']}, {b['ts_utc']}]",
    ]
    if diff.options_changed:
        lines.append(
            "note: analysis options differ between the runs "
            f"({a['options_digest']} vs {b['options_digest']}) — "
            "deltas mix config change with code change"
        )
    for missing, where in ((diff.apps_only_a, "A"), (diff.apps_only_b, "B")):
        if missing:
            lines.append(
                f"note: apps only in run {where}: {', '.join(missing)} "
                "(race/timing diff skips them)"
            )

    lines.append(
        f"\nraces: {len(diff.new_races)} new, {len(diff.fixed_races)} fixed, "
        f"{len(diff.persisting_races)} persisting, "
        f"{len(diff.verdict_flips)} verdict flip(s)"
    )
    if diff.new_races:
        lines.append("new races (in B, not in A):")
        lines.extend(_race_line(r) for r in diff.new_races)
    if diff.fixed_races:
        lines.append("fixed races (in A, not in B):")
        lines.extend(_race_line(r) for r in diff.fixed_races)
    for flip in diff.verdict_flips:
        lines.append(
            f"  verdict flip {flip['fingerprint']} ({flip['app']}: "
            f"{flip['field']}): {flip['verdict_a']} -> {flip['verdict_b']}"
        )

    regressions = diff.timing_regressions
    if diff.stage_deltas:
        lines.append(f"\nstage timings: {len(diff.stage_deltas)} notable delta(s)")
        for d in diff.stage_deltas:
            marker = "REGRESSION" if d["regression"] else "changed"
            lines.append(
                f"  [{marker}] {d['app']}/{d['stage']}: "
                f"{d['a_s']:.3f}s -> {d['b_s']:.3f}s ({d['ratio']:.2f}x)"
            )
            for blame in d.get("blame", []):
                lines.append(
                    f"      blame: {blame['kind']} {blame['unit']} "
                    f"+{blame['delta_s']:.3f}s"
                )
    else:
        lines.append("\nstage timings: no deltas beyond the noise threshold")

    if diff.metric_deltas:
        lines.append(f"metrics: {len(diff.metric_deltas)} notable delta(s)")
        for d in diff.metric_deltas[:20]:
            lines.append(
                f"  {d['app']}/{d['metric']}: {d['a']} -> {d['b']} "
                f"({d['relative']:+.0%})"
            )
        if len(diff.metric_deltas) > 20:
            lines.append(f"  ... and {len(diff.metric_deltas) - 20} more")
    else:
        lines.append("metrics: no deltas beyond the noise threshold")

    if diff.alerts:
        fired = [a for a in diff.alerts if a["state"] == "firing"]
        lines.append(
            f"SLO alerts between the runs: {len(fired)} fired, "
            f"{len(diff.alerts) - len(fired)} resolved"
        )
        for alert in diff.alerts[:10]:
            value = alert["value"]
            shown = f"{value:.3f}" if isinstance(value, float) else value
            lines.append(
                f"  [{alert['state']}] {alert['ts_utc']} {alert['objective']}: "
                f"value {shown} vs threshold {alert['threshold']}"
            )
        if len(diff.alerts) > 10:
            lines.append(f"  ... and {len(diff.alerts) - 10} more")

    verdict = (
        "clean: no new races, no timing regressions"
        if diff.clean
        else f"NOT CLEAN: {len(diff.new_races)} new race(s), "
        f"{len(regressions)} timing regression(s)"
    )
    lines.append(f"\n{verdict}")
    return "\n".join(lines)
