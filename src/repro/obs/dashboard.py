"""Self-contained HTML dashboard over the run-history ledger.

``repro dashboard -o out.html`` renders the whole ledger as **one** HTML
file: the ledger data rides inline as JSON, the charts are inline SVG
drawn by inline vanilla JS, and there are **zero external fetches** — no
CDN scripts, no fonts, no stylesheets. The file can be archived next to
a run report, attached to a ticket, or opened from a CI artifact store
years later and still work.

Views:

* stat tiles — runs recorded, apps tracked, races in the latest run and
  the new-race delta against the previous comparable run;
* stage-timing trend — cg_pa / hbg / refutation seconds per run (one
  line each, legend + direct end labels, hover tooltips);
* per-app race-count history — one line per app (capped; the rest fold
  into "other");
* metric sparklines — one small-multiple card per scraped registry
  metric, latest value + trend across runs;
* race table for the latest race-carrying run — each row flags whether
  the fingerprint is new against the previous run and expands into the
  provenance evidence tree (HB chains, aliasing, refutation verdicts)
  straight from the recorded report JSON;
* **serve-aware panels** (rendered only when the data exists): the
  daemon's jobs table, live telemetry charts from the ring-buffer
  sampler (queue depth + busy workers, job/request latency percentiles
  with gaps where no data exists, apps/sec), a per-worker heartbeat
  table, and the SLO status + alert history. ``GET /dashboard`` on a
  running daemon embeds live samples; ``repro dashboard`` against a
  ledger file embeds whatever jobs/alerts the ledger recorded. Still
  one self-contained file, zero external fetches.

Charts follow the repo-neutral reference palette (first three
categorical slots, validated for colorblind safety in light and dark
mode); identity is never color-alone — every multi-series chart has a
legend and a table fallback (the runs table doubles as the numeric view
of the trend charts).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.history import AGGREGATE_APP, RunLedger

#: race-count history folds apps beyond this many into "other"
MAX_APP_SERIES = 8


def ledger_payload(
    ledger: RunLedger,
    jobs: Optional[List[Dict[str, object]]] = None,
    telemetry: Optional[Dict[str, object]] = None,
    alerts: Optional[List[Dict[str, object]]] = None,
) -> Dict[str, object]:
    """The JSON blob the dashboard embeds: every run with its app rows
    and races (reports included, for the provenance drill-down), plus —
    when the caller has them — the serve daemon's jobs, ring-buffer
    telemetry, and SLO alert rows. All three ride in this one payload so
    the document stays a single inline ``<script type="application/
    json">`` block."""
    runs: List[Dict[str, object]] = []
    for run in ledger.runs():
        run_id = str(run["run_id"])
        runs.append(
            {
                "run_id": run_id,
                "ts_utc": run["ts_utc"],
                "kind": run["kind"],
                "options_digest": run["options_digest"],
                "apps": ledger.app_runs(run_id),
                "races": ledger.races(run_id, with_reports=True),
            }
        )
    return {
        "aggregate_app": AGGREGATE_APP,
        "max_app_series": MAX_APP_SERIES,
        "runs": runs,
        "jobs": jobs,
        "telemetry": telemetry,
        "alerts": alerts,
    }


def ledger_jobs(ledger: RunLedger, limit: int = 100) -> Optional[List[Dict[str, object]]]:
    """The serve daemon's job rows when the ledger file carries a
    ``jobs`` table (it does once ``repro serve`` ever pointed at it);
    None for a pure analysis ledger — the dashboard then simply omits
    the service panels. Read-only: a ``repro dashboard`` over someone
    else's ledger must not create tables in it."""
    present = ledger._query(
        "SELECT name FROM sqlite_master WHERE type='table' AND name='jobs'"
    )
    if not present:
        return None
    rows = ledger._query(
        "SELECT * FROM jobs ORDER BY submitted_utc DESC, rowid DESC LIMIT ?",
        [int(limit)],
    )
    out = []
    for row in rows:
        out.append(
            {
                "job_id": row["job_id"],
                "app": row["app"],
                "status": row["status"],
                "submitted_utc": row["submitted_utc"],
                "finished_utc": row["finished_utc"],
                "worker": row["worker"],
                "run_id": row["run_id"],
                "elapsed_s": row["elapsed_s"],
            }
        )
    return out


def render_dashboard(
    ledger: RunLedger,
    title: str = "SIERRA run history",
    jobs: Optional[List[Dict[str, object]]] = None,
    telemetry: Optional[Dict[str, object]] = None,
    alerts: Optional[List[Dict[str, object]]] = None,
) -> str:
    """Render the ledger as one self-contained HTML document."""
    payload = json.dumps(
        ledger_payload(ledger, jobs=jobs, telemetry=telemetry, alerts=alerts),
        sort_keys=True,
    )
    # an embedded "</script>" (e.g. in a field name) must not close our tag
    payload = payload.replace("</", "<\\/")
    return (
        _TEMPLATE.replace("__TITLE__", _escape(title)).replace(
            "__LEDGER_JSON__", payload
        )
    )


def write_dashboard(
    ledger: RunLedger,
    path: str,
    title: str = "SIERRA run history",
    jobs: Optional[List[Dict[str, object]]] = None,
    telemetry: Optional[Dict[str, object]] = None,
    alerts: Optional[List[Dict[str, object]]] = None,
) -> None:
    with open(path, "w") as fh:
        fh.write(
            render_dashboard(
                ledger, title=title, jobs=jobs, telemetry=telemetry, alerts=alerts
            )
        )


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>__TITLE__</title>
<style>
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --plane: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --ring: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #eda100; --series-5: #e87ba4; --series-6: #008300;
  --series-7: #4a3aa7; --series-8: #e34948;
  --status-critical: #d03b3b; --status-good: #0ca30c;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --plane: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
    --grid: #2c2c2a; --axis: #383835; --ring: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
    --series-7: #9085e9; --series-8: #e66767;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; background: var(--plane); color: var(--ink-1);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 1080px; margin: 0 auto; padding: 24px 20px 48px; }
h1 { font-size: 20px; font-weight: 600; margin: 0 0 4px; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
section { margin-top: 28px; }
h2 { font-size: 15px; font-weight: 600; margin: 0 0 10px; }
.card {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 10px; padding: 14px 16px;
}
.tiles { display: grid; grid-template-columns: repeat(auto-fit, minmax(150px, 1fr)); gap: 12px; }
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 30px; font-weight: 600; margin-top: 2px; }
.tile .delta { font-size: 12px; margin-top: 2px; color: var(--ink-2); }
.tile .delta.bad { color: var(--status-critical); font-weight: 600; }
.tile .delta.good { color: var(--status-good); }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin: 4px 0 8px; color: var(--ink-2); font-size: 12px; }
.legend .key { display: inline-flex; align-items: center; gap: 6px; }
.legend .swatch { width: 14px; height: 3px; border-radius: 2px; display: inline-block; }
svg text { fill: var(--ink-3); font: 11px system-ui, -apple-system, "Segoe UI", sans-serif; }
svg .endlabel { fill: var(--ink-2); font-weight: 600; }
.grid-line { stroke: var(--grid); stroke-width: 1; }
.axis-line { stroke: var(--axis); stroke-width: 1; }
.sparks { display: grid; grid-template-columns: repeat(auto-fill, minmax(200px, 1fr)); gap: 12px; }
.spark .name { font-size: 12px; color: var(--ink-2); overflow-wrap: anywhere; }
.spark .last { font-size: 18px; font-weight: 600; }
table { border-collapse: collapse; width: 100%; font-variant-numeric: tabular-nums; }
th, td { text-align: left; padding: 6px 10px; border-bottom: 1px solid var(--grid); }
th { color: var(--ink-2); font-size: 12px; font-weight: 600; }
tr.race { cursor: pointer; }
tr.race:hover td { background: var(--plane); }
.fp { font-family: ui-monospace, SFMono-Regular, Menlo, monospace; font-size: 12px; }
.badge {
  display: inline-block; padding: 1px 7px; border-radius: 8px; font-size: 11px;
  border: 1px solid var(--ring); color: var(--ink-2);
}
.badge.new { border-color: var(--status-critical); color: var(--status-critical); font-weight: 600; }
.evidence { display: none; }
tr.open + tr .evidence { display: block; }
.evidence pre {
  margin: 6px 0 10px; padding: 10px 12px; background: var(--plane);
  border-radius: 8px; overflow-x: auto; font-size: 12px; color: var(--ink-1);
}
#tooltip {
  position: fixed; pointer-events: none; display: none; z-index: 10;
  background: var(--surface-1); border: 1px solid var(--ring); border-radius: 8px;
  padding: 6px 10px; font-size: 12px; color: var(--ink-1);
  box-shadow: 0 2px 10px rgba(0,0,0,0.12);
}
#tooltip .t-head { color: var(--ink-2); margin-bottom: 2px; }
.note { color: var(--ink-3); font-size: 12px; margin-top: 8px; }
</style>
</head>
<body>
<main>
  <h1>__TITLE__</h1>
  <p class="sub" id="subtitle"></p>
  <section class="tiles" id="tiles"></section>
  <section id="slo-section" hidden>
    <h2>Service level</h2>
    <div class="card" id="slo-status"></div>
  </section>
  <section id="telemetry-section" hidden>
    <h2>Live telemetry — queue &amp; workers</h2>
    <div class="card" id="queue-chart"></div>
    <h2 style="margin-top:18px">Live telemetry — latency</h2>
    <div class="card" id="latency-chart"></div>
    <h2 style="margin-top:18px">Live telemetry — throughput</h2>
    <div class="card" id="throughput-chart"></div>
    <h2 style="margin-top:18px">Workers</h2>
    <div class="card"><table id="worker-table"></table>
      <p class="note">Heartbeats freeze at claim time: a growing age on
      a busy worker means its job is still running (or wedged).</p></div>
  </section>
  <section id="jobs-section" hidden>
    <h2>Jobs</h2>
    <div class="card"><table id="jobs-table"></table></div>
  </section>
  <section id="alerts-section" hidden>
    <h2>SLO alert history</h2>
    <div class="card"><table id="alerts-table"></table></div>
  </section>
  <section id="profile-section" hidden>
    <h2 id="profile-title">Cost attribution</h2>
    <div class="card"><table id="profile-table"></table>
      <p class="note">per-stage wall time, attribution coverage, and the
      most expensive attributed unit — recorded by analyses run with
      profiling enabled (repro profile --history)</p></div>
  </section>
  <section>
    <h2>Stage timings across runs</h2>
    <div class="card" id="stage-trend"></div>
  </section>
  <section>
    <h2>Races per app across runs</h2>
    <div class="card" id="race-history"></div>
  </section>
  <section>
    <h2>Metric trends</h2>
    <div class="sparks" id="sparks"></div>
  </section>
  <section>
    <h2 id="race-table-title">Races in latest run</h2>
    <div class="card"><table id="race-table"></table>
      <p class="note">Click a row for the recorded provenance evidence
      (happens-before chains, aliasing, refutation verdict).</p></div>
  </section>
  <section>
    <h2>Runs</h2>
    <div class="card"><table id="run-table"></table></div>
  </section>
</main>
<div id="tooltip"></div>
<script type="application/json" id="ledger-data">__LEDGER_JSON__</script>
<script>
"use strict";
const DATA = JSON.parse(document.getElementById("ledger-data").textContent);
const RUNS = DATA.runs;
const AGG = DATA.aggregate_app;
const css = name => getComputedStyle(document.documentElement).getPropertyValue(name).trim();
const SERIES = [1,2,3,4,5,6,7,8].map(i => "--series-" + i);
const STAGES = ["cg_pa", "hbg", "refutation"];

function perAppRows(run) {
  const out = {};
  for (const [app, rec] of Object.entries(run.apps)) if (app !== AGG) out[app] = rec;
  return out;
}
function stageSeconds(run, stage) {
  if (run.apps[AGG]) return run.apps[AGG].stages[stage] ?? null;
  let total = null;
  for (const rec of Object.values(perAppRows(run))) {
    const s = rec.stages[stage];
    if (typeof s === "number") total = (total ?? 0) + s;
  }
  return total;
}
function raceRuns() { return RUNS.filter(r => r.races.length || r.kind !== "bench"); }
function shortRun(run) { return run.run_id.replace(/^r/, "").slice(0, 13); }
const fmt = v => {
  if (v == null) return "–";
  if (Math.abs(v) >= 1000) return v.toLocaleString("en-US", {maximumFractionDigits: 0});
  if (Number.isInteger(v)) return String(v);
  return v.toFixed(Math.abs(v) < 0.1 ? 4 : 3);
};

// ---------------------------------------------------------------- tooltip
const tip = document.getElementById("tooltip");
function showTip(evt, head, lines) {
  tip.innerHTML = "<div class='t-head'></div>" + lines.map(() => "<div></div>").join("");
  tip.children[0].textContent = head;
  lines.forEach((l, i) => { tip.children[i + 1].textContent = l; });
  tip.style.display = "block";
  const pad = 14, w = tip.offsetWidth, h = tip.offsetHeight;
  tip.style.left = Math.min(evt.clientX + pad, innerWidth - w - 8) + "px";
  tip.style.top = Math.min(evt.clientY + pad, innerHeight - h - 8) + "px";
}
function hideTip() { tip.style.display = "none"; }

// ------------------------------------------------------------- line chart
function lineChart(el, labels, series, unit) {
  // series: [{name, color, values: (number|null)[]}]
  const W = Math.max(el.clientWidth - 32, 420), H = 210;
  const m = {t: 12, r: 110, b: 26, l: 46};
  const iw = W - m.l - m.r, ih = H - m.t - m.b;
  const n = labels.length;
  const vmax = Math.max(1e-9, ...series.flatMap(s => s.values.filter(v => v != null)));
  const niceMax = (() => {
    const p = Math.pow(10, Math.floor(Math.log10(vmax)));
    for (const k of [1, 2, 2.5, 5, 10]) if (k * p >= vmax) return k * p;
    return 10 * p;
  })();
  const x = i => m.l + (n === 1 ? iw / 2 : (i * iw) / (n - 1));
  const y = v => m.t + ih - (v / niceMax) * ih;
  const svgNS = "http://www.w3.org/2000/svg";
  const svg = document.createElementNS(svgNS, "svg");
  svg.setAttribute("viewBox", `0 0 ${W} ${H}`);
  svg.setAttribute("width", "100%");
  const add = (parent, tag, attrs, text) => {
    const node = document.createElementNS(svgNS, tag);
    for (const [k, v] of Object.entries(attrs)) node.setAttribute(k, v);
    if (text != null) node.textContent = text;
    parent.appendChild(node);
    return node;
  };
  for (const frac of [0, 0.5, 1]) {
    const gy = m.t + ih - frac * ih;
    add(svg, "line", {x1: m.l, x2: m.l + iw, y1: gy, y2: gy,
                      class: frac ? "grid-line" : "axis-line"});
    add(svg, "text", {x: m.l - 6, y: gy + 4, "text-anchor": "end"},
        fmt(frac * niceMax) + (frac === 1 && unit ? " " + unit : ""));
  }
  const step = Math.max(1, Math.ceil(n / 8));
  labels.forEach((lab, i) => {
    if (i % step === 0 || i === n - 1)
      add(svg, "text", {x: x(i), y: H - 8, "text-anchor": "middle"}, lab);
  });
  series.forEach(s => {
    const pts = s.values.map((v, i) => v == null ? null : [x(i), y(v)]);
    const d = pts.map((p, i) => p == null ? "" :
      (i === 0 || pts[i - 1] == null ? "M" : "L") + p[0].toFixed(1) + " " + p[1].toFixed(1)
    ).join(" ");
    add(svg, "path", {d, fill: "none", stroke: css(s.color), "stroke-width": 2,
                      "stroke-linejoin": "round", "stroke-linecap": "round"});
    pts.forEach((p, i) => {
      if (p == null) return;
      add(svg, "circle", {cx: p[0], cy: p[1], r: 4, fill: css(s.color),
                          stroke: css("--surface-1"), "stroke-width": 2});
      const hit = add(svg, "circle", {cx: p[0], cy: p[1], r: 11, fill: "transparent"});
      hit.addEventListener("mousemove", evt => showTip(evt, labels[i],
        [s.name + ": " + fmt(s.values[i]) + (unit ? " " + unit : "")]));
      hit.addEventListener("mouseleave", hideTip);
    });
    const last = [...pts].reverse().find(p => p != null);
    if (last) add(svg, "text", {x: m.l + iw + 8, y: last[1] + 4, class: "endlabel"},
                  s.name);
  });
  el.appendChild(svg);
}

function legend(el, series) {
  const div = document.createElement("div");
  div.className = "legend";
  for (const s of series) {
    const key = document.createElement("span");
    key.className = "key";
    const sw = document.createElement("span");
    sw.className = "swatch";
    sw.style.background = css(s.color);
    key.appendChild(sw);
    key.appendChild(document.createTextNode(s.name));
    div.appendChild(key);
  }
  el.appendChild(div);
}

// --------------------------------------------------------------- tiles
(function tiles() {
  const el = document.getElementById("tiles");
  const rr = raceRuns();
  const latest = rr[rr.length - 1], prev = rr[rr.length - 2];
  const apps = new Set();
  RUNS.forEach(r => Object.keys(perAppRows(r)).forEach(a => apps.add(a)));
  let newCount = null;
  if (latest && prev) {
    const before = new Set(prev.races.map(r => r.app + "|" + r.fingerprint));
    newCount = latest.races.filter(r => !before.has(r.app + "|" + r.fingerprint)).length;
  }
  const tiles = [
    {label: "Runs recorded", value: RUNS.length},
    {label: "Apps tracked", value: apps.size},
    {label: "Races in latest run", value: latest ? latest.races.length : 0},
  ];
  if (newCount != null)
    tiles.push({label: "New vs previous run", value: newCount,
                delta: newCount > 0 ? "regression" : "clean",
                cls: newCount > 0 ? "bad" : "good"});
  for (const t of tiles) {
    const card = document.createElement("div");
    card.className = "card tile";
    const mk = (cls, text) => {
      const d = document.createElement("div");
      d.className = cls; d.textContent = text; card.appendChild(d);
    };
    mk("label", t.label);
    mk("value", String(t.value));
    if (t.delta) mk("delta " + t.cls, t.delta);
    el.appendChild(card);
  }
  document.getElementById("subtitle").textContent =
    RUNS.length ? `${RUNS.length} run(s), ${RUNS[0].ts_utc} → ${RUNS[RUNS.length - 1].ts_utc}`
                : "ledger is empty";
})();

// ------------------------------------------------------- stage trend
(function stageTrend() {
  const el = document.getElementById("stage-trend");
  if (!RUNS.length) { el.textContent = "no runs recorded"; return; }
  const labels = RUNS.map(shortRun);
  const series = STAGES.map((stage, i) => ({
    name: stage, color: SERIES[i],
    values: RUNS.map(r => stageSeconds(r, stage)),
  }));
  legend(el, series);
  lineChart(el, labels, series, "s");
})();

// ------------------------------------------------------ race history
(function raceHistory() {
  const el = document.getElementById("race-history");
  const rr = raceRuns();
  if (!rr.length) { el.textContent = "no race-carrying runs recorded"; return; }
  const totals = {};
  rr.forEach(r => r.races.forEach(race => {
    totals[race.app] = (totals[race.app] || 0) + 1;
  }));
  const apps = Object.keys(totals).sort((a, b) => totals[b] - totals[a] || a.localeCompare(b));
  const kept = apps.slice(0, DATA.max_app_series - (apps.length > DATA.max_app_series ? 1 : 0));
  const counts = run => {
    const by = {};
    run.races.forEach(r => { by[r.app] = (by[r.app] || 0) + 1; });
    return by;
  };
  const series = kept.map((app, i) => ({
    name: app, color: SERIES[i % SERIES.length],
    values: rr.map(r => counts(r)[app] || (app in perAppRows(r) ? 0 : null)),
  }));
  if (apps.length > kept.length) {
    series.push({name: "other", color: SERIES[kept.length % SERIES.length],
      values: rr.map(r => {
        const by = counts(r);
        return apps.slice(kept.length).reduce((n, app) => n + (by[app] || 0), 0);
      })});
  }
  legend(el, series);
  lineChart(el, rr.map(shortRun), series, "");
})();

// -------------------------------------------------------- sparklines
(function sparks() {
  const el = document.getElementById("sparks");
  const names = new Set();
  // "profile" is the reserved attribution-summary key, not a counter
  RUNS.forEach(r => Object.values(perAppRows(r)).forEach(rec =>
    Object.keys(rec.metrics || {}).filter(n => n !== "profile")
      .forEach(n => names.add(n))));
  if (!names.size) { el.textContent = "no metrics scraped"; return; }
  const metricTotal = (run, name) => {
    let total = null;
    for (const rec of Object.values(perAppRows(run))) {
      const entry = (rec.metrics || {})[name];
      if (!entry) continue;
      const v = entry.type === "histogram" ? entry.sum : entry.value;
      if (typeof v === "number") total = (total ?? 0) + v;
    }
    return total;
  };
  for (const name of [...names].sort()) {
    const values = RUNS.map(r => metricTotal(r, name));
    const card = document.createElement("div");
    card.className = "card spark";
    const nm = document.createElement("div");
    nm.className = "name"; nm.textContent = name;
    const last = document.createElement("div");
    last.className = "last";
    last.textContent = fmt([...values].reverse().find(v => v != null));
    card.appendChild(nm); card.appendChild(last);
    const W = 180, H = 36;
    const present = values.filter(v => v != null);
    const vmax = Math.max(1e-9, ...present), vmin = Math.min(0, ...present);
    const svgNS = "http://www.w3.org/2000/svg";
    const svg = document.createElementNS(svgNS, "svg");
    svg.setAttribute("viewBox", `0 0 ${W} ${H}`);
    svg.setAttribute("width", "100%");
    const x = i => values.length === 1 ? W / 2 : 4 + (i * (W - 8)) / (values.length - 1);
    const y = v => 4 + (H - 8) * (1 - (v - vmin) / (vmax - vmin || 1));
    const pts = values.map((v, i) => v == null ? null : [x(i), y(v)]);
    const d = pts.map((p, i) => p == null ? "" :
      (i === 0 || pts[i - 1] == null ? "M" : "L") + p[0].toFixed(1) + " " + p[1].toFixed(1)
    ).join(" ");
    const path = document.createElementNS(svgNS, "path");
    path.setAttribute("d", d);
    path.setAttribute("fill", "none");
    path.setAttribute("stroke", css("--series-1"));
    path.setAttribute("stroke-width", "2");
    svg.appendChild(path);
    const lastPt = [...pts].reverse().find(p => p != null);
    if (lastPt) {
      const dot = document.createElementNS(svgNS, "circle");
      dot.setAttribute("cx", lastPt[0]); dot.setAttribute("cy", lastPt[1]);
      dot.setAttribute("r", 4); dot.setAttribute("fill", css("--series-1"));
      dot.setAttribute("stroke", css("--surface-1"));
      dot.setAttribute("stroke-width", 2);
      svg.appendChild(dot);
    }
    svg.addEventListener("mousemove", evt => showTip(evt, name,
      RUNS.map((r, i) => shortRun(r) + ": " + fmt(values[i])).slice(-6)));
    svg.addEventListener("mouseleave", hideTip);
    card.appendChild(svg);
    el.appendChild(card);
  }
})();

// ----------------------------------------------------- serve panels
function simpleTable(table, headers, rows) {
  const head = document.createElement("tr");
  for (const h of headers) {
    const th = document.createElement("th"); th.textContent = h; head.appendChild(th);
  }
  table.appendChild(head);
  for (const row of rows) {
    const tr = document.createElement("tr");
    row.forEach((cell, i) => {
      const td = document.createElement("td");
      if (cell && cell.badge != null) {
        const b = document.createElement("span");
        b.className = "badge" + (cell.bad ? " new" : "");
        b.textContent = cell.badge;
        td.appendChild(b);
      } else td.textContent = cell == null ? "–" : String(cell);
      if (cell && cell.mono) td.className = "fp";
      tr.appendChild(td);
    });
    table.appendChild(tr);
  }
}

(function sloStatus() {
  const tel = DATA.telemetry;
  if (!tel || !tel.slo) return;
  document.getElementById("slo-section").hidden = false;
  const el = document.getElementById("slo-status");
  const ok = tel.slo.status === "ok";
  const head = document.createElement("div");
  head.className = "tile";
  const value = document.createElement("div");
  value.className = "value";
  value.textContent = tel.slo.status.toUpperCase();
  value.style.color = css(ok ? "--status-good" : "--status-critical");
  head.appendChild(value);
  el.appendChild(head);
  for (const v of tel.slo.violations || []) {
    const line = document.createElement("div");
    line.className = "note";
    line.textContent = `${v.objective}: ${v.metric} = ${fmt(v.value)} ` +
      `(threshold ${fmt(v.threshold)}, burn rate ${fmt(v.burn_rate)}, ` +
      `since ${v.since_utc})`;
    line.style.color = css("--status-critical");
    el.appendChild(line);
  }
  if (ok) {
    const line = document.createElement("div");
    line.className = "note";
    line.textContent = "all declared objectives within budget";
    el.appendChild(line);
  }
})();

(function telemetryCharts() {
  const tel = DATA.telemetry;
  if (!tel || !tel.samples || !tel.samples.length) return;
  document.getElementById("telemetry-section").hidden = false;
  const samples = tel.samples;
  const labels = samples.map(s => (s.ts_utc || "").slice(11, 19));
  const pick = key => samples.map(s => (typeof s[key] === "number" ? s[key] : null));
  const qEl = document.getElementById("queue-chart");
  const qSeries = [
    {name: "queue depth", color: "--series-1", values: pick("queue_depth")},
    {name: "running", color: "--series-2", values: pick("jobs_running")},
    {name: "workers busy", color: "--series-3", values: pick("workers_busy")},
  ];
  legend(qEl, qSeries); lineChart(qEl, labels, qSeries, "");
  const lEl = document.getElementById("latency-chart");
  // nulls (empty-histogram NaN upstream) render as gaps, never zeros
  const lSeries = [
    {name: "job p50", color: "--series-1", values: pick("job_p50_s")},
    {name: "job p99", color: "--series-2", values: pick("job_p99_s")},
    {name: "request p99", color: "--series-4", values: pick("request_p99_s")},
  ];
  legend(lEl, lSeries); lineChart(lEl, labels, lSeries, "s");
  const tEl = document.getElementById("throughput-chart");
  const tSeries = [
    {name: "apps/sec", color: "--series-3", values: pick("apps_per_s")},
  ];
  legend(tEl, tSeries); lineChart(tEl, labels, tSeries, "/s");
  const last = samples[samples.length - 1];
  if (last && last.workers && last.workers.length) {
    simpleTable(
      document.getElementById("worker-table"),
      ["worker", "state", "job", "heartbeat age (s)", "jobs finished"],
      last.workers.map(w => [
        w.worker,
        {badge: w.busy ? "busy" : "idle", bad: false},
        w.job_id || "–",
        fmt(w.heartbeat_age_s),
        w.jobs_finished,
      ]),
    );
  }
})();

(function jobsTable() {
  const jobs = DATA.jobs;
  if (!jobs || !jobs.length) return;
  document.getElementById("jobs-section").hidden = false;
  simpleTable(
    document.getElementById("jobs-table"),
    ["job", "app", "status", "worker", "submitted (UTC)", "elapsed (s)", "run"],
    jobs.map(j => [
      j.job_id, j.app,
      {badge: j.status, bad: j.status === "failed"},
      j.worker, j.submitted_utc, fmt(j.elapsed_s), j.run_id,
    ]),
  );
})();

(function alertsTable() {
  const alerts = DATA.alerts;
  if (!alerts || !alerts.length) return;
  document.getElementById("alerts-section").hidden = false;
  simpleTable(
    document.getElementById("alerts-table"),
    ["when (UTC)", "objective", "state", "value", "threshold"],
    alerts.slice(-100).map(a => [
      a.ts_utc, a.objective,
      {badge: a.state, bad: a.state === "firing"},
      fmt(a.value), fmt(a.threshold),
    ]),
  );
})();

// -------------------------------------------- cost-attribution panel
(function profilePanel() {
  // the profiler's most expensive unit per pipeline stage
  const STAGE_KIND = {cg_pa: "pointsto.method", hbg: "hb.rule",
                      refutation: "refute.field"};
  // RUNS is oldest-first; the newest run carrying any per-app
  // attribution summary wins
  for (const run of [...RUNS].reverse()) {
    const rows = [];
    for (const [app, rec] of Object.entries(perAppRows(run))) {
      const prof = (rec.metrics || {}).profile;
      if (!prof || !prof.stages) continue;
      for (const [stage, kind] of Object.entries(STAGE_KIND)) {
        const st = prof.stages[stage];
        if (!st) continue;
        const units = (prof.units || {})[kind] || [];
        const top = units.length
          ? `${units[0].name} (${fmt(units[0].seconds)}s)` : "–";
        rows.push([
          app, stage, fmt(st.seconds),
          {badge: `${(100 * (st.coverage ?? 0)).toFixed(1)}%`,
           bad: (st.coverage ?? 0) < 0.5},
          {mono: true, toString: () => top},
        ]);
      }
      rows.push([app, "self-overhead", fmt(prof.self_overhead_s),
                 null, `${prof.charges ?? 0} charges, ${prof.events ?? 0} events`]);
    }
    if (!rows.length) continue;
    document.getElementById("profile-section").hidden = false;
    document.getElementById("profile-title").textContent =
      `Cost attribution (run ${shortRun(run)})`;
    simpleTable(
      document.getElementById("profile-table"),
      ["app", "stage", "seconds", "coverage", "most expensive unit"],
      rows,
    );
    return;
  }
})();

// ------------------------------------------------- provenance render
function evidenceText(race) {
  const rep = race.report || {};
  const prov = rep.provenance || {};
  const lines = [];
  lines.push(`race ${race.fingerprint} — rank ${race.rank}, ${race.kind}-race on ` +
             `${race.field} (tier ${race.tier}, priority ${race.priority}, ` +
             `verdict ${race.verdict})`);
  if (rep.access1) lines.push("  access 1: " + rep.access1);
  if (rep.access2) lines.push("  access 2: " + rep.access2);
  const hb = prov.hb || {};
  const fork = hb.fork_evidence;
  if (fork) {
    lines.push(`  happens-before: fork point ${fork.fork} (${fork.fork_label})`);
    for (const key of ["chain_to_a", "chain_to_b"]) {
      const chain = (fork[key] || []).map(e => `${e.rule} (${e.src}≺${e.dst})`).join(" → ");
      lines.push(`    ${key.replace(/_/g, " ")}: ${chain || "(direct)"}`);
    }
  } else if (hb.actions) {
    lines.push("  happens-before: no common ancestor — the actions never synchronize");
  }
  if (hb.rule6_gap) {
    lines.push(`  rule-6 gap: ${hb.rule6_gap.unordered_poster_pairs} poster pair(s) unordered`);
  }
  const al = prov.aliasing || {};
  if (al.location) {
    lines.push(`  aliasing: both may touch ${al.location.base}.${al.location.field}` +
               ` — overlapping cells: ${(al.overlap && al.overlap.items || []).length}`);
  }
  const ref = prov.refutation || {};
  if (ref.enabled === false) lines.push("  refutation: not run");
  else if (ref.enabled) {
    lines.push(`  refutation: ${ref.verdict}` +
               (ref.budget_exceeded ? " (path budget exceeded)" : "") +
               ` — nodes expanded: ${ref.nodes_expanded}`);
  }
  for (const sib of prov.refuted_siblings || []) {
    lines.push(`    refuted sibling: actions (${sib.actions}) on ${sib.field}` +
               ` (ordering ${sib.refuted_ordering} infeasible)`);
  }
  return lines.join("\\n");
}

// -------------------------------------------------------- race table
(function raceTable() {
  const table = document.getElementById("race-table");
  const rr = raceRuns();
  const latest = rr[rr.length - 1];
  if (!latest || !latest.races.length) {
    table.innerHTML = "<tr><td>no races recorded in the latest run</td></tr>";
    return;
  }
  const prev = rr[rr.length - 2];
  const before = new Set((prev ? prev.races : []).map(r => r.app + "|" + r.fingerprint));
  document.getElementById("race-table-title").textContent =
    `Races in latest run (${latest.run_id})`;
  const head = document.createElement("tr");
  for (const h of ["", "fingerprint", "app", "field", "kind", "tier", "verdict", "rank"]) {
    const th = document.createElement("th"); th.textContent = h; head.appendChild(th);
  }
  table.appendChild(head);
  for (const race of latest.races) {
    const isNew = prev && !before.has(race.app + "|" + race.fingerprint);
    const tr = document.createElement("tr");
    tr.className = "race";
    const cells = [
      isNew ? "NEW" : (prev ? "persisting" : ""),
      race.fingerprint, race.app, race.field, race.kind, race.tier,
      race.verdict, String(race.rank),
    ];
    cells.forEach((text, i) => {
      const td = document.createElement("td");
      if (i === 0 && text) {
        const b = document.createElement("span");
        b.className = "badge" + (text === "NEW" ? " new" : "");
        b.textContent = text;
        td.appendChild(b);
      } else td.textContent = text;
      if (i === 1) td.className = "fp";
      tr.appendChild(td);
    });
    const detail = document.createElement("tr");
    const td = document.createElement("td");
    td.colSpan = 8;
    const div = document.createElement("div");
    div.className = "evidence";
    const pre = document.createElement("pre");
    pre.textContent = evidenceText(race);
    div.appendChild(pre);
    td.appendChild(div);
    detail.appendChild(td);
    tr.addEventListener("click", () => tr.classList.toggle("open"));
    table.appendChild(tr);
    table.appendChild(detail);
  }
})();

// --------------------------------------------------------- run table
(function runTable() {
  const table = document.getElementById("run-table");
  const head = document.createElement("tr");
  for (const h of ["run", "when (UTC)", "kind", "options", "apps", "races",
                   "cg_pa (s)", "hbg (s)", "refutation (s)"]) {
    const th = document.createElement("th"); th.textContent = h; head.appendChild(th);
  }
  table.appendChild(head);
  for (const run of RUNS) {
    const tr = document.createElement("tr");
    const cells = [
      run.run_id, run.ts_utc, run.kind, run.options_digest,
      String(Object.keys(perAppRows(run)).length), String(run.races.length),
      ...STAGES.map(s => fmt(stageSeconds(run, s))),
    ];
    cells.forEach((text, i) => {
      const td = document.createElement("td");
      td.textContent = text;
      if (i === 0 || i === 3) td.className = "fp";
      tr.appendChild(td);
    });
    table.appendChild(tr);
  }
})();
</script>
</body>
</html>
"""
