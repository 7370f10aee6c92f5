"""Deep cost attribution: charge wall time to semantic units, not stages.

The Table 4 stage spans say *where* a run spent its time — ``cg_pa``,
``hbg``, ``refutation`` — but not *what* inside those stages burned it.
This module adds an off-by-default attribution layer that charges wall
time, iteration counts, and peak memory to the units an operator can
actually act on:

* **per-method / per-context points-to cost** — the delta-worklist in
  :mod:`repro.analysis.pointsto` times each worklist unit and calls
  :meth:`Profiler.charge_pointsto` with the method signature and
  context;
* **per-HB-rule SHBG cost** — the ``hb.rule.<name>`` spans the builder
  already emits are folded into per-rule rows (with edges added);
* **per-field / per-candidate refutation cost** — ``refute.candidate``
  spans, including rows re-emitted from fork-pool workers via
  :func:`repro.obs.reemit`, so parallel runs attribute identically to
  serial ones;
* **extraction phase cost** — ``extract.*`` / ``cache.lookup`` spans
  tile the ``cg_pa`` stage so its wall time is accounted for too;
* **cache effectiveness** — the ``cache.*`` counters are snapshotted
  into the summary.

Zero-cost fast path
-------------------
Profiling is a hook the caller installs around a run (:func:`profiled`;
``repro profile <app>``). Outside it, *nothing* here runs: no obs
hook is installed (so :func:`repro.obs.diagnostics.span` keeps
its no-hooks short-circuit and mints no span ids), no registry metrics
are minted, and the worklist pays one ``is not None`` test per drain
call — :func:`active` returns ``None``.

Self-overhead
-------------
When enabled, the profiler's own cost is *measured*: a one-shot
microbenchmark at first construction calibrates the cost of one hook
dispatch, one ``charge_pointsto`` call, and one ``perf_counter`` pair,
and the summary multiplies those by the observed event/charge counts
(``self_overhead_s``).

Export
------
:meth:`Profiler.summary` produces a JSON-ready dict (schema 1) that
rides in the ledger's per-app metrics under the reserved ``"profile"``
key; :func:`collapsed_stacks` renders it in the collapsed-stack format
consumed by flamegraph.pl / speedscope, and :func:`parse_collapsed`
round-trips that text.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs import diagnostics, metrics

SCHEMA_VERSION = 1

#: the Table 4 stages the profiler accounts for
STAGE_NAMES = ("cg_pa", "hbg", "refutation")

#: spans that tile the cg_pa stage (phase spans + detector-side work)
_EXTRACT_SPANS = frozenset(
    {
        "cache.lookup",
        "extract.harness",
        "extract.phaseA",
        "extract.actions",
        "extract.phaseC",
        "extract.membership",
        "extract.affinity",
    }
)

#: phases whose enclosed worklist charges are tagged for the flamegraph
#: (harness generation runs its own callback-discovery fixpoints, so its
#: charges nest under extract.harness, not a phantom sibling frame)
_POINTSTO_PHASES = frozenset({"extract.phaseA", "extract.phaseC", "extract.harness"})

#: cache-effectiveness counters snapshotted into the summary
_CACHE_METRICS = (
    "cache.substrate_hits",
    "cache.substrate_misses",
    "cache.incremental_runs",
    "cache.incremental_fallbacks",
    "cache.refutation_memo_hits",
    "cache.refutation_memo_stored",
    "refutation.cache_hits",
)

_HB_PREFIX = "hb.rule."

# ----------------------------------------------------------------------
# self-overhead calibration (measured once per process, lazily)
# ----------------------------------------------------------------------
_calibration: Optional[Dict[str, float]] = None


def _calibrate() -> Dict[str, float]:
    """Measure the per-call cost of the profiler's own machinery.

    Returns seconds per: one ``perf_counter()`` pair (the worklist's
    per-unit timing), one :meth:`Profiler.charge_pointsto` call, and one
    hook dispatch of a span-end event. Cached per process.
    """
    global _calibration
    if _calibration is not None:
        return _calibration
    n = 2048
    perf = time.perf_counter

    t0 = perf()
    for _ in range(n):
        perf()
        perf()
    timer_pair_s = (perf() - t0) / n

    scratch = Profiler(_calibrated=True)
    t0 = perf()
    for i in range(n):
        scratch.charge_pointsto("Lcal;->ibrate()V", i & 7, 0.0)
    charge_s = (perf() - t0) / n

    event = diagnostics.RunEvent(
        kind=diagnostics.SPAN_END,
        stage="hb.rule.__calibration__",
        seconds=0.0,
    )
    t0 = perf()
    for _ in range(n):
        scratch(event)
    event_s = (perf() - t0) / n

    _calibration = {
        "timer_pair_s": timer_pair_s,
        "charge_s": charge_s,
        "event_s": event_s,
    }
    return _calibration


# ----------------------------------------------------------------------
# the profiler (an obs hook + a direct charge API)
# ----------------------------------------------------------------------
class Profiler:
    """Accumulates per-unit cost rows for one ``Sierra.analyze`` run.

    Installed as an obs hook by :func:`profiled`; the points-to worklist
    additionally charges it directly (spans per worklist unit would
    dominate the work being measured).
    """

    #: per-span memory capture is on while a profiler is installed
    capture_memory = True

    def __init__(self, top_k: int = 40, _calibrated: bool = False):
        self.top_k = top_k
        # stage -> {"seconds", "count", "mem"}
        self._stages: Dict[str, Dict[str, object]] = {}
        # stage -> wall seconds tiled by attribution spans
        self._covered: Dict[str, float] = defaultdict(float)
        # generic unit tables: kind -> name -> [seconds, count, extras]
        self._units: Dict[str, Dict[str, list]] = defaultdict(dict)
        # points-to: signature -> [seconds, count, {context -> seconds}]
        self._pt_methods: Dict[str, list] = {}
        # (phase, signature) -> seconds, for flamegraph nesting
        self._pt_by_phase: Dict[Tuple[str, str], float] = defaultdict(float)
        self._phase: str = "pointsto"
        self._events = 0
        self._charges = 0
        # inside a root span that is not a stage (``no_as``): its spans and
        # charges re-run stage work that is not the stages' cost
        self._skipping = False
        self._costs = None if _calibrated else _calibrate()

    # -- direct charge API (hot path: keep it flat) --------------------
    def charge_pointsto(self, signature: str, context, seconds: float) -> None:
        """Charge one worklist unit's wall time to its method + context."""
        if self._skipping:
            return
        self._charges += 1
        row = self._pt_methods.get(signature)
        if row is None:
            row = self._pt_methods[signature] = [0.0, 0, {}]
        row[0] += seconds
        row[1] += 1
        ctxs = row[2]
        ctxs[context] = ctxs.get(context, 0.0) + seconds
        self._pt_by_phase[(self._phase, signature)] += seconds

    # -- hook protocol --------------------------------------------------
    def __call__(self, event: diagnostics.RunEvent) -> None:
        kind = event.kind
        if self._skipping:
            if kind == diagnostics.SPAN_END and event.parent_id is None:
                self._skipping = False
            return
        if kind == diagnostics.SPAN_END:
            name = event.stage or ""
            seconds = event.seconds or 0.0
            if name in STAGE_NAMES:  # a stage: its own row, not an event
                info = self._stages.setdefault(
                    name, {"seconds": 0.0, "count": 0, "mem": None}
                )
                info["seconds"] += seconds
                info["count"] += 1
                if event.mem:
                    info["mem"] = dict(event.mem)
                return
            self._events += 1
            if name.startswith(_HB_PREFIX):
                self._unit_add(
                    "hb.rule",
                    name[len(_HB_PREFIX):],
                    seconds,
                    edges_added=event.detail.get("edges_added"),
                )
                self._covered["hbg"] += seconds
            elif name == "refute.candidate":
                detail = event.detail
                field = str(detail.get("field"))
                nodes = detail.get("nodes_expanded")
                verdict = detail.get("verdict")
                self._unit_add(
                    "refute.field", field, seconds, nodes_expanded=nodes
                )
                actions = detail.get("actions") or ()
                pair = "%s[%s]" % (field, ",".join(str(a) for a in actions))
                self._unit_add(
                    "refute.candidate",
                    pair,
                    seconds,
                    nodes_expanded=nodes,
                    verdict=verdict,
                )
                self._covered["refutation"] += seconds
            elif name in _EXTRACT_SPANS:
                self._unit_add("extract.phase", name, seconds)
                self._covered["cg_pa"] += seconds
                if name in _POINTSTO_PHASES:
                    self._phase = "pointsto"
        elif kind == diagnostics.SPAN_START:
            if event.parent_id is None and event.stage not in STAGE_NAMES:
                self._skipping = True
            elif event.stage in _POINTSTO_PHASES:
                self._phase = event.stage

    # -- internals -------------------------------------------------------
    def _unit_add(self, kind: str, name: str, seconds: float, **extras) -> None:
        table = self._units[kind]
        row = table.get(name)
        if row is None:
            row = table[name] = [0.0, 0, {}]
        row[0] += seconds
        row[1] += 1
        for key, value in extras.items():
            if value is None:
                continue
            if isinstance(value, (int, float)):
                row[2][key] = row[2].get(key, 0) + value
            else:  # categorical (e.g. verdict): count occurrences
                bucket = row[2].setdefault(key, {})
                bucket[str(value)] = bucket.get(str(value), 0) + 1

    def _cache_block(self) -> Dict[str, float]:
        reg = metrics.registry()
        minted = set(reg.names())
        return {
            name: reg.value(name) for name in _CACHE_METRICS if name in minted
        }

    def self_overhead_s(self) -> float:
        costs = self._costs or {"timer_pair_s": 0.0, "charge_s": 0.0, "event_s": 0.0}
        return self._charges * (costs["timer_pair_s"] + costs["charge_s"]) + (
            self._events * costs["event_s"]
        )

    # -- export ----------------------------------------------------------
    def summary(self, app: Optional[str] = None) -> Dict[str, object]:
        """JSON-ready attribution summary (see module docstring)."""
        stages: Dict[str, Dict[str, object]] = {}
        total_s = 0.0
        covered_total = 0.0
        for name in STAGE_NAMES:
            info = self._stages.get(name)
            if info is None:
                continue
            seconds = float(info["seconds"])  # type: ignore[arg-type]
            # refutation candidates overlap wall time under the fork
            # pool, so tiled coverage is capped at the stage span
            covered = min(self._covered.get(name, 0.0), seconds)
            entry: Dict[str, object] = {
                "seconds": round(seconds, 6),
                "covered_s": round(covered, 6),
                "coverage": round(covered / seconds, 4) if seconds > 0 else 1.0,
            }
            if info.get("mem"):
                entry["mem"] = info["mem"]
            stages[name] = entry
            total_s += seconds
            covered_total += covered

        units: Dict[str, List[Dict[str, object]]] = {}
        totals: Dict[str, Dict[str, object]] = {}

        pt_rows = sorted(
            self._pt_methods.items(), key=lambda kv: kv[1][0], reverse=True
        )
        totals["pointsto.method"] = {
            "seconds": round(sum(r[0] for _, r in pt_rows), 6),
            "count": sum(r[1] for _, r in pt_rows),
        }
        units["pointsto.method"] = [
            {
                "name": sig,
                "seconds": round(row[0], 6),
                "count": row[1],
                "contexts": len(row[2]),
                "phases": self._method_phases(sig),
            }
            for sig, row in pt_rows[: self.top_k]
        ]
        # per-context rows: flatten the per-method context maps
        ctx_rows = [
            ("%s @ %s" % (sig, _context_label(ctx)), secs)
            for sig, row in pt_rows
            for ctx, secs in row[2].items()
        ]
        ctx_rows.sort(key=lambda kv: kv[1], reverse=True)
        totals["pointsto.context"] = {
            "seconds": round(sum(s for _, s in ctx_rows), 6),
            "count": len(ctx_rows),
        }
        units["pointsto.context"] = [
            {"name": name, "seconds": round(secs, 6)}
            for name, secs in ctx_rows[: self.top_k]
        ]

        for kind, table in sorted(self._units.items()):
            rows = sorted(table.items(), key=lambda kv: kv[1][0], reverse=True)
            totals[kind] = {
                "seconds": round(sum(r[0] for _, r in rows), 6),
                "count": sum(r[1] for _, r in rows),
            }
            units[kind] = [
                {"name": name, "seconds": round(row[0], 6), "count": row[1], **row[2]}
                for name, row in rows[: self.top_k]
            ]

        return {
            "schema": SCHEMA_VERSION,
            "app": app,
            "stages": stages,
            "coverage": round(covered_total / total_s, 4) if total_s > 0 else 1.0,
            "self_overhead_s": round(self.self_overhead_s(), 6),
            "events": self._events,
            "charges": self._charges,
            "totals": totals,
            "units": units,
            "cache": self._cache_block(),
        }

    def _method_phases(self, signature: str) -> Dict[str, float]:
        return {
            phase: round(secs, 6)
            for (phase, sig), secs in self._pt_by_phase.items()
            if sig == signature
        }


def _context_label(context) -> str:
    try:
        return str(context)
    except Exception:  # pragma: no cover — reprs should not raise
        return repr(type(context))


# ----------------------------------------------------------------------
# module-level active profiler (the worklist's fast-path check)
# ----------------------------------------------------------------------
_active: Optional[Profiler] = None


def active() -> Optional[Profiler]:
    """The installed profiler, or ``None`` — the disabled fast path."""
    return _active


@contextmanager
def profiled(top_k: int = 40) -> Iterator[Profiler]:
    """Install a profiler as the process-wide attribution sink for the
    block: ``with profiled() as prof: sierra.analyze(apk)``"""
    global _active
    profiler = Profiler(top_k=top_k)
    if _active is not None:
        # stale profiler (e.g. inherited across a fork): displace it
        diagnostics.remove_hook(_active)
    _active = profiler
    diagnostics.add_hook(profiler)
    try:
        yield profiler
    finally:
        if _active is profiler:
            _active = None
        diagnostics.remove_hook(profiler)


# ----------------------------------------------------------------------
# collapsed-stack export (flamegraph.pl / speedscope)
# ----------------------------------------------------------------------
def _frame(text: str) -> str:
    """Sanitize one stack frame: the format reserves ``;`` (separator)
    and ``space`` (count delimiter), both of which Dalvik signatures use."""
    return str(text).replace(";", ":").replace(" ", "_") or "(anon)"


def collapsed_stacks(summary: Dict[str, object]) -> str:
    """Render a profile summary as collapsed stacks (one ``a;b;c N`` per
    line, N in integer microseconds). Residual frames keep every stage's
    subtree summing to its measured wall time, so the flamegraph is an
    honest tiling, not just the attributed subset."""
    lines: List[Tuple[str, int]] = []

    def add(frames: List[str], seconds) -> None:
        us = int(round(float(seconds) * 1e6))
        if us > 0:
            lines.append((";".join(_frame(f) for f in frames), us))

    stages: Dict[str, Dict[str, object]] = summary.get("stages", {})  # type: ignore[assignment]
    units: Dict[str, List[Dict[str, object]]] = summary.get("units", {})  # type: ignore[assignment]

    # cg_pa: phase spans, with points-to methods nested under their phase
    phase_rows = {r["name"]: float(r["seconds"]) for r in units.get("extract.phase", [])}
    method_rows = units.get("pointsto.method", [])
    per_phase_methods: Dict[str, float] = defaultdict(float)
    for row in method_rows:
        for phase, secs in (row.get("phases") or {}).items():
            add(["sierra", "cg_pa", phase, row["name"]], secs)
            per_phase_methods[phase] += float(secs)
    for phase, seconds in sorted(phase_rows.items()):
        residual = seconds - per_phase_methods.get(phase, 0.0)
        add(["sierra", "cg_pa", phase, "(residual)"], residual)
    cg = stages.get("cg_pa")
    if cg:
        add(
            ["sierra", "cg_pa", "(unattributed)"],
            float(cg["seconds"]) - float(cg["covered_s"]),
        )

    # hbg: one frame per HB rule
    hb_total = 0.0
    for row in units.get("hb.rule", []):
        add(["sierra", "hbg", "hb.rule.%s" % row["name"]], row["seconds"])
        hb_total += float(row["seconds"])
    hbg = stages.get("hbg")
    if hbg:
        add(["sierra", "hbg", "(unattributed)"], float(hbg["seconds"]) - hb_total)

    # refutation: field -> candidate pair
    refute_total = 0.0
    for row in units.get("refute.candidate", []):
        name = str(row["name"])
        field, _, pair = name.partition("[")
        add(["sierra", "refutation", field, "[" + pair], row["seconds"])
        refute_total += float(row["seconds"])
    ref = stages.get("refutation")
    if ref:
        add(
            ["sierra", "refutation", "(unattributed)"],
            float(ref["seconds"]) - refute_total,
        )

    return "".join("%s %d\n" % (stack, us) for stack, us in lines)


def parse_collapsed(text: str) -> List[Tuple[Tuple[str, ...], int]]:
    """Parse collapsed-stack text back into ``(frames, microseconds)``
    rows; raises ``ValueError`` on any malformed line (``repro profile
    --flamegraph`` uses this to refuse writing a broken export)."""
    rows: List[Tuple[Tuple[str, ...], int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        stack, sep, count = line.rpartition(" ")
        if not sep or not stack:
            raise ValueError("line %d: missing count separator" % lineno)
        try:
            value = int(count)
        except ValueError:
            raise ValueError("line %d: count %r is not an integer" % (lineno, count))
        if value < 0:
            raise ValueError("line %d: negative count" % lineno)
        frames = tuple(stack.split(";"))
        if any(not f for f in frames):
            raise ValueError("line %d: empty frame" % lineno)
        rows.append((frames, value))
    return rows


# ----------------------------------------------------------------------
# human-readable top-K tables (repro profile <app>)
# ----------------------------------------------------------------------
_TABLE_SPECS = (
    ("pointsto.method", "points-to cost by method", ("count", "contexts")),
    ("hb.rule", "SHBG cost by HB rule", ("count", "edges_added")),
    ("refute.field", "refutation cost by field", ("count", "nodes_expanded")),
    ("refute.candidate", "refutation cost by candidate", ("nodes_expanded",)),
    ("extract.phase", "cg_pa cost by phase", ("count",)),
)


def format_summary(summary: Dict[str, object], top: int = 10) -> str:
    """Render the top-K attribution tables as plain text."""
    out: List[str] = []
    app = summary.get("app")
    out.append("profile%s" % (" — %s" % app if app else ""))
    stages: Dict[str, Dict[str, object]] = summary.get("stages", {})  # type: ignore[assignment]
    for name in STAGE_NAMES:
        info = stages.get(name)
        if not info:
            continue
        mem = info.get("mem") or {}
        mem_part = (
            "  rss_peak=%d kB" % mem["rss_peak_kb"] if "rss_peak_kb" in mem else ""
        )
        out.append(
            "  %-12s %8.3fs  coverage %5.1f%%%s"
            % (name, info["seconds"], 100.0 * float(info["coverage"]), mem_part)
        )
    out.append(
        "  overall coverage %.1f%%  self-overhead %.4fs"
        % (100.0 * float(summary.get("coverage", 0.0)), summary.get("self_overhead_s", 0.0))
    )
    units: Dict[str, List[Dict[str, object]]] = summary.get("units", {})  # type: ignore[assignment]
    for kind, title, extra_cols in _TABLE_SPECS:
        rows = units.get(kind) or []
        if not rows:
            continue
        out.append("")
        out.append("%s (top %d)" % (title, min(top, len(rows))))
        for row in rows[:top]:
            extras = "  ".join(
                "%s=%s" % (col, _fmt_extra(row[col]))
                for col in extra_cols
                if col in row
            )
            out.append(
                "  %9.4fs  %s%s" % (row["seconds"], row["name"], "  " + extras if extras else "")
            )
    cache = summary.get("cache") or {}
    if cache:
        out.append("")
        out.append("cache effectiveness")
        for name, value in sorted(cache.items()):  # type: ignore[union-attr]
            out.append("  %-32s %s" % (name, value))
    return "\n".join(out)


def _fmt_extra(value) -> str:
    if isinstance(value, dict):  # categorical bucket, e.g. verdicts
        return ",".join("%s:%s" % kv for kv in sorted(value.items()))
    return str(value)
