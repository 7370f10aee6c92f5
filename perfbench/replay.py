"""In-process replay of one analysis, one span per layer call.

The traced runs call the program's public functions in the order
``Sierra.analyze`` calls them (``repro.core.detector``), wrapping a span
around each, so the per-layer numbers come from the benchmark's own files
and the program stays uninstrumented. With a cache directory the replay
takes the detector's cache path: ``SubstrateCache.lookup`` before harness
generation, the bundle on a hit, ``save`` after the SHBG on a miss, and
the refutation memo around ``refute_all``.

The replay writes the same report the CLI prints (``SierraReport.to_dict``)
and returns its race fingerprints, so the benchmark can check that the
replay did what the timed program did.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.context import make_selector
from repro.cache import SubstrateCache
from repro.cli import load_app
from repro.core import (
    RefutationEngine,
    SierraOptions,
    SierraReport,
    attach_provenance,
    build_shbg,
    collect_accesses,
    extract_actions,
    find_racy_pairs,
    generate_harnesses,
    rank_races,
)
from repro.obs import metrics

from perfbench.spans import Tracer, layer_self_time

#: layer spans of one replay, in call order; ``cache.*`` only with a cache
LAYERS = (
    "corpus.synth",
    "cache.lookup",
    "core.harness",
    "core.extract",
    "core.hb",
    "cache.save",
    "core.races",
    "core.refute",
    "core.provenance",
    "core.report",
)

#: registry counters (``repro.obs.metrics``) read after each replay
COUNTERS = {
    "analysis.pointsto_iterations": "pointsto.worklist_iterations",
    "util.closure_ops": "hb.closure_ops",
    "symbolic.nodes_expanded": "refutation.nodes_expanded",
}


@dataclass
class Replayed:
    fingerprints: frozenset
    counts: Dict[str, float]


def replay(
    name: str,
    tracer: Tracer,
    request: str,
    report_path: str,
    cache_dir: Optional[str] = None,
) -> Replayed:
    opts = SierraOptions(cache_dir=cache_dir)
    metrics.reset_run()
    cache = SubstrateCache(cache_dir) if cache_dir else None
    try:
        with tracer.span("replay", request):
            return _replay(name, opts, tracer, request, report_path, cache)
    finally:
        if cache is not None:
            cache.close()


def _replay(name, opts, tracer, request, report_path, cache) -> Replayed:
    span = tracer.span
    with span("corpus.synth", request):
        apk = load_app(name)
    outcome = None
    if cache is not None:
        with span("cache.lookup", request):
            outcome = cache.lookup(apk, opts)
    if outcome is not None and outcome.hit:
        apk = outcome.bundle["apk"]
        harness = outcome.bundle["harness"]
        extraction = outcome.bundle["extraction"]
        shbg = outcome.bundle["shbg"]
    else:
        with span("core.harness", request):
            harness = generate_harnesses(apk)
        with span("core.extract", request):
            extraction = extract_actions(
                apk,
                harness,
                selector=make_selector(opts.selector, opts.k),
                index_sensitive_arrays=opts.index_sensitive_arrays,
            )
        with span("core.hb", request):
            shbg = build_shbg(extraction)
        if outcome is not None:
            with span("cache.save", request):
                cache.save(outcome, apk, opts, harness, extraction, shbg)
    with span("core.races", request):
        accesses = collect_accesses(extraction)
        pairs = find_racy_pairs(extraction, shbg, accesses)
    with span("core.refute", request):
        memo = None
        if outcome is not None:
            memo = cache.memo(outcome, opts, opts.path_budget, opts.loop_bound)
            memo.prepare(pairs)
        engine = RefutationEngine(
            extraction,
            path_budget=opts.path_budget,
            loop_bound=opts.loop_bound,
            memo=memo,
        )
        summary = engine.refute_all(pairs, parallelism=opts.parallelism)
        if memo is not None:
            memo.flush(summary.results)
    with span("core.provenance", request):
        report = SierraReport(app=apk.name)
        report.harnesses = harness.harness_count()
        report.actions = len(extraction.actions)
        report.hb_edges = shbg.hb_edge_count()
        report.ordered_fraction = shbg.ordered_fraction()
        report.racy_pairs = len(pairs)
        report.races_after_refutation = len(summary.surviving)
        report.edges_by_rule = shbg.edges_by_rule()
        report.refutation_stats = summary.stats()
        report.reports = rank_races(extraction, summary.surviving)
        attach_provenance(report.reports, extraction, shbg, results=summary.results)
    with span("core.report", request):
        blob = report.to_dict()
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(blob, indent=2))
    registry = metrics.registry()
    stats = summary.stats()
    counts = {key: float(registry.value(metric)) for key, metric in COUNTERS.items()}
    counts.update(
        {
            "core.actions": float(report.actions),
            "core.hb_edges": float(report.hb_edges),
            "core.racy_pairs": float(report.racy_pairs),
            "refute.candidates": float(stats["candidates"]),
            "refute.refuted": float(stats["refuted"]),
        }
    )
    return Replayed(frozenset(r["fingerprint"] for r in blob["reports"]), counts)


class ReplaySet:
    """Traced replays of a workload's requests and what they showed.

    ``cache_dir`` serves the traced replays, ``twin_cache_dir`` (a copy of
    it: a replay writes to its cache) the untraced ones.
    """

    def __init__(self, report_path: str, cache_dir: Optional[str] = None,
                 twin_cache_dir: Optional[str] = None) -> None:
        self.report_path = report_path
        self.cache_dir = cache_dir
        self.twin_cache_dir = twin_cache_dir
        self.tracer = Tracer()
        self._untraced = Tracer(enabled=False)
        self.replays: List[Replayed] = []
        #: requests whose replay reported other races than the timed program
        self.mismatches: List[str] = []
        self.paired = 0
        self._traced_s = self._untraced_s = 0.0

    def add(self, request: str, app: str, expected: frozenset, paired: bool) -> None:
        """Replay one request with spans; when ``paired``, also without,
        alternating which goes first so warm-up effects cancel."""
        twins = [(self.tracer, self.cache_dir)]
        if paired:
            twins.append((self._untraced, self.twin_cache_dir))
            self.paired += 1
        for twin, cache in twins if self.paired % 2 else twins[::-1]:
            t0 = time.perf_counter()
            replayed = replay(app, twin, request, self.report_path, cache_dir=cache)
            spent = time.perf_counter() - t0
            if replayed.fingerprints != expected:
                self.mismatches.append(request)
            if twin is self._untraced:
                self._untraced_s += spent
                continue
            self.replays.append(replayed)
            if paired:
                self._traced_s += spent

    @property
    def overhead_s(self) -> float:
        """Traced minus untraced seconds, per request replayed both ways."""
        return (self._traced_s - self._untraced_s) / self.paired if self.paired else 0.0

    def layer_totals(self) -> Dict[str, float]:
        """Request id -> summed duration of its layer spans."""
        out: Dict[str, float] = {}
        for s in self.tracer.spans:
            if s.parent is not None:
                out[s.request] = out.get(s.request, 0.0) + s.duration
        return out


def engine_metrics(replayed: ReplaySet) -> Dict[str, float]:
    """Per-layer metrics of a set of replays: mean self time per replayed
    request for each engine layer, mean seconds per call for the cache
    layers, mean counts, and the refuted share of candidates."""
    replays = replayed.replays
    n = max(1, len(replays))
    spans = replayed.tracer.spans
    self_time = layer_self_time(spans)
    out = {}
    for layer in LAYERS:
        calls = n
        if layer.startswith("cache."):
            calls = max(1, sum(1 for s in spans if s.name == layer))
        out[f"{layer}_s"] = self_time.get(layer, 0.0) / calls
    for key in list(COUNTERS) + ["core.actions", "core.hb_edges", "core.racy_pairs"]:
        out[key] = sum(r.counts[key] for r in replays) / n
    candidates = sum(r.counts["refute.candidates"] for r in replays)
    refuted = sum(r.counts["refute.refuted"] for r in replays)
    out["core.refuted_ratio"] = refuted / candidates if candidates else 0.0
    out["trace.overhead_s"] = replayed.overhead_s
    return out
