"""The SIERRA end-to-end pipeline (Figure 3).

``Sierra.analyze(apk)`` runs:

1. harness generation with fixpoint callback discovery (§3.2),
2. action extraction + context-sensitive points-to / call graph, with the
   action-sensitive abstraction by default (§3.3),
3. Static Happens-Before Graph construction (§4),
4. racy-pair enumeration (§4.4),
5. backward-symbolic refutation (§5),
6. prioritization (§3.1),

and reports per-stage wall-clock timings bucketed exactly like Table 4:
CG+PA (harness + both analysis phases), HBG, and Refutation. Each stage is
a root :func:`repro.obs.span`, so an installed diagnostics hook (``repro
corpus-analyze``, ``repro profile``, ``repro analyze --trace``) sees start/end
events — and where a run died — without the detector knowing about it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import obs

from repro.analysis.context import ContextSelector, HybridSelector, make_selector
from repro.android.apk import Apk
from repro.core.accesses import collect_accesses
from repro.core.extract import Extraction, extract_actions
from repro.core.harness import HarnessModel, generate_harnesses
from repro.core.hb import SHBG, build_shbg
from repro.core.prioritize import rank_races
from repro.core.provenance import attach_provenance
from repro.core.races import RacyPair, find_racy_pairs
from repro.core.refute import RefutationEngine
from repro.core.report import RaceReport, SierraReport


@dataclass
class SierraOptions:
    """Knobs for ablations and benchmarking."""

    selector: str = "action"  # context abstraction (see make_selector)
    k: int = 2
    refute: bool = True  # run symbolic refutation
    path_budget: int = 5000  # §5's path cap
    loop_bound: int = 2
    #: worker processes for refutation; 1 = serial (deterministic baseline).
    #: N>1 forks a process pool over contiguous candidate chunks.
    parallelism: int = 1
    #: also run the hybrid-without-action-sensitivity pipeline to fill
    #: Table 3's "Racy Pairs w/o AS" column (costs a second analysis)
    compare_without_as: bool = False
    #: constant-index array cells get their own locations (the paper's
    #: future-work refinement after Dillig et al. [15])
    index_sensitive_arrays: bool = False
    #: persistent substrate cache directory (``--cache`` / $REPRO_CACHE);
    #: None disables caching entirely
    cache_dir: Optional[str] = None
    #: BackDroid-style targeted query: slice racy-pair enumeration and
    #: refutation to candidates on this field signature only
    only_field: Optional[str] = None


@dataclass
class SierraResult:
    """Full artifacts of one run (the report plus analysis internals)."""

    report: SierraReport
    extraction: Extraction
    shbg: SHBG
    racy_pairs: List[RacyPair]
    surviving: List[RacyPair]
    harness: HarnessModel


class Sierra:
    """StatIc Event-based Race detectoR for Android — reproduction."""

    def __init__(self, options: Optional[SierraOptions] = None):
        self.options = options or SierraOptions()

    # ------------------------------------------------------------------
    def analyze(self, apk: Apk) -> SierraResult:
        opts = self.options
        report = SierraReport(app=apk.name)
        obs.metrics.reset_run()  # one scrape window per analyze()

        cache = None
        if opts.cache_dir:
            from repro.cache import SubstrateCache

            cache = SubstrateCache(opts.cache_dir)
        try:
            return self._analyze(apk, report, cache)
        finally:
            if cache is not None:
                cache.close()

    def _analyze(self, apk: Apk, report: SierraReport, cache) -> SierraResult:
        opts = self.options
        outcome = None

        with obs.span("cg_pa", app=apk.name) as timer:
            # the lookup digests the pre-harness program, so it must run
            # inside this stage's timing, before generate_harnesses
            if cache is not None:
                with obs.span("cache.lookup"):
                    outcome = cache.lookup(apk, opts)
            if outcome is not None and outcome.hit:
                # warm: the bundle's apk (it carries the harness classes and
                # every object the extraction references) replaces the input
                bundle = outcome.bundle
                apk = bundle["apk"]
                harness = bundle["harness"]
                extraction = bundle["extraction"]
            else:
                phase_a_seed = None
                if outcome is not None and outcome.seed is not None:
                    # incremental: the cached apk with the new code grafted
                    # on; only invalidated units re-run inside extraction
                    apk = outcome.seed.apk
                    harness = outcome.seed.harness
                    phase_a_seed = outcome.seed.phase_a_seed
                else:
                    with obs.span("extract.harness"):
                        harness = generate_harnesses(apk)
                selector = make_selector(opts.selector, opts.k)
                extraction = extract_actions(
                    apk,
                    harness,
                    selector=selector,
                    index_sensitive_arrays=opts.index_sensitive_arrays,
                    phase_a_seed=phase_a_seed,
                )
        report.time_cg_pa = timer.seconds

        with obs.span("hbg", app=apk.name) as timer:
            if outcome is not None and outcome.hit:
                shbg = outcome.bundle["shbg"]
            else:
                shbg = build_shbg(extraction)
        report.time_hbg = timer.seconds

        if cache is not None and outcome is not None and not outcome.hit:
            cache.save(outcome, apk, opts, harness, extraction, shbg)

        accesses = collect_accesses(extraction)
        racy_pairs = find_racy_pairs(extraction, shbg, accesses)

        selected_pairs = racy_pairs
        if opts.only_field:
            selected_pairs = [
                p for p in racy_pairs if p.field_name == opts.only_field
            ]
            report.only_field = opts.only_field
            report.racy_pairs_selected = len(selected_pairs)

        if opts.compare_without_as:
            # its own root span: its extraction spans must not pose as stages
            with obs.span("no_as", app=apk.name):
                report.racy_pairs_no_as = self._racy_pairs_without_as(apk, harness)

        with obs.span("refutation", app=apk.name) as timer:
            summary = None
            if opts.refute:
                memo = None
                if cache is not None and outcome is not None:
                    memo = cache.memo(outcome, opts, opts.path_budget, opts.loop_bound)
                    memo.prepare(selected_pairs)
                engine = RefutationEngine(
                    extraction,
                    path_budget=opts.path_budget,
                    loop_bound=opts.loop_bound,
                    memo=memo,
                )
                summary = engine.refute_all(selected_pairs, parallelism=opts.parallelism)
                surviving = summary.surviving
                if memo is not None:
                    memo.flush(summary.results)
                report.refutation_stats = summary.stats()
            else:
                surviving = list(selected_pairs)
        report.time_refutation = timer.seconds

        report.harnesses = harness.harness_count()
        report.actions = len(extraction.actions)
        report.hb_edges = shbg.hb_edge_count()
        report.ordered_fraction = shbg.ordered_fraction()
        report.racy_pairs = len(racy_pairs)
        report.races_after_refutation = len(surviving)
        report.edges_by_rule = shbg.edges_by_rule()
        report.reports = rank_races(extraction, surviving)
        attach_provenance(
            report.reports,
            extraction,
            shbg,
            results=summary.results if summary is not None else None,
        )

        self._record_gauges(report)

        return SierraResult(
            report=report,
            extraction=extraction,
            shbg=shbg,
            racy_pairs=racy_pairs,
            surviving=surviving,
            harness=harness,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _record_gauges(report: SierraReport) -> None:
        """Publish pipeline outputs to the metrics registry: the single
        source of truth corpus reports and ledger rows scrape."""
        gauges = {
            "sierra.harnesses": (report.harnesses, "generated harnesses"),
            "sierra.actions": (report.actions, "extracted actions"),
            "sierra.hb_edges": (report.hb_edges, "SHBG happens-before edges"),
            "sierra.racy_pairs": (report.racy_pairs, "candidate racy pairs"),
            "sierra.races_reported": (
                report.races_after_refutation,
                "races surviving refutation",
            ),
        }
        for name, (value, help_text) in gauges.items():
            obs.metrics.gauge(name, help_text).set(value)

    # ------------------------------------------------------------------
    def _racy_pairs_without_as(self, apk: Apk, harness: HarnessModel) -> int:
        """Re-run extraction + race enumeration under plain hybrid contexts
        (no action element) — Table 3's with/without-AS comparison."""
        extraction = extract_actions(
            apk, harness, selector=HybridSelector(self.options.k)
        )
        shbg = build_shbg(extraction)
        accesses = collect_accesses(extraction)
        return len(find_racy_pairs(extraction, shbg, accesses))


def analyze_apk(apk: Apk, options: Optional[SierraOptions] = None) -> SierraResult:
    """One-shot convenience entry point."""
    return Sierra(options).analyze(apk)
