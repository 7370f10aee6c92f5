"""End-to-end Sierra pipeline behaviour and options."""

import gc

import pytest

from repro.cli import load_app
from repro.core import Sierra, SierraOptions, analyze_apk


class TestPipeline:
    def test_report_counts_consistent(self, newsreader_result):
        r = newsreader_result.report
        assert r.races_after_refutation == len(r.reports)
        assert r.races_after_refutation <= r.racy_pairs
        assert r.actions == len(newsreader_result.extraction.actions)
        assert r.harnesses == newsreader_result.harness.harness_count()

    def test_stage_timings_positive(self, newsreader_result):
        r = newsreader_result.report
        assert r.time_cg_pa > 0
        assert r.time_hbg >= 0
        assert r.time_total >= r.time_cg_pa

    def test_analysis_is_deterministic(self, opensudoku_apk):
        r1 = Sierra(SierraOptions()).analyze(opensudoku_apk)
        r2 = Sierra(SierraOptions()).analyze(opensudoku_apk)
        assert r1.report.actions == r2.report.actions
        assert r1.report.hb_edges == r2.report.hb_edges
        assert sorted(p.field_name for p in r1.surviving) == sorted(
            p.field_name for p in r2.surviving
        )

    def test_analyze_apk_shortcut(self, quickstart_apk):
        result = analyze_apk(quickstart_apk)
        assert result.report.app == "quickstart"


class TestOptions:
    def test_compare_without_as_fills_column(self, small_synth_result):
        assert small_synth_result.report.racy_pairs_no_as is not None
        assert (
            small_synth_result.report.racy_pairs_no_as
            >= small_synth_result.report.racy_pairs
        )

    def test_without_as_not_computed_by_default(self, newsreader_result):
        assert newsreader_result.report.racy_pairs_no_as is None

    def test_context_sweep_monotonic_precision(self, small_synth):
        """Weaker abstractions must not report fewer pairs than the
        action-sensitive default on the factory-laden synthetic app."""
        apk, _ = small_synth
        counts = {}
        for selector in ("insensitive", "action"):
            result = Sierra(SierraOptions(selector=selector, refute=False)).analyze(apk)
            counts[selector] = result.report.racy_pairs
        assert counts["insensitive"] >= counts["action"]

    def test_benign_guard_count(self, opensudoku_result):
        assert opensudoku_result.report.benign_guard_count() >= 1


class TestNoCyclicGarbage:
    """Reference counting alone frees an analyzed app. ``python -m repro``
    and shard workers analyze with automatic collection off, so a cycle
    anywhere in an app would hold its whole program until a collection
    (the synthesizer's activity contexts and the layout registry once
    did)."""

    @pytest.mark.parametrize(
        "app", ["quickstart", "paper:K-9 Mail", "family:mesh:1:3"]
    )
    def test_a_dropped_result_leaves_nothing_to_collect(self, app):
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            result = Sierra(SierraOptions()).analyze(load_app(app))
            assert result.report.racy_pairs > 0
            del result
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()
