"""The typed metrics registry (counters, gauges, histograms)."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("x.ops")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self, registry):
        with pytest.raises(ValueError, match="cannot decrease"):
            registry.counter("x.ops").inc(-1)

    def test_reregistration_returns_same_instrument(self, registry):
        a = registry.counter("x.ops", "help once")
        b = registry.counter("x.ops")
        assert a is b
        a.inc()
        assert registry.value("x.ops") == 1


class TestGauge:
    def test_set_and_inc(self, registry):
        g = registry.gauge("x.level")
        g.set(10)
        g.inc(-3)
        assert g.value == 7


class TestHistogram:
    def test_observe_updates_stats(self, registry):
        h = registry.histogram("x.sizes", buckets=(10, 100))
        for v in (5, 50, 500):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 555
        d = h.to_dict()
        assert d["min"] == 5 and d["max"] == 500
        assert d["buckets"] == {"10": 1, "100": 1, "+Inf": 1}

    def test_unsorted_buckets_rejected(self, registry):
        with pytest.raises(ValueError, match="sorted"):
            registry.histogram("x.bad", buckets=(10, 1))

    def test_scrape_value_is_sum(self, registry):
        h = registry.histogram("x.sizes")
        h.observe(2)
        h.observe(3)
        assert registry.value("x.sizes") == 5


class TestRegistry:
    def test_type_conflict_raises(self, registry):
        registry.counter("x.ops")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x.ops")

    def test_value_of_unregistered_metric_defaults(self, registry):
        assert registry.value("never.registered") == 0
        assert registry.value("never.registered", default=-1) == -1

    def test_totals_is_flat_and_sorted(self, registry):
        registry.counter("b.ops").inc(2)
        registry.gauge("a.level").set(1)
        assert registry.totals() == {"a.level": 1, "b.ops": 2}

    def test_collect_is_json_ready_with_help(self, registry):
        registry.counter("x.ops", "operations").inc()
        h = registry.histogram("x.sizes")
        h.observe(7)
        snapshot = registry.collect()
        json.dumps(snapshot)
        assert snapshot["x.ops"] == {"type": "counter", "value": 1, "help": "operations"}
        assert snapshot["x.sizes"]["type"] == "histogram"

    def test_reset_zeroes_but_keeps_registrations(self, registry):
        c = registry.counter("x.ops", "kept")
        c.inc(9)
        registry.reset()
        assert registry.names() == ["x.ops"]
        assert registry.value("x.ops") == 0
        assert registry.get("x.ops") is c and c.help == "kept"


class TestPipelineIntegration:
    def test_analyze_opens_a_fresh_scrape_window(self, quickstart_apk):
        from repro.core import Sierra, SierraOptions

        metrics.counter("stale.from.before").inc(99)
        Sierra(SierraOptions()).analyze(quickstart_apk)
        reg = metrics.registry()
        assert reg.value("stale.from.before") == 0
        assert reg.value("sierra.actions") > 0
        assert reg.value("hb.closure_ops") > 0
        assert reg.value("pointsto.worklist_iterations") > 0
        assert reg.value("refutation.candidates") > 0

    def test_counters_match_report(self, quickstart_apk):
        from repro.core import Sierra, SierraOptions

        result = Sierra(SierraOptions()).analyze(quickstart_apk)
        reg = metrics.registry()
        assert reg.value("sierra.actions") == result.report.actions
        assert reg.value("sierra.hb_edges") == result.report.hb_edges
        assert (
            reg.value("refutation.nodes_expanded")
            == result.report.refutation_stats["nodes_expanded"]
        )


class TestHistogramPercentile:
    """Edge cases of the bucket-interpolated percentile estimator."""

    def test_empty_histogram_answers_nan_not_zero(self, registry):
        # 0.0 would plot as a real latency on a telemetry panel; "no
        # data" must stay distinguishable from "observed zero"
        h = registry.histogram("x.sizes")
        assert math.isnan(h.percentile(0))
        assert math.isnan(h.percentile(50))
        assert math.isnan(h.percentile(100))
        h.observe(3)
        assert h.percentile(50) == 3.0  # data arrives -> real answers again
        h.reset()
        assert math.isnan(h.percentile(99))

    def test_single_sample_answers_that_sample_for_every_q(self, registry):
        h = registry.histogram("x.sizes")
        h.observe(42)
        for q in (0, 1, 50, 99, 100):
            assert h.percentile(q) == 42.0

    def test_identical_samples_need_no_interpolation(self, registry):
        h = registry.histogram("x.sizes")
        for _ in range(10):
            h.observe(7)
        assert h.percentile(50) == 7.0

    def test_interpolates_within_a_bucket(self, registry):
        h = registry.histogram("x.sizes", buckets=(0, 100))
        for value in (10, 20, 30, 40, 50, 60, 70, 80, 90, 100):
            h.observe(value)
        # all ten land in the (0, 100] bucket; the median interpolates to
        # the bucket's midpoint, not to an edge
        assert 40.0 <= h.percentile(50) <= 60.0
        assert h.percentile(10) < h.percentile(90)

    def test_clamped_to_observed_range(self, registry):
        h = registry.histogram("x.sizes", buckets=(1000,))
        h.observe(3)
        h.observe(5)
        # the bucket bound (1000) must not leak into the estimate
        assert 3.0 <= h.percentile(0) <= h.percentile(100) <= 5.0

    def test_inf_bucket_bounded_by_observed_max(self, registry):
        h = registry.histogram("x.sizes", buckets=(10,))
        for value in (5, 2_000_000, 3_000_000):
            h.observe(value)
        assert h.percentile(100) == 3_000_000.0
        assert h.percentile(99) <= 3_000_000.0

    def test_out_of_range_q_rejected(self, registry):
        h = registry.histogram("x.sizes")
        for q in (-1, 101):
            with pytest.raises(ValueError, match="out of range"):
                h.percentile(q)


class TestScrapeWindowEdges:
    """reset_run interacting with live spans and the refutation pool."""

    def test_reset_during_active_span_keeps_post_reset_observations(self):
        from repro import obs

        metrics.counter("window.before").inc(5)
        with obs.span("edge-case-span"):
            metrics.reset_run()  # a new scrape window opens mid-span
            metrics.counter("window.after").inc(3)
        reg = metrics.registry()
        # pre-reset effort is gone, post-reset effort survives the span end,
        # and the span itself neither crashed nor resurrected old values
        assert reg.value("window.before") == 0
        assert reg.value("window.after") == 3

    def test_gauge_last_write_wins_under_fork_refutation_pool(self, quickstart_apk):
        """Parallel refutation forks workers; gauges must reflect the
        parent's final report (one write, after the pool joins), not a
        worker's partial view — serial and parallel scrapes agree."""
        from repro.core import Sierra, SierraOptions

        serial = Sierra(SierraOptions(parallelism=1)).analyze(quickstart_apk)
        serial_scrape = {
            name: metrics.registry().value(name)
            for name in ("sierra.races_reported", "sierra.racy_pairs")
        }
        parallel = Sierra(SierraOptions(parallelism=2)).analyze(quickstart_apk)
        reg = metrics.registry()
        assert reg.value("sierra.races_reported") == (
            parallel.report.races_after_refutation
        )
        parallel_scrape = {
            name: reg.value(name)
            for name in ("sierra.races_reported", "sierra.racy_pairs")
        }
        assert serial_scrape == parallel_scrape
        assert serial.report.races_after_refutation == (
            parallel.report.races_after_refutation
        )

    def test_gauge_set_is_last_write_wins(self, registry):
        g = registry.gauge("x.level")
        for value in (10, 3, 7):
            g.set(value)
        assert g.value == 7
