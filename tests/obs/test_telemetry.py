"""Tests for :mod:`repro.obs.telemetry`: the Prometheus text exposition
(validated by a strict line-level parser, not substring checks), the
ring-buffer sampler, and the SLO watchdog."""

from __future__ import annotations

import math
import re
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    SloObjective,
    SloWatchdog,
    TelemetrySampler,
    default_objectives,
    escape_help,
    escape_label_value,
    labeled_scrape,
    nan_to_none,
    objectives_with_overrides,
    prometheus_name,
    render_prometheus,
)

# ----------------------------------------------------------------------
# a strict exposition-format parser (the test's teeth)
# ----------------------------------------------------------------------
_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>-?(?:\d+(?:\.\d+)?(?:e[+-]?\d+)?|NaN|\+Inf|-Inf))$"
)
_LABEL = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$')


def parse_exposition(text):
    """Parse format 0.0.4 strictly, line by line.

    Returns ``{base_name: {"type": ..., "samples": [(name, labels, value)]}}``
    and raises AssertionError on any malformed line, sample without a
    preceding TYPE, or bad label syntax.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    families = {}
    typed = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name = rest.split(" ", 1)[0]
            assert _METRIC_NAME.match(name), f"bad HELP name: {line!r}"
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert _METRIC_NAME.match(name), f"bad TYPE name: {line!r}"
            assert kind in ("counter", "gauge", "histogram", "summary", "untyped")
            assert name not in typed, f"duplicate TYPE for {name}"
            typed[name] = kind
            families[name] = {"type": kind, "samples": []}
            continue
        if line.startswith("#"):
            continue  # plain comment
        match = _SAMPLE_LINE.match(line)
        assert match, f"malformed sample line: {line!r}"
        name = match.group("name")
        labels = {}
        if match.group("labels") is not None:
            for part in match.group("labels").split(","):
                label = _LABEL.match(part)
                assert label, f"malformed label in: {line!r}"
                labels[label.group("key")] = label.group("value")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                base = name[: -len(suffix)]
                break
        assert base in typed, f"sample {name!r} has no preceding # TYPE"
        if typed[base] == "histogram":
            assert name != base, "histogram exposes only _bucket/_sum/_count"
        value = match.group("value")
        parsed = float("nan") if value == "NaN" else float(value.replace("+Inf", "inf"))
        families[base]["samples"].append((name, labels, parsed))
    return families


def _check_histogram(family, base):
    buckets = [s for s in family["samples"] if s[0] == f"{base}_bucket"]
    assert buckets, f"{base}: no bucket series"
    assert buckets[-1][1]["le"] == "+Inf", f"{base}: buckets must end at +Inf"
    bounds = []
    counts = []
    for _, labels, value in buckets:
        assert set(labels) == {"le"}
        bounds.append(
            float("inf") if labels["le"] == "+Inf" else float(labels["le"])
        )
        counts.append(value)
    assert bounds == sorted(bounds), f"{base}: le bounds must increase"
    assert counts == sorted(counts), f"{base}: cumulative counts must be monotone"
    count = [s for s in family["samples"] if s[0] == f"{base}_count"]
    total = [s for s in family["samples"] if s[0] == f"{base}_sum"]
    assert len(count) == 1 and len(total) == 1
    assert buckets[-1][2] == count[0][2], f"{base}: +Inf bucket != _count"
    return counts, count[0][2], total[0][2]


# ----------------------------------------------------------------------
# exposition
# ----------------------------------------------------------------------
def test_prometheus_exposition_parses_strictly():
    reg = MetricsRegistry()
    reg.counter("serve.requests", "HTTP requests served").inc(7)
    reg.gauge("serve.queue_depth", "queued jobs").set(3)
    hist = reg.histogram(
        "serve.job_seconds", "per-job wall clock", buckets=(0.1, 1.0, 5.0)
    )
    for value in (0.05, 0.5, 0.5, 2.0, 9.0):
        hist.observe(value)

    text = render_prometheus(reg)
    families = parse_exposition(text)

    assert families["serve_requests"]["type"] == "counter"
    assert families["serve_requests"]["samples"] == [("serve_requests", {}, 7.0)]
    assert families["serve_queue_depth"]["type"] == "gauge"
    assert families["serve_queue_depth"]["samples"][0][2] == 3.0

    counts, total_count, total_sum = _check_histogram(
        families["serve_job_seconds"], "serve_job_seconds"
    )
    # 1 obs <= 0.1, 3 <= 1.0, 4 <= 5.0, 5 <= +Inf
    assert counts == [1.0, 3.0, 4.0, 5.0]
    assert total_count == 5.0
    assert total_sum == pytest.approx(12.05)


def test_prometheus_empty_histogram_renders_zero_buckets_not_nan():
    reg = MetricsRegistry()
    reg.histogram("empty.hist", buckets=(1.0, 2.0))
    families = parse_exposition(render_prometheus(reg))
    counts, total_count, total_sum = _check_histogram(
        families["empty_hist"], "empty_hist"
    )
    assert counts == [0.0, 0.0, 0.0]
    assert total_count == 0.0 and total_sum == 0.0


def test_prometheus_name_sanitization():
    assert prometheus_name("serve.request_seconds.p99") == "serve_request_seconds_p99"
    assert prometheus_name("9lives") == "_9lives"
    assert prometheus_name("a-b c") == "a_b_c"
    assert _METRIC_NAME.match(prometheus_name("涼.metric"))


def test_help_and_label_escaping():
    assert escape_help("a\\b\nc") == "a\\\\b\\nc"
    assert escape_label_value('say "hi"\n\\') == 'say \\"hi\\"\\n\\\\'
    reg = MetricsRegistry()
    reg.counter("weird.help", "line one\nline \\two").inc()
    text = render_prometheus(reg)
    assert "# HELP weird_help line one\\nline \\\\two" in text
    parse_exposition(text)  # still one physical line per record


def test_content_type_names_format_version():
    assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE
    assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain")


def test_labeled_scrape_carries_identity():
    reg = MetricsRegistry()
    reg.counter("x.y").inc(2)
    t0 = time.monotonic() - 5.0
    scrape = labeled_scrape(reg, started_monotonic=t0)
    assert scrape["x.y"]["value"] == 2
    assert isinstance(scrape["pid"], int)
    assert scrape["uptime_seconds"] >= 5.0
    assert isinstance(scrape["scrape_monotonic"], float)


# ----------------------------------------------------------------------
# nan -> gap plumbing
# ----------------------------------------------------------------------
def test_nan_to_none_is_a_gap_not_a_zero():
    assert nan_to_none(float("nan")) is None
    assert nan_to_none(None) is None
    assert nan_to_none(0.0) == 0.0
    assert nan_to_none(1.5) == 1.5


# ----------------------------------------------------------------------
# sampler
# ----------------------------------------------------------------------
def test_sampler_bounds_memory_and_orders_samples():
    ticks = {"n": 0}

    def source():
        ticks["n"] += 1
        return {"queue_depth": ticks["n"]}

    sampler = TelemetrySampler(source, interval_s=10.0, capacity=5)
    for _ in range(12):
        sampler.sample_once()
    assert len(sampler) == 5
    snap = sampler.snapshot()
    assert [s["queue_depth"] for s in snap] == [8, 9, 10, 11, 12]
    assert snap == sorted(snap, key=lambda s: s["monotonic"])
    assert sampler.snapshot(limit=2)[-1]["queue_depth"] == 12
    assert sampler.latest()["queue_depth"] == 12


def test_sampler_derives_apps_per_s_rate():
    done = iter([0, 10, 10])

    def source():
        return {"jobs_completed_total": next(done)}

    sampler = TelemetrySampler(source, interval_s=10.0, capacity=10)
    first = sampler.sample_once()
    assert first["apps_per_s"] is None  # no previous sample
    second = sampler.sample_once()
    assert second["apps_per_s"] > 0
    third = sampler.sample_once()
    assert third["apps_per_s"] == 0.0


def test_sampler_survives_a_broken_source():
    calls = {"n": 0}

    def source():
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("probe exploded")
        return {"ok": True}

    sampler = TelemetrySampler(source, interval_s=10.0, capacity=10)
    assert sampler.sample_once() is not None
    assert sampler.sample_once() is None
    assert sampler.sample_once() is not None
    assert sampler.dropped_samples == 1
    assert len(sampler) == 2


def test_sampler_background_thread_samples_and_stops():
    sampler = TelemetrySampler(lambda: {"v": 1}, interval_s=0.01, capacity=100)
    sampler.start()
    deadline = time.monotonic() + 5.0
    while len(sampler) < 3 and time.monotonic() < deadline:
        time.sleep(0.01)
    sampler.stop()
    n = len(sampler)
    assert n >= 3
    time.sleep(0.05)
    assert len(sampler) == n  # stopped means stopped


def test_sampler_rejects_bad_config():
    with pytest.raises(ValueError):
        TelemetrySampler(lambda: {}, interval_s=0)
    with pytest.raises(ValueError):
        TelemetrySampler(lambda: {}, capacity=1)


# ----------------------------------------------------------------------
# SLO objectives + watchdog
# ----------------------------------------------------------------------
def test_default_objectives_scale_with_job_timeout():
    by_name = {o.name: o for o in default_objectives(job_timeout_s=10.0)}
    assert by_name["p99_job_latency"].threshold == 5.0
    assert by_name["worker_stall"].threshold == 40.0
    assert set(by_name) == {
        "p99_job_latency", "queue_wait", "failure_ratio", "worker_stall",
    }


def test_objectives_with_overrides():
    by_name = {
        o.name: o
        for o in objectives_with_overrides(
            overrides={
                "queue_wait": 30,
                "worker_stall.window_s": 5,
                "failure_ratio.min_events": 2,
            }
        )
    }
    assert by_name["queue_wait"].threshold == 30.0
    assert by_name["worker_stall"].window_s == 5.0
    assert by_name["failure_ratio"].min_events == 2

    with pytest.raises(ValueError, match="unknown SLO objective"):
        objectives_with_overrides(overrides={"nonesuch": 1})
    with pytest.raises(ValueError, match="unknown SLO field"):
        objectives_with_overrides(overrides={"queue_wait.color": 1})


def _fed_sampler(samples):
    """A sampler pre-loaded with the given source dicts."""
    feed = iter(samples)
    sampler = TelemetrySampler(lambda: next(feed), interval_s=10.0, capacity=100)
    for _ in samples:
        sampler.sample_once()
    return sampler


def test_watchdog_fires_on_sustained_breach_not_one_spike():
    objective = SloObjective(
        name="latency", metric="p99_s", threshold=1.0,
        window_s=60.0, burn_threshold=0.5, min_samples=3,
    )
    spike = _fed_sampler([{"p99_s": 0.1}, {"p99_s": 5.0}, {"p99_s": 0.1}])
    dog = SloWatchdog(spike, objectives=(objective,))
    status = dog.evaluate_once()
    assert status["status"] == "ok"  # 1/3 violating < 0.5 burn

    breach = _fed_sampler([{"p99_s": 5.0}, {"p99_s": 4.0}, {"p99_s": 0.1}, {"p99_s": 6.0}])
    dog = SloWatchdog(breach, objectives=(objective,))
    status = dog.evaluate_once()
    assert status["status"] == "degraded"
    (violation,) = status["violations"]
    assert violation["objective"] == "latency"
    assert violation["burn_rate"] == 0.75
    assert violation["threshold"] == 1.0
    assert violation["since_utc"]


def test_watchdog_needs_min_samples():
    objective = SloObjective(
        name="latency", metric="p99_s", threshold=1.0, min_samples=3,
    )
    sampler = _fed_sampler([{"p99_s": 9.0}, {"p99_s": 9.0}])
    dog = SloWatchdog(sampler, objectives=(objective,))
    assert dog.evaluate_once()["status"] == "ok"


def test_watchdog_ignores_gaps_in_the_metric():
    objective = SloObjective(
        name="latency", metric="p99_s", threshold=1.0, min_samples=3,
    )
    # None/missing values (empty-histogram gaps) must not count as samples
    sampler = _fed_sampler(
        [{"p99_s": None}, {"other": 1}, {"p99_s": 9.0}, {"p99_s": 9.0}]
    )
    dog = SloWatchdog(sampler, objectives=(objective,))
    assert dog.evaluate_once()["status"] == "ok"


def test_watchdog_failure_ratio_needs_min_events():
    objective = SloObjective(
        name="failure_ratio", metric="failure_ratio", threshold=0.5,
        min_events=5,
    )
    quiet = _fed_sampler(
        [{"jobs_done": 0, "jobs_failed": 0}, {"jobs_done": 0, "jobs_failed": 1}]
    )
    dog = SloWatchdog(quiet, objectives=(objective,))
    assert dog.evaluate_once()["status"] == "ok"  # one failure, idle daemon

    bad = _fed_sampler(
        [{"jobs_done": 0, "jobs_failed": 0}, {"jobs_done": 1, "jobs_failed": 5}]
    )
    dog = SloWatchdog(bad, objectives=(objective,))
    status = dog.evaluate_once()
    assert status["status"] == "degraded"
    assert status["violations"][0]["value"] == pytest.approx(5 / 6)


def test_watchdog_alert_transitions_fire_and_resolve():
    objective = SloObjective(
        name="depth", metric="queue_depth", threshold=10.0,
        min_samples=1, burn_threshold=0.5, window_s=0.5,
    )
    feed = {"queue_depth": 50}
    sampler = TelemetrySampler(lambda: dict(feed), interval_s=10.0, capacity=10)
    alerts = []
    dog = SloWatchdog(
        sampler, objectives=(objective,), on_alert=lambda k, v: alerts.append((k, v))
    )

    sampler.sample_once()
    dog.evaluate_once()
    dog.evaluate_once()  # still firing: no duplicate transition
    assert [k for k, _ in alerts] == ["firing"]
    since = alerts[0][1]["since_utc"]
    assert dog.status()["violations"][0]["since_utc"] == since

    time.sleep(0.6)  # let the breach age out of the window
    feed["queue_depth"] = 0
    sampler.sample_once()
    dog.evaluate_once()
    assert [k for k, _ in alerts] == ["firing", "resolved"]
    assert dog.status()["status"] == "ok"


def test_watchdog_background_thread_lifecycle():
    # the watchdog owns no thread: the sampler's runs it after each sample
    sampler = TelemetrySampler(lambda: {"v": 99}, interval_s=0.01, capacity=50)
    objective = SloObjective(
        name="v", metric="v", threshold=1.0, min_samples=1, window_s=30.0,
    )
    dog = SloWatchdog(sampler, objectives=(objective,))
    sampler.on_sample = dog.evaluate_once
    sampler.start()
    deadline = time.monotonic() + 5.0
    while dog.status()["status"] == "ok" and time.monotonic() < deadline:
        time.sleep(0.01)
    sampler.stop()
    assert dog.status()["status"] == "degraded"


def test_sampler_thread_outlives_a_raising_on_sample():
    calls = []

    def broken():
        calls.append(1)
        raise RuntimeError("watchdog bug")

    sampler = TelemetrySampler(lambda: {"v": 1}, interval_s=0.01, capacity=50)
    sampler.on_sample = broken
    sampler.start()
    deadline = time.monotonic() + 5.0
    while len(calls) < 3 and time.monotonic() < deadline:
        time.sleep(0.01)
    sampler.stop()
    assert len(calls) >= 3
    assert len(sampler) >= 3  # sampling went on after the first raise
