"""Live telemetry: Prometheus exposition, ring-buffer sampler, SLO watchdog.

Three pieces, all daemon-facing (the batch pipeline keeps its one-shot
JSON scrapes):

* :func:`render_prometheus` — the typed metrics registry rendered as
  Prometheus text exposition format 0.0.4 (``# HELP``/``# TYPE`` lines,
  histograms as cumulative ``_bucket{le="..."}`` series plus
  ``_sum``/``_count``), so any standard scraper can pull ``GET
  /metrics`` with ``Accept: text/plain``;
* :class:`TelemetrySampler` — a lock-guarded, bounded ring buffer fed
  by a fixed-interval background thread; each sample is one JSON-ready
  dict (queue depth, jobs by state, worker heartbeats, latency
  percentiles). Memory is bounded by ``capacity`` no matter how long
  the daemon lives; ``GET /v1/telemetry`` and the dashboard's live
  panels read :meth:`~TelemetrySampler.snapshot`;
* :class:`SloWatchdog` — an evaluator of declared :class:`SloObjective`
  s over the ring buffer, run by the sampler's thread after every
  sample (``on_sample``). Each objective is a
  rolling burn-rate check: over the last ``window_s`` of samples, the
  fraction that violate the threshold must stay below
  ``burn_threshold`` — a single latency spike does not flip the daemon,
  a sustained breach does. Violations flip ``/healthz`` to
  ``degraded`` with the objective *named*, log structured alert
  events, and append durable rows to the ledger's ``alerts`` table so
  ``repro diff`` and the dashboard can show *when* the service was
  unhealthy next to *what* the analysis found.

Percentile gaps: an empty histogram answers ``float("nan")``
(:meth:`repro.obs.metrics.Histogram.percentile`); the sampler converts
NaN to ``None`` so JSON consumers and the dashboard render a gap, not a
zero-latency lie.
"""

from __future__ import annotations

import math
import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.obs import metrics
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: the content type a text-format scrape answers with
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: process start, for uptime when the caller has nothing better
_PROCESS_START_MONOTONIC = time.monotonic()


def process_uptime_s(started_monotonic: Optional[float] = None) -> float:
    """Seconds since ``started_monotonic`` (default: module import)."""
    t0 = _PROCESS_START_MONOTONIC if started_monotonic is None else started_monotonic
    return max(0.0, time.monotonic() - t0)


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


def nan_to_none(value: Optional[float]) -> Optional[float]:
    """NaN → None: the JSON-safe spelling of "no data" (gap, not zero)."""
    if value is None:
        return None
    return None if math.isnan(value) else value


# ----------------------------------------------------------------------
# Prometheus text exposition (format 0.0.4)
# ----------------------------------------------------------------------
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """Registry name → valid Prometheus metric name (dots become
    underscores; anything else illegal likewise; a leading digit gets a
    guard underscore)."""
    out = _NAME_BAD_CHARS.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out or "_"


def escape_help(text: str) -> str:
    """HELP-line escaping per the exposition format: backslash and
    newline only."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def escape_label_value(text: str) -> str:
    """Label-value escaping: backslash, double-quote, newline."""
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """Sample-value formatting: integers bare, floats via repr, NaN as
    the literal ``NaN`` the format specifies."""
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _format_bound(bound: float) -> str:
    """``le`` label value for a bucket bound (ints bare: ``le="5"``)."""
    if isinstance(bound, float) and not bound.is_integer():
        return repr(bound)
    return str(int(bound))


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry as Prometheus text exposition format 0.0.4.

    One ``# HELP`` (when help text exists) + ``# TYPE`` block per
    instrument, sorted by name; histograms expand to the standard
    cumulative ``_bucket{le="..."}`` series ending at ``le="+Inf"``,
    plus ``_sum`` and ``_count``. The trailing newline is part of the
    format.
    """
    reg = registry if registry is not None else metrics.registry()
    lines: List[str] = [
        f"# repro metrics exposition (pid {os.getpid()})",
    ]
    for name in reg.names():
        instrument = reg.get(name)
        if instrument is None:  # pragma: no cover — racing unregistration
            continue
        pname = prometheus_name(name)
        if instrument.help:
            lines.append(f"# HELP {pname} {escape_help(instrument.help)}")
        if isinstance(instrument, Counter):
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {_format_value(instrument.value)}")
        elif isinstance(instrument, Gauge):
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_format_value(instrument.value)}")
        elif isinstance(instrument, Histogram):
            lines.append(f"# TYPE {pname} histogram")
            cumulative = 0
            for bound, count in zip(instrument.buckets, instrument._counts):
                cumulative += count
                lines.append(
                    f'{pname}_bucket{{le="{_format_bound(bound)}"}} {cumulative}'
                )
            lines.append(f'{pname}_bucket{{le="+Inf"}} {instrument.count}')
            lines.append(f"{pname}_sum {_format_value(instrument.sum)}")
            lines.append(f"{pname}_count {instrument.count}")
    return "\n".join(lines) + "\n"


def labeled_scrape(
    registry: Optional[MetricsRegistry] = None,
    started_monotonic: Optional[float] = None,
) -> Dict[str, object]:
    """The JSON ``/metrics`` scrape, attributable: the registry's
    ``collect()`` plus ``pid``, ``uptime_seconds``, and a
    ``scrape_monotonic`` stamp (metric names all carry a dot, so the
    scalar labels can never collide with an instrument)."""
    reg = registry if registry is not None else metrics.registry()
    out: Dict[str, object] = dict(reg.collect())
    out["pid"] = os.getpid()
    out["uptime_seconds"] = round(process_uptime_s(started_monotonic), 3)
    out["scrape_monotonic"] = time.monotonic()
    return out


# ----------------------------------------------------------------------
# ring-buffer sampler
# ----------------------------------------------------------------------
class TelemetrySampler:
    """Fixed-interval sampler into a bounded in-memory ring buffer.

    ``source`` is a zero-argument callable returning one JSON-ready dict
    (the daemon's queue/worker/latency snapshot). The sampler stamps
    ``ts_utc``/``monotonic``, derives ``apps_per_s`` from consecutive
    ``jobs_completed_total`` values, and appends under a lock; memory is
    bounded by ``capacity`` samples forever. A ``source`` that raises
    drops that tick (counted in ``dropped_samples``) — telemetry must
    never take the daemon down. ``on_sample``, when set, runs on the
    sampler's thread after every tick (the daemon points it at
    :meth:`SloWatchdog.evaluate_once`); what it raises is swallowed too.
    """

    def __init__(
        self,
        source: Callable[[], Dict[str, object]],
        interval_s: float = 1.0,
        capacity: int = 600,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"sampler interval must be > 0, got {interval_s}")
        if capacity < 2:
            raise ValueError(f"sampler capacity must be >= 2, got {capacity}")
        self.interval_s = interval_s
        self.capacity = capacity
        self.dropped_samples = 0
        self.on_sample: Optional[Callable[[], object]] = None
        self._source = source
        self._samples: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="repro-telemetry-sampler"
        )
        self._thread.start()

    def stop(self, timeout_s: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout_s)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()
            if self.on_sample is not None:
                try:
                    self.on_sample()
                except Exception:  # noqa: BLE001 — the thread must outlive bugs
                    pass

    # -- sampling ------------------------------------------------------
    def sample_once(self) -> Optional[Dict[str, object]]:
        """Take one sample now (the thread calls this; tests may too)."""
        try:
            fields = dict(self._source())
        except Exception:  # noqa: BLE001 — a broken probe must not kill us
            self.dropped_samples += 1
            return None
        sample: Dict[str, object] = {
            "ts_utc": utc_now_iso(),
            "monotonic": time.monotonic(),
        }
        sample.update(fields)
        with self._lock:
            previous = self._samples[-1] if self._samples else None
            sample["apps_per_s"] = self._rate(
                previous, sample, "jobs_completed_total"
            )
            self._samples.append(sample)
        return sample

    @staticmethod
    def _rate(
        previous: Optional[Dict[str, object]],
        current: Dict[str, object],
        key: str,
    ) -> Optional[float]:
        if previous is None or key not in current or key not in previous:
            return None
        dt = float(current["monotonic"]) - float(previous["monotonic"])  # type: ignore[arg-type]
        if dt <= 0:
            return None
        delta = float(current[key]) - float(previous[key])  # type: ignore[arg-type]
        return round(max(0.0, delta) / dt, 4)

    # -- reading -------------------------------------------------------
    def snapshot(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Oldest-first copy of the buffer (the last ``limit`` samples)."""
        with self._lock:
            samples = list(self._samples)
        if limit is not None and limit >= 0:
            samples = samples[-limit:]
        return [dict(s) for s in samples]

    def latest(self) -> Optional[Dict[str, object]]:
        with self._lock:
            return dict(self._samples[-1]) if self._samples else None

    def window(self, seconds: float) -> List[Dict[str, object]]:
        """Samples whose monotonic stamp falls in the last ``seconds``."""
        cutoff = time.monotonic() - seconds
        with self._lock:
            return [
                dict(s) for s in self._samples if float(s["monotonic"]) >= cutoff  # type: ignore[arg-type]
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)


# ----------------------------------------------------------------------
# SLO watchdog
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SloObjective:
    """One declared objective, evaluated as a rolling burn rate.

    Over the samples of the last ``window_s``, the fraction whose
    ``metric`` exceeds ``threshold`` (the *burn rate*) must stay below
    ``burn_threshold``; fewer than ``min_samples`` usable samples is
    "not enough signal", never a violation. The special metric
    ``failure_ratio`` is computed from the window's first/last
    cumulative done/failed counts and needs ``min_events`` completed
    jobs inside the window before it can fire — one lone failure in an
    idle daemon is not an outage.
    """

    name: str
    metric: str
    threshold: float
    window_s: float = 30.0
    burn_threshold: float = 0.5
    min_samples: int = 3
    min_events: int = 5
    description: str = ""


def default_objectives(job_timeout_s: float = 120.0) -> Tuple[SloObjective, ...]:
    """The daemon's out-of-the-box objectives, scaled to its job budget."""
    return (
        SloObjective(
            name="p99_job_latency",
            metric="job_p99_s",
            threshold=max(1.0, job_timeout_s / 2.0),
            description="p99 job wall clock must stay under half the timeout",
        ),
        SloObjective(
            name="queue_wait",
            metric="queue_wait_s",
            threshold=60.0,
            description="the oldest queued job must not wait more than 60s",
        ),
        SloObjective(
            name="failure_ratio",
            metric="failure_ratio",
            threshold=0.5,
            description="most jobs completing inside the window must succeed",
        ),
        SloObjective(
            name="worker_stall",
            metric="max_heartbeat_age_s",
            threshold=job_timeout_s + 30.0,
            description="a worker heartbeat older than timeout+30s is wedged",
        ),
    )


#: SloObjective fields an override may set (``threshold`` is the default)
_OVERRIDABLE = ("threshold", "window_s", "burn_threshold", "min_samples", "min_events")


def objectives_with_overrides(
    job_timeout_s: float = 120.0,
    overrides: Optional[Dict[str, float]] = None,
) -> Tuple[SloObjective, ...]:
    """The default objectives with operator overrides applied.

    Override keys are ``<objective>`` (sets the threshold) or
    ``<objective>.<field>`` — e.g. ``{"queue_wait": 30,
    "worker_stall.window_s": 5}`` (the CLI's repeatable ``--slo
    KEY=VALUE`` flag lands here). Unknown objectives or fields raise
    ``ValueError`` — a typo'd SLO must not silently never fire.
    """
    import dataclasses

    base = {o.name: o for o in default_objectives(job_timeout_s)}
    for key, value in (overrides or {}).items():
        name, _, field = key.partition(".")
        field = field or "threshold"
        if name not in base:
            raise ValueError(
                f"unknown SLO objective {name!r} (takes {', '.join(sorted(base))})"
            )
        if field not in _OVERRIDABLE:
            raise ValueError(
                f"unknown SLO field {field!r} (takes {', '.join(_OVERRIDABLE)})"
            )
        cast = int if field in ("min_samples", "min_events") else float
        base[name] = dataclasses.replace(base[name], **{field: cast(value)})
    return tuple(base.values())


class SloWatchdog:
    """Evaluator of :class:`SloObjective` s over the sampler's buffer.

    It owns no thread: :meth:`evaluate_once` runs wherever it is called
    — in the daemon, on the sampler's thread after every sample.

    ``on_alert(kind, violation)`` fires on every transition —
    ``kind`` is ``"firing"`` or ``"resolved"`` — which is where the
    daemon logs the structured alert event and appends the ledger row.
    :meth:`status` is what ``/healthz`` reports: ``ok`` until any
    objective fires, then ``degraded`` with the violations named.
    """

    def __init__(
        self,
        sampler: TelemetrySampler,
        objectives: Sequence[SloObjective] = (),
        on_alert: Optional[Callable[[str, Dict[str, object]], None]] = None,
    ) -> None:
        self.objectives = tuple(objectives) or default_objectives()
        self._sampler = sampler
        self._on_alert = on_alert
        self._lock = threading.Lock()
        self._violations: Dict[str, Dict[str, object]] = {}

    # -- evaluation ----------------------------------------------------
    @staticmethod
    def _metric_values(
        samples: Sequence[Dict[str, object]], metric: str
    ) -> List[float]:
        out = []
        for sample in samples:
            value = sample.get(metric)
            if isinstance(value, (int, float)) and not math.isnan(value):
                out.append(float(value))
        return out

    @staticmethod
    def _failure_ratio(
        samples: Sequence[Dict[str, object]], min_events: int
    ) -> Optional[Tuple[float, int]]:
        """Windowed failure ratio from cumulative done/failed counts;
        None below ``min_events`` completions."""
        counted = [
            s
            for s in samples
            if isinstance(s.get("jobs_done"), (int, float))
            and isinstance(s.get("jobs_failed"), (int, float))
        ]
        if len(counted) < 2:
            return None
        d_done = float(counted[-1]["jobs_done"]) - float(counted[0]["jobs_done"])  # type: ignore[arg-type]
        d_failed = float(counted[-1]["jobs_failed"]) - float(counted[0]["jobs_failed"])  # type: ignore[arg-type]
        total = d_done + d_failed
        if total < min_events:
            return None
        return d_failed / total, int(total)

    def evaluate_once(self) -> Dict[str, object]:
        """Evaluate every objective once; returns :meth:`status`."""
        transitions: List[Tuple[str, Dict[str, object]]] = []
        with self._lock:
            for objective in self.objectives:
                samples = self._sampler.window(objective.window_s)
                firing = False
                observed: Optional[float] = None
                burn_rate = 0.0
                if objective.metric == "failure_ratio":
                    ratio = self._failure_ratio(samples, objective.min_events)
                    if ratio is not None:
                        observed, _events = ratio
                        burn_rate = 1.0 if observed > objective.threshold else 0.0
                        firing = observed > objective.threshold
                else:
                    values = self._metric_values(samples, objective.metric)
                    if len(values) >= objective.min_samples:
                        observed = values[-1]
                        violating = sum(
                            1 for v in values if v > objective.threshold
                        )
                        burn_rate = violating / len(values)
                        firing = burn_rate >= objective.burn_threshold
                already = self._violations.get(objective.name)
                if firing:
                    violation = {
                        "objective": objective.name,
                        "metric": objective.metric,
                        "value": observed,
                        "threshold": objective.threshold,
                        "burn_rate": round(burn_rate, 4),
                        "window_s": objective.window_s,
                        "description": objective.description,
                        "since_utc": (
                            already["since_utc"] if already else utc_now_iso()
                        ),
                    }
                    self._violations[objective.name] = violation
                    if already is None:
                        transitions.append(("firing", violation))
                elif already is not None:
                    resolved = dict(already)
                    resolved["value"] = observed
                    del self._violations[objective.name]
                    transitions.append(("resolved", resolved))
        if self._on_alert is not None:
            for kind, violation in transitions:
                self._on_alert(kind, violation)
        return self.status()

    # -- reading -------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """``/healthz``'s verdict: ok, or degraded with named violations."""
        with self._lock:
            violations = [dict(v) for v in self._violations.values()]
        violations.sort(key=lambda v: str(v["objective"]))
        return {
            "status": "degraded" if violations else "ok",
            "violations": violations,
        }
