"""Typed metrics registry: counters, gauges, and histograms.

Substrates register metrics **where they live** — the HB builder owns
``hb.closure_ops``, the points-to solver owns
``pointsto.worklist_iterations``, the refutation engine owns
``refutation.*`` — and every consumer (``RUN_report.json`` and ledger
rows via :func:`collect_counters`, the exact effort-counter test, an
operator poking at ``registry().collect()``) reads from this one source
of truth instead of plumbing ad-hoc dicts through result objects.

Instruments are process-local and cheap (an attribute add per
``inc``/``observe``). One pipeline run is one scrape window: the
detector calls :func:`reset_run` at the start of ``analyze()``, so a
scrape after the run sees exactly that run's totals. Refutation pool
workers never write here directly — the engine records the summary the
workers shipped back, which is why serial and parallel runs scrape
identically (locked by the parallel-equivalence tests).

Metric names are dotted lowercase: ``<substrate>.<what>``, with units
suffixed when not obvious (``_seconds``, ``_kb``). See
``docs/observability.md`` for the full naming convention and the
current metric inventory.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing count (resettable per run window)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self._value += amount

    @property
    def value(self) -> Number:
        return self._value

    def reset(self) -> None:
        self._value = 0

    def to_dict(self) -> Dict[str, object]:
        return {"type": "counter", "value": self._value}


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value: Number = 0

    def set(self, value: Number) -> None:
        self._value = value

    def inc(self, amount: Number = 1) -> None:
        self._value += amount

    @property
    def value(self) -> Number:
        return self._value

    def reset(self) -> None:
        self._value = 0

    def to_dict(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self._value}


#: default histogram buckets: geometric, covering 1 .. ~10^6 (node counts,
#: path lengths); callers with different dynamic ranges pass their own
DEFAULT_BUCKETS = (1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 100000, 1000000)

#: seconds-scale buckets for wall-clock latency histograms (serve job
#: latency, corpus per-app seconds): 10ms .. 2min
TIME_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120)


class Histogram:
    """A distribution: cumulative bucket counts plus sum/min/max.

    ``buckets`` are upper bounds (inclusive); observations above the last
    bound land in the implicit +Inf bucket.
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(
        self, name: str, help: str = "", buckets: Sequence[Number] = DEFAULT_BUCKETS
    ) -> None:
        if list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name}: buckets must be sorted")
        self.name = name
        self.help = help
        self.buckets = tuple(buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # +Inf last
        self._count = 0
        self._sum: Number = 0
        self._min: Optional[Number] = None
        self._max: Optional[Number] = None

    def observe(self, value: Number) -> None:
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[i] += 1
                return
        self._counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> Number:
        return self._sum

    @property
    def value(self) -> Number:
        """Scrape value of a histogram: its sum (keeps totals() uniform)."""
        return self._sum

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``0 <= q <= 100``) from the
        bucket counts.

        Cumulative buckets only bound *where* an observation fell, so the
        estimate interpolates linearly across the winning bucket's range
        and clamps to the observed ``[min, max]`` (a histogram with one
        sample answers that sample for every ``q``; an empty one answers
        ``float("nan")`` — "no data" must never plot as a real 0.0
        latency on a telemetry panel; samplers render it as a gap).
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} out of range 0..100")
        if self._count == 0:
            return float("nan")
        if self._count == 1 or self._min == self._max:
            return float(self._min)  # type: ignore[arg-type]
        target = (q / 100.0) * self._count
        cumulative = 0
        for i, count in enumerate(self._counts):
            if count == 0:
                continue
            if cumulative + count >= target:
                lo = 0.0 if i == 0 else float(self.buckets[i - 1])
                hi = (
                    float(self._max)  # +Inf bucket: the observed max bounds it
                    if i == len(self.buckets)
                    else float(self.buckets[i])
                )
                fraction = (target - cumulative) / count
                estimate = lo + (hi - lo) * max(0.0, min(1.0, fraction))
                return max(float(self._min), min(float(self._max), estimate))
            cumulative += count
        return float(self._max)  # type: ignore[arg-type]

    def reset(self) -> None:
        self._counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0
        self._min = None
        self._max = None

    def to_dict(self) -> Dict[str, object]:
        buckets = {str(bound): c for bound, c in zip(self.buckets, self._counts)}
        buckets["+Inf"] = self._counts[-1]
        return {
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "buckets": buckets,
        }


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create instrument registry with type checking.

    Re-registering a name returns the existing instrument; asking for the
    same name with a *different* type raises — two substrates fighting
    over one name is a bug, not a merge.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}
        self._lock = threading.Lock()

    # -- registration --------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {cls.__name__}"
                    )
                return existing
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[Number] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, help, buckets=buckets
        )

    # -- scraping ------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def value(self, name: str, default: Number = 0) -> Number:
        """Scalar scrape of one metric (0 when it never registered —
        a consumer must not crash because a substrate never ran)."""
        instrument = self._instruments.get(name)
        return instrument.value if instrument is not None else default

    def totals(self) -> Dict[str, Number]:
        """Flat name → scalar snapshot (histograms contribute their sum)."""
        return {name: inst.value for name, inst in sorted(self._instruments.items())}

    def collect(self) -> Dict[str, Dict[str, object]]:
        """Full typed snapshot, JSON-ready (histograms keep their shape)."""
        out = {}
        for name, inst in sorted(self._instruments.items()):
            entry = inst.to_dict()
            if inst.help:
                entry["help"] = inst.help
            out[name] = entry
        return out

    def reset(self) -> None:
        """Zero every instrument, keeping registrations (and help text)."""
        with self._lock:
            for instrument in self._instruments.values():
                instrument.reset()


_default_registry = MetricsRegistry()

# fork safety: a multithreaded parent (the serve daemon's worker pool, a
# threaded embedder) may fork an analysis child while another thread holds
# the registry lock — the child would inherit the lock *held forever* and
# deadlock on its first metric registration. Give the child a fresh lock;
# its registry contents are a private copy anyway (fork semantics).
if hasattr(os, "register_at_fork"):  # pragma: no branch — POSIX containers
    os.register_at_fork(
        after_in_child=lambda: setattr(_default_registry, "_lock", threading.Lock())
    )


def registry() -> MetricsRegistry:
    """The process-default registry the pipeline records into."""
    return _default_registry


def counter(name: str, help: str = "") -> Counter:
    return _default_registry.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    return _default_registry.gauge(name, help)


def histogram(
    name: str, help: str = "", buckets: Sequence[Number] = DEFAULT_BUCKETS
) -> Histogram:
    return _default_registry.histogram(name, help, buckets)


def reset_run() -> None:
    """Start a new scrape window (the detector calls this per analyze)."""
    _default_registry.reset()


#: RUN_report.json counter vocabulary → the registry metric each one
#: scrapes. Substrates register these where the work happens
#: (``core/hb.py``, ``analysis/pointsto.py``, ``core/refute.py``,
#: ``core/detector.py``); this table is only the rename into the stable
#: report schema.
COUNTER_METRICS: Dict[str, str] = {
    "harnesses": "sierra.harnesses",
    "actions": "sierra.actions",
    "hb_edges": "sierra.hb_edges",
    "closure_ops": "hb.closure_ops",
    "pointsto_worklist_iterations": "pointsto.worklist_iterations",
    "refutation_nodes_expanded": "refutation.nodes_expanded",
    "refutation_cache_hits": "refutation.cache_hits",
}


def collect_counters() -> Dict[str, int]:
    """Substrate effort counters of the most recent pipeline run.

    ``Sierra.analyze`` opens a fresh scrape window (:func:`reset_run`)
    per run, so the registry holds exactly the finished run's effort.
    """
    return {
        key: int(_default_registry.value(name))
        for key, name in COUNTER_METRICS.items()
    }
