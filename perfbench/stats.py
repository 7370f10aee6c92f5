"""Timing summaries: a median plus the highest well-populated percentile.

A tail percentile read from a handful of samples is noise, so the
benchmark reports the highest percentile of a fixed ladder that still has
at least ``MIN_BEYOND`` samples beyond it, and prints which one it was
together with the sample count.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

#: percentiles the tail is chosen from, lowest first
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: samples that must lie beyond a percentile for it to be reported
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (0..100), linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` ranked samples lie above the ``q``-th percentile's
    interpolation position."""
    return n - 1 - math.floor((q / 100.0) * (n - 1))


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    Below ``2 * MIN_BEYOND`` samples not even the median qualifies; the
    median is returned then and :func:`summarize` marks the tail as thin.
    """
    best = LADDER[0]
    for q in LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``{"n", "p50", "tail", "tail_q", "thin"}`` for a list of timings."""
    n = len(values)
    q = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        "tail": percentile(values, q),
        "tail_q": q,
        "thin": samples_beyond(n, q) < MIN_BEYOND,
    }


def describe(name: str, values: Sequence[float], unit: str = "s") -> str:
    """One human-readable line: median, tail percentile and sample count."""
    s = summarize(values)
    thin = " (too few samples for a tail)" if s["thin"] else ""
    return (
        f"{name}: p50 {s['p50']:.4f} {unit}, p{s['tail_q']:g} "
        f"{s['tail']:.4f} {unit}, n={s['n']}{thin}"
    )

