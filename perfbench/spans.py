"""In-memory span recorder for the traced runs.

A span is ``(name, start, end, parent, request)``; spans of one request
share its id. Spans are kept in memory and written out once, when the
benchmark ends. A layer's self time is its spans' durations minus the part
of each interval that child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``enabled=False`` gives the untraced twin of a
    traced replay (same calls, no span objects)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=self._stack[-1] if self._stack else None,
            request=request,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def add(self, name: str, start: float, end: float, request: str,
            parent: Optional[int] = None) -> Span:
        """Record a span measured elsewhere (a program timestamp, a record
        the program exposes)."""
        span = Span(len(self.spans), name, start, end, parent, request)
        self.spans.append(span)
        return span

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")


def _covered(intervals: List[tuple]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children, clipped to it."""
    children: Dict[int, List[tuple]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.id, ())
            if min(b, s.end) > max(a, s.start)
        ]
        out[s.id] = s.duration - _covered(clipped)
    return out


def layer_self_time(spans: List[Span]) -> Dict[str, float]:
    """Layer name -> summed self time over all of its spans."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id]
    return out

