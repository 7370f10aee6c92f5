"""Run diagnostics: hierarchical spans, warnings, degradation.

The detector and its substrates report what happened through a tiny
hook bus instead of ``print`` or — worse — silence:

* every timed region is wrapped in :func:`span`, which emits a
  ``span_start``/``span_end`` pair carrying wall-clock seconds, a span id
  and the id of the enclosing span. The Table 4 stages are the root spans;
  finer work (one HB rule, one refutation candidate) nests below them.
  The events form a tree that :func:`repro.obs.tracing.chrome_trace`
  exports as a Chrome trace-event file;
* fallback paths that *lose* something (a crashed refutation worker pool
  degrading to serial, a retry) emit ``warning`` / ``degraded`` events
  via :func:`emit_warning` / :func:`emit_degraded` instead of a bare
  ``except Exception: pass``.

Consumers install a callback with :func:`add_hook` (or the
:class:`Recorder` context manager, which collects events into a
JSON-ready list). With no hooks installed, emitting is a no-op and
:func:`span` short-circuits before allocating ids — the analysis pays
one truthiness test per span. Hook exceptions are **not** swallowed: a
broken consumer should fail loudly, exactly like the producer paths
this module exists to de-silence.

Span ids are ``"{pid:x}-{n}"`` strings: a forked refutation worker
inherits the parent's open-span stack (so its first span parents onto
the span that was open at fork time — the refutation stage) while its
own ids can never collide with ids minted in the parent. Events shipped
back across the process boundary therefore reattach to the parent's
span tree with no translation.

The corpus driver (``repro corpus-analyze``) keeps each app's events
as its entry in ``RUN_report.json``: the forked analysis child streams
them to the parent as they happen. ``repro analyze --trace`` records
its run with a :class:`Recorder`.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

#: event kinds, in the order a consumer will typically see them
SPAN_START = "span_start"
SPAN_END = "span_end"
WARNING = "warning"
DEGRADED = "degraded"


@dataclass
class RunEvent:
    """One diagnostic event fired by the pipeline."""

    kind: str  # SPAN_START | SPAN_END | WARNING | DEGRADED
    stage: Optional[str] = None  # span name ("hbg", "hb.rule.R1-…")
    message: str = ""
    seconds: Optional[float] = None  # SPAN_END only
    detail: Dict[str, object] = field(default_factory=dict)
    # -- span tree fields (set on span events when hooks are live) --
    span_id: Optional[str] = None
    parent_id: Optional[str] = None
    ts: Optional[float] = None  # time.perf_counter() at emission
    pid: Optional[int] = None  # emitting process
    mem: Optional[Dict[str, int]] = None  # memory capture (SPAN_END)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind}
        if self.stage is not None:
            out["stage"] = self.stage
        if self.message:
            out["message"] = self.message
        if self.seconds is not None:
            out["seconds"] = round(self.seconds, 4)
        if self.detail:
            out["detail"] = dict(self.detail)
        if self.span_id is not None:
            out["span_id"] = self.span_id
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.ts is not None:
            out["ts"] = self.ts
        if self.pid is not None:
            out["pid"] = self.pid
        if self.mem is not None:
            out["mem"] = dict(self.mem)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunEvent":
        """Inverse of :meth:`to_dict` — used to re-emit events that crossed
        a process boundary (refutation pool workers, the corpus driver)."""
        return cls(
            kind=str(data["kind"]),
            stage=data.get("stage"),  # type: ignore[arg-type]
            message=str(data.get("message", "")),
            seconds=data.get("seconds"),  # type: ignore[arg-type]
            detail=dict(data.get("detail", {})),  # type: ignore[arg-type]
            span_id=data.get("span_id"),  # type: ignore[arg-type]
            parent_id=data.get("parent_id"),  # type: ignore[arg-type]
            ts=data.get("ts"),  # type: ignore[arg-type]
            pid=data.get("pid"),  # type: ignore[arg-type]
            mem=data.get("mem"),  # type: ignore[arg-type]
        )


Hook = Callable[[RunEvent], None]

_hooks: List[Hook] = []

#: capture peak-RSS (and tracemalloc, when tracing) at span end: on while
#: any installed hook asks for it (``capture_memory``). Off by default —
#: ``getrusage`` per span is cheap but not free, and the corpus driver's
#: event lists should not grow for runs that never export a trace.
_capture_memory = False


def _refresh_memory_capture() -> None:
    global _capture_memory
    _capture_memory = any(getattr(h, "capture_memory", False) for h in _hooks)


def add_hook(hook: Hook) -> None:
    """Install ``hook``; it receives every subsequent :class:`RunEvent`.

    A hook with a true ``capture_memory`` attribute turns on per-span
    memory capture (see :class:`Span`) for as long as it is installed."""
    _hooks.append(hook)
    _refresh_memory_capture()


def remove_hook(hook: Hook) -> None:
    """Uninstall ``hook``.

    Removing a hook that is not installed is *unbalanced* — some caller
    either removed it twice or never added it. That used to be silent;
    now the remaining hooks get a ``warning`` event so the imbalance is
    visible in the run record (it still never raises: a diagnostics
    teardown path must not take the analysis down).
    """
    try:
        _hooks.remove(hook)
    except ValueError:
        emit_warning(
            "remove_hook: hook was not installed (unbalanced removal)",
            stage="obs",
            hook=repr(hook),
        )
    _refresh_memory_capture()


def emit(event: RunEvent) -> None:
    """Deliver ``event`` to every installed hook, in installation order."""
    if not _hooks:
        return
    if event.ts is None:
        event.ts = time.perf_counter()
    if event.pid is None:
        event.pid = os.getpid()
    for hook in list(_hooks):
        hook(event)


def emit_warning(message: str, stage: Optional[str] = None, **detail: object) -> None:
    """A recoverable anomaly the operator should see (e.g. a retry)."""
    emit(RunEvent(kind=WARNING, stage=stage, message=message, detail=detail))


def emit_degraded(message: str, stage: Optional[str] = None, **detail: object) -> None:
    """The run continued but lost something (e.g. parallel -> serial)."""
    emit(RunEvent(kind=DEGRADED, stage=stage, message=message, detail=detail))


def reemit(dicts: List[Dict[str, object]]) -> None:
    """Re-deliver events that were serialized in another process.

    Timestamps, pids, and span ids are preserved, so spans recorded in a
    forked worker slot into the parent's trace exactly where they ran.
    """
    for data in dicts:
        emit(RunEvent.from_dict(data))


# ----------------------------------------------------------------------
# hierarchical spans
# ----------------------------------------------------------------------
_span_counter = itertools.count(1)
#: ids of currently-open spans in this process; a fork inherits a copy,
#: which is exactly what parents worker-side spans onto the right node
_span_stack: List[str] = []


def _new_span_id() -> str:
    return f"{os.getpid():x}-{next(_span_counter)}"


def current_span_id() -> Optional[str]:
    """The id of the innermost open span, or None outside any span.

    This is the correlation handle the structured log formatter
    (:mod:`repro.obs.log`) stamps on every record, so a log line emitted
    mid-stage joins the same tree the Chrome trace exports. Ids are only
    minted while hooks are installed (see :func:`span`)."""
    return _span_stack[-1] if _span_stack else None


def _memory_snapshot() -> Optional[Dict[str, int]]:
    if not _capture_memory:
        return None
    import resource

    snap = {"rss_peak_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)}
    try:
        import tracemalloc

        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            snap["py_kb"] = current // 1024
            snap["py_peak_kb"] = peak // 1024
    except ImportError:  # pragma: no cover — tracemalloc is stdlib
        pass
    return snap


@dataclass
class Span:
    """Yielded by :func:`span`; mutate ``attrs`` via
    :meth:`set` to enrich the closing event (e.g. edges added by an HB
    rule). ``seconds`` is final once the block exits."""

    name: str
    span_id: Optional[str] = None
    parent_id: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    seconds: float = 0.0

    def set(self, **attrs: object) -> None:
        self.attrs.update(attrs)


@contextmanager
def span(name: str, **detail: object) -> Iterator[Span]:
    """Time one unit of work: a Table 4 stage (a root span) or below.

    Spans nest: the enclosing open span's id becomes ``parent_id``. The
    closing event fires even when the block raises (with the partial
    duration), so a consumer always sees where a run died. When no hooks
    are installed at entry, the span still times itself (stage timings
    feed the report) but mints no ids and emits nothing.
    """
    if not _hooks:
        sp = Span(name=name, attrs=dict(detail))
        t0 = time.perf_counter()
        try:
            yield sp
        finally:
            sp.seconds = time.perf_counter() - t0
        return

    sp = Span(
        name=name,
        span_id=_new_span_id(),
        parent_id=_span_stack[-1] if _span_stack else None,
        attrs=dict(detail),
    )
    _span_stack.append(sp.span_id)
    emit(
        RunEvent(
            kind=SPAN_START,
            stage=name,
            detail=dict(detail),
            span_id=sp.span_id,
            parent_id=sp.parent_id,
        )
    )
    t0 = time.perf_counter()
    try:
        yield sp
    finally:
        sp.seconds = time.perf_counter() - t0
        _span_stack.pop()
        emit(
            RunEvent(
                kind=SPAN_END,
                stage=name,
                seconds=sp.seconds,
                detail=dict(sp.attrs),
                span_id=sp.span_id,
                parent_id=sp.parent_id,
                mem=_memory_snapshot(),
            )
        )


class Recorder:
    """Collects every event emitted while installed (also a context manager).

    >>> with Recorder() as rec:
    ...     run_pipeline()
    >>> rec.warnings()
    ['refutation worker pool crashed ...']

    The context manager is idempotent: exiting twice (or exiting after a
    manual :func:`remove_hook`) uninstalls at most once and never trips
    the unbalanced-removal warning. ``capture_memory=True`` adds peak-RSS
    figures to every span end while the recorder is installed.
    """

    def __init__(self, capture_memory: bool = False) -> None:
        self.events: List[RunEvent] = []
        self.capture_memory = capture_memory
        self._installed = False

    # -- hook protocol -------------------------------------------------
    def __call__(self, event: RunEvent) -> None:
        self.events.append(event)

    def __enter__(self) -> "Recorder":
        add_hook(self)
        self._installed = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._installed:
            self._installed = False
            remove_hook(self)

    # -- views ---------------------------------------------------------
    def of_kind(self, kind: str) -> List[RunEvent]:
        return [e for e in self.events if e.kind == kind]

    def warnings(self) -> List[str]:
        return [e.message for e in self.of_kind(WARNING)]

    def degradations(self) -> List[str]:
        return [e.message for e in self.of_kind(DEGRADED)]

    @property
    def degraded(self) -> bool:
        return bool(self.of_kind(DEGRADED))

    def to_dicts(self) -> List[Dict[str, object]]:
        return [event.to_dict() for event in self.events]
