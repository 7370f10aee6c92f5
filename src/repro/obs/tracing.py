"""Chrome trace-event export for the diagnostics span tree.

:func:`chrome_trace` is a view of a recorded event list: record a
pipeline run with a :class:`repro.obs.Recorder` (``repro analyze <app>
--trace out.json`` does) and it turns the span events into Chrome
trace-event JSON — loadable in ``chrome://tracing`` or
https://ui.perfetto.dev — with one track per process: the main pipeline
on the parent pid, each refutation pool worker on its own pid (their
spans are shipped back through the result pipe and re-emitted,
timestamps intact, so they land on the timeline exactly where they ran).

Mapping:

* ``span_start`` → ``ph: "B"`` (begin; the Table 4 stages are root spans),
* ``span_end``   → ``ph: "E"`` (end, with the span's attributes — and
  memory capture, when enabled — in ``args``),
* ``warning``/``degraded`` → ``ph: "i"`` (instant, thread scope).

Other event kinds are skipped. Timestamps are microseconds relative to
the earliest exported event (`time.perf_counter` is CLOCK_MONOTONIC on
Linux — one clock across forked processes, so worker spans need no skew
correction).

:func:`validate_chrome_trace` is the schema check the trace tests run
against every emitted trace (``tests/obs/test_tracing.py`` and the
``perf_smoke`` export test): required keys, numeric monotonic timestamps
per track, and balanced, properly nested B/E pairs.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple, Union

from repro.obs.diagnostics import DEGRADED, RunEvent, SPAN_END, SPAN_START, WARNING

#: trace-event phase per event kind
_PHASE = {
    SPAN_START: "B",
    SPAN_END: "E",
    WARNING: "i",
    DEGRADED: "i",
}

#: category per event kind (Chrome's filter UI groups by these)
_CATEGORY = {
    SPAN_START: "span",
    SPAN_END: "span",
    WARNING: "diagnostic",
    DEGRADED: "diagnostic",
}


def chrome_trace(
    events: Sequence[RunEvent], process_name: str = "sierra"
) -> Dict[str, object]:
    """``events`` as a Chrome trace-event object (``{"traceEvents": [...]}``)."""
    events = [e for e in events if e.kind in _PHASE]
    epoch = min((e.ts for e in events if e.ts is not None), default=0.0)
    out: List[Dict[str, object]] = []
    for pid in sorted({e.pid for e in events if e.pid is not None}):
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": pid,
                "args": {"name": process_name},
            }
        )
    for event in events:
        args: Dict[str, object] = dict(event.detail)
        if event.span_id is not None:
            args["span_id"] = event.span_id
        if event.parent_id is not None:
            args["parent_id"] = event.parent_id
        if event.mem is not None:
            args.update(event.mem)
        if event.message:
            args["message"] = event.message
        record: Dict[str, object] = {
            "name": event.stage or event.kind,
            "cat": _CATEGORY[event.kind],
            "ph": _PHASE[event.kind],
            "ts": round(((event.ts or epoch) - epoch) * 1e6, 1),
            "pid": event.pid or 0,
            "tid": event.pid or 0,
            "args": args,
        }
        if _PHASE[event.kind] == "i":
            record["s"] = "t"  # instant-event scope: thread
        out.append(record)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str, events: Sequence[RunEvent], process_name: str = "sierra"
) -> int:
    """Write :func:`chrome_trace` to ``path``; returns how many events it
    exported (process-name metadata not counted)."""
    trace = chrome_trace(events, process_name)
    with open(path, "w") as fh:
        json.dump(trace, fh, indent=1)
        fh.write("\n")
    return sum(1 for e in trace["traceEvents"] if e["ph"] != "M")


# ----------------------------------------------------------------------
# schema validation (the trace tests)
# ----------------------------------------------------------------------
_REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")


def validate_chrome_trace(data: Union[Dict, List]) -> List[str]:
    """Validate a Chrome trace-event collection; return violation strings.

    Accepts either the object form (``{"traceEvents": [...]}``) or the
    bare array form. Checks, per the trace-event format spec:

    * every event carries ``name``/``ph``/``ts``/``pid``/``tid``
      (metadata events, ``ph: "M"``, are exempt from ``ts``);
    * timestamps are numeric, non-negative, and monotonically
      non-decreasing within each ``(pid, tid)`` track;
    * ``B``/``E`` pairs are balanced and properly nested per track
      (every ``E`` closes the innermost open ``B`` of the same name,
      nothing left open at the end).

    An empty violation list means the trace loads cleanly in
    ``chrome://tracing`` / Perfetto.
    """
    violations: List[str] = []
    if isinstance(data, dict):
        events = data.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level object has no 'traceEvents' list"]
    elif isinstance(data, list):
        events = data
    else:
        return [f"trace must be a JSON object or array, got {type(data).__name__}"]

    last_ts: Dict[Tuple[object, object], float] = {}
    open_spans: Dict[Tuple[object, object], List[str]] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            violations.append(f"event[{i}]: not an object")
            continue
        ph = event.get("ph")
        missing = [
            key
            for key in _REQUIRED_KEYS
            if key not in event and not (key == "ts" and ph == "M")
        ]
        if missing:
            violations.append(f"event[{i}]: missing key(s) {', '.join(missing)}")
            continue
        if ph == "M":
            continue
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            violations.append(f"event[{i}]: ts must be a non-negative number, got {ts!r}")
            continue
        track = (event["pid"], event["tid"])
        prev = last_ts.get(track)
        if prev is not None and ts < prev:
            violations.append(
                f"event[{i}]: ts {ts} goes backwards on track {track} (prev {prev})"
            )
        last_ts[track] = ts
        if ph == "B":
            open_spans.setdefault(track, []).append(str(event["name"]))
        elif ph == "E":
            stack = open_spans.get(track)
            if not stack:
                violations.append(
                    f"event[{i}]: 'E' for {event['name']!r} with no open 'B' "
                    f"on track {track}"
                )
            elif stack[-1] != str(event["name"]):
                violations.append(
                    f"event[{i}]: 'E' for {event['name']!r} closes "
                    f"{stack[-1]!r} on track {track} (improper nesting)"
                )
                stack.pop()
            else:
                stack.pop()
    for track, stack in open_spans.items():
        if stack:
            violations.append(
                f"track {track}: {len(stack)} unclosed 'B' event(s): "
                + ", ".join(repr(name) for name in stack)
            )
    return violations


def validate_trace_file(path: str) -> List[str]:
    """Load ``path`` and validate it; unreadable/unparsable is a violation."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        return [f"cannot read trace file: {exc}"]
    except json.JSONDecodeError as exc:
        return [f"trace file is not valid JSON: {exc}"]
    return validate_chrome_trace(data)
