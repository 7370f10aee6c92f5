"""Hierarchical spans and Chrome trace-event export.

Covers the span tree (nesting, parent ids, cross-process reattachment of
refutation pool-worker spans) and the trace-schema validator the perf
gate runs against every emitted trace.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs


class TestSpanTree:
    def test_nested_spans_carry_parent_ids(self):
        with obs.Recorder() as rec:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        starts = [e for e in rec.events if e.kind == obs.SPAN_START]
        outer, inner = starts
        assert outer.stage == "outer" and outer.parent_id is None
        assert inner.stage == "inner" and inner.parent_id == outer.span_id
        assert outer.span_id != inner.span_id

    def test_spans_nest_under_stages(self):
        with obs.Recorder() as rec:
            with obs.span("hbg"):
                with obs.span("hb.rule.R1"):
                    pass
        stage, rule = rec.of_kind(obs.SPAN_START)
        assert stage.span_id and stage.parent_id is None
        assert rule.parent_id == stage.span_id

    def test_span_end_carries_attributes_and_seconds(self):
        with obs.Recorder() as rec:
            with obs.span("work", n=3) as sp:
                sp.set(edges_added=7)
        end = next(e for e in rec.events if e.kind == obs.SPAN_END)
        assert end.detail == {"n": 3, "edges_added": 7}
        assert end.seconds is not None and end.seconds >= 0
        assert end.span_id and end.ts is not None and end.pid == os.getpid()

    def test_span_without_hooks_still_times(self):
        # no Recorder installed: the fast path must mint no ids but keep
        # timing (the detector reads .seconds)
        with obs.span("quiet") as sp:
            pass
        assert sp.seconds >= 0
        assert sp.span_id is None

    def test_events_round_trip_through_dicts(self):
        with obs.Recorder() as rec:
            with obs.span("outer", k="v"):
                pass
        dicts = rec.to_dicts()
        json.dumps(dicts)
        with obs.Recorder() as rec2:
            obs.reemit(dicts)
        assert [e.span_id for e in rec2.events] == [e.span_id for e in rec.events]
        assert [e.ts for e in rec2.events] == [e.ts for e in rec.events]


class TestWorkerSpanReattachment:
    """Satellite: spans emitted inside ``_refute_parallel`` pool workers
    must reattach to the parent's span tree with correct parent ids."""

    def test_pool_worker_spans_parent_onto_refutation_stage(self, opensudoku_apk):
        from repro.core import Sierra, SierraOptions

        with obs.Recorder() as rec:
            Sierra(SierraOptions(parallelism=2)).analyze(opensudoku_apk)
        ref_stage = next(
            e
            for e in rec.events
            if e.kind == obs.SPAN_START and e.stage == "refutation"
        )
        chunk_starts = [
            e
            for e in rec.events
            if e.kind == obs.SPAN_START and e.stage == "refute.chunk"
        ]
        assert chunk_starts, "pool workers shipped no chunk spans"
        # worker spans run in other pids yet parent onto the stage that was
        # open at fork time — ids are pid-prefixed so no collisions
        assert all(e.pid != os.getpid() for e in chunk_starts)
        assert all(e.parent_id == ref_stage.span_id for e in chunk_starts)

        by_id = {e.span_id: e for e in rec.events if e.span_id}
        candidates = [
            e
            for e in rec.events
            if e.kind == obs.SPAN_START and e.stage == "refute.candidate"
            and e.pid != os.getpid()
        ]
        assert candidates
        assert all(by_id[e.parent_id].stage == "refute.chunk" for e in candidates)


class TestChromeTrace:
    """The trace is a view of a recorded event list."""

    def _record(self):
        with obs.Recorder() as rec:
            with obs.span("hbg", app="x"):
                with obs.span("hb.rule.R1"):
                    pass
                obs.emit_warning("w", stage="hbg")
        return rec.events

    def test_emits_valid_chrome_trace(self, tmp_path):
        from repro.obs.tracing import write_chrome_trace

        path = tmp_path / "trace.json"
        assert write_chrome_trace(str(path), self._record(), "test") == 5
        assert obs.validate_trace_file(str(path)) == []
        data = json.loads(path.read_text())
        names = [e["name"] for e in data["traceEvents"] if e["ph"] in "BE"]
        assert names == ["hbg", "hb.rule.R1", "hb.rule.R1", "hbg"]

    def test_metadata_and_instants(self):
        events = obs.chrome_trace(self._record(), process_name="test")["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "test"
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 1 and instants[0]["s"] == "t"
        assert instants[0]["args"]["message"] == "w"

    def test_span_ids_land_in_args(self):
        events = obs.chrome_trace(self._record())["traceEvents"]
        rule_begin = next(
            e for e in events if e["name"] == "hb.rule.R1" and e["ph"] == "B"
        )
        assert rule_begin["args"]["span_id"]
        assert rule_begin["args"]["parent_id"]

    def test_other_event_kinds_are_skipped(self):
        events = self._record()
        # neither exported nor allowed to move the epoch
        custom = obs.RunEvent(kind="custom", stage="x", ts=0.0, pid=os.getpid())
        assert obs.chrome_trace(events + [custom]) == obs.chrome_trace(events)
        assert obs.chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}


class TestTraceValidator:
    def _ok_event(self, **over):
        event = {"name": "x", "ph": "i", "ts": 1.0, "pid": 1, "tid": 1, "s": "t"}
        event.update(over)
        return event

    def test_accepts_object_and_array_forms(self):
        events = [self._ok_event()]
        assert obs.validate_chrome_trace({"traceEvents": events}) == []
        assert obs.validate_chrome_trace(events) == []

    def test_missing_required_keys(self):
        violations = obs.validate_chrome_trace([{"ph": "B", "ts": 0}])
        assert violations and "missing key" in violations[0]

    def test_metadata_exempt_from_ts(self):
        meta = {"name": "process_name", "ph": "M", "pid": 1, "tid": 1, "args": {}}
        assert obs.validate_chrome_trace([meta]) == []

    def test_backwards_timestamps_flagged(self):
        events = [self._ok_event(ts=5.0), self._ok_event(ts=2.0)]
        violations = obs.validate_chrome_trace(events)
        assert any("goes backwards" in v for v in violations)

    def test_unbalanced_begin_flagged(self):
        events = [self._ok_event(ph="B", name="open")]
        violations = obs.validate_chrome_trace(events)
        assert any("unclosed" in v for v in violations)

    def test_stray_end_flagged(self):
        events = [self._ok_event(ph="E", name="never-opened")]
        violations = obs.validate_chrome_trace(events)
        assert any("no open 'B'" in v for v in violations)

    def test_improper_nesting_flagged(self):
        events = [
            self._ok_event(ph="B", name="a", ts=0),
            self._ok_event(ph="B", name="b", ts=1),
            self._ok_event(ph="E", name="a", ts=2),
            self._ok_event(ph="E", name="b", ts=3),
        ]
        violations = obs.validate_chrome_trace(events)
        assert any("improper nesting" in v for v in violations)

    def test_non_numeric_ts_flagged(self):
        violations = obs.validate_chrome_trace([self._ok_event(ts="soon")])
        assert any("non-negative number" in v for v in violations)

    def test_unreadable_file_is_a_violation(self, tmp_path):
        assert obs.validate_trace_file(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert any(
            "not valid JSON" in v for v in obs.validate_trace_file(str(bad))
        )


class TestMemoryCapture:
    def test_memory_snapshot_attached_when_enabled(self):
        with obs.Recorder(capture_memory=True) as rec:
            with obs.span("mem"):
                pass
        end = next(e for e in rec.events if e.kind == obs.SPAN_END)
        assert end.mem is not None and end.mem["rss_peak_kb"] > 0
        # detail stays clean: memory rides in its own field
        assert "rss_peak_kb" not in end.detail

    def test_capture_follows_the_hooks_that_ask_for_it(self):
        with obs.Recorder() as plain:
            with obs.Recorder(capture_memory=True):
                with obs.span("asked"):
                    pass
            # the asking hook is gone: capture is off again
            with obs.span("unasked"):
                pass
        ends = {e.stage: e.mem for e in plain.events if e.kind == obs.SPAN_END}
        assert ends["asked"] is not None
        assert ends["unasked"] is None

    def test_memory_capture_off_by_default(self):
        with obs.Recorder() as rec:
            with obs.span("mem"):
                pass
        end = next(e for e in rec.events if e.kind == obs.SPAN_END)
        assert end.mem is None
