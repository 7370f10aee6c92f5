"""The diagnostics hook bus: emission, stage timing, the Recorder."""

from __future__ import annotations

import pytest

from repro import obs


class TestHooks:
    def test_emit_reaches_installed_hooks_in_order(self):
        seen = []
        first = seen.append
        second = lambda e: seen.append(("second", e.kind))  # noqa: E731
        obs.add_hook(first)
        obs.add_hook(second)
        try:
            obs.emit_warning("w1", stage="refutation")
        finally:
            obs.remove_hook(first)
            obs.remove_hook(second)
        assert seen[0].message == "w1"
        assert seen[1] == ("second", obs.WARNING)

    def test_emit_without_hooks_is_a_noop(self):
        obs.emit_warning("nobody is listening")  # must not raise

    def test_remove_unknown_hook_warns_installed_listeners(self):
        # unbalanced removal is a consumer bug: with listeners installed it
        # must be surfaced as a warning event, not swallowed
        with obs.Recorder() as rec:
            obs.remove_hook(lambda e: None)
        assert len(rec.events) == 1
        warning = rec.events[0]
        assert warning.kind == obs.WARNING
        assert "not installed" in warning.message

    def test_remove_unknown_hook_without_listeners_is_a_noop(self):
        obs.remove_hook(lambda e: None)  # nobody to warn; must not raise

    def test_hook_exceptions_propagate(self):
        def broken(event):
            raise RuntimeError("consumer bug")

        obs.add_hook(broken)
        try:
            with pytest.raises(RuntimeError, match="consumer bug"):
                obs.emit_warning("boom")
        finally:
            obs.remove_hook(broken)


class TestStage:
    def test_stage_emits_start_and_end_with_seconds(self):
        with obs.Recorder() as rec:
            with obs.stage("hbg", app="x") as timer:
                pass
        assert timer.seconds >= 0
        kinds = [e.kind for e in rec.events]
        assert kinds == [obs.STAGE_START, obs.STAGE_END]
        end = rec.events[-1]
        assert end.stage == "hbg"
        assert end.seconds == timer.seconds
        assert end.detail == {"app": "x"}

    def test_stage_end_fires_even_when_the_block_raises(self):
        with obs.Recorder() as rec:
            with pytest.raises(ValueError):
                with obs.stage("cg_pa"):
                    raise ValueError("analysis died")
        assert [e.kind for e in rec.events] == [obs.STAGE_START, obs.STAGE_END]

    def test_stage_seconds_view(self):
        with obs.Recorder() as rec:
            with obs.stage("cg_pa"):
                pass
            with obs.stage("refutation"):
                pass
        ends = rec.of_kind(obs.STAGE_END)
        assert [e.stage for e in ends] == ["cg_pa", "refutation"]
        assert all(e.seconds is not None and e.seconds >= 0 for e in ends)

    def test_stage_seconds_sums_repeated_stages(self):
        # a stage that runs N times is recorded N times — a consumer that
        # folds the stream by stage sees every occurrence, not the last
        with obs.Recorder() as rec:
            durations = []
            for _ in range(3):
                with obs.stage("pointsto") as timer:
                    pass
                durations.append(timer.seconds)
        ends = rec.of_kind(obs.STAGE_END)
        assert [e.stage for e in ends] == ["pointsto"] * 3
        assert sum(e.seconds for e in ends) == pytest.approx(sum(durations))


class TestRecorder:
    def test_recorder_uninstalls_on_exit(self):
        with obs.Recorder() as rec:
            obs.emit_warning("inside")
        obs.emit_warning("outside")
        assert rec.warnings() == ["inside"]

    def test_recorder_exit_is_idempotent(self):
        rec = obs.Recorder()
        rec.__enter__()
        rec.__exit__(None, None, None)
        # a second exit must not warn about unbalanced removal or raise
        with obs.Recorder() as watcher:
            rec.__exit__(None, None, None)
        assert watcher.events == []

    def test_degraded_flag_and_views(self):
        with obs.Recorder() as rec:
            obs.emit_warning("pool crashed", stage="refutation", attempt=1)
            obs.emit_degraded("fell back to serial", stage="refutation")
        assert rec.degraded
        assert rec.warnings() == ["pool crashed"]
        assert rec.degradations() == ["fell back to serial"]

    def test_to_dicts_is_json_ready(self):
        import json

        with obs.Recorder() as rec:
            with obs.stage("hbg"):
                obs.emit_degraded("d", stage="hbg", cause="x")
        dicts = rec.to_dicts()
        json.dumps(dicts)  # round-trippable
        # subset check: stage events also carry span identity (span_id,
        # ts, pid) for the trace exporter
        assert dicts[0]["kind"] == "stage_start"
        assert dicts[0]["stage"] == "hbg"
        assert dicts[0]["span_id"]
        assert dicts[1]["detail"] == {"cause": "x"}
        assert "seconds" in dicts[2]

    def test_pipeline_fires_stage_events(self, quickstart_apk):
        from repro.core import Sierra, SierraOptions

        with obs.Recorder() as rec:
            Sierra(SierraOptions()).analyze(quickstart_apk)
        stages = {e.stage for e in rec.of_kind(obs.STAGE_END)}
        assert stages == {"cg_pa", "hbg", "refutation"}
        assert not rec.degraded
