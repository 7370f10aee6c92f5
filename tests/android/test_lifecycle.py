"""Lifecycle state machine (Figure 5's state graph)."""

from repro.android.lifecycle import (
    ACTIVITY_TRANSITIONS,
    EXPECTED_LIFECYCLE_HB,
    EXPECTED_LIFECYCLE_UNORDERED,
    LifecycleState,
    instance_label,
    lifecycle_callbacks_of,
    lifecycle_state_graph,
)
from repro.ir.builder import ProgramBuilder
from repro.android.framework import install_framework


class TestStateGraph:
    def test_all_states_reachable_from_init(self):
        g = lifecycle_state_graph()
        reachable = g.reachable_from("<init>")
        for state in (
            LifecycleState.CREATED,
            LifecycleState.STARTED,
            LifecycleState.RESUMED,
            LifecycleState.PAUSED,
            LifecycleState.STOPPED,
            LifecycleState.DESTROYED,
        ):
            assert state in reachable

    def test_destroyed_is_terminal(self):
        g = lifecycle_state_graph()
        assert g.successors(LifecycleState.DESTROYED) == []

    def test_pause_resume_cycle_exists(self):
        g = lifecycle_state_graph()
        assert g.has_edge(LifecycleState.RESUMED, LifecycleState.PAUSED)
        assert g.has_edge(LifecycleState.PAUSED, LifecycleState.RESUMED)

    def test_restart_cycle_exists(self):
        g = lifecycle_state_graph()
        assert g.has_edge(LifecycleState.STOPPED, LifecycleState.STARTED)

    def test_transition_callbacks_unique_per_edge(self):
        seen = set()
        for t in ACTIVITY_TRANSITIONS:
            key = (t.source, t.target)
            assert key not in seen
            seen.add(key)


class TestExpectations:
    def test_expected_hb_mentions_both_instances(self):
        callbacks = {cb for (cb, _i), _ in EXPECTED_LIFECYCLE_HB}
        assert "onCreate" in callbacks and "onPause" in callbacks
        instances = {i for pair in EXPECTED_LIFECYCLE_HB for (_, i) in pair}
        assert instances == {1, 2}

    def test_unordered_pairs_disjoint_from_ordered(self):
        ordered = set(EXPECTED_LIFECYCLE_HB)
        for pair in EXPECTED_LIFECYCLE_UNORDERED:
            assert pair not in ordered
            assert (pair[1], pair[0]) not in ordered


class TestHelpers:
    def test_instance_label(self):
        assert instance_label("onResume", 1) == "onResume"
        assert instance_label("onResume", 2) == 'onResume"2"'

    def test_lifecycle_callbacks_of_collects_inherited_app_chain(self):
        pb = ProgramBuilder()
        install_framework(pb.program)
        base = pb.new_class("t.BaseAct", superclass="android.app.Activity")
        base.method("onPause").ret()
        sub = pb.new_class("t.SubAct", superclass="t.BaseAct")
        sub.method("onCreate").ret()
        cbs = lifecycle_callbacks_of(pb.program, "t.SubAct")
        assert cbs == ["onCreate", "onPause"]

    def test_lifecycle_callbacks_in_canonical_order(self):
        pb = ProgramBuilder()
        install_framework(pb.program)
        act = pb.new_class("t.A", superclass="android.app.Activity")
        act.method("onDestroy").ret()
        act.method("onCreate").ret()
        assert lifecycle_callbacks_of(pb.program, "t.A") == ["onCreate", "onDestroy"]

    def test_unknown_class_returns_empty(self):
        pb = ProgramBuilder()
        assert lifecycle_callbacks_of(pb.program, "no.Such") == []
