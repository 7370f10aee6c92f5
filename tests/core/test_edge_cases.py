"""Pipeline robustness on degenerate inputs."""

import pytest

from repro.android import Apk, Manifest, install_framework
from repro.core import Sierra, SierraOptions
from repro.ir.builder import ProgramBuilder
from repro.ir.types import INT


def empty_apk():
    pb = ProgramBuilder()
    install_framework(pb.program)
    return Apk("empty", pb.build(), Manifest("t"))


class TestDegenerateApps:
    def test_no_activities(self):
        result = Sierra(SierraOptions()).analyze(empty_apk())
        assert result.report.harnesses == 0
        assert result.report.actions == 0
        assert result.report.races_after_refutation == 0

    def test_activity_with_no_callbacks(self):
        pb = ProgramBuilder()
        install_framework(pb.program)
        pb.new_class("t.A", superclass="android.app.Activity")
        apk = Apk("bare", pb.build(), Manifest("t"))
        apk.manifest.add_activity("t.A", is_main=True)
        result = Sierra(SierraOptions()).analyze(apk)
        assert result.report.harnesses == 1
        assert result.report.actions == 0

    def test_activity_with_only_helper_methods(self):
        pb = ProgramBuilder()
        install_framework(pb.program)
        act = pb.new_class("t.A", superclass="android.app.Activity")
        helper = act.method("compute")
        helper.const("x", 1)
        helper.ret("x")
        apk = Apk("helpers", pb.build(), Manifest("t"))
        apk.manifest.add_activity("t.A", is_main=True)
        result = Sierra(SierraOptions()).analyze(apk)
        assert result.report.races_after_refutation == 0

    def test_self_posting_only_app_terminates(self):
        """A runnable that only ever reposts itself: extraction must not
        unroll forever (chain cutoff)."""
        pb = ProgramBuilder()
        install_framework(pb.program)
        r = pb.new_class("t.R", interfaces=("java.lang.Runnable",))
        r.field("handler", "android.os.Handler")
        run = r.method("run")
        run.load("h", "this", "handler")
        run.call("h", "post", "this")
        run.ret()
        act = pb.new_class("t.A", superclass="android.app.Activity")
        oc = act.method("onCreate")
        oc.new("h", "android.os.Handler")
        oc.new("r", "t.R")
        oc.store("r", "handler", "h")
        oc.call("h", "post", "r")
        oc.ret()
        apk = Apk("selfpost", pb.build(), Manifest("t"))
        apk.manifest.add_activity("t.A", is_main=True)
        result = Sierra(SierraOptions()).analyze(apk)
        runs = [a for a in result.extraction.actions if a.entry_method.name == "run"]
        assert 1 <= len(runs) <= 2  # root post + one collapsed repost child

    def test_mutual_posting_cycle_terminates(self):
        """R1 posts R2, R2 posts R1 — extraction must collapse the cycle."""
        pb = ProgramBuilder()
        install_framework(pb.program)
        for a, b in (("R1", "R2"), ("R2", "R1")):
            cls = pb.program.classes.get(f"t.{a}")
            if cls is None:
                pb.new_class(f"t.{a}", interfaces=("java.lang.Runnable",))
        for a, b in (("R1", "R2"), ("R2", "R1")):
            cb = pb.class_builder(f"t.{a}")
            cb.field("handler", "android.os.Handler")
            cb.field("other", f"t.{b}")
            run = cb.method("run")
            run.load("h", "this", "handler")
            run.load("o", "this", "other")
            run.call("h", "post", "o")
            run.ret()
        act = pb.new_class("t.A", superclass="android.app.Activity")
        oc = act.method("onCreate")
        oc.new("h", "android.os.Handler")
        oc.new("r1", "t.R1")
        oc.new("r2", "t.R2")
        oc.store("r1", "handler", "h")
        oc.store("r2", "handler", "h")
        oc.store("r1", "other", "r2")
        oc.store("r2", "other", "r1")
        oc.call("h", "post", "r1")
        oc.ret()
        apk = Apk("cycle", pb.build(), Manifest("t"))
        apk.manifest.add_activity("t.A", is_main=True)
        result = Sierra(SierraOptions()).analyze(apk)
        assert len(result.extraction.actions) < 20  # bounded, not unrolled

    def test_listener_registered_with_null_is_ignored(self):
        pb = ProgramBuilder()
        install_framework(pb.program)
        act = pb.new_class("t.A", superclass="android.app.Activity")
        oc = act.method("onCreate")
        oc.call("this", "findViewById", 1, dst="v")
        oc.const("nul", None)
        oc.call("v", "setOnClickListener", "nul")
        oc.ret()
        apk = Apk("nulreg", pb.build(), Manifest("t"))
        apk.manifest.add_activity("t.A", layout="m", is_main=True)
        apk.layouts.new_layout("m").add_view(1, "android.widget.Button")
        result = Sierra(SierraOptions()).analyze(apk)  # must not crash
        assert result.report.harnesses == 1

    def test_find_view_with_unknown_id(self):
        pb = ProgramBuilder()
        install_framework(pb.program)
        act = pb.new_class("t.A", superclass="android.app.Activity")
        act.field("v", "android.view.View")
        oc = act.method("onCreate")
        oc.call("this", "findViewById", 999, dst="v")  # not in any layout
        oc.store("this", "v", "v")
        oc.ret()
        apk = Apk("ghostview", pb.build(), Manifest("t"))
        apk.manifest.add_activity("t.A", is_main=True)
        result = Sierra(SierraOptions()).analyze(apk)
        assert result.report.harnesses == 1


class TestOptionEdges:
    def test_zero_actions_ordered_fraction(self):
        result = Sierra(SierraOptions()).analyze(empty_apk())
        assert result.report.ordered_fraction == 0.0

    def test_k_zero_still_runs(self):
        from repro.corpus import build_quickstart_app

        result = Sierra(SierraOptions(k=0)).analyze(build_quickstart_app())
        assert result.report.races_after_refutation >= 1

    def test_k_zero_is_context_insensitive(self):
        """k bounds the call and allocation strings a context keeps; at
        k = 0 they keep none, so every k-selector is the insensitive one."""
        from repro.cli import load_app

        def outcome(selector):
            result = Sierra(SierraOptions(selector=selector, k=0)).analyze(
                load_app("paper:APV")
            )
            report = result.report
            return (
                result.extraction.result.variable_count(),
                report.racy_pairs,
                report.races_after_refutation,
            )

        insensitive = outcome("insensitive")
        selectors = ("kcfa", "kobj", "hybrid")
        assert {s: outcome(s) for s in selectors} == dict.fromkeys(
            selectors, insensitive
        )
