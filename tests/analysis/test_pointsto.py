"""Pointer analysis: dataflow, dispatch, framework intercepts, markers."""

import pytest

from repro.analysis.callgraph import MethodContext
from repro.analysis.context import ActionSensitiveSelector, ViewObject
from repro.analysis.pointsto import (
    ARRAY_FIELD,
    Entry,
    EventDispatch,
    MAIN_LOOPER,
    PointerAnalysis,
    analyze,
)
from repro.android.framework import install_framework
from repro.android.layout import LayoutRegistry
from repro.ir.builder import ProgramBuilder
from repro.ir.types import OBJECT
from tests.reference import PassesAnalysis


def fresh():
    pb = ProgramBuilder()
    install_framework(pb.program)
    return pb


def mc_of(result, method):
    nodes = [mc for mc in result.call_graph.nodes if mc.method is method]
    assert nodes, f"{method} not reachable"
    return nodes[0]


class TestCoreDataflow:
    def test_allocation_and_copy(self):
        pb = fresh()
        mb = pb.new_class("t.C").method("m")
        mb.new("a", "t.C")
        mb.move("b", "a")
        mb.ret()
        res = analyze(pb.program, [Entry(mb.method)])
        mc = mc_of(res, mb.method)
        assert res.var(mc, "a") == res.var(mc, "b")
        assert len(res.var(mc, "a")) == 1

    def test_field_store_load_roundtrip(self):
        pb = fresh()
        mb = pb.new_class("t.C").method("m")
        mb.new("o", "t.C")
        mb.new("v", "java.lang.Object")
        mb.store("o", "f", "v")
        mb.load("w", "o", "f")
        mb.ret()
        res = analyze(pb.program, [Entry(mb.method)])
        mc = mc_of(res, mb.method)
        assert res.var(mc, "w") == res.var(mc, "v")

    def test_static_roundtrip(self):
        pb = fresh()
        mb = pb.new_class("t.C").method("m")
        mb.new("v", "java.lang.Object")
        mb.sstore("t.C", "g", "v")
        mb.sload("w", "t.C", "g")
        mb.ret()
        res = analyze(pb.program, [Entry(mb.method)])
        mc = mc_of(res, mb.method)
        assert res.var(mc, "w") == res.static("t.C", "g")

    def test_array_is_index_insensitive(self):
        pb = fresh()
        mb = pb.new_class("t.C").method("m")
        mb.new("arr", "java.lang.Object")
        mb.new("v1", "t.C")
        mb.astore("arr", 0, "v1")
        mb.aload("w", "arr", 5)  # different index, same cell
        mb.ret()
        res = analyze(pb.program, [Entry(mb.method)])
        mc = mc_of(res, mb.method)
        assert res.var(mc, "w") == res.var(mc, "v1")
        (arr_obj,) = res.var(mc, "arr")
        assert res.field(arr_obj, ARRAY_FIELD) == res.var(mc, "v1")

    def test_constants_carry_no_objects(self):
        pb = fresh()
        mb = pb.new_class("t.C").method("m")
        mb.const("x", 3)
        mb.ret()
        res = analyze(pb.program, [Entry(mb.method)])
        assert res.var(mc_of(res, mb.method), "x") == frozenset()


class TestCalls:
    def test_virtual_dispatch_through_hierarchy(self):
        pb = fresh()
        base = pb.new_class("t.Base")
        base.method("who").ret()
        sub = pb.new_class("t.Sub", superclass="t.Base")
        sm = sub.method("who")
        sm.new("marker", "t.Sub")
        sm.ret()
        caller = pb.new_class("t.Main").method("m")
        caller.new("o", "t.Sub")
        caller.call("o", "who")
        caller.ret()
        res = analyze(pb.program, [Entry(caller.method)])
        callee_methods = {e.callee.method.signature for e in res.call_graph.edges()}
        assert "t.Sub.who" in callee_methods
        assert "t.Base.who" not in callee_methods

    def test_argument_and_return_binding(self):
        pb = fresh()
        helper = pb.new_class("t.H")
        hm = helper.method("id", params=[("x", OBJECT)])
        hm.ret("x")
        caller = pb.new_class("t.Main").method("m")
        caller.new("h", "t.H")
        caller.new("v", "java.lang.Object")
        caller.call("h", "id", "v", dst="r")
        caller.ret()
        res = analyze(pb.program, [Entry(caller.method)])
        mc = mc_of(res, caller.method)
        assert res.var(mc, "r") == res.var(mc, "v")

    def test_this_binding_is_per_receiver(self):
        pb = fresh()
        cls = pb.new_class("t.C")
        getter = cls.method("self")
        getter.ret("this")
        caller = pb.new_class("t.Main").method("m")
        caller.new("a", "t.C")
        caller.call("a", "self", dst="ra")
        caller.ret()
        res = analyze(pb.program, [Entry(caller.method)])
        mc = mc_of(res, caller.method)
        assert res.var(mc, "ra") == res.var(mc, "a")

    def test_framework_empty_bodies_not_expanded(self):
        pb = fresh()
        caller = pb.new_class("t.Main").method("m")
        caller.new("o", "java.lang.Object")
        caller.ret()
        res = analyze(pb.program, [Entry(caller.method)])
        assert len(res.call_graph) == 1  # only the entry


class TestIntercepts:
    def test_find_view_by_id_uses_layout(self):
        pb = fresh()
        layouts = LayoutRegistry()
        layouts.new_layout("main").add_view(7, "android.widget.Button")
        act = pb.new_class("t.A", superclass="android.app.Activity")
        mb = act.method("onCreate")
        mb.call("this", "findViewById", 7, dst="v")
        mb.ret()
        res = analyze(pb.program, [Entry(mb.method)], layouts=layouts)
        mc = mc_of(res, mb.method)
        assert res.var(mc, "v") == frozenset({ViewObject(7, "android.widget.Button")})

    def test_find_view_by_id_aliases_across_methods(self):
        """InflatedViewContext: same constant id ⇒ same abstract view."""
        pb = fresh()
        act = pb.new_class("t.A", superclass="android.app.Activity")
        m1 = act.method("onCreate")
        m1.call("this", "findViewById", 7, dst="v")
        m1.ret()
        m2 = act.method("onResume")
        m2.call("this", "findViewById", 7, dst="w")
        m2.ret()
        res = analyze(pb.program, [Entry(m1.method), Entry(m2.method)])
        assert res.var(mc_of(res, m1.method), "v") == res.var(mc_of(res, m2.method), "w")

    def test_main_looper_singleton(self):
        pb = fresh()
        mb = pb.new_class("t.C").method("m")
        mb.call_static("android.os.Looper.getMainLooper", dst="lp")
        mb.ret()
        res = analyze(pb.program, [Entry(mb.method)])
        assert res.var(mc_of(res, mb.method), "lp") == frozenset({MAIN_LOOPER})

    def test_handler_ctor_binds_looper(self):
        pb = fresh()
        mb = pb.new_class("t.C").method("m")
        mb.call_static("android.os.Looper.getMainLooper", dst="lp")
        mb.new("h", "android.os.Handler")
        mb.call_special("h", "android.os.Handler.<init>", "lp")
        mb.ret()
        res = analyze(pb.program, [Entry(mb.method)])
        mc = mc_of(res, mb.method)
        (handler,) = res.var(mc, "h")
        assert MAIN_LOOPER in res.field(handler, "looper")

    def test_thread_ctor_binds_target(self):
        pb = fresh()
        r = pb.new_class("t.R", interfaces=("java.lang.Runnable",))
        rm = r.method("run")
        rm.ret()
        mb = pb.new_class("t.C").method("m")
        mb.new("r", "t.R")
        mb.new("t", "java.lang.Thread")
        mb.call_special("t", "java.lang.Thread.<init>", "r")
        mb.call("t", "start")
        mb.ret()
        res = analyze(pb.program, [Entry(mb.method)])
        edges = [e for e in res.call_graph.edges() if e.via == "thread"]
        assert any(e.callee.method.signature == "t.R.run" for e in edges)

    def test_message_obtain_per_site(self):
        pb = fresh()
        mb = pb.new_class("t.C").method("m")
        mb.call_static("android.os.Message.obtain", dst="m1")
        mb.call_static("android.os.Message.obtain", dst="m2")
        mb.ret()
        res = analyze(pb.program, [Entry(mb.method)])
        mc = mc_of(res, mb.method)
        assert res.var(mc, "m1") != res.var(mc, "m2")


class TestConcurrencyLinking:
    def test_handler_post_links_run(self):
        pb = fresh()
        r = pb.new_class("t.R", interfaces=("java.lang.Runnable",))
        r.method("run").ret()
        mb = pb.new_class("t.C").method("m")
        mb.new("h", "android.os.Handler")
        mb.new("r", "t.R")
        mb.call("h", "post", "r")
        mb.ret()
        res = analyze(pb.program, [Entry(mb.method)])
        assert any(
            e.via == "post" and e.callee.method.signature == "t.R.run"
            for e in res.call_graph.edges()
        )

    def test_send_message_links_handle_message(self):
        pb = fresh()
        h = pb.new_class("t.H", superclass="android.os.Handler")
        hm = h.method("handleMessage", params=[("msg", OBJECT)])
        hm.ret()
        mb = pb.new_class("t.C").method("m")
        mb.new("h", "t.H")
        mb.call_static("android.os.Message.obtain", dst="msg")
        mb.call("h", "sendMessage", "msg")
        mb.ret()
        res = analyze(pb.program, [Entry(mb.method)])
        post_edges = [e for e in res.call_graph.edges() if e.via == "post"]
        assert any(e.callee.method.signature == "t.H.handleMessage" for e in post_edges)
        # the message's target handler is recorded for affinity resolution
        mc = mc_of(res, mb.method)
        (msg,) = res.var(mc, "msg")
        assert res.field(msg, "target") == res.var(mc, "h")

    def test_async_task_stage_linking_and_ret_binding(self):
        pb = fresh()
        t = pb.new_class("t.T", superclass="android.os.AsyncTask")
        bg = t.method("doInBackground")
        bg.new("data", "java.lang.Object")
        bg.ret("data")
        pe = t.method("onPostExecute", params=[("result", OBJECT)])
        pe.ret()
        mb = pb.new_class("t.C").method("m")
        mb.new("t", "t.T")
        mb.call("t", "execute")
        mb.ret()
        res = analyze(pb.program, [Entry(mb.method)])
        vias = {e.via for e in res.call_graph.edges()}
        assert "task" in vias and "post" in vias
        pe_mc = mc_of(res, pe.method)
        assert len(res.var(pe_mc, "result")) == 1  # fed from bg's return

    def test_executor_links_runnable(self):
        pb = fresh()
        r = pb.new_class("t.R", interfaces=("java.lang.Runnable",))
        r.method("run").ret()
        mb = pb.new_class("t.C").method("m")
        mb.new("ex", "java.util.concurrent.ThreadPoolExecutor")
        mb.new("r", "t.R")
        mb.call("ex", "execute", "r")
        mb.ret()
        res = analyze(pb.program, [Entry(mb.method)])
        assert any(
            e.via == "thread" and e.callee.method.signature == "t.R.run"
            for e in res.call_graph.edges()
        )


class TestMarkers:
    def test_event_dispatch_resolves_via_registration_pts(self):
        pb = fresh()
        listener = pb.new_class("t.L", interfaces=("android.view.View.OnClickListener",))
        lm = listener.method("onClick", params=[("v", OBJECT)])
        lm.ret()
        act = pb.new_class("t.A", superclass="android.app.Activity")
        oc = act.method("onCreate")
        oc.call("this", "findViewById", 3, dst="btn")
        oc.new("l", "t.L")
        reg_site = oc.call("btn", "setOnClickListener", "l")
        oc.ret()
        harness = pb.new_class("t.Harness").method("main", is_static=True)
        harness.new("a", "t.A")
        harness.call("a", "onCreate")
        harness.call_static("$event$0")
        harness.ret()
        dispatch = EventDispatch(
            reg_method=oc.method,
            reg_site=reg_site,
            arg_index=0,
            callback_methods=("onClick",),
            bind_receiver_to_first_param=True,
        )
        res = PointerAnalysis(
            pb.program,
            [Entry(harness.method)],
            dispatch_table={"$event$0": dispatch},
        ).solve()
        event_edges = [e for e in res.call_graph.edges() if e.via == "event"]
        assert any(e.callee.method.signature == "t.L.onClick" for e in event_edges)
        lm_mc = mc_of(res, lm.method)
        # the registered view is bound to the callback's first parameter
        assert len(res.var(lm_mc, "v")) == 1


class TestActionResolver:
    def test_resolver_pins_action_contexts(self):
        pb = fresh()
        r = pb.new_class("t.R", interfaces=("java.lang.Runnable",))
        r.method("run").ret()
        mb = pb.new_class("t.C").method("m")
        mb.new("h", "android.os.Handler")
        mb.new("r", "t.R")
        post_site = mb.call("h", "post", "r")
        mb.ret()

        run_method = pb.program.resolve_method("t.R", "run")

        def resolver(caller_mc, site, callee):
            if site is post_site and callee is run_method:
                return 42
            return None

        res = PointerAnalysis(
            pb.program,
            [Entry(mb.method, 1)],
            selector=ActionSensitiveSelector(),
            action_resolver=resolver,
        ).solve()
        run_mcs = [mc for mc in res.call_graph.nodes if mc.method is run_method]
        assert run_mcs and run_mcs[0].action_id() == 42


def _assert_same_fixpoint(worklist, passes):
    """Same points-to maps and the same call graph."""
    assert worklist._var_pts == passes._var_pts
    assert worklist._field_pts == passes._field_pts
    assert worklist._static_pts == passes._static_pts
    # CallEdge holds an unhashable Invoke: compare edge renderings
    assert sorted(map(repr, worklist.call_graph.edges())) == sorted(
        map(repr, passes.call_graph.edges())
    )


class TestSolverEquivalence:
    """Each phase runs on a paper app and on newsreader, the one corpus
    app whose fixpoint goes wrong when a field write does not wake that
    field's readers."""

    @pytest.mark.parametrize(
        "app", ["paper:K-9 Mail", "newsreader"], ids=lambda a: a.replace(" ", "_")
    )
    def test_worklist_equals_passes_on_paper_scale_phase_a(self, app):
        """The delta-worklist driver reaches the pass iteration's fixpoint
        in phase A: same points-to maps, same call graph."""
        from repro.analysis.context import InsensitiveSelector
        from repro.cli import load_app
        from repro.core.harness import generate_harnesses

        apk = load_app(app)
        harness = generate_harnesses(apk)

        def solve(driver):
            return driver(
                apk.program,
                harness.entries,
                selector=InsensitiveSelector(),
                layouts=apk.layouts,
                dispatch_table=harness.dispatch_table,
            ).solve()

        _assert_same_fixpoint(solve(PointerAnalysis), solve(PassesAnalysis))

    @pytest.mark.parametrize("app", ["paper:OpenSudoku", "newsreader"])
    def test_worklist_equals_passes_on_action_sensitive_phase_c(self, app):
        """Phase C, the action-sensitive re-solve that routes every action
        entry through the extraction's resolver, reaches the pass
        iteration's fixpoint too."""
        from repro.cli import load_app
        from repro.core.extract import extract_actions
        from repro.core.harness import generate_harnesses

        apk = load_app(app)
        harness = generate_harnesses(apk)
        ext = extract_actions(apk, harness)
        passes = PassesAnalysis(
            apk.program,
            harness.entries,
            selector=ext.selector,
            layouts=apk.layouts,
            dispatch_table=harness.dispatch_table,
            action_resolver=ext.resolver,
        ).solve()
        _assert_same_fixpoint(ext.result, passes)
