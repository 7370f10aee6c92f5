"""The seven HB rules: Figures 5, 6, 7 and the §6.4 refinements."""

import pytest

from repro.android.lifecycle import EXPECTED_LIFECYCLE_HB, EXPECTED_LIFECYCLE_UNORDERED
from repro.android import install_framework, Apk, Manifest
from repro.cli import load_app
from repro.core import Sierra, SierraOptions, build_shbg, extract_actions, generate_harnesses
from repro.core.actions import ActionKind
from repro.ir.builder import ProgramBuilder
from repro.ir.types import INT
from tests.reference import reference_shbg


def full_lifecycle_apk():
    """An activity overriding every lifecycle callback."""
    pb = ProgramBuilder()
    install_framework(pb.program)
    act = pb.new_class("t.A", superclass="android.app.Activity")
    act.field("f", INT)
    for cb in ("onCreate", "onStart", "onResume", "onPause", "onStop", "onRestart", "onDestroy"):
        m = act.method(cb)
        m.load("v", "this", "f")
        m.ret()
    apk = Apk("lifecycle", pb.build(), Manifest("t"))
    apk.manifest.add_activity("t.A", is_main=True)
    return apk


def analyze(apk):
    harness = generate_harnesses(apk)
    ext = extract_actions(apk, harness)
    shbg = build_shbg(ext)
    return ext, shbg


def lifecycle_action(ext, callback, instance=1):
    for a in ext.actions:
        if (
            a.kind is ActionKind.LIFECYCLE
            and a.callback == callback
            and a.instance == instance
        ):
            return a
    raise AssertionError(f"no action {callback}#{instance}")


class TestRule2LifecycleFigure5:
    """Every HB edge (and non-edge) Figure 5 derives."""

    @pytest.fixture(scope="class")
    def shbg_and_ext(self):
        ext, shbg = analyze(full_lifecycle_apk())
        return ext, shbg

    @pytest.mark.parametrize("pair", EXPECTED_LIFECYCLE_HB)
    def test_expected_edges(self, shbg_and_ext, pair):
        ext, shbg = shbg_and_ext
        (cb1, i1), (cb2, i2) = pair
        a1 = lifecycle_action(ext, cb1, i1)
        a2 = lifecycle_action(ext, cb2, i2)
        assert shbg.ordered(a1.id, a2.id), f"{cb1}#{i1} must precede {cb2}#{i2}"

    @pytest.mark.parametrize("pair", EXPECTED_LIFECYCLE_UNORDERED)
    def test_expected_unordered(self, shbg_and_ext, pair):
        ext, shbg = shbg_and_ext
        (cb1, i1), (cb2, i2) = pair
        a1 = lifecycle_action(ext, cb1, i1)
        a2 = lifecycle_action(ext, cb2, i2)
        assert not shbg.comparable(a1.id, a2.id), f"{cb1}#{i1} vs {cb2}#{i2}"

    def test_no_cycles(self, shbg_and_ext):
        _, shbg = shbg_and_ext
        assert not shbg.closure.has_cycle()


class TestRule3GuiFigure6:
    """onResume ≺ onClick1; onClick2 ≺ onClick3; onClick1 vs onClick2 free."""

    @pytest.fixture(scope="class")
    def gui_setup(self):
        pb = ProgramBuilder()
        install_framework(pb.program)
        act = pb.new_class("t.A", superclass="android.app.Activity")
        act.field("f", INT)
        act.method("onResume").ret()
        for name in ("onClick1", "onClick2", "onClick3"):
            m = act.method(name)
            m.load("v", "this", "f")
            m.ret()
        apk = Apk("gui", pb.build(), Manifest("t"))
        decl = apk.manifest.add_activity("t.A", layout="main", is_main=True)
        layout = apk.layouts.new_layout("main")
        layout.add_view(1, "android.widget.Button", static_callbacks=(("onClick", "onClick1"),))
        layout.add_view(2, "android.widget.Button", static_callbacks=(("onClick", "onClick2"),))
        layout.add_view(3, "android.widget.Button", static_callbacks=(("onClick", "onClick3"),))
        decl.gui_flows.append(["onClick2", "onClick3"])
        ext, shbg = analyze(apk)
        by_cb = {a.callback: a for a in ext.actions if a.instance == 1}
        return shbg, by_cb

    def test_resume_precedes_clicks(self, gui_setup):
        shbg, by_cb = gui_setup
        for click in ("onClick1", "onClick2"):
            assert shbg.ordered(by_cb["onResume"].id, by_cb[click].id)

    def test_flow_orders_click2_before_click3(self, gui_setup):
        shbg, by_cb = gui_setup
        assert shbg.ordered(by_cb["onClick2"].id, by_cb["onClick3"].id)

    def test_independent_clicks_unordered(self, gui_setup):
        shbg, by_cb = gui_setup
        assert not shbg.comparable(by_cb["onClick1"].id, by_cb["onClick2"].id)


class TestRule3bVisibility:
    def test_gui_precedes_stop_and_destroy(self, quickstart_result):
        ext, shbg = quickstart_result.extraction, quickstart_result.shbg
        # quickstart has no onStop; build a richer fixture instead
        pb = ProgramBuilder()
        install_framework(pb.program)
        act = pb.new_class("t.A", superclass="android.app.Activity")
        act.field("f", INT)
        act.method("onStop").ret()
        act.method("onDestroy").ret()
        h = act.method("onTap")
        h.load("v", "this", "f")
        h.ret()
        apk = Apk("vis", pb.build(), Manifest("t"))
        apk.manifest.add_activity("t.A", layout="m", is_main=True)
        apk.layouts.new_layout("m").add_view(1, "android.widget.Button", static_callbacks=(("onClick", "onTap"),))
        ext2, shbg2 = analyze(apk)
        by_cb = {a.callback: a for a in ext2.actions}
        assert shbg2.ordered(by_cb["onTap"].id, by_cb["onStop"].id)
        assert shbg2.ordered(by_cb["onTap"].id, by_cb["onDestroy"].id)


class TestRule1Invocation:
    def test_poster_precedes_posted(self, opensudoku_result):
        ext, shbg = opensudoku_result.extraction, opensudoku_result.shbg
        for a in ext.actions:
            for parent in a.parents:
                assert shbg.ordered(parent, a.id)


class TestRule4And6Figure7:
    @pytest.fixture(scope="class")
    def posts_setup(self):
        """onCreate posts R1 then R2 (rule 4); onCreate ≺ onStart each post
        one runnable (rule 6: A1≺A2, A1 posts A3, A2 posts A4 ⇒ A3≺A4)."""
        pb = ProgramBuilder()
        install_framework(pb.program)
        act = pb.new_class("t.A", superclass="android.app.Activity")
        for n in (1, 2, 3, 4):
            r = pb.new_class(f"t.R{n}", interfaces=("java.lang.Runnable",))
            r.field("owner", "t.A")
            rm = r.method("run")
            rm.load("o", "this", "owner")
            rm.ret()
        act.field("f", INT)
        oc = act.method("onCreate")
        oc.new("h", "android.os.Handler")
        for n in (1, 2):
            oc.new(f"r{n}", f"t.R{n}")
            oc.store(f"r{n}", "owner", "this")
            oc.call("h", "post", f"r{n}")
        oc.ret()
        os_ = act.method("onStart")
        os_.new("h", "android.os.Handler")
        os_.new("r3", "t.R3")
        os_.store("r3", "owner", "this")
        os_.call("h", "post", "r3")
        os_.ret()
        orr = act.method("onResume")
        orr.new("h", "android.os.Handler")
        orr.new("r4", "t.R4")
        orr.store("r4", "owner", "this")
        orr.call("h", "post", "r4")
        orr.ret()
        apk = Apk("posts", pb.build(), Manifest("t"))
        apk.manifest.add_activity("t.A", is_main=True)
        ext, shbg = analyze(apk)
        runs = {}
        for a in ext.actions:
            if a.kind is ActionKind.MESSAGE:
                runs.setdefault(a.entry_method.class_name, a)
        return shbg, runs

    def test_rule4_orders_sequential_posts(self, posts_setup):
        shbg, runs = posts_setup
        assert shbg.ordered(runs["t.R1"].id, runs["t.R2"].id)
        assert not shbg.ordered(runs["t.R2"].id, runs["t.R1"].id)

    def test_rule6_orders_posts_of_ordered_actions(self, posts_setup):
        """Figure 7: onCreate ≺ onStart ≺ onResume, each posting to the main
        looper ⇒ their messages are ordered the same way."""
        shbg, runs = posts_setup
        assert shbg.ordered(runs["t.R1"].id, runs["t.R3"].id)
        assert shbg.ordered(runs["t.R3"].id, runs["t.R4"].id)
        assert shbg.ordered(runs["t.R2"].id, runs["t.R4"].id)


class TestRule4ParentScoping:
    def test_posts_from_different_instances_not_site_ordered(self, opensudoku_result):
        """onResume"2"'s post must not be ordered before onResume"1"'s post
        by mere site dominance (the bug rule 4's parent check prevents)."""
        ext, shbg = opensudoku_result.extraction, opensudoku_result.shbg
        pause = next(a for a in ext.actions if a.callback == "onPause")
        runs1 = [
            a
            for a in ext.actions
            if a.kind is ActionKind.MESSAGE
            and any(ext.by_id(p).instance == 1 for p in a.parents if ext.by_id(p).kind is ActionKind.LIFECYCLE)
        ]
        assert runs1
        for run in runs1:
            assert not shbg.comparable(pause.id, run.id)


class TestStatsAndEdges:
    def test_ordered_fraction_bounds(self, newsreader_result):
        frac = newsreader_result.shbg.ordered_fraction()
        assert 0.0 < frac < 1.0

    def test_edges_by_rule_nonempty(self, newsreader_result):
        rules = newsreader_result.shbg.edges_by_rule()
        assert "R2-lifecycle" in rules or "R3-gui-order" in rules
        assert rules.get("R1-invocation")

    def test_add_rejects_self_and_cycles(self, quickstart_result):
        shbg = quickstart_result.shbg
        some = shbg.actions[0].id
        assert not shbg.add(some, some, "test")
        # find an ordered pair and try to reverse it
        for a in shbg.actions:
            for b in shbg.actions:
                if shbg.ordered(a.id, b.id):
                    assert not shbg.add(b.id, a.id, "test")
                    return

    def test_unordered_pairs_symmetric_complement(self, quickstart_result):
        shbg = quickstart_result.shbg
        pairs = shbg.unordered_pairs()
        n = len(shbg.actions)
        assert len(pairs) + shbg.hb_edge_count() == n * (n - 1) // 2


class TestAddDedupe:
    """Regression: re-added or transitively-implied edges must not leave
    duplicate HBEdge records behind (the seed recorded them, inflating
    edges_by_rule and the direct-edge list)."""

    def fresh_shbg(self):
        from repro.core.hb import SHBG

        apk = full_lifecycle_apk()
        harness = generate_harnesses(apk)
        ext = extract_actions(apk, harness)
        return SHBG(actions=ext.actions)

    def test_readded_edge_records_once(self):
        shbg = self.fresh_shbg()
        a, b = shbg.actions[0].id, shbg.actions[1].id
        assert shbg.add(a, b, "T") is True
        n = len(shbg.direct_edges)
        assert shbg.add(a, b, "T") is False
        assert len(shbg.direct_edges) == n
        assert shbg.edges_by_rule().get("T") == 1

    def test_transitively_implied_edge_not_recorded(self):
        shbg = self.fresh_shbg()
        a, b, c = (act.id for act in shbg.actions[:3])
        shbg.add(a, b, "T")
        shbg.add(b, c, "T")
        n = len(shbg.direct_edges)
        assert shbg.ordered(a, c)
        assert shbg.add(a, c, "T") is False  # already implied
        assert len(shbg.direct_edges) == n


class TestClosureImplementationEquivalence:
    """build_shbg must produce the graph of the reference builder
    (naive set closure, pairwise rule-6 sweep): this locks the bit-row
    fast path to the reference sweep."""

    @pytest.mark.parametrize(
        "builder",
        [
            full_lifecycle_apk,
            pytest.param(lambda: load_app("paper:K-9 Mail"), id="paper:K-9_Mail"),
        ],
    )
    def test_generic_vs_bitset_rule_pipeline(self, builder):
        apk = builder()
        harness = generate_harnesses(apk)
        ext = extract_actions(apk, harness)
        fast = build_shbg(ext)
        slow = reference_shbg(ext)
        assert fast.edges_by_rule() == slow.edges_by_rule()
        assert fast.hb_edge_count() == len(slow.closure.closure_edges())
        for a in ext.actions:
            for b in ext.actions:
                assert fast.ordered(a.id, b.id) == slow.ordered(a.id, b.id)

    def test_generic_vs_bitset_on_synthetic_app(self, small_synth):
        apk, _truth = small_synth
        harness = generate_harnesses(apk)
        ext = extract_actions(apk, harness)
        fast = build_shbg(ext)
        slow = reference_shbg(ext)
        assert fast.edges_by_rule() == slow.edges_by_rule()
        assert fast.closure.closure_edges() == slow.closure.closure_edges()
