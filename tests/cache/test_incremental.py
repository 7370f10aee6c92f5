"""Cross-run incremental analysis: diff, graft, resume precision.

Satellite guarantee: after an additive change to one method, only the
points-to units that (transitively) depend on it recompute — disjoint
components of the program are never re-enqueued — and the resumed fixpoint
equals a cold solve of the new program. Non-additive changes fall back to
cold, loudly.
"""

import pytest

from repro import obs
from repro.analysis.context import InsensitiveSelector
from repro.analysis.pointsto import Entry, PointerAnalysis
from repro.cache.incremental import diff_programs, graft
from repro.cache.keys import method_digest
from repro.cli import load_app
from repro.core import Sierra, SierraOptions
from repro.ir.builder import ProgramBuilder
from repro.ir.instructions import Invoke, Nop
from repro.obs import metrics


def two_component_program():
    """Two disjoint call trees: A.main -> A.helper and B.main -> B.helper."""
    pb = ProgramBuilder()
    from repro.android.framework import install_framework

    install_framework(pb.program)
    entries = []
    for tag in ("A", "B"):
        cb = pb.new_class(f"t.{tag}")
        helper = cb.method("helper")
        helper.new("o", f"t.{tag}")
        helper.store("this", "cell", "o")
        helper.ret()
        main = cb.method("main")
        main.new("h", f"t.{tag}")
        main.call("h", "helper")
        main.ret()
        entries.append(Entry(main.method))
    return pb.program, entries


def solve(program, entries):
    analysis = PointerAnalysis(program, entries, selector=InsensitiveSelector())
    result = analysis.solve()
    return analysis, result


def record_drained(analysis):
    """The (method signature, index) of every unit ``analysis`` drains
    from now on. Every queued unit drains exactly once, in queue order,
    so recording what ``_enqueue`` newly queues records the drain."""
    drained = []
    enqueue = analysis._enqueue

    def recording_enqueue(unit):
        if unit not in analysis._queued:
            mc, index = unit
            drained.append((mc.method.signature, index))
        enqueue(unit)

    analysis._enqueue = recording_enqueue
    return drained


class TestResumePrecision:
    def test_resume_replays_only_dependents(self):
        program, entries = two_component_program()
        analysis, _ = solve(program, entries)

        # additive change to A.helper only
        a_helper = program.classes["t.A"].methods["helper"]
        a_helper.body.insert(len(a_helper.body) - 1, Nop())
        a_helper._cfg = None

        drained = record_drained(analysis)
        analysis.resume([a_helper])
        replayed = {sig for sig, _ in drained}
        assert any("t.A.helper" in sig for sig in replayed)
        # the disjoint B component never recomputes
        assert not any(".B." in sig for sig in replayed)

    def test_resume_reaches_fixpoint_of_new_program(self):
        program, entries = two_component_program()
        analysis, _ = solve(program, entries)
        before = analysis.worklist_iterations

        # append a second allocation + store into A.helper
        a_helper = program.classes["t.A"].methods["helper"]
        mb_prog = ProgramBuilder()
        from repro.android.framework import install_framework

        install_framework(mb_prog.program)
        cb = mb_prog.new_class("t.X")
        tmp = cb.method("tmp")
        tmp.new("o2", "t.A")
        tmp.store("this", "cell", "o2")
        ret = a_helper.body.pop()  # keep Return last
        a_helper.body.extend(tmp.method.body[:2])
        a_helper.body.append(ret)
        a_helper._cfg = None

        resumed = analysis.resume([a_helper])
        assert analysis.worklist_iterations > before

        cold_analysis, cold = solve(program, entries)
        a_mc = next(
            mc for mc in cold.call_graph.nodes if mc.method is a_helper
        )
        a_mc_resumed = next(
            mc for mc in resumed.call_graph.nodes if mc.method is a_helper
        )
        assert {repr(o) for o in resumed.var(a_mc_resumed, "o2")} == {
            repr(o) for o in cold.var(a_mc, "o2")
        }
        assert resumed.variable_count() == cold.variable_count()


class TestDiffPrograms:
    def test_identical_programs_trivial(self):
        p1, _ = two_component_program()
        p2, _ = two_component_program()
        delta = diff_programs(p1, p2)
        assert delta.additive and delta.trivial

    def test_appended_body_is_additive(self):
        p1, _ = two_component_program()
        p2, _ = two_component_program()
        m = p2.classes["t.A"].methods["helper"]
        m.body.append(Nop())
        delta = diff_programs(p1, p2)
        assert delta.additive
        assert [old.signature for old, _ in delta.changed] == ["t.A.helper"]

    def test_new_method_and_class_are_additive(self):
        p1, _ = two_component_program()
        p2, _ = two_component_program()
        pb = ProgramBuilder(p2)
        extra = pb.class_builder("t.A").method("extra")
        extra.ret()
        fresh = pb.new_class("t.C")
        fm = fresh.method("m")
        fm.ret()
        delta = diff_programs(p1, p2)
        assert delta.additive
        assert [m.signature for m in delta.added_methods] == ["t.A.extra"]
        assert delta.added_classes == ["t.C"]

    def test_rewritten_body_is_not_additive(self):
        p1, _ = two_component_program()
        p2, _ = two_component_program()
        m = p2.classes["t.A"].methods["helper"]
        m.body.insert(0, Nop())  # prefix property broken
        delta = diff_programs(p1, p2)
        assert not delta.additive
        assert "non-additively" in delta.reason

    def test_removed_method_is_not_additive(self):
        p1, _ = two_component_program()
        p2, _ = two_component_program()
        del p2.classes["t.A"].methods["helper"]
        assert not diff_programs(p1, p2).additive

    def test_appended_listener_registration_is_not_additive(self):
        """New registrations would stale the cached harness: bail."""
        from repro.android.framework import LISTENER_REGISTRATIONS

        reg_name = next(iter(LISTENER_REGISTRATIONS))
        p1, _ = two_component_program()
        p2, _ = two_component_program()
        m = p2.classes["t.A"].methods["helper"]
        mb = ProgramBuilder().new_class("t.T").method("t")
        mb.call("this", reg_name, "this")
        m.body.append(mb.method.body[0])  # appended suffix: prefix rule holds
        assert isinstance(m.body[-1], Invoke)
        delta = diff_programs(p1, p2)
        assert not delta.additive
        assert reg_name in delta.reason

    def test_graft_refuses_non_additive(self):
        p1, _ = two_component_program()
        p2, _ = two_component_program()
        del p2.classes["t.B"]
        delta = diff_programs(p1, p2)
        with pytest.raises(ValueError):
            graft(p1, p2, delta)

    def test_graft_applies_suffix_in_place(self):
        p1, _ = two_component_program()
        p2, _ = two_component_program()
        m2 = p2.classes["t.A"].methods["helper"]
        m2.body.append(Nop())
        delta = diff_programs(p1, p2)
        m1 = p1.classes["t.A"].methods["helper"]
        invalidated = graft(p1, p2, delta)
        assert invalidated == [m1]
        assert method_digest(m1) == method_digest(m2)


def mutated_quickstart():
    """quickstart with a ``Nop`` appended to its first app method: an
    additive change the substrate cache resumes from."""
    apk = load_app("quickstart")
    method = next(
        m
        for c in apk.program.classes.values()
        if not c.is_framework
        for m in c.methods.values()
        if m.body
    )
    method.body.append(Nop())
    return apk


class TestDetectorIncremental:
    def test_additive_change_resumes_and_matches_cold(self, tmp_path):
        # that the resumed run's races equal a cold run's is checked by
        # tests/test_modes.py::test_incremental_resume_matches_cold
        cache = str(tmp_path / "cache")
        opts = SierraOptions(cache_dir=cache)
        Sierra(opts).analyze(load_app("quickstart"))
        cold_units = metrics.registry().value("pointsto.worklist_iterations")

        with obs.Recorder() as rec:
            Sierra(opts).analyze(mutated_quickstart())
        scrape = dict(metrics.registry().totals())
        assert scrape["cache.incremental_runs"] == 1
        assert scrape.get("cache.incremental_fallbacks", 0) == 0
        # only dependents of the mutated method recompute
        assert 0 < scrape["pointsto.worklist_iterations"] < cold_units
        assert any("resuming cached fixpoint" in w for w in rec.warnings())

    def test_untouched_app_is_full_hit_after_incremental(self, tmp_path):
        """The incremental run re-saves its substrate: analyzing the same
        mutated app again is a 100% hit."""
        cache = str(tmp_path / "cache")
        opts = SierraOptions(cache_dir=cache)
        Sierra(opts).analyze(load_app("quickstart"))
        Sierra(opts).analyze(mutated_quickstart())
        Sierra(opts).analyze(mutated_quickstart())
        scrape = dict(metrics.registry().totals())
        assert scrape["cache.substrate_hits"] == 1
        assert scrape["pointsto.worklist_iterations"] == 0

    def test_non_additive_change_falls_back_loudly(self, tmp_path):
        cache = str(tmp_path / "cache")
        opts = SierraOptions(cache_dir=cache)
        Sierra(opts).analyze(load_app("quickstart"))

        apk = load_app("quickstart")
        method = next(
            m
            for c in apk.program.classes.values()
            if not c.is_framework
            for m in c.methods.values()
            if m.body
        )
        method.body.insert(0, Nop())  # not a suffix append
        with obs.Recorder() as rec:
            result = Sierra(opts).analyze(apk)
        scrape = dict(metrics.registry().totals())
        assert scrape["cache.incremental_fallbacks"] == 1
        assert scrape.get("cache.incremental_runs", 0) == 0
        assert any("full cold re-analysis" in w for w in rec.warnings())
        assert result.report.races_after_refutation >= 0  # analysis completed
