"""Action extraction: kinds, parents, recursion collapse, affinity."""

from repro.core.actions import ActionKind
from repro.core.extract import extract_actions
from repro.core.harness import generate_harnesses


def actions_by_label(extraction):
    table = {}
    for a in extraction.actions:
        table.setdefault(a.label, []).append(a)
    return table


class TestKinds:
    def test_newsreader_action_inventory(self, newsreader_result):
        ext = newsreader_result.extraction
        kinds = {a.kind for a in ext.actions}
        assert ActionKind.LIFECYCLE in kinds
        assert ActionKind.GUI in kinds
        assert ActionKind.ASYNC_BG in kinds
        assert ActionKind.ASYNC_CB in kinds

    def test_receiver_app_has_system_action(self, receiver_result):
        kinds = {a.kind for a in receiver_result.extraction.actions}
        assert ActionKind.SYSTEM in kinds

    def test_opensudoku_message_actions(self, opensudoku_result):
        ext = opensudoku_result.extraction
        runs = [a for a in ext.actions if a.kind is ActionKind.MESSAGE]
        assert len(runs) >= 2  # per-resume-instance run actions


class TestParents:
    def test_async_task_parented_by_clicking_action(self, newsreader_result):
        ext = newsreader_result.extraction
        table = actions_by_label(ext)
        bg = next(a for a in ext.actions if a.kind is ActionKind.ASYNC_BG)
        parents = {ext.by_id(p).kind for p in bg.parents}
        assert ActionKind.GUI in parents

    def test_marker_event_parented_by_registering_action(self, receiver_result):
        ext = receiver_result.extraction
        receive = next(a for a in ext.actions if a.kind is ActionKind.SYSTEM)
        assert receive.parents
        parent = ext.by_id(next(iter(receive.parents)))
        assert parent.callback == "onCreate"

    def test_lifecycle_actions_have_no_parents(self, quickstart_result):
        ext = quickstart_result.extraction
        for a in ext.actions:
            if a.kind is ActionKind.LIFECYCLE:
                assert not a.parents

    def test_self_repost_collapses(self, opensudoku_result):
        """TimerRunnable posts itself: the chain must be finite, and the
        collapsed repost stays inside its ancestor action."""
        ext = opensudoku_result.extraction
        runs = [a for a in ext.actions if a.entry_method.name == "run"]
        # onResume"1", onResume"2" roots plus exactly one repost child each
        assert len(runs) == 4
        # chain = event ancestor + post site (+ repost site); never unbounded
        for a in runs:
            assert len(a.chain) <= 3


class TestAffinity:
    def test_event_actions_on_main(self, newsreader_result):
        for a in newsreader_result.extraction.actions:
            if a.kind.is_event:
                assert a.affinity.is_main()

    def test_async_bg_on_fresh_background(self, newsreader_result):
        ext = newsreader_result.extraction
        bgs = [a for a in ext.actions if a.kind is ActionKind.ASYNC_BG]
        keys = {a.affinity.key for a in bgs}
        assert all(a.affinity.kind == "background" for a in bgs)
        assert len(keys) == len(bgs)  # never share a thread

    def test_async_cb_on_main(self, newsreader_result):
        ext = newsreader_result.extraction
        for a in ext.actions:
            if a.kind is ActionKind.ASYNC_CB:
                assert a.affinity.is_main()

    def test_posted_runnable_on_main_looper(self, opensudoku_result):
        ext = opensudoku_result.extraction
        for a in ext.actions:
            if a.kind is ActionKind.MESSAGE:
                assert a.affinity.is_main()

    def test_same_looper_predicate(self, newsreader_result):
        from repro.core.actions import Affinity

        assert Affinity.MAIN.same_looper(Affinity.MAIN)
        assert not Affinity("background", 1).same_looper(Affinity("background", 1))
        assert not Affinity.MAIN.same_looper(Affinity("background", 2))


class TestMembership:
    def test_members_cover_entry_method(self, newsreader_result):
        for a in newsreader_result.extraction.actions:
            assert a.entry_method in a.member_methods

    def test_action_sensitive_members_tagged(self, newsreader_result):
        ext = newsreader_result.extraction
        for a in ext.actions:
            for mc in a.members:
                assert mc.action_id() == a.id

    def test_resolver_round_trip(self, newsreader_result):
        ext = newsreader_result.extraction
        for a in ext.actions:
            if a.creation_site is None or a.kind.is_event:
                continue
            parent = next(iter(a.parents), None)
            if parent is None:
                continue
            parent_action = ext.by_id(parent)
            if not parent_action.members:
                continue
            caller_mc = parent_action.members[0]
            assert ext.resolver(caller_mc, a.creation_site, a.entry_method) == a.id


class TestWithoutActionSensitivity:
    def test_hybrid_members_fall_back_to_methods(self, newsreader_apk):
        from repro.analysis.context import HybridSelector

        harness = generate_harnesses(newsreader_apk)
        ext = extract_actions(newsreader_apk, harness, selector=HybridSelector())
        for a in ext.actions:
            assert a.members, a
            assert all(mc.action_id() is None for mc in a.members)


class TestPhaseAReuse:
    """The harness fixpoint's last round solves the same context-insensitive
    analysis phase A needs; extraction takes it over instead of solving
    again, except where phase A is configured differently."""

    @staticmethod
    def _signature(ext):
        return [
            (a.id, a.kind, a.label, sorted(a.parents), a.instance, a.component,
             [m.signature for m in a.member_methods])
            for a in ext.actions
        ]

    def test_fresh_harness_hands_over_its_final_solve(self):
        from repro.corpus import build_receiver_app

        apk = build_receiver_app()
        harness = generate_harnesses(apk)
        assert harness.fixpoint_rounds >= 2  # a listener registration
        analysis, result = harness.final_solve
        ext = extract_actions(apk, harness)
        assert ext.phase_a is result
        assert ext.phase_a_analysis is analysis

    def test_analyze_saves_exactly_the_final_solve(self, monkeypatch):
        from repro.core import Sierra, SierraOptions
        from repro.core.extract import ActionExtractor
        from repro.corpus import build_opensudoku_app
        from repro.obs import metrics

        def run():
            result = Sierra(SierraOptions()).analyze(build_opensudoku_app())
            iterations = metrics.registry().value("pointsto.worklist_iterations")
            report = result.report.to_dict()
            report.pop("timings_seconds")
            return result, iterations, report

        reused, reused_iterations, reused_report = run()
        saved = reused.harness.final_solve[0].worklist_iterations
        assert saved > 0
        monkeypatch.setattr(ActionExtractor, "_reuses_harness_solve", lambda self: False)
        _, cold_iterations, cold_report = run()
        assert cold_iterations - reused_iterations == saved
        assert cold_report == reused_report

    def test_other_phase_a_configurations_solve_their_own(self):
        from repro.corpus import build_newsreader_app

        apk = build_newsreader_app()
        harness = generate_harnesses(apk)
        reused = extract_actions(apk, harness)
        own = extract_actions(apk, harness, index_sensitive_arrays=True)
        assert own.phase_a is not harness.final_solve[1]
        assert self._signature(own) == self._signature(reused)

    def test_capped_fixpoint_offers_nothing_to_reuse(self, monkeypatch):
        from repro.core.harness import HarnessGenerator
        from repro.corpus import build_receiver_app

        monkeypatch.setattr(HarnessGenerator, "MAX_ROUNDS", 1)
        apk = build_receiver_app()
        harness = generate_harnesses(apk)
        assert harness.final_solve is None  # round 1 found a registration
        ext = extract_actions(apk, harness)
        assert ext.phase_a is not None and ext.actions

    def test_pickled_harness_carries_no_solve(self):
        import pickle

        from repro.corpus import build_receiver_app

        harness = generate_harnesses(build_receiver_app())
        solve = harness.final_solve
        assert solve is not None
        blob = pickle.dumps(harness)
        assert pickle.loads(blob).final_solve is None
        harness.final_solve = None
        try:
            assert pickle.dumps(harness) == blob  # not a byte more
        finally:
            harness.final_solve = solve
