"""Action extraction: from harness + call graph to the SHBG's node set.

Two analysis phases, as in the paper's architecture (Figure 3):

* **Phase A** — a context-insensitive whole-program analysis seeded by the
  harnesses. Its call graph identifies every action: event actions at
  harness sites, posted actions at ``post``/``thread``/``task`` edges.
  The harness fixpoint's last round solves exactly this analysis, so a
  fresh harness hands its solve over instead of it being solved twice.
* **Phase C** — the precise analysis: the selected context abstraction
  (action-sensitive by default) re-analyses the program with every action
  entry pinned to its action id, so heap abstractions never merge across
  actions (§3.3).

Between the phases we compute per-action membership (in-action reachability
over synchronous edges only), parenthood (who posts/registers whom — HB
rule 1's input), and thread affinity (§4.4 Handler/Looper association).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.analysis.callgraph import CallEdge, CallGraph, MethodContext
from repro.analysis.context import ActionSensitiveSelector, ContextSelector, InsensitiveSelector
from repro.analysis.pointsto import (
    MAIN_LOOPER,
    PointerAnalysis,
    PointsToResult,
)
from repro.android.apk import Apk
from repro.android.framework import CallbackKind, SEND_APIS, TASK_CALLBACKS, UI_POST_APIS
from repro.core.actions import Action, ActionKind, Affinity
from repro.core.harness import HarnessModel, HarnessSite
from repro.ir.instructions import Invoke
from repro.ir.program import Method

_EVENT_KIND = {
    CallbackKind.LIFECYCLE: ActionKind.LIFECYCLE,
    CallbackKind.GUI: ActionKind.GUI,
    CallbackKind.SYSTEM: ActionKind.SYSTEM,
}


@dataclass
class Extraction:
    """Actions plus both analysis phases' results."""

    apk: Apk
    harness: HarnessModel
    actions: List[Action] = field(default_factory=list)
    phase_a: Optional[PointsToResult] = None
    result: Optional[PointsToResult] = None  # precise (phase C)
    selector: Optional[ContextSelector] = None
    #: the phase-A solver itself (not just its result): its dependency index
    #: is what the substrate cache pickles so a later run can resume the
    #: worklist incrementally after an additive app change
    phase_a_analysis: Optional[PointerAnalysis] = field(default=None, repr=False)
    #: (parent action id | None, creation site id, entry method id) -> action
    _by_key: Dict[Tuple[Optional[int], int, int], Action] = field(default_factory=dict)

    def by_id(self, action_id: int) -> Action:
        return self.actions[action_id]

    def resolver(self, caller_mc: MethodContext, site: Invoke, callee: Method) -> Optional[int]:
        """Action-resolver hook for the phase-C pointer analysis."""
        parent = caller_mc.action_id()
        action = self._by_key.get((parent, id(site), id(callee)))
        if action is None and parent is not None:
            # recursion-collapsed self-repost: stay inside the parent action
            parent_action = self.actions[parent]
            if (id(site), id(callee)) in parent_action.chain:
                return parent
        return action.id if action is not None else None


class ActionExtractor:
    def __init__(
        self,
        apk: Apk,
        harness: HarnessModel,
        selector: Optional[ContextSelector] = None,
        index_sensitive_arrays: bool = False,
        phase_a_seed=None,
    ):
        self.apk = apk
        self.harness = harness
        self.selector = selector if selector is not None else ActionSensitiveSelector()
        self.index_sensitive_arrays = index_sensitive_arrays
        # (PointerAnalysis, invalidated methods) from the substrate cache:
        # resume the old phase-A fixpoint instead of solving from cold
        self.phase_a_seed = phase_a_seed

    # ------------------------------------------------------------------
    def extract(self) -> Extraction:
        ext = Extraction(apk=self.apk, harness=self.harness, selector=self.selector)

        with obs.span("extract.phaseA"):
            if self.phase_a_seed is not None:
                analysis, invalidated = self.phase_a_seed
                phase_a = analysis.resume(invalidated)
            elif self._reuses_harness_solve():
                analysis, phase_a = self.harness.final_solve
            else:
                analysis = PointerAnalysis(
                    self.apk.program,
                    self.harness.entries,
                    selector=InsensitiveSelector(),
                    layouts=self.apk.layouts,
                    dispatch_table=self.harness.dispatch_table,
                    index_sensitive_arrays=self.index_sensitive_arrays,
                )
                phase_a = analysis.solve()
        ext.phase_a = phase_a
        ext.phase_a_analysis = analysis

        with obs.span("extract.actions"):
            self._collect_event_actions(ext, phase_a)
            self._collect_posted_actions(ext, phase_a)
            self._attach_marker_parents(ext)

        with obs.span("extract.phaseC"):
            result = PointerAnalysis(
                self.apk.program,
                self.harness.entries,
                selector=self.selector,
                layouts=self.apk.layouts,
                dispatch_table=self.harness.dispatch_table,
                action_resolver=ext.resolver,
                index_sensitive_arrays=self.index_sensitive_arrays,
            ).solve()
        ext.result = result

        with obs.span("extract.membership"):
            self._compute_membership_final(ext, result)
        with obs.span("extract.affinity"):
            self._compute_affinity(ext, result)
        return ext

    def _reuses_harness_solve(self) -> bool:
        """Is the harness's final solve this extraction's phase A? Only
        for the apk it was solved on and the configuration the harness
        solves with: without index-sensitive arrays."""
        return (
            self.harness.final_solve is not None
            and self.harness.apk is self.apk
            and not self.index_sensitive_arrays
        )

    # ------------------------------------------------------------------
    def _new_action(
        self,
        ext: Extraction,
        kind: ActionKind,
        entry: Method,
        site: Invoke,
        creation_method: Method,
        label: str,
        parent: Optional[Action] = None,
        **kwargs,
    ) -> Optional[Action]:
        parent_id = parent.id if parent is not None else None
        key = (parent_id, id(site), id(entry))
        existing = ext._by_key.get(key)
        if existing is not None:
            return existing
        chain_key = (id(site), id(entry))
        parent_chain = parent.chain if parent is not None else frozenset()
        if chain_key in parent_chain:
            return None  # recursion collapse: a self-repost stays in its ancestor
        action = Action(
            id=len(ext.actions),
            kind=kind,
            label=label,
            entry_method=entry,
            callback=entry.name,
            creation_site=site,
            creation_method=creation_method,
            chain=parent_chain | {chain_key},
            **kwargs,
        )
        if parent is not None:
            action.parents.add(parent.id)
        ext.actions.append(action)
        ext._by_key[key] = action
        return action

    def _collect_event_actions(self, ext: Extraction, phase_a: PointsToResult) -> None:
        cg = phase_a.call_graph
        for site in self.harness.sites:
            main = None
            for activity, m in self.harness.mains.items():
                if m.class_name == site.harness_class:
                    main = m
                    break
            if main is None:
                continue
            for main_mc in cg.contexts_of(main):
                for callee_mc in cg.callees_at(main_mc, site.instr):
                    entry = callee_mc.method
                    label = f"{site.component.rpartition('.')[2]}.{entry.name}"
                    action = self._new_action(
                        ext,
                        _EVENT_KIND[site.kind],
                        entry,
                        site.instr,
                        main,
                        label,
                        component=site.component,
                        harness=site.harness_class,
                        instance=site.instance,
                    )
                    if action is not None and not action.member_methods:
                        action.member_methods = self._in_action_methods(phase_a, entry)

    def _collect_posted_actions(self, ext: Extraction, phase_a: PointsToResult) -> None:
        """Worklist fixpoint: every action's in-action code may contain
        posting sites, each creating a child action (per parent — actions
        are context-sensitive)."""
        cg = phase_a.call_graph
        # index posting edges by the method containing the site
        edges_by_method: Dict[int, List[CallEdge]] = {}
        for edge in cg.edges():
            if edge.via in ("post", "thread", "task"):
                edges_by_method.setdefault(id(edge.caller.method), []).append(edge)

        worklist: List[Action] = list(ext.actions)
        while worklist:
            parent = worklist.pop(0)
            if not parent.member_methods:
                parent.member_methods = self._in_action_methods(
                    phase_a, parent.entry_method
                )
            for method in parent.member_methods:
                for edge in edges_by_method.get(id(method), ()):
                    entry = edge.callee.method
                    kind = self._posted_kind(edge)
                    label = f"{entry.class_name.rpartition('.')[2]}.{entry.name}"
                    child = self._new_action(
                        ext,
                        kind,
                        entry,
                        edge.site,
                        edge.caller.method,
                        label,
                        parent=parent,
                        component=edge.caller.method.class_name,
                    )
                    if child is not None and not child.member_methods:
                        child.member_methods = self._in_action_methods(phase_a, entry)
                        worklist.append(child)

    def _in_action_methods(self, phase_a: PointsToResult, entry: Method) -> List[Method]:
        cg = phase_a.call_graph
        members = cg.reachable_from(cg.contexts_of(entry), synchronous_only=True)
        seen: Dict[Method, None] = {entry: None}
        for mc in members:
            seen.setdefault(mc.method)
        return list(seen)

    def _posted_kind(self, edge: CallEdge) -> ActionKind:
        if edge.via == "task":
            return ActionKind.ASYNC_BG
        if edge.via == "thread":
            return ActionKind.THREAD
        # posts: AsyncTask main-thread stages vs plain messages
        if (
            edge.callee.method.name in TASK_CALLBACKS
            and self.apk.program.is_subtype(edge.callee.method.class_name, "android.os.AsyncTask")
        ):
            return ActionKind.ASYNC_CB
        return ActionKind.MESSAGE

    # ------------------------------------------------------------------
    def _attach_marker_parents(self, ext: Extraction) -> None:
        """Marker (runtime-registered) event actions get HB rule-1 parents:
        every action whose in-action code performs the registration."""
        method_to_actions: Dict[int, List[Action]] = {}
        for action in ext.actions:
            for method in action.member_methods:
                method_to_actions.setdefault(id(method), []).append(action)
        marker_reg: Dict[int, Method] = {}
        for site in self.harness.sites:
            if site.dispatch is not None:
                marker_reg[id(site.instr)] = site.dispatch.reg_method
        for action in ext.actions:
            if action.creation_site is None:
                continue
            reg_method = marker_reg.get(id(action.creation_site))
            if reg_method is None:
                continue
            for parent in method_to_actions.get(id(reg_method), []):
                if parent.id != action.id:
                    action.parents.add(parent.id)

    # ------------------------------------------------------------------
    def _compute_membership_final(self, ext: Extraction, result: PointsToResult) -> None:
        cg = result.call_graph
        if self.selector.uses_actions():
            by_action: Dict[int, List[MethodContext]] = {}
            for mc in cg.nodes:
                aid = mc.action_id()
                if aid is not None:
                    by_action.setdefault(aid, []).append(mc)
            for action in ext.actions:
                action.members = by_action.get(action.id, [])
        else:
            # contexts carry no action ids: approximate membership with every
            # context of the action's (phase A) member methods — this is the
            # precision loss the with/without-AS ablation measures.
            by_method: Dict[int, List[MethodContext]] = {}
            for mc in cg.nodes:
                by_method.setdefault(id(mc.method), []).append(mc)
            for action in ext.actions:
                members: List[MethodContext] = []
                for method in action.member_methods:
                    members.extend(by_method.get(id(method), []))
                action.members = members

    # ------------------------------------------------------------------
    def _compute_affinity(self, ext: Extraction, result: PointsToResult) -> None:
        program = self.apk.program
        for action in ext.actions:
            if action.kind.is_event or action.kind is ActionKind.ASYNC_CB:
                action.affinity = Affinity.MAIN
            elif action.kind in (ActionKind.THREAD, ActionKind.ASYNC_BG):
                action.affinity = Affinity("background", key=action.id)
            else:  # MESSAGE: resolve the target looper
                action.affinity = self._message_affinity(ext, result, action)

    def _message_affinity(self, ext: Extraction, result: PointsToResult, action: Action) -> Affinity:
        site = action.creation_site
        if site is None or site.receiver is None:
            return Affinity.MAIN
        short = site.method_name
        if short in UI_POST_APIS:
            return Affinity.MAIN
        loopers = []
        for mc in result.call_graph.contexts_of(action.creation_method):
            for recv in result.var(mc, site.receiver.name):
                cls = getattr(recv, "class_name", "")
                if self.apk.program.is_subtype(cls, "android.view.View"):
                    return Affinity.MAIN
                for looper in result.field(recv, "looper"):
                    if looper not in loopers:
                        loopers.append(looper)
        if not loopers or MAIN_LOOPER in loopers:
            return Affinity.MAIN
        loopers.sort(key=repr)
        return Affinity("looper", key=loopers[0])


def extract_actions(
    apk: Apk,
    harness: HarnessModel,
    selector: Optional[ContextSelector] = None,
    index_sensitive_arrays: bool = False,
    phase_a_seed=None,
) -> Extraction:
    """Convenience wrapper running the full extraction."""
    return ActionExtractor(
        apk,
        harness,
        selector=selector,
        index_sensitive_arrays=index_sensitive_arrays,
        phase_a_seed=phase_a_seed,
    ).extract()
