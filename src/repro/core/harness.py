"""Automatic harness generation (§3.2, Figure 4).

Android apps have no ``main``; the Android Framework drives them through
callbacks. SIERRA therefore synthesizes, per Activity, a harness method that

* instantiates the activity and walks it through the lifecycle state machine
  (including the pause/resume and stop/restart cycles of Figure 5, so that
  CFG dominance distinguishes callback *instances*),
* wraps GUI and system events in a nondeterministic event loop (Figure 4's
  ``while(*) switch(*)``), and
* iterates callback discovery to a fixpoint: run the call graph, find
  listener registrations (``setOnClickListener``, ``registerReceiver``,
  ``bindService`` …) in reachable code, add synthetic invocation sites
  (``$event$<n>`` markers), rebuild, repeat until no new callbacks appear.

The harness is ordinary IR, so every later stage (dominance-based HB rules,
pointer analysis, symbolic execution) treats it uniformly with app code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.context import InsensitiveSelector
from repro.analysis.pointsto import Entry, EventDispatch, PointerAnalysis, PointsToResult
from repro.android.apk import Apk
from repro.android.framework import CallbackKind, LISTENER_REGISTRATIONS
from repro.android.lifecycle import lifecycle_callbacks_of
from repro.ir.builder import MethodBuilder
from repro.ir.instructions import Invoke, InvokeKind
from repro.ir.program import ClassDef, Method

#: synthetic nondeterministic-choice marker (the harness "*" of Figure 4)
NONDET = "$nondet$"


@dataclass
class HarnessSite:
    """One event-action invocation site inside a harness main."""

    harness_class: str
    component: str  # activity / service / receiver class the event targets
    instr: Invoke
    kind: CallbackKind
    callback: str  # callback method name, or the $event$ marker name
    instance: int = 1
    dispatch: Optional[EventDispatch] = None

    @property
    def is_marker(self) -> bool:
        return self.callback.startswith("$event$")


@dataclass
class HarnessModel:
    """Everything downstream stages need about the generated harnesses."""

    apk: Apk
    mains: Dict[str, Method] = field(default_factory=dict)  # activity -> main
    sites: List[HarnessSite] = field(default_factory=list)
    dispatch_table: Dict[str, EventDispatch] = field(default_factory=dict)
    fixpoint_rounds: int = 0
    #: ``(analysis, result)`` of the fixpoint round that found no new
    #: registrations: the context-insensitive solve extraction phase A
    #: would repeat on the same program, entries, layouts and dispatch
    #: table. None when the fixpoint stopped at MAX_ROUNDS (its last solve
    #: predates the final emission) and after unpickling — the substrate
    #: bundle already carries this solve inside the extraction.
    final_solve: Optional[Tuple[PointerAnalysis, PointsToResult]] = field(
        default=None, repr=False, compare=False
    )

    def __getstate__(self):
        # unpickled models fall back to the class default (None)
        state = dict(self.__dict__)
        state.pop("final_solve", None)
        return state

    @property
    def entries(self) -> List[Entry]:
        return [Entry(m) for m in self.mains.values()]

    def sites_of_harness(self, activity: str) -> List[HarnessSite]:
        main = self.mains[activity]
        return [s for s in self.sites if s.harness_class == main.class_name]

    def harness_count(self) -> int:
        return len(self.mains)


@dataclass(frozen=True)
class _Registration:
    """A discovered runtime listener registration."""

    method: Method
    instr: Invoke
    api: str

    @property
    def key(self) -> Tuple[str, int]:
        index = next(i for i, x in enumerate(self.method.body) if x is self.instr)
        return (self.method.signature, index)


class HarnessGenerator:
    """Generates harnesses for one APK, iterating callback discovery."""

    MAX_ROUNDS = 10

    def __init__(self, apk: Apk):
        self.apk = apk
        self.program = apk.program
        self._marker_index: Dict[Tuple[str, int], int] = {}
        self._next_marker = 0

    # ------------------------------------------------------------------
    def generate(self) -> HarnessModel:
        """Run the §3.2 fixpoint and return the finished harness model."""
        registrations: Dict[Tuple[str, int], _Registration] = {}
        reg_activities: Dict[Tuple[str, int], set] = {}
        model = self._emit_all(registrations, reg_activities)
        for round_no in range(1, self.MAX_ROUNDS + 1):
            model.fixpoint_rounds = round_no
            analysis = PointerAnalysis(
                self.program,
                model.entries,
                selector=InsensitiveSelector(),
                layouts=self.apk.layouts,
                dispatch_table=model.dispatch_table,
            )
            result = analysis.solve()
            new = self._discover_registrations(result, model, registrations, reg_activities)
            if not new:
                model.final_solve = (analysis, result)
                break
            model = self._emit_all(registrations, reg_activities)
        return model

    def _discover_registrations(
        self,
        result: PointsToResult,
        model: HarnessModel,
        registrations: Dict[Tuple[str, int], _Registration],
        reg_activities: Dict[Tuple[str, int], set],
    ) -> bool:
        """Scan code reachable from each harness for listener registrations.

        A registration is attributed to every activity whose harness reaches
        it (shared helpers register for several activities)."""
        found = False
        for activity, main in model.mains.items():
            roots = result.call_graph.contexts_of(main)
            for mc in result.call_graph.reachable_from(roots):
                cls = self.program.classes.get(mc.method.class_name)
                if cls is None or cls.is_framework:
                    continue
                for instr in mc.method.body:
                    if not isinstance(instr, Invoke) or instr.kind is not InvokeKind.VIRTUAL:
                        continue
                    if instr.method_name not in LISTENER_REGISTRATIONS:
                        continue
                    reg = _Registration(mc.method, instr, instr.method_name)
                    if reg.key not in registrations:
                        registrations[reg.key] = reg
                        found = True
                    if activity not in reg_activities.setdefault(reg.key, set()):
                        reg_activities[reg.key].add(activity)
                        found = True
        return found

    # ------------------------------------------------------------------
    # harness emission
    # ------------------------------------------------------------------
    def _emit_all(
        self,
        registrations: Dict[Tuple[str, int], _Registration],
        reg_activities: Dict[Tuple[str, int], set],
    ) -> HarnessModel:
        model = HarnessModel(apk=self.apk)
        for decl in self.apk.manifest.activities:
            regs = [
                registrations[key]
                for key in sorted(registrations)
                if decl.class_name in reg_activities.get(key, ())
            ]
            self._emit_harness(decl.class_name, regs, model)
        return model

    def _marker_name(self, reg: _Registration) -> str:
        key = reg.key
        if key not in self._marker_index:
            self._marker_index[key] = self._next_marker
            self._next_marker += 1
        return f"$event${self._marker_index[key]}"

    def _emit_harness(
        self, activity: str, regs: List[_Registration], model: HarnessModel
    ) -> None:
        short = activity.rpartition(".")[2]
        harness_name = f"{self.apk.package}.Harness${short}"
        # re-emitting replaces any previous round's harness class wholesale
        harness_cls = ClassDef(harness_name, superclass="java.lang.Object")
        self.program.add_class(harness_cls)
        main = Method(class_name=harness_name, name="main", is_static=True)
        harness_cls.add_method(main)
        b = MethodBuilder(main)

        overridden = set(lifecycle_callbacks_of(self.program, activity))

        def lifecycle_site(callback: str, instance: int) -> None:
            if callback not in overridden:
                return
            instr = b.call("a", callback)
            model.sites.append(
                HarnessSite(
                    harness_class=harness_name,
                    component=activity,
                    instr=instr,  # type: ignore[arg-type]
                    kind=CallbackKind.LIFECYCLE,
                    callback=callback,
                    instance=instance,
                )
            )

        b.new("a", activity)
        if any(m.name == "<init>" for m in self.program.class_of(activity).methods.values()):
            b.call_special("a", f"{activity}.<init>")

        lifecycle_site("onCreate", 1)
        lifecycle_site("onStart", 1)
        b.label("L_resumed").nop()
        lifecycle_site("onResume", 1)

        arms = self._collect_arms(activity, regs, model, harness_name)

        b.label("L_gui").nop()
        b.call_static(NONDET, dst="nd_exit")
        b.if_true("nd_exit", "L_after_gui")
        for arm_no, arm in enumerate(arms):
            last = arm_no == len(arms) - 1
            if not last:
                b.call_static(NONDET, dst=f"nd_arm{arm_no}")
                b.if_true(f"nd_arm{arm_no}", f"ARM{arm_no + 1}")
            self._emit_arm(b, arm, model, harness_name)
            b.goto("L_gui")
            if not last:
                b.label(f"ARM{arm_no + 1}").nop()
        if not arms:
            b.goto("L_gui")

        b.label("L_after_gui").nop()
        lifecycle_site("onPause", 1)
        b.call_static(NONDET, dst="nd_stop")
        b.if_true("nd_stop", "L_stop")
        lifecycle_site("onResume", 2)
        b.goto("L_gui")
        b.label("L_stop").nop()
        lifecycle_site("onStop", 1)
        b.call_static(NONDET, dst="nd_destroy")
        b.if_true("nd_destroy", "L_destroy")
        lifecycle_site("onRestart", 1)
        lifecycle_site("onStart", 2)
        b.goto("L_resumed")
        b.label("L_destroy").nop()
        lifecycle_site("onDestroy", 1)
        b.ret()

        model.mains[activity] = main

    # ------------------------------------------------------------------
    # event-loop arms
    # ------------------------------------------------------------------
    def _collect_arms(
        self,
        activity: str,
        regs: List[_Registration],
        model: HarnessModel,
        harness_name: str,
    ) -> List[List[dict]]:
        """Each arm is a list of site descriptors emitted sequentially —
        sequential sites inside one arm are CFG-ordered (HB rule 3)."""
        arms: List[List[dict]] = []
        decl = self.apk.manifest.activity(activity)

        # statically-declared layout callbacks (android:onClick=...)
        static_handlers: List[str] = []
        if decl.layout is not None:
            layout = self.apk.layouts.layout(decl.layout)
            for view in layout:
                for _event, handler in view.static_callbacks:
                    if handler not in static_handlers:
                        static_handlers.append(handler)

        # explicit GUI flows (Figure 6-style ordered sequences)
        flows: List[List[str]] = list(getattr(decl, "gui_flows", None) or [])
        in_flows = {h for flow in flows for h in flow}
        for flow in flows:
            arms.append(
                [
                    {"type": "direct", "component": activity, "method": h, "kind": CallbackKind.GUI}
                    for h in flow
                ]
            )
        for handler in static_handlers:
            if handler not in in_flows:
                arms.append(
                    [{"type": "direct", "component": activity, "method": handler, "kind": CallbackKind.GUI}]
                )

        # runtime registrations -> marker arms
        for reg in regs:
            spec = LISTENER_REGISTRATIONS[reg.api]
            kind = spec.kind
            arms.append(
                [
                    {
                        "type": "marker",
                        "component": activity,
                        "reg": reg,
                        "spec": spec,
                        "kind": kind,
                    }
                ]
            )

        # Manifest-registered receivers and services are app-global; they are
        # modeled once, in the main activity's harness — duplicating them in
        # every harness would multiply one component into H copies (and
        # quadratically many spurious cross-copy racy pairs).
        main_decl = self.apk.manifest.main_activity
        is_main_harness = main_decl is not None and main_decl.class_name == activity
        for receiver in self.apk.manifest.receivers if is_main_harness else ():
            arms.append(
                [
                    {
                        "type": "component",
                        "component": receiver.class_name,
                        "method": "onReceive",
                        "kind": CallbackKind.SYSTEM,
                    }
                ]
            )

        # manifest services: lifecycle arm (onCreate then onStartCommand)
        for service in self.apk.manifest.services if is_main_harness else ():
            svc_cls = self.program.classes.get(service.class_name)
            if svc_cls is None:
                continue
            arm = []
            for cb in ("onCreate", "onStartCommand", "onDestroy"):
                if cb in svc_cls.methods:
                    arm.append(
                        {
                            "type": "component",
                            "component": service.class_name,
                            "method": cb,
                            "kind": CallbackKind.LIFECYCLE,
                        }
                    )
            if arm:
                arms.append(arm)

        return arms

    def _emit_arm(
        self, b: MethodBuilder, arm: List[dict], model: HarnessModel, harness_name: str
    ) -> None:
        for site in arm:
            if site["type"] == "direct":
                instr = b.call("a", site["method"])
                model.sites.append(
                    HarnessSite(
                        harness_class=harness_name,
                        component=site["component"],
                        instr=instr,  # type: ignore[arg-type]
                        kind=site["kind"],
                        callback=site["method"],
                    )
                )
            elif site["type"] == "component":
                var = f"c_{site['component'].rpartition('.')[2]}"
                b.new(var, site["component"])
                instr = b.call(var, site["method"])
                model.sites.append(
                    HarnessSite(
                        harness_class=harness_name,
                        component=site["component"],
                        instr=instr,  # type: ignore[arg-type]
                        kind=site["kind"],
                        callback=site["method"],
                    )
                )
            else:  # marker
                reg: _Registration = site["reg"]
                spec = site["spec"]
                base = self._marker_name(reg)
                # one marker per callback method, emitted sequentially: for
                # multi-callback registrations (ServiceConnection) the arm
                # order is the protocol order (connected before
                # disconnected), which rule 3 turns into HB edges
                for cb_index, cb_name in enumerate(spec.callback_methods):
                    marker = base if len(spec.callback_methods) == 1 else f"{base}${cb_index}"
                    dispatch = EventDispatch(
                        reg_method=reg.method,
                        reg_site=reg.instr,
                        arg_index=spec.listener_arg_index,
                        callback_methods=(cb_name,),
                        bind_receiver_to_first_param=spec.kind is CallbackKind.GUI,
                    )
                    model.dispatch_table[marker] = dispatch
                    instr = b.call_static(marker)
                    model.sites.append(
                        HarnessSite(
                            harness_class=harness_name,
                            component=site["component"],
                            instr=instr,  # type: ignore[arg-type]
                            kind=site["kind"],
                            callback=marker,
                            dispatch=dispatch,
                        )
                    )


def generate_harnesses(apk: Apk) -> HarnessModel:
    """Convenience wrapper: run the harness fixpoint for ``apk``."""
    return HarnessGenerator(apk).generate()
