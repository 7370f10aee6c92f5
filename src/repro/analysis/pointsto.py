"""Context-sensitive Andersen-style pointer analysis with on-the-fly
call-graph construction.

This is the WALA stand-in. The analysis starts from a set of entry
method-contexts (harness mains and action entries), interprets each reachable
method's instructions as subset constraints, discovers call edges through
receiver points-to sets, and propagates set growth through a delta worklist
to a fixpoint. Termination follows from finite contexts (bounded k, finitely
many allocation sites / actions) and monotone set growth.

Framework APIs with semantics the IR cannot express are intercepted by
signature:

* ``findViewById(const-id)`` → the :class:`ViewObject` for that id
  (InflatedViewContext, §3.3);
* ``Looper.getMainLooper()`` → the main-looper singleton;
* ``HandlerThread.getLooper()`` → a per-thread-object derived looper;
* ``Message.obtain`` / ``obtainMessage`` / ``getExtras`` → per-site opaque
  framework objects;
* ``new Handler(looper)`` constructor → binds the handler's ``looper`` field
  (consumed by the §4.4 Handler/Looper affinity step).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro import obs
from repro.analysis.callgraph import CallGraph, EdgeVia, MethodContext
from repro.android.framework import (
    ASYNC_EXECUTE_APIS,
    EXECUTOR_APIS,
    POST_APIS,
    SEND_APIS,
    THREAD_START_APIS,
    UI_POST_APIS,
)
from repro.analysis.context import (
    ActionElement,
    AbstractObject,
    AllocSiteElement,
    CallSiteElement,
    Context,
    ContextSelector,
    HeapObject,
    InsensitiveSelector,
    ViewObject,
)
from repro.android.layout import LayoutRegistry
from repro.ir.instructions import (
    ArrayLoad,
    ArrayStore,
    Assign,
    Const,
    FieldLoad,
    FieldStore,
    Invoke,
    InvokeKind,
    New,
    Operand,
    Return,
    StaticLoad,
    StaticStore,
    Var,
)
from repro.ir.program import Method, Program

#: pseudo-field used for index-insensitive array contents
ARRAY_FIELD = "$elem"
#: pseudo-variable holding a method's return value points-to set
RETURN_VAR = "$ret"


def array_field_name(index, index_sensitive: bool) -> str:
    """The pseudo-field an array access touches.

    The paper handles arrays index-insensitively and names index-sensitive
    analysis (Dillig et al. [15]) as future work; we implement the
    constant-index refinement behind a flag: ``a[3]`` and ``a[7]`` become
    distinct cells, while variable indices fall back to the summary cell.
    """
    if (
        index_sensitive
        and isinstance(index, Const)
        and isinstance(index.value, int)
        and not isinstance(index.value, bool)
    ):
        return f"$elem[{index.value}]"
    return ARRAY_FIELD


@dataclass(frozen=True)
class SyntheticObject:
    """A well-known framework singleton (e.g. the main looper)."""

    tag: str
    class_name: str

    def __repr__(self) -> str:
        return f"<{self.tag}>"


@dataclass(frozen=True)
class DerivedObject:
    """An object derived from another (e.g. a HandlerThread's looper)."""

    base: object
    tag: str
    class_name: str

    def __repr__(self) -> str:
        return f"<{self.tag} of {self.base!r}>"


MAIN_LOOPER = SyntheticObject("main_looper", "android.os.Looper")

PointsToObject = Union[AbstractObject, ViewObject, SyntheticObject, DerivedObject]

VarKey = Tuple[MethodContext, str]
FieldKey = Tuple[PointsToObject, str]
StaticKey = Tuple[str, str]


@dataclass(frozen=True)
class Entry:
    """An analysis entry point: a method analysed under an optional action id."""

    method: Method
    action_id: Optional[int] = None


@dataclass(frozen=True)
class EventDispatch:
    """Resolution recipe for a harness ``$event$<n>`` marker site.

    The harness generator cannot name the listener object a registration
    like ``view.setOnClickListener(l)`` armed — only the pointer analysis
    knows ``pts(l)``. So the marker records *where* the registration
    happened; at marker-processing time the analysis reads the registration
    argument's points-to set out of its own current state and dispatches the
    callback onto those objects. ``bind_receiver_to_first_param`` threads the
    registration receiver (the view) into the callback's first parameter,
    matching ``onClick(View v)`` semantics.
    """

    reg_method: Method
    reg_site: Invoke
    arg_index: int
    callback_methods: Tuple[str, ...]
    bind_receiver_to_first_param: bool = False

#: ``resolver(caller_mc, site, callee_method) -> action id`` — lets the
#: driver pin the paper's action-sensitive context at action-entry edges.
#: The caller's own action id participates in resolution because posted
#: actions are identified per posting action (context-sensitive actions).
ActionResolver = "Optional[callable]"


class PointsToResult:
    """Immutable view over the fixpoint: points-to sets + call graph."""

    def __init__(self, analysis: "PointerAnalysis"):
        self._var_pts = analysis._var_pts
        self._field_pts = analysis._field_pts
        self._static_pts = analysis._static_pts
        self.call_graph = analysis.call_graph
        self.selector = analysis.selector
        self.program = analysis.program
        self.index_sensitive_arrays = analysis.index_sensitive_arrays

    def var(self, mc: MethodContext, name: str) -> FrozenSet[PointsToObject]:
        return frozenset(self._var_pts.get((mc, name), ()))

    def field(self, obj: PointsToObject, field_name: str) -> FrozenSet[PointsToObject]:
        return frozenset(self._field_pts.get((obj, field_name), ()))

    def static(self, class_name: str, field_name: str) -> FrozenSet[PointsToObject]:
        return frozenset(self._static_pts.get((class_name, field_name), ()))

    def objects_of_class(self, class_name: str) -> List[PointsToObject]:
        out = []
        for objs in self._var_pts.values():
            for obj in objs:
                if getattr(obj, "class_name", None) == class_name and obj not in out:
                    out.append(obj)
        return out

    def variable_count(self) -> int:
        return len(self._var_pts)


#: shared empty result for reads of never-written keys — callers never mutate
_EMPTY: FrozenSet[PointsToObject] = frozenset()


class PointerAnalysis:
    """Run with :meth:`solve`; inspect through :class:`PointsToResult`.

    The fixpoint driver is delta-worklist propagation. While a
    method-context is interpreted, every points-to key it reads is
    registered in an inverted dependency index (key → dependent
    method-contexts). When a key's set grows, exactly the registered
    dependents are re-queued; nothing else is ever re-interpreted.
    """

    def __init__(
        self,
        program: Program,
        entries: Sequence[Entry],
        selector: Optional[ContextSelector] = None,
        layouts: Optional[LayoutRegistry] = None,
        dispatch_table: Optional[Dict[str, EventDispatch]] = None,
        action_resolver=None,
        index_sensitive_arrays: bool = False,
    ) -> None:
        self.program = program
        self.selector = selector if selector is not None else InsensitiveSelector()
        self.layouts = layouts if layouts is not None else LayoutRegistry()
        self.dispatch_table = dispatch_table or {}
        self.action_resolver = action_resolver
        self.index_sensitive_arrays = index_sensitive_arrays
        self.call_graph = CallGraph()
        self._var_pts: Dict[VarKey, Set[PointsToObject]] = {}
        self._field_pts: Dict[FieldKey, Set[PointsToObject]] = {}
        self._static_pts: Dict[StaticKey, Set[PointsToObject]] = {}
        self._reachable: Dict[MethodContext, None] = {}
        self.worklist_iterations = 0
        # inverted constraint index: points-to key -> work units whose
        # interpretation read it (insertion-ordered for determinism). A work
        # unit is (method-context, instruction index); (mc, None) means the
        # whole body (the first visit of a newly reachable context).
        self._deps: Dict[tuple, Dict[tuple, None]] = {}
        self._current: Optional[tuple] = None
        self._queue: deque = deque()
        self._queued: Set[tuple] = set()
        for entry in entries:
            ctx = self.selector.entry_context(entry.action_id)
            mc = MethodContext(entry.method, ctx)
            self.call_graph.add_entry(mc)
            self._reachable.setdefault(mc, None)

    # ------------------------------------------------------------------
    # set plumbing: reads register dependencies, writes wake dependents
    # ------------------------------------------------------------------
    def _note(self, key: tuple) -> None:
        if self._current is not None:
            self._deps.setdefault(key, {})[self._current] = None

    def _touch(self, key: tuple) -> None:
        deps = self._deps.get(key)
        if deps:
            for unit in deps:
                self._enqueue(unit)

    def _enqueue(self, unit: tuple) -> None:
        if unit not in self._queued:
            self._queued.add(unit)
            self._queue.append(unit)

    def _read_var(self, key: VarKey) -> Set[PointsToObject]:
        self._note(("v", key))
        return self._var_pts.get(key, _EMPTY)

    def _read_field(self, key: FieldKey) -> Set[PointsToObject]:
        self._note(("f", key))
        return self._field_pts.get(key, _EMPTY)

    def _read_static(self, key: StaticKey) -> Set[PointsToObject]:
        self._note(("s", key))
        return self._static_pts.get(key, _EMPTY)

    def _add_var(self, key: VarKey, objs: Iterable[PointsToObject]) -> bool:
        target = self._var_pts.setdefault(key, set())
        before = len(target)
        target.update(objs)
        if len(target) != before:
            self._touch(("v", key))
            return True
        return False

    def _add_field(self, key: FieldKey, objs: Iterable[PointsToObject]) -> bool:
        target = self._field_pts.setdefault(key, set())
        before = len(target)
        target.update(objs)
        if len(target) != before:
            self._touch(("f", key))
            return True
        return False

    def _add_static(self, key: StaticKey, objs: Iterable[PointsToObject]) -> bool:
        target = self._static_pts.setdefault(key, set())
        before = len(target)
        target.update(objs)
        if len(target) != before:
            self._touch(("s", key))
            return True
        return False

    def _pts(self, mc: MethodContext, operand: Operand) -> Set[PointsToObject]:
        if isinstance(operand, Var):
            return self._read_var((mc, operand.name))
        return _EMPTY  # constants (incl. null) carry no objects

    # ------------------------------------------------------------------
    # fixpoint driver
    # ------------------------------------------------------------------
    def solve(self) -> PointsToResult:
        for mc in self._reachable:
            self._enqueue((mc, None))
        return self._drain()

    def _drain(self) -> PointsToResult:
        """Drain the worklist to the fixpoint, one obs span per *round*.

        A round is the units queued when it starts; work they enqueue
        lands in later rounds. The queue is drained in exactly the same
        FIFO order as the single flat loop — the round boundary is pure
        observation (how far the delta wave has propagated), not a
        scheduling change.
        """
        before = self.worklist_iterations
        queue = self._queue
        round_no = 0
        # attribution: when a profiler is active, each unit is timed and
        # charged to its (method, context); when not, this is one local
        # None-test per drain plus one branch per unit — no ids, no events
        prof = obs.profile.active()
        perf = time.perf_counter
        while queue:
            round_no += 1
            batch = len(queue)
            with obs.span("pointsto.round", n=round_no, units=batch):
                for _ in range(batch):
                    unit = queue.popleft()
                    self._queued.discard(unit)
                    self.worklist_iterations += 1
                    mc, index = unit
                    t0 = perf() if prof is not None else 0.0
                    try:
                        if index is None:
                            self._process_method(mc)
                        else:
                            self._current = unit
                            self._process_instruction(mc, index, mc.method.body[index])
                    finally:
                        self._current = None
                        if prof is not None:
                            prof.charge_pointsto(
                                mc.method.signature, mc.context, perf() - t0
                            )
        obs.metrics.counter(
            "pointsto.worklist_iterations", "delta-worklist units processed"
        ).inc(self.worklist_iterations - before)
        return PointsToResult(self)

    def resume(self, invalidated: Sequence[Method]) -> PointsToResult:
        """Warm-restart the worklist after an *additive* program change.

        Callers (``repro.cache.incremental``) guarantee the change is
        monotone: every ``invalidated`` method's old body is a prefix of its
        new body, so the old fixpoint is a sound under-approximation of the
        new least fixpoint and existing constraints/indices stay valid. Only
        the invalidated methods' contexts are re-interpreted from scratch;
        everything they newly touch propagates through the pickled
        dependency index exactly as a cold delta-worklist run would.
        """
        inval = {id(m) for m in invalidated}
        for mc in self._reachable:
            if id(mc.method) in inval:
                self._enqueue((mc, None))
        return self._drain()

    def _process_method(self, mc: MethodContext) -> bool:
        changed = False
        for index, instr in enumerate(mc.method.body):
            self._current = (mc, index)
            if self._process_instruction(mc, index, instr):
                changed = True
        return changed

    def _process_instruction(self, mc: MethodContext, index: int, instr) -> bool:
        handler = _TRANSFER.get(type(instr))
        if handler is None:
            return False
        return handler(self, mc, index, instr)

    # Transfer functions, one per instruction type, dispatched by exact type
    # through _TRANSFER (the isinstance chain was the analysis' hottest loop).
    def _do_new(self, mc: MethodContext, index: int, instr: New) -> bool:
        site = AllocSiteElement(mc.method.signature, index)
        heap_ctx = self.selector.heap_context(mc.context, site)
        obj = AbstractObject(instr.class_name, site, heap_ctx)
        return self._add_var((mc, instr.dst.name), {obj})

    def _do_assign(self, mc: MethodContext, index: int, instr: Assign) -> bool:
        return self._add_var((mc, instr.dst.name), self._pts(mc, instr.src))

    def _do_field_load(self, mc: MethodContext, index: int, instr: FieldLoad) -> bool:
        changed = False
        for obj in list(self._pts(mc, instr.obj)):
            changed |= self._add_var(
                (mc, instr.dst.name), self._read_field((obj, instr.field_name))
            )
        return changed

    def _do_field_store(self, mc: MethodContext, index: int, instr: FieldStore) -> bool:
        changed = False
        src = self._pts(mc, instr.src)
        if src:
            for obj in list(self._pts(mc, instr.obj)):
                changed |= self._add_field((obj, instr.field_name), src)
        return changed

    def _do_static_load(self, mc: MethodContext, index: int, instr: StaticLoad) -> bool:
        return self._add_var(
            (mc, instr.dst.name),
            self._read_static((instr.class_name, instr.field_name)),
        )

    def _do_static_store(self, mc: MethodContext, index: int, instr: StaticStore) -> bool:
        src = self._pts(mc, instr.src)
        if src:
            return self._add_static((instr.class_name, instr.field_name), src)
        return False

    def _do_array_load(self, mc: MethodContext, index: int, instr: ArrayLoad) -> bool:
        changed = False
        cell = array_field_name(instr.index, self.index_sensitive_arrays)
        for obj in list(self._pts(mc, instr.arr)):
            changed |= self._add_var(
                (mc, instr.dst.name), self._read_field((obj, cell))
            )
            if cell != ARRAY_FIELD:
                # variable-index stores land in the summary cell; a
                # constant-index load must also see them (soundness)
                changed |= self._add_var(
                    (mc, instr.dst.name),
                    self._read_field((obj, ARRAY_FIELD)),
                )
        return changed

    def _do_array_store(self, mc: MethodContext, index: int, instr: ArrayStore) -> bool:
        changed = False
        cell = array_field_name(instr.index, self.index_sensitive_arrays)
        src = self._pts(mc, instr.src)
        if src:
            for obj in list(self._pts(mc, instr.arr)):
                changed |= self._add_field((obj, cell), src)
        return changed

    def _do_return(self, mc: MethodContext, index: int, instr: Return) -> bool:
        if instr.value is not None:
            return self._add_var((mc, RETURN_VAR), self._pts(mc, instr.value))
        return False

    # ------------------------------------------------------------------
    # invocation handling
    # ------------------------------------------------------------------
    def _process_invoke(self, mc: MethodContext, index: int, instr: Invoke) -> bool:
        changed = self._intercept(mc, index, instr)
        site = CallSiteElement(mc.method.signature, index)

        if instr.method_name.startswith("$event$"):
            return changed | self._process_marker(mc, instr)

        changed |= self._link_concurrency(mc, instr)

        if instr.kind is InvokeKind.VIRTUAL:
            assert instr.receiver is not None
            for obj in list(self._pts(mc, instr.receiver)):
                callee = self.program.resolve_method(obj.class_name, instr.method_name)
                if callee is None or (not callee.body and self._is_opaque(callee)):
                    continue
                callee_ctx = self.selector.virtual_callee_context(mc.context, site, obj)
                callee_mc = self._callee_mc(mc, instr, callee, callee_ctx)
                changed |= self._link_call(mc, instr, callee_mc, receiver_obj=obj)
            return changed

        # static / special
        callee = self.program.lookup_static(instr.method_name)
        if callee is None or callee.is_abstract:
            return changed
        if not callee.body and self._is_opaque(callee):
            return changed
        callee_ctx = self.selector.static_callee_context(mc.context, site)
        callee_mc = self._callee_mc(mc, instr, callee, callee_ctx)
        receiver_objs = (
            list(self._pts(mc, instr.receiver)) if instr.receiver is not None else []
        )
        if instr.kind is InvokeKind.SPECIAL and instr.receiver is not None:
            for obj in receiver_objs:
                changed |= self._link_call(mc, instr, callee_mc, receiver_obj=obj)
            if not receiver_objs:
                changed |= self._link_call(mc, instr, callee_mc, receiver_obj=None)
        else:
            changed |= self._link_call(mc, instr, callee_mc, receiver_obj=None)
        return changed

    def _callee_mc(self, mc: MethodContext, instr: Invoke, callee: Method, ctx: Context) -> MethodContext:
        """Finalize a callee context: pin the action id (resolver wins over
        inheritance — an action entry starts a fresh action context)."""
        action_id = None
        if self.action_resolver is not None:
            action_id = self.action_resolver(mc, instr, callee)
        if action_id is not None and self.selector.uses_actions():
            ctx = Context(action=ActionElement(action_id), elements=())
        elif mc.context.action is not None and ctx.action is None:
            ctx = Context(action=mc.context.action, elements=ctx.elements)
        return MethodContext(callee, ctx)

    def _is_opaque(self, callee: Method) -> bool:
        """Empty-bodied framework model methods carry no dataflow."""
        cls = self.program.classes.get(callee.class_name)
        return bool(cls and cls.is_framework)

    def _link_call(
        self,
        mc: MethodContext,
        instr: Invoke,
        callee_mc: MethodContext,
        receiver_obj: Optional[PointsToObject],
        via: EdgeVia = "call",
        args: Optional[Sequence[Operand]] = None,
    ) -> bool:
        changed = self.call_graph.add_edge(mc, instr, callee_mc, via=via)
        if callee_mc not in self._reachable:
            self._reachable[callee_mc] = None
            changed = True
            self._enqueue((callee_mc, None))
            # wake event-marker sites waiting on contexts of this method
            # (keyed by signature, not id(): the dependency index is
            # pickled into the substrate cache and replayed in another
            # process, where this run's object ids are meaningless)
            self._touch(("reach", callee_mc.method.signature))
        if receiver_obj is not None and not callee_mc.method.is_static:
            changed |= self._add_var((callee_mc, "this"), {receiver_obj})
        bind_args = instr.args if args is None else args
        for param, arg in zip(callee_mc.method.params, bind_args):
            objs = self._pts(mc, arg)
            if objs:
                changed |= self._add_var((callee_mc, param[0]), objs)
        if via == "call" and instr.dst is not None:
            ret = self._read_var((callee_mc, RETURN_VAR))
            if ret:
                changed |= self._add_var((mc, instr.dst.name), ret)
        return changed

    # ------------------------------------------------------------------
    # event-marker dispatch (harness-discovered listeners, §3.2)
    # ------------------------------------------------------------------
    def _process_marker(self, mc: MethodContext, instr: Invoke) -> bool:
        dispatch = self.dispatch_table.get(instr.method_name)
        if dispatch is None:
            return False
        changed = False
        arg = (
            dispatch.reg_site.args[dispatch.arg_index]
            if dispatch.arg_index < len(dispatch.reg_site.args)
            else None
        )
        if not isinstance(arg, Var):
            return False
        # re-run this marker when a new context of the registration method
        # becomes reachable (the loop below only sees current contexts)
        self._note(("reach", dispatch.reg_method.signature))
        for reg_mc in list(self._reachable):
            if reg_mc.method is not dispatch.reg_method:
                continue
            listeners = list(self._read_var((reg_mc, arg.name)))
            receivers = (
                list(self._pts(reg_mc, dispatch.reg_site.receiver))
                if dispatch.reg_site.receiver is not None
                else []
            )
            for obj in listeners:
                for cb_name in dispatch.callback_methods:
                    callee = self.program.resolve_method(obj.class_name, cb_name)
                    if callee is None or (not callee.body and self._is_opaque(callee)):
                        continue
                    ctx = self.selector.entry_context(None)
                    callee_mc = self._callee_mc(mc, instr, callee, ctx)
                    changed |= self._link_call(
                        mc, instr, callee_mc, receiver_obj=obj, via="event", args=()
                    )
                    if (
                        dispatch.bind_receiver_to_first_param
                        and callee.params
                        and receivers
                    ):
                        changed |= self._add_var(
                            (callee_mc, callee.params[0][0]), receivers
                        )
        return changed

    # ------------------------------------------------------------------
    # concurrency linking (Table 1 action-creation APIs)
    # ------------------------------------------------------------------
    def _link_concurrency(self, mc: MethodContext, instr: Invoke) -> bool:
        if instr.kind is not InvokeKind.VIRTUAL or instr.receiver is None:
            return False
        short = instr.method_name
        changed = False
        for obj in list(self._pts(mc, instr.receiver)):
            cls = obj.class_name

            if short in POST_APIS and self.program.is_subtype(cls, "android.os.Handler"):
                changed |= self._link_runnable(mc, instr, arg_index=0, via="post")
            elif short == "post" and self.program.is_subtype(cls, "android.view.View"):
                changed |= self._link_runnable(mc, instr, arg_index=0, via="post")
            elif short in UI_POST_APIS:
                changed |= self._link_runnable(mc, instr, arg_index=0, via="post")
            elif short in SEND_APIS and self.program.is_subtype(cls, "android.os.Handler"):
                callee = self.program.resolve_method(cls, "handleMessage")
                if callee is not None and (callee.body or not self._is_opaque(callee)):
                    callee_mc = self._callee_mc(mc, instr, callee, self.selector.entry_context(None))
                    msg_args = instr.args[:1] if instr.args else ()
                    changed |= self._link_call(
                        mc, instr, callee_mc, receiver_obj=obj, via="post", args=msg_args
                    )
            elif short in THREAD_START_APIS and self.program.is_subtype(cls, "java.lang.Thread"):
                callee = self.program.resolve_method(cls, "run")
                if callee is not None and callee.body:
                    callee_mc = self._callee_mc(mc, instr, callee, self.selector.entry_context(None))
                    changed |= self._link_call(
                        mc, instr, callee_mc, receiver_obj=obj, via="thread", args=()
                    )
                # Thread(target) construction: run() of the target runnable
                for target in list(self._read_field((obj, "target"))):
                    tcallee = self.program.resolve_method(target.class_name, "run")
                    if tcallee is None or not tcallee.body:
                        continue
                    callee_mc = self._callee_mc(mc, instr, tcallee, self.selector.entry_context(None))
                    changed |= self._link_call(
                        mc, instr, callee_mc, receiver_obj=target, via="thread", args=()
                    )
            elif short in ASYNC_EXECUTE_APIS and self.program.is_subtype(cls, "android.os.AsyncTask"):
                changed |= self._link_async_task(mc, instr, obj)
            elif short in EXECUTOR_APIS and self.program.is_subtype(
                cls, "java.util.concurrent.Executor"
            ):
                changed |= self._link_runnable(mc, instr, arg_index=0, via="thread")
        return changed

    def _link_runnable(self, mc: MethodContext, instr: Invoke, arg_index: int, via: EdgeVia) -> bool:
        if arg_index >= len(instr.args):
            return False
        arg = instr.args[arg_index]
        if not isinstance(arg, Var):
            return False
        changed = False
        for robj in list(self._pts(mc, arg)):
            callee = self.program.resolve_method(robj.class_name, "run")
            if callee is None or not callee.body:
                continue
            callee_mc = self._callee_mc(mc, instr, callee, self.selector.entry_context(None))
            changed |= self._link_call(mc, instr, callee_mc, receiver_obj=robj, via=via, args=())
        return changed

    def _link_async_task(self, mc: MethodContext, instr: Invoke, task: PointsToObject) -> bool:
        """AsyncTask.execute(): doInBackground on a pool thread; the on*
        stage callbacks post back to the main looper. doInBackground's
        return value feeds onPostExecute's parameter."""
        changed = False
        stages = (
            ("onPreExecute", "post"),
            ("doInBackground", "task"),
            ("onProgressUpdate", "post"),
            ("onPostExecute", "post"),
        )
        stage_mcs = {}
        for name, via in stages:
            callee = self.program.resolve_method(task.class_name, name)
            if callee is None or not callee.body:
                continue
            callee_mc = self._callee_mc(mc, instr, callee, self.selector.entry_context(None))
            changed |= self._link_call(mc, instr, callee_mc, receiver_obj=task, via=via, args=())
            stage_mcs[name] = callee_mc
        bg = stage_mcs.get("doInBackground")
        post = stage_mcs.get("onPostExecute")
        if bg is not None and post is not None and post.method.params:
            ret = self._read_var((bg, RETURN_VAR))
            if ret:
                changed |= self._add_var((post, post.method.params[0][0]), ret)
        return changed

    # ------------------------------------------------------------------
    # framework intercepts
    # ------------------------------------------------------------------
    def _intercept(self, mc: MethodContext, index: int, instr: Invoke) -> bool:
        name = instr.method_name
        short = name.rpartition(".")[2]

        if short == "findViewById" and instr.dst is not None:
            return self._intercept_find_view(mc, instr)

        if name == "android.os.Looper.getMainLooper" and instr.dst is not None:
            return self._add_var((mc, instr.dst.name), {MAIN_LOOPER})

        if short == "getLooper" and instr.receiver is not None and instr.dst is not None:
            changed = False
            for obj in list(self._pts(mc, instr.receiver)):
                derived = DerivedObject(obj, "looper", "android.os.Looper")
                changed |= self._add_var((mc, instr.dst.name), {derived})
            return changed

        if short in ("obtain", "obtainMessage", "getExtras") and instr.dst is not None:
            site = AllocSiteElement(mc.method.signature, index)
            heap_ctx = self.selector.heap_context(mc.context, site)
            class_name = (
                "android.os.Message" if short != "getExtras" else "android.os.Bundle"
            )
            obj = AbstractObject(class_name, site, heap_ctx)
            changed = self._add_var((mc, instr.dst.name), {obj})
            if short == "obtainMessage" and instr.receiver is not None:
                # the message remembers its target handler
                for h in list(self._pts(mc, instr.receiver)):
                    changed |= self._add_field((obj, "target"), {h})
            return changed

        if short == "<init>" and instr.receiver is not None and instr.args:
            # Handler(Looper) binds the looper field; Thread(Runnable) binds
            # the target field — both consumed by affinity / start() linking.
            changed = False
            for obj in list(self._pts(mc, instr.receiver)):
                if self.program.is_subtype(obj.class_name, "android.os.Handler"):
                    loopers = self._pts(mc, instr.args[0])
                    if loopers:
                        changed |= self._add_field((obj, "looper"), loopers)
                elif self.program.is_subtype(obj.class_name, "java.lang.Thread"):
                    targets = self._pts(mc, instr.args[0])
                    if targets:
                        changed |= self._add_field((obj, "target"), targets)
            return changed

        if short in ("sendMessage", "sendMessageDelayed", "sendMessageAtTime"):
            # bind message.target so handleMessage affinity is known
            changed = False
            if instr.receiver is not None and instr.args:
                handlers = self._pts(mc, instr.receiver)
                for msg in list(self._pts(mc, instr.args[0])):
                    if handlers:
                        changed |= self._add_field((msg, "target"), handlers)
            return changed

        return False

    def _intercept_find_view(self, mc: MethodContext, instr: Invoke) -> bool:
        assert instr.dst is not None
        if not instr.args or not isinstance(instr.args[0], Const):
            return False
        view_id = instr.args[0].value
        if not isinstance(view_id, int):
            return False
        decl = self.layouts.resolve_view(view_id)
        widget = decl.widget_class if decl is not None else "android.view.View"
        return self._add_var((mc, instr.dst.name), {ViewObject(view_id, widget)})


#: exact-type transfer dispatch (the IR's instruction hierarchy is flat, so
#: type(instr) lookup is equivalent to the old isinstance chain)
_TRANSFER = {
    New: PointerAnalysis._do_new,
    Assign: PointerAnalysis._do_assign,
    FieldLoad: PointerAnalysis._do_field_load,
    FieldStore: PointerAnalysis._do_field_store,
    StaticLoad: PointerAnalysis._do_static_load,
    StaticStore: PointerAnalysis._do_static_store,
    ArrayLoad: PointerAnalysis._do_array_load,
    ArrayStore: PointerAnalysis._do_array_store,
    Return: PointerAnalysis._do_return,
    Invoke: PointerAnalysis._process_invoke,
}


def analyze(
    program: Program,
    entries: Sequence[Entry],
    selector: Optional[ContextSelector] = None,
    layouts: Optional[LayoutRegistry] = None,
) -> PointsToResult:
    """One-shot convenience wrapper: build, solve, return the result."""
    return PointerAnalysis(program, entries, selector=selector, layouts=layouts).solve()
