"""Seeded synthetic-app generator with ground-truth race labels.

Each generated app is a full IR program (activities, listeners, AsyncTasks,
runnables, receivers, services, layouts, manifest) whose shared-memory
idioms come from a fixed catalogue. Every idiom instance names its fields
with a classifying prefix, so detector output can be scored against ground
truth automatically — this is the stand-in for the paper's manual inspection
(Table 3's "True Races" / "FP" columns).

Idiom catalogue (field prefix → expected outcome):

=============  ==============================================================
``evrace_``    two GUI handlers conflict, unordered → **true event race**
``bgdata_``    AsyncTask background write vs. GUI read → **true data race**
``postrace_``  onPostExecute vs. GUI handler → **true event race**
``gflag_``     Figure 8 guard flag → **true (benign) guard race**
``guarded_``   the cell the flag protects → **refutable** (must disappear)
``pobj_``      pointer guard cell → **true (benign) pointer-guard race**
``pdata_``     null-check-protected cell → **refutable**; EventRacer FP
``opost_``     two FIFO posts, rule 4/6 ordered → **no report expected**
``cfg_``       onCreate-init, read later → lifecycle-ordered, **no report**
``fval_``      deep-factory local state → no true race; aliased **only**
               when action sensitivity is off (the §3.3 ablation signal)
``loaded_``    background init the GUI implicitly waits for → reported, but
               ground-truth **false positive** (OpenManager pattern, §6.5)
``rxdata_``    receiver vs. lifecycle (Figure 2) → **true event race**
``rxptr_``     receiver pointer vs. onDestroy null → **true pointer race**
``svcdata_``   service vs. activity handler → **true event race**
``bindrace_``  onServiceConnected vs. GUI handler (bindService mesh) →
               **true event race**
``lprace_``    background-Looper post vs. GUI write (HandlerThread
               affinity) → **true data race**
``lpseq_``     two FIFO posts to the *same* background Looper → rule 4/6
               ordered on that Looper, **no report expected**
``chain_``     tail of a deep AsyncTask onPostExecute relay vs. GUI
               handler → **true event race**
=============  ==============================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.android.apk import Apk, ApkMetadata
from repro.android.framework import install_framework
from repro.android.manifest import Manifest
from repro.corpus.specs import SynthSpec
from repro.ir.builder import ClassBuilder, MethodBuilder, ProgramBuilder
from repro.ir.types import BOOL, INT

#: prefix -> ground-truth category
GROUND_TRUTH_PREFIXES: Dict[str, str] = {
    "evrace_": "true-event",
    "bgdata_": "true-data",
    "postrace_": "true-event",
    "gflag_": "true-benign-guard",
    "guarded_": "refutable",
    "pobj_": "true-benign-guard",
    "pdata_": "refutable",
    "opost_": "ordered",
    "cfg_": "ordered",
    "fval_": "factory",
    "loaded_": "fp-implicit",
    "rxdata_": "true-event",
    "rxptr_": "true-event",
    "svcdata_": "true-event",
    "bindrace_": "true-event",
    "lprace_": "true-data",
    "lpseq_": "ordered",
    "chain_": "true-event",
    # GUI handler vs onStop: SIERRA's GUI model (rule 3b) orders these — a
    # stopped activity receives no input — but EventRacer's weaker dynamic
    # HB reports them: the "15 races SIERRA ruled out" of §6.4.
    "uistop_": "ordered",
}

TRUE_CATEGORIES = frozenset(
    {"true-event", "true-data", "true-benign-guard"}
)
#: categories that must NOT survive a correct SIERRA run
ELIMINATED_CATEGORIES = frozenset({"refutable", "ordered", "factory"})


def classify_field(field_name: str) -> Optional[str]:
    for prefix, category in GROUND_TRUTH_PREFIXES.items():
        if field_name.startswith(prefix):
            return category
    return None


def classify_report_field(field_name: str) -> str:
    """Score one surviving report: 'true', 'fp', by ground truth."""
    category = classify_field(field_name)
    if category in TRUE_CATEGORIES:
        return "true"
    # implicit-dependency idioms, factory/ordered/refutable leak-through and
    # anything unclassified counts against the detector
    return "fp"


@dataclass
class GroundTruth:
    """What the generator seeded, for scoring detector output."""

    app: str
    seeded: Dict[str, int] = field(default_factory=dict)  # category -> count
    fields: Dict[str, str] = field(default_factory=dict)  # field -> category

    def note(self, category: str, field_name: Optional[str] = None) -> None:
        self.seeded[category] = self.seeded.get(category, 0) + 1
        if field_name is not None:
            self.fields[field_name] = category

    def expected_true_fields(self) -> int:
        return sum(n for cat, n in self.seeded.items() if cat in TRUE_CATEGORIES)

    def true_fields(self) -> frozenset:
        """Exact field names whose races the detector must report."""
        return frozenset(
            name for name, cat in self.fields.items() if cat in TRUE_CATEGORIES
        )

    def eliminated_fields(self) -> frozenset:
        """Field names a correct run must *not* report (refuted/ordered)."""
        return frozenset(
            name for name, cat in self.fields.items() if cat in ELIMINATED_CATEGORIES
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "app": self.app,
            "seeded": dict(self.seeded),
            "fields": dict(self.fields),
            "true_fields": sorted(self.true_fields()),
        }


class AppSynthesizer:
    """Generates one APK from a :class:`SynthSpec` (deterministic by seed)."""

    def __init__(self, spec: SynthSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.pb = ProgramBuilder()
        install_framework(self.pb.program)
        safe = "".join(c if c.isalnum() else "_" for c in spec.name.lower())
        self.pkg = f"com.synth.{safe}"
        self.apk = Apk(
            spec.name,
            self.pb.program,
            Manifest(self.pkg),
            metadata=ApkMetadata(installs=spec.installs, category=spec.category),
        )
        self.truth = GroundTruth(app=spec.name)
        self._view_id = 1000

    # ------------------------------------------------------------------
    def synthesize(self) -> Tuple[Apk, GroundTruth]:
        # a local list, not an attribute: each context points back at the
        # synthesizer, and holding them here would make a cycle that keeps
        # the app's whole program alive until a cyclic collection
        acts = [self._begin_activity(i) for i in range(self.spec.activities)]
        # navigation graph: a chain from the main activity plus a few random
        # shortcuts — every activity is reachable (launchable) from main,
        # which is what HB rule 2c orders across harnesses
        names = [ctx.cls.name for ctx in acts]
        for src, dst in zip(names, names[1:]):
            self.apk.manifest.add_launch(src, dst)
        for _ in range(max(1, len(names) // 2)):
            launch_src = self.rng.choice(names)
            launch_dst = self.rng.choice(names)
            if launch_src != launch_dst:
                self.apk.manifest.add_launch(launch_src, launch_dst)
        self._distribute(acts)
        for ctx in acts:
            ctx.finish()
        return self.apk, self.truth

    # ------------------------------------------------------------------
    def _begin_activity(self, index: int) -> "_ActivityCtx":
        name = f"{self.pkg}.Activity{index}"
        cls = self.pb.new_class(name, superclass="android.app.Activity")
        layout_name = f"layout_{index}"
        layout = self.apk.layouts.new_layout(layout_name)
        decl = self.apk.manifest.add_activity(name, layout=layout_name, is_main=index == 0)
        ctx = _ActivityCtx(self, index, cls, layout, decl=decl)
        # lifecycle-ordered config field: onCreate writes, handlers read
        cfg = f"cfg_{index}"
        cls.field(cfg, INT)
        ctx.on_create.const(f"c{index}", 0)
        ctx.on_create.store("this", cfg, f"c{index}")
        self.truth.note("ordered", cfg)
        ctx.cfg_field = cfg
        return ctx

    def _distribute(self, acts: List["_ActivityCtx"]) -> None:
        spec = self.spec

        def spread(count: int, emit) -> None:
            for j in range(count):
                emit(acts[j % len(acts)], j)

        spread(spec.evrace, self._emit_evrace)
        spread(spec.bgrace, self._emit_bgrace)
        spread(spec.guard, self._emit_guard)
        spread(spec.nullguard, self._emit_nullguard)
        spread(spec.ordered, self._emit_ordered_posts)
        spread(spec.factory, self._emit_factory)
        spread(spec.implicit, self._emit_implicit)
        spread(spec.receivers, self._emit_receiver)
        spread(spec.services, self._emit_service)
        spread(getattr(spec, "uistop", 0), self._emit_uistop)
        spread(getattr(spec, "extra_gui", 0), self._emit_extra_gui)
        spread(getattr(spec, "binding", 0), self._emit_binding)
        spread(getattr(spec, "looper", 0), self._emit_looper)
        spread(getattr(spec, "chains", 0), self._emit_chain)

    def next_view_id(self) -> int:
        self._view_id += 1
        return self._view_id

    # ------------------------------------------------------------------
    # idiom emitters
    # ------------------------------------------------------------------
    def _emit_evrace(self, ctx: "_ActivityCtx", j: int) -> None:
        fname = f"evrace_{ctx.index}_{j}"
        ctx.cls.field(fname, INT)
        writer = ctx.add_handler(f"hWrite{j}")
        writer.load("v", "this", fname)
        writer.const("one", 1)
        writer.store("this", fname, "one")
        writer.ret()
        reader = ctx.add_handler(f"hRead{j}")
        reader.load("v", "this", fname)
        reader.load("cfg", "this", ctx.cfg_field)  # ordered access: no race
        reader.const("two", 2)
        reader.store("this", fname, "two")
        reader.ret()
        self.truth.note("true-event", fname)

    def _emit_bgrace(self, ctx: "_ActivityCtx", j: int) -> None:
        bg_field = f"bgdata_{ctx.index}_{j}"
        post_field = f"postrace_{ctx.index}_{j}"
        ctx.cls.field(bg_field, INT)
        ctx.cls.field(post_field, INT)
        task_name = f"{self.pkg}.Task{ctx.index}_{j}"
        task = self.pb.new_class(task_name, superclass="android.os.AsyncTask")
        task.field("act", ctx.cls.name)
        bg = task.method("doInBackground")
        bg.load("a", "this", "act")
        bg.const("r", 7)
        bg.store("a", bg_field, "r")
        bg.ret("r")
        post = task.method("onPostExecute")
        post.load("a", "this", "act")
        post.const("r", 8)
        post.store("a", post_field, "r")
        post.ret()
        # launch from a runtime click listener (exercises marker dispatch)
        listener_name = f"{self.pkg}.Launch{ctx.index}_{j}"
        listener = self.pb.new_class(
            listener_name, interfaces=("android.view.View.OnClickListener",)
        )
        listener.field("act", ctx.cls.name)
        on_click = listener.method("onClick")
        on_click.new("t", task_name)
        on_click.load("a", "this", "act")
        on_click.store("t", "act", "a")
        on_click.call("t", "execute")
        on_click.ret()
        view_id = self.next_view_id()
        ctx.layout.add_view(view_id, "android.widget.Button", f"btnTask{ctx.index}_{j}")
        oc = ctx.on_create
        oc.call("this", "findViewById", view_id, dst=f"vt{j}")
        oc.new(f"ls{j}", listener_name)
        oc.store(f"ls{j}", "act", "this")
        oc.call(f"vt{j}", "setOnClickListener", f"ls{j}")
        # the racing reader
        reader = ctx.add_handler(f"hShow{j}")
        reader.load("x", "this", bg_field)
        reader.load("y", "this", post_field)
        reader.ret()
        self.truth.note("true-data", bg_field)
        self.truth.note("true-event", post_field)

    def _emit_guard(self, ctx: "_ActivityCtx", j: int) -> None:
        flag = f"gflag_{ctx.index}_{j}"
        cell = f"guarded_{ctx.index}_{j}"
        cell2 = f"guarded_{ctx.index}_{j}b"
        ctx.cls.field(flag, BOOL)
        ctx.cls.field(cell, INT)
        ctx.cls.field(cell2, INT)
        runnable_name = f"{self.pkg}.Tick{ctx.index}_{j}"
        runnable = self.pb.new_class(runnable_name, interfaces=("java.lang.Runnable",))
        runnable.field("owner", ctx.cls.name)
        run = runnable.method("run")
        run.load("o", "this", "owner")
        run.load("f", "o", flag)
        run.if_false("f", f"end{j}")
        run.const("v", 1)
        run.store("o", cell, "v")
        run.store("o", cell2, "v")
        run.label(f"end{j}").ret()
        # the flag is armed in onCreate (lifecycle-ordered before everything)
        # so the only racy flag access pair is onPause's disarm vs run's read
        oc = ctx.on_create
        oc.const(f"gt{j}", True)
        oc.store("this", flag, f"gt{j}")
        orr = ctx.on_resume
        orr.call_static("android.os.Looper.getMainLooper", dst=f"lp{j}")
        orr.new(f"h{j}", "android.os.Handler")
        orr.call_special(f"h{j}", "android.os.Handler.<init>", f"lp{j}")
        orr.new(f"r{j}", runnable_name)
        orr.store(f"r{j}", "owner", "this")
        orr.call(f"h{j}", "post", f"r{j}")
        opa = ctx.on_pause
        opa.load(f"pf{j}", "this", flag)
        opa.if_false(f"pf{j}", f"pdone{j}")
        opa.const(f"ff{j}", False)
        opa.store("this", flag, f"ff{j}")
        opa.const(f"pv{j}", 2)
        opa.store("this", cell, f"pv{j}")
        opa.store("this", cell2, f"pv{j}")
        opa.label(f"pdone{j}").nop()
        self.truth.note("true-benign-guard", flag)
        self.truth.note("refutable", cell)
        self.truth.note("refutable", cell2)

    def _emit_nullguard(self, ctx: "_ActivityCtx", j: int) -> None:
        """Use-after-free behind a null check. The reader must be a *posted*
        runnable: GUI handlers are ordered before onDestroy by rule 3b (a
        stopped activity gets no input), so only asynchronously delivered
        work can race with teardown."""
        ref = f"pobj_{ctx.index}_{j}"
        data = f"pdata_{ctx.index}_{j}"
        holder_name = f"{self.pkg}.Holder{ctx.index}_{j}"
        holder = self.pb.new_class(holder_name)
        holder.field(data, INT)
        ctx.cls.field(ref, holder_name)
        user_name = f"{self.pkg}.Use{ctx.index}_{j}"
        user = self.pb.new_class(user_name, interfaces=("java.lang.Runnable",))
        user.field("owner", ctx.cls.name)
        run = user.method("run")
        run.load("o", "this", "owner")
        run.load("p", "o", ref)
        run.if_null("p", f"skip{j}")
        run.load("d", "p", data)
        run.const("nv", 5)
        run.store("p", data, "nv")
        run.label(f"skip{j}").ret()
        oc = ctx.on_create
        oc.new(f"ho{j}", holder_name)
        oc.store("this", ref, f"ho{j}")
        oc.new(f"uh{j}", "android.os.Handler")
        oc.new(f"ur{j}", user_name)
        oc.store(f"ur{j}", "owner", "this")
        oc.call(f"uh{j}", "post", f"ur{j}")
        od = ctx.on_destroy
        od.load(f"dp{j}", "this", ref)
        od.if_null(f"dp{j}", f"dskip{j}")
        od.const(f"dz{j}", 0)
        od.store(f"dp{j}", data, f"dz{j}")
        od.label(f"dskip{j}").const(f"nul{j}", None)
        od.store("this", ref, f"nul{j}")
        self.truth.note("true-benign-guard", ref)
        self.truth.note("refutable", data)

    def _emit_ordered_posts(self, ctx: "_ActivityCtx", j: int) -> None:
        cell = f"opost_{ctx.index}_{j}"
        ctx.cls.field(cell, INT)
        names = []
        for part in (1, 2):
            rname = f"{self.pkg}.Seq{ctx.index}_{j}_{part}"
            rcls = self.pb.new_class(rname, interfaces=("java.lang.Runnable",))
            rcls.field("owner", ctx.cls.name)
            run = rcls.method("run")
            run.load("o", "this", "owner")
            run.const("v", part)
            run.store("o", cell, "v")
            run.ret()
            names.append(rname)
        oc = ctx.on_create
        oc.call_static("android.os.Looper.getMainLooper", dst=f"olp{j}")
        oc.new(f"oh{j}", "android.os.Handler")
        oc.call_special(f"oh{j}", "android.os.Handler.<init>", f"olp{j}")
        for part, rname in enumerate(names, start=1):
            var = f"or{j}_{part}"
            oc.new(var, rname)
            oc.store(var, "owner", "this")
            oc.call(f"oh{j}", "post", var)
        self.truth.note("ordered", cell)

    def _emit_factory(self, ctx: "_ActivityCtx", j: int) -> None:
        holder_name = f"{self.pkg}.lib.FHolder{ctx.index}_{j}"
        holder = self.pb.new_class(holder_name)
        cell = f"fval_{ctx.index}_{j}"
        holder.field(cell, INT)
        factory_name = f"{self.pkg}.lib.Factory{ctx.index}_{j}"
        factory = self.pb.new_class(factory_name)
        alloc = factory.method("alloc", is_static=True)
        alloc.new("o", holder_name)
        alloc.ret("o")
        build = factory.method("build", is_static=True)
        build.call_static(f"{factory_name}.alloc", dst="o")
        build.ret("o")
        make = factory.method("make", is_static=True)
        make.call_static(f"{factory_name}.build", dst="o")
        make.ret("o")
        # three shared handlers per activity each use a private holder from
        # the deep factory: action-sensitive contexts keep the three holders
        # apart; k-bounded contexts merge them (the §3.3 foo/bar scenario).
        # All of an activity's factory idioms share the same three handlers
        # so the action count stays realistic.
        for part, handler in enumerate(ctx.factory_handlers()):
            handler.call_static(f"{factory_name}.make", dst=f"h{j}")
            handler.const(f"v{j}", part)
            handler.store(f"h{j}", cell, f"v{j}")
            handler.load(f"w{j}", f"h{j}", cell)
        self.truth.note("factory", cell)

    def _emit_implicit(self, ctx: "_ActivityCtx", j: int) -> None:
        cell = f"loaded_{ctx.index}_{j}"
        ctx.cls.field(cell, INT)
        thread_name = f"{self.pkg}.Loader{ctx.index}_{j}"
        thread = self.pb.new_class(thread_name, superclass="java.lang.Thread")
        thread.field("act", ctx.cls.name)
        run = thread.method("run")
        run.load("a", "this", "act")
        run.const("v", 9)
        run.store("a", cell, "v")
        run.ret()
        oc = ctx.on_create
        oc.new(f"ld{j}", thread_name)
        oc.store(f"ld{j}", "act", "this")
        oc.call(f"ld{j}", "start")
        handler = ctx.add_handler(f"hReady{j}")
        handler.load("v", "this", cell)  # implicitly after the load finishes
        handler.ret()
        self.truth.note("fp-implicit", cell)

    def _emit_receiver(self, ctx: "_ActivityCtx", j: int) -> None:
        data = f"rxdata_{ctx.index}_{j}"
        ptr = f"rxptr_{ctx.index}_{j}"
        store_name = f"{self.pkg}.Store{ctx.index}_{j}"
        store = self.pb.new_class(store_name)
        store.field("rows", INT)
        ctx.cls.field(data, INT)
        ctx.cls.field(ptr, store_name)
        recv_name = f"{self.pkg}.Rx{ctx.index}_{j}"
        recv = self.pb.new_class(recv_name, superclass="android.content.BroadcastReceiver")
        recv.field("act", ctx.cls.name)
        orc = recv.method("onReceive")
        orc.load("a", "this", "act")
        orc.const("v", 3)
        orc.store("a", data, "v")
        orc.load("s", "a", ptr)
        orc.ret()
        recv_field = f"recv_{ctx.index}_{j}"
        ctx.cls.field(recv_field, recv_name)
        oc = ctx.on_create
        oc.new(f"st{j}", store_name)
        oc.store("this", ptr, f"st{j}")
        oc.new(f"rx{j}", recv_name)
        oc.store(f"rx{j}", "act", "this")
        oc.store("this", recv_field, f"rx{j}")
        oc.call("this", "registerReceiver", f"rx{j}")
        os_ = ctx.on_stop
        os_.load(f"sv{j}", "this", data)
        od = ctx.on_destroy
        od.load(f"urx{j}", "this", recv_field)
        od.call("this", "unregisterReceiver", f"urx{j}")
        od.const(f"rnul{j}", None)
        od.store("this", ptr, f"rnul{j}")
        self.truth.note("true-event", data)
        self.truth.note("true-event", ptr)

    def _emit_uistop(self, ctx: "_ActivityCtx", j: int) -> None:
        """GUI handler vs onStop on one cell: SIERRA orders them (rule 3b,
        no input once stopped) so it must NOT report; the dynamic baseline's
        weaker UI ordering makes it report — §6.4's ruled-out category."""
        cell = f"uistop_{ctx.index}_{j}"
        ctx.cls.field(cell, INT)
        handler = ctx.add_handler(f"hSave{j}")
        handler.const("v", 1)
        handler.store("this", cell, "v")
        handler.ret()
        os_ = ctx.on_stop
        os_.load(f"us{j}", "this", cell)
        os_.const(f"uz{j}", 0)
        os_.store("this", cell, f"uz{j}")
        self.truth.note("ordered", cell)

    def _emit_extra_gui(self, ctx: "_ActivityCtx", j: int) -> None:
        """A benign handler: pads the action count without adding races
        (real apps have far more callbacks than racy ones). Grouped into
        Figure 6-style GUI flows (ordered sequences) at finish time."""
        handler = ctx.add_handler(f"hMisc{j}")
        handler.load("v", "this", ctx.cfg_field)
        handler.const("tmp", 1)
        handler.ret()
        ctx.flow_candidates.append(f"onhMisc{j}")

    def _emit_service(self, ctx: "_ActivityCtx", j: int) -> None:
        cell = f"svcdata_{ctx.index}_{j}"
        svc_name = f"{self.pkg}.Svc{ctx.index}_{j}"
        svc = self.pb.new_class(svc_name, superclass="android.app.Service")
        svc.field("unused", INT)
        on_start = svc.method("onStartCommand")
        on_start.const("v", 4)
        on_start.sstore(svc_name, cell, "v")
        on_start.ret()
        svc.cls.add_field(cell, INT, is_static=True)
        self.apk.manifest.add_service(svc_name)
        handler = ctx.add_handler(f"hSvc{j}")
        handler.sload("v", svc_name, cell)
        handler.ret()
        self.truth.note("true-event", cell)

    def _emit_binding(self, ctx: "_ActivityCtx", j: int) -> None:
        """Service-binding mesh: ``bindService`` registers a
        ``ServiceConnection`` whose ``onServiceConnected`` is a SYSTEM
        callback — unordered against GUI input, so its write to the bound
        service's state races with the activity's handler."""
        cell = f"bindrace_{ctx.index}_{j}"
        svc_name = f"{self.pkg}.Bound{ctx.index}_{j}"
        svc = self.pb.new_class(svc_name, superclass="android.app.Service")
        svc.cls.add_field(cell, INT, is_static=True)
        conn_name = f"{self.pkg}.Conn{ctx.index}_{j}"
        conn = self.pb.new_class(
            conn_name, interfaces=("android.content.ServiceConnection",)
        )
        on_conn = conn.method("onServiceConnected")
        on_conn.const("v", 6)
        on_conn.sstore(svc_name, cell, "v")
        on_conn.ret()
        conn.method("onServiceDisconnected").ret()
        oc = ctx.on_create
        oc.new(f"cn{j}", conn_name)
        oc.const(f"ni{j}", None)
        oc.call("this", "bindService", f"ni{j}", f"cn{j}")
        handler = ctx.add_handler(f"hBound{j}")
        handler.sload("v", svc_name, cell)
        handler.const("w", 7)
        handler.sstore(svc_name, cell, "w")
        handler.ret()
        self.truth.note("true-event", cell)

    def _emit_looper(self, ctx: "_ActivityCtx", j: int) -> None:
        """Multi-Looper affinity: a runnable posted to a HandlerThread's
        Looper runs off the main thread, so its write races with a GUI
        handler (``lprace_``); two posts to the *same* background Looper
        stay FIFO-ordered by rules 4/6 (``lpseq_``, no report)."""
        racy = f"lprace_{ctx.index}_{j}"
        seq = f"lpseq_{ctx.index}_{j}"
        ctx.cls.field(racy, INT)
        ctx.cls.field(seq, INT)
        worker_name = f"{self.pkg}.BgWork{ctx.index}_{j}"
        worker = self.pb.new_class(worker_name, interfaces=("java.lang.Runnable",))
        worker.field("owner", ctx.cls.name)
        run = worker.method("run")
        run.load("o", "this", "owner")
        run.const("v", 11)
        run.store("o", racy, "v")
        run.store("o", seq, "v")
        run.ret()
        worker2_name = f"{self.pkg}.BgWork{ctx.index}_{j}b"
        worker2 = self.pb.new_class(worker2_name, interfaces=("java.lang.Runnable",))
        worker2.field("owner", ctx.cls.name)
        run2 = worker2.method("run")
        run2.load("o", "this", "owner")
        run2.const("v", 12)
        run2.store("o", seq, "v")
        run2.ret()
        oc = ctx.on_create
        oc.new(f"ht{j}", "android.os.HandlerThread")
        oc.call(f"ht{j}", "start")
        oc.call(f"ht{j}", "getLooper", dst=f"bl{j}")
        oc.new(f"bh{j}", "android.os.Handler")
        oc.call_special(f"bh{j}", "android.os.Handler.<init>", f"bl{j}")
        for part, rname in enumerate((worker_name, worker2_name)):
            var = f"bw{j}_{part}"
            oc.new(var, rname)
            oc.store(var, "owner", "this")
            oc.call(f"bh{j}", "post", var)
        handler = ctx.add_handler(f"hLooper{j}")
        handler.load("v", "this", racy)
        handler.const("w", 13)
        handler.store("this", racy, "w")
        handler.ret()
        self.truth.note("true-data", racy)
        self.truth.note("ordered", seq)

    def _emit_chain(self, ctx: "_ActivityCtx", j: int) -> None:
        """Deep AsyncTask relay: onPostExecute(d) launches task d+1; only
        the tail writes the shared cell, which a GUI handler also touches.
        Depth stresses transitive HB closure and the callgraph."""
        depth = max(1, getattr(self.spec, "chain_depth", 3))
        cell = f"chain_{ctx.index}_{j}"
        ctx.cls.field(cell, INT)
        task_names = [
            f"{self.pkg}.Chain{ctx.index}_{j}_{d}" for d in range(depth)
        ]
        for d, task_name in enumerate(task_names):
            task = self.pb.new_class(task_name, superclass="android.os.AsyncTask")
            task.field("act", ctx.cls.name)
            bg = task.method("doInBackground")
            bg.const("r", d)
            bg.ret("r")
            post = task.method("onPostExecute")
            post.load("a", "this", "act")
            if d + 1 < depth:
                post.new("nx", task_names[d + 1])
                post.store("nx", "act", "a")
                post.call("nx", "execute")
            else:
                post.const("tv", 21)
                post.store("a", cell, "tv")
            post.ret()
        oc = ctx.on_create
        oc.new(f"ch{j}", task_names[0])
        oc.store(f"ch{j}", "act", "this")
        oc.call(f"ch{j}", "execute")
        handler = ctx.add_handler(f"hChain{j}")
        handler.load("v", "this", cell)
        handler.const("w", 22)
        handler.store("this", cell, "w")
        handler.ret()
        self.truth.note("true-event", cell)


@dataclass
class _ActivityCtx:
    """Accumulates one activity's lifecycle bodies until ``finish``."""

    synth: AppSynthesizer
    index: int
    cls: ClassBuilder
    layout: object
    decl: object = None
    cfg_field: str = ""

    def __post_init__(self) -> None:
        self.on_create = self.cls.method("onCreate")
        self.on_resume = self.cls.method("onResume")
        self.on_pause = self.cls.method("onPause")
        self.on_stop = self.cls.method("onStop")
        self.on_destroy = self.cls.method("onDestroy")
        self._handlers: List[str] = []
        self.flow_candidates: List[str] = []
        self._factory_handlers: List[MethodBuilder] = []

    def add_handler(self, suffix: str) -> MethodBuilder:
        """A GUI handler declared statically in the layout."""
        name = f"on{suffix}"
        builder = self.cls.method(name)
        view_id = self.synth.next_view_id()
        self.layout.add_view(
            view_id,
            "android.widget.Button",
            f"btn_{suffix}_{self.index}",
            static_callbacks=(("onClick", name),),
        )
        self._handlers.append(name)
        return builder

    def factory_handlers(self) -> List[MethodBuilder]:
        """The activity's three shared factory-using handlers (lazy)."""
        if not self._factory_handlers:
            self._factory_handlers = [
                self.add_handler(f"hFactory{part}") for part in range(3)
            ]
        return self._factory_handlers

    def finish(self) -> None:
        for builder in (self.on_create, self.on_resume, self.on_pause, self.on_stop, self.on_destroy):
            builder.ret()
        for builder in self._factory_handlers:
            builder.ret()
        # chain benign handlers into GUI flows of three (rule 3 ordering)
        if self.decl is not None:
            for start in range(0, len(self.flow_candidates) - 1, 3):
                chunk = self.flow_candidates[start : start + 3]
                if len(chunk) >= 2:
                    self.decl.gui_flows.append(chunk)


def synthesize_app(spec: SynthSpec) -> Tuple[Apk, GroundTruth]:
    """Generate one app (deterministic in ``spec.seed``)."""
    return AppSynthesizer(spec).synthesize()
