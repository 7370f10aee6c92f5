"""The Activity lifecycle state machine (paper Figure 5).

The harness generator materialises this state machine as IR control flow so
that CFG dominance between harness call sites yields exactly the lifecycle
HB edges of Figure 5, including the ``onResume "1"`` / ``onResume "2"``
instance split: distinct call sites in the harness become distinct actions,
and the pre-dominating callback identifies the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.util.graph import Digraph


class LifecycleState:
    CREATED = "Created"
    STARTED = "Started"
    RESUMED = "Resumed"
    PAUSED = "Paused"
    STOPPED = "Stopped"
    DESTROYED = "Destroyed"


@dataclass(frozen=True)
class LifecycleTransition:
    source: str
    callback: str
    target: str


#: Figure 5's state machine. ``onStart``/``onResume`` appear twice — the
#: "1" and "2" instances the paper distinguishes via pre-dominators.
ACTIVITY_TRANSITIONS: Tuple[LifecycleTransition, ...] = (
    LifecycleTransition("<init>", "onCreate", LifecycleState.CREATED),
    LifecycleTransition(LifecycleState.CREATED, "onStart", LifecycleState.STARTED),
    LifecycleTransition(LifecycleState.STARTED, "onResume", LifecycleState.RESUMED),
    LifecycleTransition(LifecycleState.RESUMED, "onPause", LifecycleState.PAUSED),
    LifecycleTransition(LifecycleState.PAUSED, "onResume", LifecycleState.RESUMED),
    LifecycleTransition(LifecycleState.PAUSED, "onStop", LifecycleState.STOPPED),
    LifecycleTransition(LifecycleState.STOPPED, "onRestart", LifecycleState.STARTED),
    LifecycleTransition(LifecycleState.STOPPED, "onDestroy", LifecycleState.DESTROYED),
)


def lifecycle_state_graph() -> Digraph[str]:
    """The raw state graph (states as nodes, one edge per transition)."""
    graph: Digraph[str] = Digraph()
    for t in ACTIVITY_TRANSITIONS:
        graph.add_edge(t.source, t.target)
    return graph


#: The HB edges Figure 5 derives among lifecycle callback *instances*. Keys
#: are ``(callback, instance)`` with instance 1 = first occurrence on the
#: harness path and 2 = the cycle re-entry occurrence.
EXPECTED_LIFECYCLE_HB: Tuple[Tuple[Tuple[str, int], Tuple[str, int]], ...] = (
    (("onCreate", 1), ("onStart", 1)),
    (("onStart", 1), ("onResume", 1)),
    (("onResume", 1), ("onPause", 1)),
    (("onPause", 1), ("onResume", 2)),
    (("onStart", 1), ("onStop", 1)),  # "[onCreate] onStart 1 < [onPause] onStop"
    (("onPause", 1), ("onStop", 1)),
    (("onStop", 1), ("onStart", 2)),  # "[onPause] onStop < [onRestart] onStart 2"
    (("onStop", 1), ("onDestroy", 1)),
    (("onCreate", 1), ("onDestroy", 1)),
)

#: Callback-instance pairs that must remain *unordered* in the SHBG (the
#: lifecycle permits either order across iterations of the pause/stop cycle).
EXPECTED_LIFECYCLE_UNORDERED: Tuple[Tuple[Tuple[str, int], Tuple[str, int]], ...] = (
    (("onResume", 2), ("onStop", 1)),
    (("onResume", 2), ("onDestroy", 1)),
)


def lifecycle_callbacks_of(program, class_name: str) -> List[str]:
    """Lifecycle callbacks ``class_name`` (an Activity subclass) overrides,
    in canonical invocation order."""
    from repro.android.framework import ACTIVITY_LIFECYCLE_CALLBACKS

    cls = program.classes.get(class_name)
    if cls is None:
        return []
    overridden = set()
    # Include callbacks defined anywhere on the app-level chain (an app base
    # activity may define onPause for all its subclasses).
    cursor = class_name
    while cursor is not None:
        cdef = program.classes.get(cursor)
        if cdef is None or cdef.is_framework:
            break
        overridden.update(cdef.methods)
        cursor = cdef.superclass
    return [cb for cb in ACTIVITY_LIFECYCLE_CALLBACKS if cb in overridden]


def instance_label(callback: str, instance: int) -> str:
    """Human-readable action label, e.g. ``onResume"2"``."""
    return f'{callback}"{instance}"' if instance > 1 else callback
