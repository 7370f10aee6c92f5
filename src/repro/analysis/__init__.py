"""Static-analysis substrate (the WALA stand-in).

Call graph, context-sensitive Andersen points-to with the paper's
action-sensitive abstraction, action-scoped ICFG for de-facto dominance,
and on-demand constant propagation.
"""

from repro.analysis.callgraph import CallEdge, CallGraph, MethodContext
from repro.analysis.constprop import constant_message_fields
from repro.analysis.context import (
    AbstractObject,
    ActionElement,
    ActionSensitiveSelector,
    AllocSiteElement,
    CallSiteElement,
    Context,
    ContextSelector,
    EMPTY_CONTEXT,
    HybridSelector,
    InsensitiveSelector,
    KCfaSelector,
    KObjSelector,
    ViewObject,
    make_selector,
)
from repro.analysis.icfg import ActionICFG
from repro.analysis.pointsto import (
    ARRAY_FIELD,
    DerivedObject,
    Entry,
    EventDispatch,
    MAIN_LOOPER,
    PointerAnalysis,
    PointsToResult,
    RETURN_VAR,
    SyntheticObject,
    analyze,
)

__all__ = [
    "ARRAY_FIELD",
    "AbstractObject",
    "ActionElement",
    "ActionICFG",
    "ActionSensitiveSelector",
    "AllocSiteElement",
    "CallEdge",
    "CallGraph",
    "CallSiteElement",
    "Context",
    "ContextSelector",
    "DerivedObject",
    "EMPTY_CONTEXT",
    "Entry",
    "HybridSelector",
    "InsensitiveSelector",
    "KCfaSelector",
    "KObjSelector",
    "MAIN_LOOPER",
    "MethodContext",
    "PointerAnalysis",
    "PointsToResult",
    "RETURN_VAR",
    "SyntheticObject",
    "ViewObject",
    "analyze",
    "constant_message_fields",
    "make_selector",
]
