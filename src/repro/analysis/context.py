"""Context abstractions for the pointer analysis (§3.3).

SIERRA's precision argument is that classical context abstractions — k-CFA
(call-site strings) and k-obj (allocation-site strings) — conflate objects
allocated in *different actions* once the context window k is exceeded. Its
**action-sensitive** abstraction pins the current action's id into every
context, so abstract objects from different actions never merge, regardless
of k. Within one action it falls back to hybrid sensitivity (k-obj for
virtual dispatch, k-CFA for static calls), following the paper.

Views get a second special abstraction, ``InflatedViewContext``: two
``findViewById(id)`` results alias iff the constant ids match, because the
framework inflates exactly one widget per id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union


@dataclass(frozen=True)
class CallSiteElement:
    """One call site: (caller method signature, instruction ordinal)."""

    method: str
    site: int

    def __repr__(self) -> str:
        return f"cs:{self.method}@{self.site}"


@dataclass(frozen=True)
class AllocSiteElement:
    """One allocation site: (allocating method signature, instruction ordinal)."""

    method: str
    site: int

    def __repr__(self) -> str:
        return f"alloc:{self.method}@{self.site}"


@dataclass(frozen=True)
class ActionElement:
    """The reified action id — the paper's novel context element."""

    action_id: int

    def __repr__(self) -> str:
        return f"act:{self.action_id}"


ContextElement = Union[CallSiteElement, AllocSiteElement, ActionElement]


@dataclass(frozen=True)
class Context:
    """An analysis context: optional pinned action + a bounded element string."""

    action: Optional[ActionElement] = None
    elements: Tuple[ContextElement, ...] = ()

    def with_action(self, action_id: int) -> "Context":
        return Context(action=ActionElement(action_id), elements=self.elements)

    def action_id(self) -> Optional[int]:
        return self.action.action_id if self.action else None

    def __post_init__(self) -> None:
        # Contexts key every points-to and call-graph dict; the generated
        # hash re-walks the element string each probe. Compute once (frozen).
        object.__setattr__(self, "_hash", hash((self.action, self.elements)))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # The memoised hash depends on the per-process str hash seed; a
        # pickled value would be self-consistent but disagree with hashes of
        # equal objects built in the loading process, silently corrupting
        # every dict keyed by a context. Drop it and recompute on load —
        # pickle runs __setstate__ before inserting the object into any
        # containing dict/set, so restored containers hash correctly.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __repr__(self) -> str:
        parts = ([repr(self.action)] if self.action else []) + [repr(e) for e in self.elements]
        return "[" + ",".join(parts) + "]"


EMPTY_CONTEXT = Context()


@dataclass(frozen=True)
class AbstractObject:
    """An abstract heap object: allocation site + heap context.

    Two abstract objects are aliased iff equal; the heap context is what the
    selectors below manipulate to implement each sensitivity flavour.
    """

    class_name: str
    alloc: AllocSiteElement
    heap_context: Context = EMPTY_CONTEXT

    def __post_init__(self) -> None:
        # Heap objects live in points-to sets that are unioned and probed
        # constantly; compute the deep hash once (frozen).
        object.__setattr__(
            self, "_hash", hash((self.class_name, self.alloc, self.heap_context))
        )

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # See Context.__getstate__: the memoised hash must not cross
        # process boundaries.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __repr__(self) -> str:
        return f"obj({self.class_name}@{self.alloc.method}:{self.alloc.site}){self.heap_context!r}"


@dataclass(frozen=True)
class ViewObject:
    """An inflated view, identified purely by its resource id (§3.3).

    All ``findViewById(id)`` results with the same constant id collapse to
    one :class:`ViewObject` — the InflatedViewContext rule.
    """

    view_id: int
    widget_class: str

    @property
    def class_name(self) -> str:
        return self.widget_class

    def __repr__(self) -> str:
        return f"view({self.widget_class}#{self.view_id})"


HeapObject = Union[AbstractObject, ViewObject]


class ContextSelector:
    """Strategy deciding callee contexts and heap contexts.

    ``virtual_callee_context`` is consulted for dynamically-dispatched calls
    (receiver object available); ``static_callee_context`` for static and
    special calls (call site available); ``heap_context`` when abstracting a
    ``new`` site inside a given method context.
    """

    name = "abstract"

    def virtual_callee_context(
        self, caller: Context, site: CallSiteElement, receiver: HeapObject
    ) -> Context:
        raise NotImplementedError

    def static_callee_context(self, caller: Context, site: CallSiteElement) -> Context:
        raise NotImplementedError

    def heap_context(self, allocator: Context, site: AllocSiteElement) -> Context:
        raise NotImplementedError

    def entry_context(self, action_id: Optional[int]) -> Context:
        """Context for an action/harness entry method."""
        ctx = EMPTY_CONTEXT
        if action_id is not None and self.uses_actions():
            ctx = ctx.with_action(action_id)
        return ctx

    def uses_actions(self) -> bool:
        return False


def _truncate(elements: Tuple[ContextElement, ...], k: int) -> Tuple[ContextElement, ...]:
    """Keep the most recent k elements (the classical merging step); k = 0
    keeps none, which is context-insensitive."""
    return elements[-k:] if k > 0 else ()


class InsensitiveSelector(ContextSelector):
    """Context-insensitive baseline (everything merges)."""

    name = "insensitive"

    def virtual_callee_context(self, caller, site, receiver):
        return EMPTY_CONTEXT

    def static_callee_context(self, caller, site):
        return EMPTY_CONTEXT

    def heap_context(self, allocator, site):
        return EMPTY_CONTEXT


class KCfaSelector(ContextSelector):
    """Classical k-CFA: contexts are the last k call sites."""

    name = "kcfa"

    def __init__(self, k: int = 2):
        self.k = k

    def virtual_callee_context(self, caller, site, receiver):
        return Context(elements=_truncate(caller.elements + (site,), self.k))

    def static_callee_context(self, caller, site):
        return Context(elements=_truncate(caller.elements + (site,), self.k))

    def heap_context(self, allocator, site):
        return Context(elements=_truncate(allocator.elements, self.k))


class KObjSelector(ContextSelector):
    """Classical k-obj: contexts are the last k receiver allocation sites."""

    name = "kobj"

    def __init__(self, k: int = 2):
        self.k = k

    def virtual_callee_context(self, caller, site, receiver):
        if isinstance(receiver, AbstractObject):
            elems = receiver.heap_context.elements + (receiver.alloc,)
        else:  # views carry no allocation string
            elems = caller.elements
        return Context(elements=_truncate(elems, self.k))

    def static_callee_context(self, caller, site):
        # k-obj has no story for static calls; inherit the caller context.
        return Context(elements=caller.elements)

    def heap_context(self, allocator, site):
        return Context(elements=_truncate(allocator.elements, self.k))


class HybridSelector(ContextSelector):
    """Hybrid sensitivity: k-obj for dispatched calls, k-CFA for static ones
    (the within-action scheme the paper composes action ids with)."""

    name = "hybrid"

    def __init__(self, k: int = 2):
        self.k = k

    def virtual_callee_context(self, caller, site, receiver):
        if isinstance(receiver, AbstractObject):
            elems = receiver.heap_context.elements + (receiver.alloc,)
        else:
            elems = caller.elements
        return Context(action=caller.action, elements=_truncate(elems, self.k))

    def static_callee_context(self, caller, site):
        return Context(
            action=caller.action, elements=_truncate(caller.elements + (site,), self.k)
        )

    def heap_context(self, allocator, site):
        return Context(action=allocator.action, elements=_truncate(allocator.elements, self.k))


class ActionSensitiveSelector(HybridSelector):
    """The paper's abstraction: hybrid sensitivity *plus* the pinned action id.

    The action element survives every truncation (it is stored out-of-band in
    :attr:`Context.action`), so two objects allocated by the same code in
    different actions keep distinct heap contexts no matter how long the call
    chain grows — exactly the ``foo()/bar()`` scenario of §3.3.
    """

    name = "action"

    def uses_actions(self) -> bool:
        return True


def make_selector(name: str, k: int = 2) -> ContextSelector:
    """Factory used by benches to sweep abstractions by name."""
    selectors = {
        "insensitive": lambda: InsensitiveSelector(),
        "kcfa": lambda: KCfaSelector(k),
        "kobj": lambda: KObjSelector(k),
        "hybrid": lambda: HybridSelector(k),
        "action": lambda: ActionSensitiveSelector(k),
    }
    try:
        return selectors[name]()
    except KeyError:
        raise ValueError(f"unknown selector {name!r}; choose from {sorted(selectors)}") from None
