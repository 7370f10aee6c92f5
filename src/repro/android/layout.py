"""Declarative layouts and view inflation (the DroidEL role).

Android apps declare GUI trees in XML; at runtime the framework *inflates*
them and the app retrieves widgets with ``findViewById(int id)``. Static
analysis cannot see through that reflection-backed lookup, which is why the
paper front-ends with DroidEL and adds the ``InflatedViewContext``: two
``findViewById`` results alias iff their constant ids match (§3.3).

Here a :class:`Layout` is a list of :class:`ViewDecl` rows (id, widget class,
optional statically-registered callback — the ``android:onClick`` idiom).
The :class:`LayoutRegistry` performs the id → declaration binding DroidEL
performs on real APKs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class ViewDecl:
    """One ``<Widget android:id="@+id/..."/>`` row of a layout file."""

    view_id: int
    widget_class: str
    id_name: str = ""
    #: (callback-kind api, handler method on the owning activity), e.g.
    #: ("onClick", "submitOrder") for android:onClick="submitOrder".
    static_callbacks: Tuple[Tuple[str, str], ...] = ()


@dataclass
class Layout:
    """A named layout: the inflation unit referenced by setContentView."""

    name: str
    views: List[ViewDecl] = field(default_factory=list)

    def __post_init__(self) -> None:
        # the owning registry's id index, shared rather than a reference
        # to the registry: registry -> layout -> registry would be a cycle
        # that only the cyclic garbage collector could free
        self._index: "Dict[int, ViewDecl] | None" = None

    def add_view(
        self,
        view_id: int,
        widget_class: str,
        id_name: str = "",
        static_callbacks: Tuple[Tuple[str, str], ...] = (),
    ) -> ViewDecl:
        decl = ViewDecl(
            view_id=view_id,
            widget_class=widget_class,
            id_name=id_name or f"id_{view_id}",
            static_callbacks=static_callbacks,
        )
        self.views.append(decl)
        if self._index is not None:
            _index_view(self._index, decl)
        return decl

    def view_by_id(self, view_id: int) -> Optional[ViewDecl]:
        for decl in self.views:
            if decl.view_id == view_id:
                return decl
        return None

    def __iter__(self) -> Iterator[ViewDecl]:
        return iter(self.views)


def _index_view(by_id: Dict[int, ViewDecl], decl: ViewDecl) -> None:
    existing = by_id.get(decl.view_id)
    if existing is not None and existing.widget_class != decl.widget_class:
        raise ValueError(
            f"view id {decl.view_id} declared as both "
            f"{existing.widget_class} and {decl.widget_class}"
        )
    by_id[decl.view_id] = decl


class LayoutRegistry:
    """All layouts of an app, with the global id → declaration map.

    Android resource ids are app-global, so the registry rejects the same id
    bound to two different widget classes — that would silently break the
    aliasing rule InflatedViewContext relies on.
    """

    def __init__(self) -> None:
        self._layouts: Dict[str, Layout] = {}
        self._by_id: Dict[int, ViewDecl] = {}

    def add_layout(self, layout: Layout) -> Layout:
        self._layouts[layout.name] = layout
        layout._index = self._by_id
        for decl in layout.views:
            _index_view(self._by_id, decl)
        return layout

    def new_layout(self, name: str) -> Layout:
        return self.add_layout(Layout(name))

    def layout(self, name: str) -> Layout:
        return self._layouts[name]

    def layouts(self) -> List[Layout]:
        return list(self._layouts.values())

    def resolve_view(self, view_id: int) -> Optional[ViewDecl]:
        """The DroidEL binding: constant id → declared view."""
        return self._by_id.get(view_id)

    def all_view_ids(self) -> List[int]:
        return sorted(self._by_id)

    def __len__(self) -> int:
        return len(self._layouts)
