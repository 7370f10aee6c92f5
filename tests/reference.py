"""Reference implementations the fast paths in ``src/`` are checked against.

Each is the plain version of one fixpoint the pipeline computes, kept
only as a test oracle:

* :class:`PassesAnalysis` — the points-to solve by whole-program passes
  (the production driver is the delta worklist of
  :class:`~repro.analysis.pointsto.PointerAnalysis`);
* :class:`NaiveTransitiveClosure` — the closure over per-node Python sets
  (production: the bit-row :class:`~repro.util.graph.TransitiveClosure`);
* :func:`reference_shbg` — the SHBG built over the naive closure, with
  HB rule 6 as the pairwise sweep (production: one bit-row subset probe
  per post pair in ``HBBuilder._rule6_fixpoint``).
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, List, Set, Tuple, TypeVar

from repro.analysis.pointsto import PointerAnalysis, PointsToResult
from repro.core.actions import Action
from repro.core.hb import SHBG, HBBuilder

N = TypeVar("N", bound=Hashable)


class PassesAnalysis(PointerAnalysis):
    """Re-interpret every reachable method-context until a pass changes
    nothing. Shares every transfer function with the worklist driver, so
    both must reach the same (unique) least fixpoint."""

    #: a safety net for a broken transfer function, never hit by a sound one
    MAX_PASSES = 200

    def solve(self) -> PointsToResult:
        for _ in range(self.MAX_PASSES):
            changed = False
            for mc in list(self._reachable):
                changed |= self._process_method(mc)
            if not changed:
                return PointsToResult(self)
        raise AssertionError(f"no fixpoint after {self.MAX_PASSES} passes")


class NaiveTransitiveClosure(Generic[N]):
    """Per-node ``set`` rows of descendants and ancestors; semantically
    identical to :class:`~repro.util.graph.TransitiveClosure`."""

    #: the bitset closure counts row merges; this one counts nothing
    ops = 0

    def __init__(self) -> None:
        self._after: Dict[N, Set[N]] = {}
        self._before: Dict[N, Set[N]] = {}

    def add_node(self, node: N) -> None:
        self._after.setdefault(node, set())
        self._before.setdefault(node, set())

    def add_edge(self, src: N, dst: N) -> bool:
        """Record ``src < dst``; returns True if the closure grew."""
        self.add_node(src)
        self.add_node(dst)
        if dst in self._after[src]:
            return False
        sources = self._before[src] | {src}
        targets = self._after[dst] | {dst}
        grew = False
        for a in sources:
            new = targets - self._after[a]
            if new:
                grew = True
                self._after[a] |= new
                for b in new:
                    self._before[b].add(a)
        return grew

    def ordered(self, a: N, b: N) -> bool:
        return b in self._after.get(a, ())

    def comparable(self, a: N, b: N) -> bool:
        return self.ordered(a, b) or self.ordered(b, a)

    def edge_count(self) -> int:
        return sum(len(afters) for afters in self._after.values())

    def closure_edges(self) -> Set[Tuple[N, N]]:
        return {(a, b) for a, afters in self._after.items() for b in afters}

    def nodes(self) -> List[N]:
        return list(self._after)


class _ReferenceHBBuilder(HBBuilder):
    def __init__(self, extraction) -> None:
        super().__init__(extraction)
        self.shbg = SHBG(extraction.actions, closure=NaiveTransitiveClosure())

    def _rule6_fixpoint(self) -> None:
        """Sweep every ordered post pair until a sweep adds nothing."""
        posts = self._fifo_posts()
        changed = True
        while changed:
            changed = False
            for p3 in posts:
                for p4 in posts:
                    if p3 is p4 or not p3.affinity.same_looper(p4.affinity):
                        continue
                    if self.shbg.ordered(p3.id, p4.id):
                        continue
                    if self._posters_ordered(p3, p4) and self.shbg.add(
                        p3.id, p4.id, "R6-transitivity"
                    ):
                        changed = True

    def _posters_ordered(self, p3: Action, p4: Action) -> bool:
        """Every poster of p3 strictly precedes every poster of p4 (the
        paper asks for one A1 ≺ A2; every pair keeps several posters
        sound, and A1 = A2 is never ordered)."""
        if not p3.parents or not p4.parents:
            return False
        return all(
            a1 != a2 and self.shbg.ordered(a1, a2)
            for a1 in p3.parents
            for a2 in p4.parents
        )


def reference_shbg(extraction) -> SHBG:
    """The SHBG of ``extraction`` over :class:`NaiveTransitiveClosure`,
    with rule 6 as the pairwise sweep."""
    return _ReferenceHBBuilder(extraction).build()
