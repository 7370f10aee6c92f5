"""A small directed-graph library.

The reproduction needs exactly four graph facilities, all provided here:

* adjacency bookkeeping (:class:`Digraph`),
* reachability queries (used by HB rule 5 and Handler/Looper affinity),
* dominator trees (used by HB rules 2-4 and the harness lifecycle model),
* transitive closure (used to saturate the Static Happens-Before Graph).

``networkx`` is available in the environment but the SHBG fixpoint of HB
rule 6 interleaves closure with edge discovery, which is much easier to
express against our own mutable closure representation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generic, Hashable, Iterable, Iterator, List, Optional, Set, Tuple, TypeVar, Union

N = TypeVar("N", bound=Hashable)


class Digraph(Generic[N]):
    """A mutable directed graph over hashable nodes.

    Nodes are kept in insertion order so every traversal (and therefore every
    analysis result downstream) is deterministic. Adjacency is a dict of
    dicts: membership tests and edge insertion/removal are O(1) while dict
    insertion order preserves the old list semantics of ``successors`` /
    ``predecessors``.
    """

    def __init__(self) -> None:
        self._succ: Dict[N, Dict[N, None]] = {}
        self._pred: Dict[N, Dict[N, None]] = {}
        # start-node -> frozen reachable set, for the hot no-skip query
        # (HB rule 5 runs it repeatedly on an immutable ICFG)
        self._reach_cache: Dict[N, frozenset] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: N) -> None:
        """Insert ``node`` if it is not already present."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_edge(self, src: N, dst: N) -> bool:
        """Insert the edge ``src -> dst``; return True if it was new."""
        self.add_node(src)
        self.add_node(dst)
        if dst in self._succ[src]:
            return False
        self._succ[src][dst] = None
        self._pred[dst][src] = None
        if self._reach_cache:
            self._reach_cache.clear()
        return True

    def remove_edge(self, src: N, dst: N) -> None:
        """Remove the edge ``src -> dst`` if present."""
        if src in self._succ and dst in self._succ[src]:
            del self._succ[src][dst]
            del self._pred[dst][src]
            if self._reach_cache:
                self._reach_cache.clear()

    def copy(self) -> "Digraph[N]":
        clone: Digraph[N] = Digraph()
        for node in self._succ:
            clone.add_node(node)
        for src, dsts in self._succ.items():
            for dst in dsts:
                clone.add_edge(src, dst)
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, node: N) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    @property
    def nodes(self) -> List[N]:
        return list(self._succ)

    def edges(self) -> Iterator[Tuple[N, N]]:
        for src, dsts in self._succ.items():
            for dst in dsts:
                yield src, dst

    def edge_count(self) -> int:
        return sum(len(dsts) for dsts in self._succ.values())

    def successors(self, node: N) -> List[N]:
        return list(self._succ.get(node, ()))

    def predecessors(self, node: N) -> List[N]:
        return list(self._pred.get(node, ()))

    def has_edge(self, src: N, dst: N) -> bool:
        return dst in self._succ.get(src, ())

    def reachable_from(
        self, start: N, skip: Union[None, N, Set[N]] = None
    ) -> Set[N]:
        """Every node reachable from ``start`` (including it).

        ``skip`` omits one node (or a set of nodes) entirely, emulating node
        removal: this is how HB rule 5 tests de-facto domination ("remove e1,
        is e2 still reachable?") without mutating the graph. The no-skip
        answer is memoised until the next edge mutation.
        """
        if skip is None or (isinstance(skip, set) and not skip):
            cached = self._reach_cache.get(start)
            if cached is None:
                cached = frozenset(self._bfs(start, frozenset()))
                self._reach_cache[start] = cached
            return set(cached)
        skip_set: Set[N] = skip if isinstance(skip, set) else {skip}
        return self._bfs(start, skip_set)

    def _bfs(self, start: N, skip_set: Set[N]) -> Set[N]:
        if start not in self._succ or start in skip_set:
            return set()
        seen = {start}
        worklist = deque([start])
        while worklist:
            node = worklist.popleft()
            for nxt in self._succ[node]:
                if nxt in skip_set or nxt in seen:
                    continue
                seen.add(nxt)
                worklist.append(nxt)
        return seen

    def can_reach(self, src: N, dst: N, skip: Union[None, N, Set[N]] = None) -> bool:
        return dst in self.reachable_from(src, skip=skip)

    # ------------------------------------------------------------------
    # dominators
    # ------------------------------------------------------------------
    def immediate_dominators(self, entry: N) -> Dict[N, N]:
        """Immediate dominators for every node reachable from ``entry``.

        Implements Cooper/Harvey/Kennedy's iterative algorithm. The entry
        node maps to itself. Unreachable nodes are absent from the result.
        """
        if entry not in self._succ:
            raise KeyError(f"entry {entry!r} not in graph")
        order = self._reverse_postorder(entry)
        index = {node: i for i, node in enumerate(order)}
        idom: Dict[N, N] = {entry: entry}

        def intersect(a: N, b: N) -> N:
            while a != b:
                while index[a] > index[b]:
                    a = idom[a]
                while index[b] > index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for node in order:
                if node == entry:
                    continue
                preds = [p for p in self._pred[node] if p in idom]
                if not preds:
                    continue
                new_idom = preds[0]
                for pred in preds[1:]:
                    new_idom = intersect(pred, new_idom)
                if idom.get(node) != new_idom:
                    idom[node] = new_idom
                    changed = True
        return idom

    def dominator_intervals(self, entry: N) -> Dict[N, Tuple[int, int]]:
        """``(pre, last)`` for every node reachable from ``entry``, in
        preorder of one DFS over the dominator tree.

        ``last`` is the largest preorder number in the node's subtree, so
        ``a`` dominates ``b`` iff ``pre(a) <= pre(b) <= last(a)``: every
        dominance query after this is two integer comparisons. Unreachable
        nodes are absent, as in :meth:`immediate_dominators`.
        """
        idom = self.immediate_dominators(entry)
        children: Dict[N, List[N]] = {node: [] for node in idom}
        for node, parent in idom.items():
            if node != entry:
                children[parent].append(node)
        order: List[N] = []
        stack = [entry]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(children[node]))
        pre = {node: i for i, node in enumerate(order)}
        last = dict(pre)
        # children follow their parent in preorder, so a reverse sweep
        # finishes every subtree before its root reads it
        for node in reversed(order):
            if node != entry:
                parent = idom[node]
                last[parent] = max(last[parent], last[node])
        return {node: (pre[node], last[node]) for node in order}

    def _reverse_postorder(self, entry: N) -> List[N]:
        seen: Set[N] = set()
        post: List[N] = []
        # Iterative DFS so deep synthetic CFGs cannot overflow the stack.
        stack: List[Tuple[N, Iterator[N]]] = [(entry, iter(self._succ[entry]))]
        seen.add(entry)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(self._succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                post.append(node)
        post.reverse()
        return post


class TransitiveClosure(Generic[N]):
    """An incrementally-maintained transitive closure of a relation.

    The SHBG alternates between adding HB edges (rules 1-6) and querying
    orderedness; rule 6 in particular discovers new edges from closed ones,
    so the closure must stay consistent after every insertion.

    Nodes are mapped to a dense integer index; per node we keep the full
    descendant ("after") and ancestor ("before") sets as arbitrary-precision
    integer bit-rows. ``ordered``/``comparable`` are single shift-and-mask
    probes, ``add_edge`` propagates by masked OR over the affected ancestor
    rows, and edge counting is popcount-based — no edge set is ever
    materialized unless :meth:`closure_edges` is explicitly asked for.
    """

    def __init__(self) -> None:
        self._index: Dict[N, int] = {}
        self._node_list: List[N] = []
        self._after: List[int] = []
        self._before: List[int] = []
        #: row-merge operations performed by add_edge (perf counter)
        self.ops = 0

    def add_node(self, node: N) -> int:
        idx = self._index.get(node)
        if idx is None:
            idx = len(self._node_list)
            self._index[node] = idx
            self._node_list.append(node)
            self._after.append(0)
            self._before.append(0)
        return idx

    def add_edge(self, src: N, dst: N) -> bool:
        """Record ``src < dst``; returns True if the closure grew."""
        s = self.add_node(src)
        d = self.add_node(dst)
        after = self._after
        before = self._before
        if (after[s] >> d) & 1:
            return False
        # every ancestor of src (and src itself) now precedes every
        # descendant of dst (and dst itself); because the rows are kept
        # transitively closed, an ancestor that already reaches dst already
        # holds all of ``targets`` (and symmetrically for descendants), so
        # each affected row takes exactly one masked OR
        sources = before[s] | (1 << s)
        targets = after[d] | (1 << d)
        # an ancestor already reaching dst is exactly a bit of before[dst],
        # so the affected rows fall out of two masks computed up front
        a_mask = sources & ~before[d]
        b_mask = targets & ~after[s]
        while a_mask:
            low = a_mask & -a_mask
            a_mask ^= low
            after[low.bit_length() - 1] |= targets
            self.ops += 1
        while b_mask:
            low = b_mask & -b_mask
            b_mask ^= low
            before[low.bit_length() - 1] |= sources
        return True

    def ordered(self, a: N, b: N) -> bool:
        """Is ``a < b`` in the closure?"""
        ia = self._index.get(a)
        ib = self._index.get(b)
        if ia is None or ib is None:
            return False
        return (self._after[ia] >> ib) & 1 == 1

    # ------------------------------------------------------------------
    # bulk bit-row access — lets clients fuse many ordered() probes into a
    # handful of big-int operations (the SHBG's rule-6 fixpoint does this)
    # ------------------------------------------------------------------
    def index_of(self, node: N) -> Optional[int]:
        """Dense bit index of ``node`` (bit positions in the row masks)."""
        return self._index.get(node)

    def row_after(self, node: N) -> int:
        """Bit-row of ``node``'s strict descendants, as an int mask."""
        idx = self._index.get(node)
        return self._after[idx] if idx is not None else 0

    def row_before(self, node: N) -> int:
        """Bit-row of ``node``'s strict ancestors, as an int mask."""
        idx = self._index.get(node)
        return self._before[idx] if idx is not None else 0

    def comparable(self, a: N, b: N) -> bool:
        """Are ``a`` and ``b`` ordered either way?"""
        ia = self._index.get(a)
        ib = self._index.get(b)
        if ia is None or ib is None:
            return False
        return (((self._after[ia] >> ib) | (self._after[ib] >> ia)) & 1) == 1

    def members(self, mask: int) -> List[N]:
        """The nodes of a bit-row mask, in index (insertion) order."""
        nodes = self._node_list
        out: List[N] = []
        while mask:
            low = mask & -mask
            mask ^= low
            out.append(nodes[low.bit_length() - 1])
        return out

    def edge_count(self) -> int:
        """Ordered pairs in the closure, by popcount (no materialization)."""
        return sum(row.bit_count() for row in self._after)

    def closure_edges(self) -> Set[Tuple[N, N]]:
        nodes = self._node_list
        out: Set[Tuple[N, N]] = set()
        for i, row in enumerate(self._after):
            a = nodes[i]
            while row:
                low = row & -row
                row ^= low
                out.add((a, nodes[low.bit_length() - 1]))
        return out

    def nodes(self) -> List[N]:
        return list(self._node_list)

    def has_cycle(self) -> bool:
        return any((row >> i) & 1 for i, row in enumerate(self._after))
