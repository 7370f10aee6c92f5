"""Digraph, dominators, transitive closure."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.graph import Digraph, TransitiveClosure
from tests.reference import NaiveTransitiveClosure


def chain(*nodes):
    g = Digraph()
    for a, b in zip(nodes, nodes[1:]):
        g.add_edge(a, b)
    return g


def dominates(idom, a, b):
    """Reference dominance: walk ``b``'s immediate-dominator chain looking
    for ``a``. A node absent from ``idom`` (unreachable) is dominated only
    by itself. The oracle for :meth:`Digraph.dominator_intervals` and
    ``ControlFlowGraph.instruction_dominates``."""
    if a == b:
        return True
    node = b
    while node in idom and idom[node] != node:
        node = idom[node]
        if node == a:
            return True
    return False


def interval_dominates(intervals, a, b):
    """Dominance read off :meth:`Digraph.dominator_intervals`, with the
    oracle's convention for unreachable nodes."""
    if a == b:
        return True
    if a not in intervals or b not in intervals:
        return False
    pre_a, last_a = intervals[a]
    return pre_a <= intervals[b][0] <= last_a


class TestDigraphBasics:
    def test_add_node_idempotent(self):
        g = Digraph()
        g.add_node("a")
        g.add_node("a")
        assert g.nodes == ["a"]

    def test_add_edge_returns_new_flag(self):
        g = Digraph()
        assert g.add_edge("a", "b") is True
        assert g.add_edge("a", "b") is False

    def test_edge_count_and_edges(self):
        g = chain(1, 2, 3)
        assert g.edge_count() == 2
        assert set(g.edges()) == {(1, 2), (2, 3)}

    def test_successors_predecessors(self):
        g = Digraph()
        g.add_edge("a", "b")
        g.add_edge("a", "c")
        assert g.successors("a") == ["b", "c"]
        assert g.predecessors("c") == ["a"]
        assert g.successors("missing") == []

    def test_remove_edge(self):
        g = chain("a", "b")
        g.remove_edge("a", "b")
        assert not g.has_edge("a", "b")
        g.remove_edge("a", "b")  # idempotent

    def test_copy_is_independent(self):
        g = chain(1, 2)
        h = g.copy()
        h.add_edge(2, 3)
        assert not g.has_edge(2, 3)
        assert h.has_edge(1, 2)

    def test_contains_and_len(self):
        g = chain("x", "y")
        assert "x" in g and "z" not in g
        assert len(g) == 2

    def test_node_order_is_insertion_order(self):
        g = Digraph()
        for n in ("c", "a", "b"):
            g.add_node(n)
        assert g.nodes == ["c", "a", "b"]


class TestReachability:
    def test_reachable_includes_start(self):
        g = chain(1, 2, 3)
        assert g.reachable_from(1) == {1, 2, 3}
        assert g.reachable_from(3) == {3}

    def test_skip_single_node(self):
        g = chain(1, 2, 3)
        assert g.reachable_from(1, skip=2) == {1}

    def test_skip_set(self):
        g = Digraph()
        g.add_edge(1, 2)
        g.add_edge(1, 3)
        g.add_edge(2, 4)
        g.add_edge(3, 4)
        assert 4 in g.reachable_from(1, skip={2})
        assert 4 not in g.reachable_from(1, skip={2, 3})

    def test_skip_start_returns_empty(self):
        g = chain(1, 2)
        assert g.reachable_from(1, skip=1) == set()

    def test_can_reach_on_cycle(self):
        g = chain(1, 2, 3)
        g.add_edge(3, 1)
        assert g.can_reach(2, 1)
        assert not g.can_reach(2, 1, skip=3)


class TestDominators:
    def test_straight_line(self):
        g = chain("e", "a", "b")
        idom = g.immediate_dominators("e")
        assert idom["b"] == "a" and idom["a"] == "e" and idom["e"] == "e"

    def test_diamond(self):
        g = Digraph()
        for a, b in [("e", "l"), ("e", "r"), ("l", "j"), ("r", "j")]:
            g.add_edge(a, b)
        idom = g.immediate_dominators("e")
        assert idom["j"] == "e"
        intervals = g.dominator_intervals("e")
        assert interval_dominates(intervals, "e", "j")
        assert not interval_dominates(intervals, "l", "j")
        assert dominates(idom, "e", "j") and not dominates(idom, "l", "j")

    def test_loop_header_dominates_body(self):
        g = Digraph()
        g.add_edge("e", "h")
        g.add_edge("h", "b")
        g.add_edge("b", "h")
        g.add_edge("h", "x")
        intervals = g.dominator_intervals("e")
        assert interval_dominates(intervals, "h", "b")
        assert interval_dominates(intervals, "h", "x")
        assert not interval_dominates(intervals, "b", "x")

    def test_unreachable_nodes_absent(self):
        g = chain(1, 2)
        g.add_node(99)
        idom = g.immediate_dominators(1)
        assert 99 not in idom
        assert 99 not in g.dominator_intervals(1)

    def test_unknown_entry_raises(self):
        g = chain(1, 2)
        with pytest.raises(KeyError):
            g.immediate_dominators(42)
        with pytest.raises(KeyError):
            g.dominator_intervals(42)

    def test_self_domination(self):
        g = chain(1, 2)
        idom = g.immediate_dominators(1)
        assert dominates(idom, 2, 2)
        assert interval_dominates(g.dominator_intervals(1), 2, 2)

    def test_intervals_are_preorder(self):
        g = Digraph()
        for a, b in [("e", "a"), ("e", "b"), ("a", "c"), ("b", "c")]:
            g.add_edge(a, b)
        intervals = g.dominator_intervals("e")
        assert list(intervals) == sorted(intervals, key=lambda n: intervals[n][0])
        assert intervals["e"] == (0, 3)
        assert sorted(pre for pre, _ in intervals.values()) == [0, 1, 2, 3]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=25))
    def test_dominators_match_bruteforce(self, edges):
        """Dominance(a, b) iff every entry→b path passes a — checked by
        enumerating acyclic simple paths on small random graphs (self-loops
        and unreachable nodes included), for the interval numbering and
        the idom-chain oracle alike."""
        g = Digraph()
        g.add_node(0)
        for a, b in edges:
            g.add_edge(a, b)
        idom = g.immediate_dominators(0)
        intervals = g.dominator_intervals(0)
        reachable = g.reachable_from(0)
        assert set(intervals) == reachable

        def all_paths(target, limit=4000):
            paths, stack = [], [(0, [0])]
            while stack and len(paths) < limit:
                node, path = stack.pop()
                if node == target:
                    paths.append(path)
                    continue
                for nxt in g.successors(node):
                    if nxt not in path:
                        stack.append((nxt, path + [nxt]))
            return paths

        for b in sorted(reachable):
            paths = all_paths(b)
            for a in sorted(reachable):
                brute = all(a in p for p in paths) if paths else True
                assert dominates(idom, a, b) == brute
                assert interval_dominates(intervals, a, b) == brute
        for a in g.nodes:
            for b in g.nodes:
                assert interval_dominates(intervals, a, b) == dominates(idom, a, b)


class TestTransitiveClosure:
    def test_direct_and_derived(self):
        tc = TransitiveClosure()
        tc.add_edge(1, 2)
        tc.add_edge(2, 3)
        assert tc.ordered(1, 3)
        assert not tc.ordered(3, 1)
        assert tc.comparable(3, 1)

    def test_incremental_back_propagation(self):
        tc = TransitiveClosure()
        tc.add_edge(2, 3)
        tc.add_edge(1, 2)  # added after: must still close 1<3
        assert tc.ordered(1, 3)

    def test_add_edge_growth_flag(self):
        tc = TransitiveClosure()
        assert tc.add_edge(1, 2) is True
        assert tc.add_edge(1, 2) is False
        tc.add_edge(2, 3)
        assert tc.add_edge(1, 3) is False  # already implied transitively

    def test_bridge_edge_joins_two_chains(self):
        tc = TransitiveClosure()
        tc.add_edge(1, 2)
        tc.add_edge(3, 4)
        tc.add_edge(2, 3)
        for a, b in itertools.combinations([1, 2, 3, 4], 2):
            assert tc.ordered(a, b)

    def test_cycle_detection(self):
        tc = TransitiveClosure()
        tc.add_edge(1, 2)
        assert not tc.has_cycle()
        tc.add_edge(2, 1)
        assert tc.has_cycle()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20))
    def test_closure_is_transitive(self, edges):
        tc = TransitiveClosure()
        for a, b in edges:
            tc.add_edge(a, b)
        nodes = tc.nodes()
        for a in nodes:
            for b in nodes:
                for c in nodes:
                    if tc.ordered(a, b) and tc.ordered(b, c):
                        assert tc.ordered(a, c)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20))
    def test_closure_matches_reachability(self, edges):
        tc = TransitiveClosure()
        g = Digraph()
        for a, b in edges:
            tc.add_edge(a, b)
            g.add_edge(a, b)
        for a in g.nodes:
            for b in g.nodes:
                expected = b in g.reachable_from(a) and not (
                    a == b and not g.has_edge(a, a) and not any(
                        a in g.reachable_from(s) for s in g.successors(a)
                    )
                )
                if a == b:
                    continue  # self-order only via cycles; covered elsewhere
                assert tc.ordered(a, b) == (b in g.reachable_from(a))


class TestClosureAgainstFloydWarshall:
    """The bitset closure vs a Floyd-Warshall oracle (and the naive
    reference) on hundreds of random DAGs with randomized insertion order."""

    @staticmethod
    def _floyd_warshall(n, edges):
        reach = [[False] * n for _ in range(n)]
        for a, b in edges:
            reach[a][b] = True
        for k in range(n):
            rk = reach[k]
            for i in range(n):
                if reach[i][k]:
                    ri = reach[i]
                    for j in range(n):
                        if rk[j]:
                            ri[j] = True
        return reach

    def test_random_dags_match_oracle(self):
        rng = random.Random(0x51E88A)
        for trial in range(220):
            n = rng.randint(2, 14)
            # i < j only: guaranteed acyclic regardless of density
            candidates = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = rng.sample(candidates, rng.randint(0, len(candidates)))
            rng.shuffle(edges)  # incremental order must not matter

            oracle = self._floyd_warshall(n, edges)
            bitset = TransitiveClosure()
            naive = NaiveTransitiveClosure()
            for a, b in edges:
                grew_b = bitset.add_edge(a, b)
                grew_n = naive.add_edge(a, b)
                assert grew_b == grew_n, (trial, a, b)

            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    expected = oracle[a][b]
                    assert bitset.ordered(a, b) == expected, (trial, a, b)
                    assert naive.ordered(a, b) == expected, (trial, a, b)
                    assert bitset.comparable(a, b) == (
                        oracle[a][b] or oracle[b][a]
                    ), (trial, a, b)
            assert bitset.closure_edges() == naive.closure_edges(), trial
            assert bitset.edge_count() == naive.edge_count(), trial

    def test_row_accessors_mirror_ordered(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 12)
            candidates = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = rng.sample(candidates, rng.randint(1, len(candidates)))
            tc = TransitiveClosure()
            for a, b in edges:
                tc.add_edge(a, b)
            for a in tc.nodes():
                after = tc.row_after(a)
                before = tc.row_before(a)
                for b in tc.nodes():
                    idx = tc.index_of(b)
                    assert (after >> idx) & 1 == int(tc.ordered(a, b))
                    assert (before >> idx) & 1 == int(tc.ordered(b, a))

    def test_row_accessors_unknown_node(self):
        tc = TransitiveClosure()
        tc.add_edge("a", "b")
        assert tc.index_of("zzz") is None
        assert tc.row_after("zzz") == 0
        assert tc.row_before("zzz") == 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    max_size=30))
    def test_arbitrary_edge_lists_match_naive(self, edges):
        # not restricted to DAGs: cycles must agree too
        bitset = TransitiveClosure()
        naive = NaiveTransitiveClosure()
        for a, b in edges:
            assert bitset.add_edge(a, b) == naive.add_edge(a, b)
        for a in bitset.nodes():
            for b in bitset.nodes():
                assert bitset.ordered(a, b) == naive.ordered(a, b)
        assert bitset.closure_edges() == naive.closure_edges()
