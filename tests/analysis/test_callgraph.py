"""Call graph structure and in-action (synchronous-only) reachability."""

import pickle

from repro.analysis.callgraph import CallGraph, MethodContext
from repro.ir.instructions import Invoke, InvokeKind
from repro.ir.program import Method


def node(name):
    return MethodContext(Method("t.C", name))


def site(name="callee"):
    return Invoke(None, InvokeKind.VIRTUAL, name, None)


class TestStructure:
    def test_add_node_and_entry(self):
        cg = CallGraph()
        n = node("m")
        assert cg.add_node(n)
        assert not cg.add_node(n)
        cg.add_entry(n)
        cg.add_entry(n)
        assert cg.entries == [n]

    def test_edges_deduped_by_site_and_via(self):
        cg = CallGraph()
        a, b = node("a"), node("b")
        s = site()
        assert cg.add_edge(a, s, b)
        assert not cg.add_edge(a, s, b)
        assert cg.add_edge(a, s, b, via="post")  # different via: new edge
        assert cg.edge_count() == 2

    def test_callees_at_filters_by_site(self):
        cg = CallGraph()
        a, b, c = node("a"), node("b"), node("c")
        s1, s2 = site("x"), site("y")
        cg.add_edge(a, s1, b)
        cg.add_edge(a, s2, c)
        assert cg.callees_at(a, s1) == [b]
        assert cg.callees_at(a, s2) == [c]

    def test_callers_and_in_edges(self):
        cg = CallGraph()
        a, b = node("a"), node("b")
        cg.add_edge(a, site(), b)
        assert cg.callers(b) == [a]
        assert cg.in_edges(b)[0].caller is a

    def test_contexts_of(self):
        cg = CallGraph()
        m = Method("t.C", "m")
        from repro.analysis.context import EMPTY_CONTEXT

        mc1 = MethodContext(m, EMPTY_CONTEXT.with_action(1))
        mc2 = MethodContext(m, EMPTY_CONTEXT.with_action(2))
        mc3 = MethodContext(m, EMPTY_CONTEXT.with_action(3))
        other = node("other")
        cg.add_node(mc2)
        cg.add_edge(mc1, site(), other)
        cg.add_node(mc3)
        cg.add_node(mc2)
        # insertion order, each node once; a copy, not the index itself
        assert cg.contexts_of(m) == [mc2, mc1, mc3]
        cg.contexts_of(m).clear()
        assert cg.contexts_of(m) == [mc2, mc1, mc3]
        assert cg.contexts_of(Method("t.C", "m")) == []

        restored = pickle.loads(pickle.dumps(cg))
        m2 = restored.nodes[0].method
        assert [mc.context for mc in restored.contexts_of(m2)] == [
            mc2.context,
            mc1.context,
            mc3.context,
        ]
        assert "_contexts" not in cg.__getstate__()
        restored.add_node(MethodContext(m2, EMPTY_CONTEXT.with_action(4)))
        assert len(restored.contexts_of(m2)) == 4


class TestReachability:
    def build(self):
        cg = CallGraph()
        a, b, c, d = node("a"), node("b"), node("c"), node("d")
        cg.add_edge(a, site(), b)  # synchronous
        cg.add_edge(b, site(), c, via="post")  # async boundary
        cg.add_edge(b, site(), d)  # synchronous
        return cg, a, b, c, d

    def test_full_reachability_crosses_posts(self):
        cg, a, b, c, d = self.build()
        assert set(cg.reachable_from([a])) == {a, b, c, d}

    def test_synchronous_only_stops_at_posts(self):
        cg, a, b, c, d = self.build()
        assert set(cg.reachable_from([a], synchronous_only=True)) == {a, b, d}

    def test_stop_set_blocks_entry(self):
        cg, a, b, c, d = self.build()
        assert set(cg.reachable_from([a], stop={b})) == {a}

    def test_roots_always_included(self):
        cg, a, b, c, d = self.build()
        assert set(cg.reachable_from([c], stop={c})) == {c}
