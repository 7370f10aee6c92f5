"""Interprocedural CFG restricted to one action (for HB rule 5).

Rule 5 (§4.3) asks a *de-facto domination* question: call sites e1, e2 live
in different methods of the same action; if removing e1 from the ICFG makes
e2 unreachable from the action entry, then e1 de-facto dominates e2 and the
actions they post are ordered.

We build the ICFG at instruction granularity — nodes are ``(method-context,
instruction-index)`` pairs — because e1 and e2 may share a basic block.
Call edges jump to the callee's first instruction; return edges come back to
the instruction *after* the call site.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, MethodContext
from repro.ir.instructions import Goto, If, Instruction, Invoke, Return
from repro.util.graph import Digraph

ICFGNode = Tuple[MethodContext, int]

#: virtual entry node for method-contexts with empty bodies
_EMPTY = -1


class ActionICFG:
    """The ICFG of the methods belonging to one action."""

    def __init__(self, call_graph: CallGraph, members: Iterable[MethodContext]):
        self.call_graph = call_graph
        self.members: Set[MethodContext] = set(members)
        self.graph: Digraph[ICFGNode] = Digraph()
        self._returns: Dict[MethodContext, List[int]] = {}
        for mc in self.members:
            self._add_method(mc)
        for mc in self.members:
            self._add_call_edges(mc)

    # ------------------------------------------------------------------
    def entry_node(self, mc: MethodContext) -> ICFGNode:
        if not mc.method.body:
            return (mc, _EMPTY)
        return (mc, 0)

    def exit_nodes(self, mc: MethodContext) -> List[ICFGNode]:
        """The method-context's return points (backward-walk start nodes)."""
        return [(mc, index) for index in self._returns.get(mc, [])]

    # ------------------------------------------------------------------
    def _add_method(self, mc: MethodContext) -> None:
        body = mc.method.body
        if not body:
            self.graph.add_node((mc, _EMPTY))
            self._returns[mc] = [_EMPTY]
            return
        cfg = mc.method.cfg
        index_of = {id(instr): i for i, instr in enumerate(body)}
        returns: List[int] = []
        for block in cfg.blocks:
            instrs = block.instructions
            for pos, instr in enumerate(instrs):
                node = (mc, index_of[id(instr)])
                self.graph.add_node(node)
                if isinstance(instr, Return):
                    returns.append(index_of[id(instr)])
                if pos + 1 < len(instrs) and not isinstance(instr, (Goto, Return)):
                    self.graph.add_edge(node, (mc, index_of[id(instrs[pos + 1])]))
            if instrs:
                last = (mc, index_of[id(instrs[-1])])
                if not isinstance(instrs[-1], Return):
                    for succ in cfg.successors(block):
                        first = self._first_instr(succ, cfg, index_of, mc)
                        if first is not None:
                            self.graph.add_edge(last, first)
        if not returns:
            # fall-off-the-end method: treat the final instruction as return
            returns.append(len(body) - 1)
        self._returns[mc] = returns

    def _first_instr(self, block, cfg, index_of, mc) -> Optional[ICFGNode]:
        cursor = block
        seen = set()
        while cursor is not None and id(cursor) not in seen:
            seen.add(id(cursor))
            if cursor.instructions:
                return (mc, index_of[id(cursor.instructions[0])])
            succs = cfg.successors(cursor)
            cursor = succs[0] if succs else None
        return None

    def _add_call_edges(self, mc: MethodContext) -> None:
        body = mc.method.body
        for index, instr in enumerate(body):
            if not isinstance(instr, Invoke):
                continue
            fallthroughs = [
                succ for succ in self.graph.successors((mc, index)) if succ[0] is mc
            ]
            linked = False
            for edge in self.call_graph.out_edges(mc):
                if edge.site is not instr or not edge.is_synchronous:
                    continue
                callee_mc = edge.callee
                if callee_mc not in self.members:
                    continue
                linked = True
                self.graph.add_edge((mc, index), self.entry_node(callee_mc))
                for ret_index in self._returns.get(callee_mc, ()):
                    for succ in fallthroughs:
                        self.graph.add_edge((callee_mc, ret_index), succ)
            if linked:
                # control must flow *through* the callee: the direct
                # fallthrough would let paths skip the called code and break
                # de-facto domination (rule 5)
                for succ in fallthroughs:
                    self.graph.remove_edge((mc, index), succ)

    # ------------------------------------------------------------------
    def sites_of_instruction(self, instr: Instruction) -> List[ICFGNode]:
        """Every ICFG node (one per member method-context) holding ``instr``."""
        out: List[ICFGNode] = []
        for mc in self.members:
            for index, candidate in enumerate(mc.method.body):
                if candidate is instr:
                    out.append((mc, index))
        return out

    def de_facto_dominates_all(
        self, entries: Iterable[MethodContext], e1s: List[ICFGNode], e2s: List[ICFGNode]
    ) -> bool:
        """Group form of rule 5: with *all* instances of e1 removed, is every
        instance of e2 unreachable from every action entry — while being
        reachable when e1 is present (no vacuous domination)?"""
        e1_set = set(e1s)
        if not e1s or not e2s or e1_set & set(e2s):
            return False
        reachable_with = set()
        reachable_without = set()
        for entry in entries:
            start = self.entry_node(entry)
            reachable_with |= self.graph.reachable_from(start)
            reachable_without |= self.graph.reachable_from(start, skip=e1_set)
        if not any(e2 in reachable_with for e2 in e2s):
            return False  # e2 never reachable: nothing to dominate
        return not any(e2 in reachable_without for e2 in e2s)
