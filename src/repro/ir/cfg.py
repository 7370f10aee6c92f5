"""Basic blocks and intraprocedural control-flow graphs.

A method body is a flat instruction list with symbolic labels; this module
partitions it into basic blocks, wires branch/fallthrough edges, and exposes
dominator queries. Dominance is load-bearing in SIERRA: HB rule 2 (lifecycle)
and rule 3 (GUI order) are phrased as CFG dominance inside the generated
harness, and rule 4 (intra-procedural post ordering) as dominance between
call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.ir.instructions import Goto, If, Instruction, Return
from repro.util.graph import Digraph


@dataclass(eq=False)
class BasicBlock:
    """A maximal straight-line instruction sequence.

    Identity semantics (``eq=False``): blocks are unique per CFG, and the
    dominator machinery keys dicts by them — value equality would be both
    wrong (equal-content blocks in different CFGs are different nodes) and
    inconsistent with the identity hash.
    """

    index: int
    instructions: List[Instruction] = field(default_factory=list)

    @property
    def label(self) -> Optional[str]:
        if self.instructions and self.instructions[0].label:
            return self.instructions[0].label
        return None

    def terminator(self) -> Optional[Instruction]:
        return self.instructions[-1] if self.instructions else None

    def __repr__(self) -> str:
        tag = self.label or f"bb{self.index}"
        return f"<BB {tag} n={len(self.instructions)}>"


class ControlFlowGraph:
    """CFG over :class:`BasicBlock` with entry/exit and dominator queries.

    A synthetic exit block (empty instruction list) is appended and every
    ``Return`` block (plus any fall-off-the-end block) is wired to it, so the
    backward symbolic executor always has a single place to start walking.
    """

    def __init__(self, instructions: List[Instruction]):
        self.blocks: List[BasicBlock] = []
        self.graph: Digraph[BasicBlock] = Digraph()
        self._by_label: Dict[str, BasicBlock] = {}
        self._build(instructions)
        # dominance numbering, built on the first query (the CFG never
        # mutates after _build, so the numbers stay valid)
        self._interval: Dict[BasicBlock, Tuple[int, int]] = {}
        self._position: Optional[Dict[int, Tuple[BasicBlock, int, int]]] = None

    # ------------------------------------------------------------------
    def _build(self, instructions: List[Instruction]) -> None:
        leaders = self._find_leaders(instructions)
        current: Optional[BasicBlock] = None
        for pos, instr in enumerate(instructions):
            if pos in leaders or current is None:
                current = BasicBlock(index=len(self.blocks))
                self.blocks.append(current)
                self.graph.add_node(current)
            current.instructions.append(instr)
            if instr.label:
                self._by_label[instr.label] = current
            if isinstance(instr, (Goto, If, Return)):
                current = None
        if not self.blocks:
            self.blocks.append(BasicBlock(index=0))
            self.graph.add_node(self.blocks[0])

        self.exit = BasicBlock(index=len(self.blocks))
        self.graph.add_node(self.exit)

        for i, block in enumerate(self.blocks):
            if block is self.exit:
                continue
            term = block.terminator()
            fallthrough = self.blocks[i + 1] if i + 1 < len(self.blocks) else self.exit
            if isinstance(term, Goto):
                self.graph.add_edge(block, self._target(term.target))
            elif isinstance(term, If):
                self.graph.add_edge(block, self._target(term.target))
                self.graph.add_edge(block, fallthrough)
            elif isinstance(term, Return):
                self.graph.add_edge(block, self.exit)
            else:
                self.graph.add_edge(block, fallthrough)
        self.blocks.append(self.exit)

    @staticmethod
    def _find_leaders(instructions: List[Instruction]) -> set:
        leaders = {0}
        labels = {
            instr.label: pos for pos, instr in enumerate(instructions) if instr.label
        }
        for pos, instr in enumerate(instructions):
            if isinstance(instr, (Goto, If)):
                target = labels.get(instr.target)
                if target is None:
                    raise ValueError(f"branch to unknown label {instr.target!r}")
                leaders.add(target)
                leaders.add(pos + 1)
            elif isinstance(instr, Return):
                leaders.add(pos + 1)
        return leaders

    def _target(self, label: str) -> BasicBlock:
        try:
            return self._by_label[label]
        except KeyError:
            raise ValueError(f"branch to unknown label {label!r}") from None

    # ------------------------------------------------------------------
    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def block_of_label(self, label: str) -> BasicBlock:
        return self._target(label)

    def successors(self, block: BasicBlock) -> List[BasicBlock]:
        return self.graph.successors(block)

    def predecessors(self, block: BasicBlock) -> List[BasicBlock]:
        return self.graph.predecessors(block)

    def block_containing(self, instr: Instruction) -> BasicBlock:
        return self._locate(instr)[0]

    def instructions(self) -> Iterator[Tuple[BasicBlock, Instruction]]:
        for block in self.blocks:
            for instr in block.instructions:
                yield block, instr

    # ------------------------------------------------------------------
    def _locate(self, instr: Instruction) -> Tuple[BasicBlock, int, int]:
        if self._position is None:
            self._number()
        try:
            return self._position[id(instr)]
        except KeyError:
            raise ValueError("instruction not in this CFG") from None

    def _number(self) -> None:
        """Number blocks and instructions once for O(1) dominance.

        Blocks get their dominator-tree interval ``(pre, last)``; each
        unreachable block follows as an interval of its own, so it
        dominates nothing but itself. With ``width`` above every block's
        length, the instruction at offset ``k`` of a block is numbered
        ``pre * width + k`` and its dominated range ends at ``last * width
        + width - 1``: ``a`` dominates ``b`` iff ``number(a) < number(b)
        <= end(a)`` — a later offset in a's block, or any offset in a block
        that a's block strictly dominates.
        """
        interval = self.graph.dominator_intervals(self.entry)
        for block in self.blocks:
            if block not in interval:
                interval[block] = (len(interval), len(interval))
        width = 1 + max(len(block.instructions) for block in self.blocks)
        position: Dict[int, Tuple[BasicBlock, int, int]] = {}
        for block in self.blocks:
            pre, last = interval[block]
            end = last * width + width - 1
            for offset, instr in enumerate(block.instructions):
                position[id(instr)] = (block, pre * width + offset, end)
        self._interval = interval
        self._position = position

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        if self._position is None:
            self._number()
        pre_a, last_a = self._interval[a]
        return pre_a <= self._interval[b][0] <= last_a

    def dominance_key(self, instr: Instruction) -> Tuple[int, int]:
        """``(number, end)`` of ``instr``: it dominates exactly the
        instructions numbered in ``(number, end]``. HB rules 2/3 read each
        harness site's key once and compare integers per pair."""
        _, number, end = self._locate(instr)
        return number, end

    def instruction_dominates(self, a: Instruction, b: Instruction) -> bool:
        """Does instruction ``a`` dominate instruction ``b``?

        Within one block this is positional; across blocks it is block
        dominance. Used directly by HB rule 4.
        """
        _, number_a, end_a = self._locate(a)
        return number_a < self._locate(b)[1] <= end_a
