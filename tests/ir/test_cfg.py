"""Basic-block construction and CFG dominance."""

import pytest

from repro.cli import load_app
from repro.core.harness import generate_harnesses
from repro.ir.builder import ProgramBuilder
from repro.ir.cfg import ControlFlowGraph
from repro.ir.instructions import CmpOp
from tests.util.test_graph import dominates


def build_method(emit):
    pb = ProgramBuilder()
    cls = pb.new_class("t.C")
    mb = cls.method("m")
    emit(mb)
    return mb.method


class TestBlockConstruction:
    def test_straight_line_single_block(self):
        m = build_method(lambda b: (b.const("x", 1), b.const("y", 2), b.ret()))
        cfg = m.cfg
        # one real block + synthetic exit
        real = [blk for blk in cfg.blocks if blk is not cfg.exit]
        assert len(real) == 1
        assert len(real[0].instructions) == 3

    def test_branch_splits_blocks(self):
        def emit(b):
            b.const("c", True)
            b.if_true("c", "then")
            b.const("x", 1)
            b.ret()
            b.label("then").const("x", 2)
            b.ret()

        cfg = build_method(emit).cfg
        real = [blk for blk in cfg.blocks if blk is not cfg.exit]
        assert len(real) == 3

    def test_if_has_two_successors(self):
        def emit(b):
            b.const("c", True)
            b.if_true("c", "end")
            b.const("x", 1)
            b.label("end").ret()

        cfg = build_method(emit).cfg
        branch_block = cfg.blocks[0]
        assert len(cfg.successors(branch_block)) == 2

    def test_return_connects_to_exit(self):
        cfg = build_method(lambda b: b.ret()).cfg
        assert cfg.exit in cfg.successors(cfg.blocks[0])

    def test_goto_edge(self):
        def emit(b):
            b.goto("end")
            b.label("end").ret()

        cfg = build_method(emit).cfg
        target = cfg.block_of_label("end")
        assert target in cfg.successors(cfg.blocks[0])

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError, match="unknown label"):
            build_method(lambda b: (b.goto("nowhere"),)).cfg

    def test_empty_method_has_entry(self):
        m = build_method(lambda b: None)
        assert m.cfg.entry is not None

    def test_loop_backedge(self):
        def emit(b):
            b.label("head").const("c", True)
            b.if_true("c", "head")
            b.ret()

        cfg = build_method(emit).cfg
        head = cfg.block_of_label("head")
        assert head in cfg.successors(head) or any(
            head in cfg.successors(s) for s in cfg.successors(head)
        )


class TestInstructionDominance:
    def test_sequential_same_block(self):
        pb = ProgramBuilder()
        mb = pb.new_class("t.C").method("m")
        first = mb.const("x", 1)
        second = mb.const("y", 2)
        mb.ret()
        cfg = mb.method.cfg
        assert cfg.instruction_dominates(first, second)
        assert not cfg.instruction_dominates(second, first)

    def test_across_branch(self):
        pb = ProgramBuilder()
        mb = pb.new_class("t.C").method("m")
        head = mb.const("c", True)
        mb.if_true("c", "alt")
        left = mb.const("x", 1)
        mb.ret()
        mb.label("alt")
        right = mb.const("x", 2)
        mb.ret()
        cfg = mb.method.cfg
        assert cfg.instruction_dominates(head, left)
        assert cfg.instruction_dominates(head, right)
        assert not cfg.instruction_dominates(left, right)

    def test_block_containing_unknown_instruction(self):
        from repro.ir.instructions import Nop

        cfg = build_method(lambda b: b.ret()).cfg
        with pytest.raises(ValueError):
            cfg.block_containing(Nop())

    def test_unreachable_block_dominates_only_within_itself(self):
        pb = ProgramBuilder()
        mb = pb.new_class("t.C").method("m")
        head = mb.const("x", 1)
        early = mb.ret()
        dead1 = mb.const("y", 2)
        dead2 = mb.const("z", 3)
        mb.ret()
        cfg = mb.method.cfg
        dead = cfg.block_containing(dead1)
        assert dead is cfg.block_containing(dead2)
        assert cfg.instruction_dominates(dead1, dead2)
        assert not cfg.instruction_dominates(dead2, dead1)
        assert not cfg.instruction_dominates(head, dead1)
        assert not cfg.instruction_dominates(dead1, early)
        assert cfg.instruction_dominates(head, early)
        assert cfg.dominates(dead, dead)
        assert not cfg.dominates(cfg.entry, dead)
        assert not cfg.dominates(dead, cfg.exit)

    def test_an_instruction_does_not_dominate_itself(self):
        pb = ProgramBuilder()
        mb = pb.new_class("t.C").method("m")
        only = mb.const("x", 1)
        mb.ret()
        cfg = mb.method.cfg
        assert not cfg.instruction_dominates(only, only)
        assert cfg.dominates(cfg.entry, cfg.entry)


class TestDominatorsOnHarnessShape:
    """The lifecycle-harness CFG shape that HB rule 2 relies on."""

    def emit_harness_like(self, b):
        b.const("create", 0)  # onCreate stand-in
        b.const("start1", 0)
        b.label("resumed").const("resume1", 0)
        b.label("gui").const("nd", True)
        b.if_true("nd", "after")
        b.goto("gui")
        b.label("after").const("pause", 0)
        b.const("nd2", True)
        b.if_true("nd2", "stop")
        b.const("resume2", 0)
        b.goto("gui")
        b.label("stop").const("stop1", 0)
        b.ret()

    def test_pause_dominates_resume2_but_not_conversely(self):
        m = build_method(self.emit_harness_like)
        cfg = m.cfg
        by_dst = {i.dst.name: i for i in m.body if hasattr(i, "dst")}
        assert cfg.instruction_dominates(by_dst["pause"], by_dst["resume2"])
        assert cfg.instruction_dominates(by_dst["pause"], by_dst["stop1"])
        assert not cfg.instruction_dominates(by_dst["resume2"], by_dst["stop1"])
        assert not cfg.instruction_dominates(by_dst["stop1"], by_dst["resume2"])
        assert cfg.instruction_dominates(by_dst["create"], by_dst["stop1"])


def _locate(cfg, instr):
    """(block, offset) by scanning the blocks, independent of the CFG's index."""
    for block in cfg.blocks:
        for offset, candidate in enumerate(block.instructions):
            if candidate is instr:
                return block, offset
    raise AssertionError("instruction not in the CFG")


class TestDominanceOnHarnessMains:
    """The numbering answers what the immediate-dominator chain walk
    answers, on the harness mains HB rules 2/3 read: every ordered pair of
    event sites, and every pair of blocks."""

    @pytest.mark.parametrize(
        "app",
        ["paper:K-9 Mail"] + [f"family:{f}:2:1" for f in ("mesh", "storm", "lifecycle", "looper", "chain")],
        ids=lambda app: app.replace(" ", "_"),
    )
    def test_site_pairs_match_the_idom_chain_walk(self, app):
        model = generate_harnesses(load_app(app))
        for activity, main in model.mains.items():
            cfg = main.cfg
            idom = cfg.graph.immediate_dominators(cfg.entry)
            for a in cfg.blocks:
                for b in cfg.blocks:
                    assert cfg.dominates(a, b) == dominates(idom, a, b)
            sites = [
                (site.instr,) + _locate(cfg, site.instr)
                for site in model.sites_of_harness(activity)
            ]
            assert len(sites) > 1
            for instr_a, block_a, offset_a in sites:
                assert cfg.block_containing(instr_a) is block_a
                for instr_b, block_b, offset_b in sites:
                    if block_a is block_b:
                        expected = offset_a < offset_b
                    else:
                        expected = dominates(idom, block_a, block_b)
                    assert cfg.instruction_dominates(instr_a, instr_b) == expected
