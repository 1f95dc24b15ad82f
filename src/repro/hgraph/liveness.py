"""Global register liveness as per-block bitmasks.

Bit ``v`` of a mask stands for virtual register ``v``.  Each block's
``gen`` (registers read before any write in the block) and ``kill``
(registers the block writes) are computed once; the backward dataflow
``live_out(b) = OR live_in(s) over successors s`` and
``live_in(b) = gen(b) | (live_out(b) & ~kill(b))`` then iterates to its
least fixed point on plain Python ints.

DCE, LICM and code generation all read the same :class:`Liveness`
through :meth:`repro.hgraph.ir.HGraph.liveness`, which keeps it until a
pass changes the graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.hgraph.ir import HGraph

__all__ = ["Liveness", "compute_liveness", "mask_to_set"]


class Liveness:
    """Per-block ``live_in`` / ``live_out`` register bitmasks."""

    __slots__ = ("live_in", "live_out")

    def __init__(self, live_in: dict[int, int], live_out: dict[int, int]) -> None:
        self.live_in = live_in
        self.live_out = live_out


def compute_liveness(graph: "HGraph") -> Liveness:
    """Solve the liveness dataflow over ``graph``'s current blocks."""
    blocks = graph.blocks
    live_in: dict[int, int] = {}
    live_out: dict[int, int] = dict.fromkeys(blocks, 0)
    # (block id, successors, gen, ~kill), last block first: most edges
    # point forward, so a backward sweep settles in few rounds.
    sweep: list[tuple[int, list[int], int, int]] = []
    for bid, block in blocks.items():
        gen = kill = 0
        for instr in block.instructions:
            for use in instr.uses:
                gen |= (1 << use) & ~kill
            if instr.dst is not None:
                kill |= 1 << instr.dst
        live_in[bid] = gen
        sweep.append((bid, block.successors, gen, ~kill))
    sweep.reverse()
    changed = True
    while changed:
        changed = False
        for bid, successors, gen, keep in sweep:
            out = 0
            for succ in successors:
                out |= live_in[succ]
            if out != live_out[bid]:
                live_out[bid] = out
                new_in = gen | (out & keep)
                if new_in != live_in[bid]:
                    live_in[bid] = new_in
                    changed = True
    return Liveness(live_in, live_out)


def mask_to_set(mask: int) -> set[int]:
    """The register numbers whose bits are set in ``mask``."""
    regs: set[int] = set()
    while mask:
        low = mask & -mask
        regs.add(low.bit_length() - 1)
        mask ^= low
    return regs
