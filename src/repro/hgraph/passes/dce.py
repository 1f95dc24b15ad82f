"""Dead code elimination with global liveness.

Backward dataflow over the CFG computes live-in/live-out register sets
(as bitmasks, :mod:`repro.hgraph.liveness`); pure instructions whose
destination is dead at their program point are removed.  Throwing and
side-effecting instructions always survive (their slowpath or effect is
observable), matching dex2oat's conservatism.
"""

from __future__ import annotations

from repro.hgraph.ir import HGraph, graph_transform
from repro.hgraph.liveness import mask_to_set

__all__ = ["eliminate_dead_code", "liveness"]


def liveness(graph: HGraph) -> dict[int, set[int]]:
    """``live_out`` register set per block."""
    return {bid: mask_to_set(mask) for bid, mask in graph.liveness().live_out.items()}


@graph_transform
def eliminate_dead_code(graph: HGraph) -> bool:
    """Remove pure instructions with dead destinations and no-op moves."""
    live_out = graph.liveness().live_out
    changed = False
    for bid, block in graph.blocks.items():
        live = live_out[bid]
        instructions = block.instructions
        kept_reversed = []
        for instr in reversed(instructions):
            dst = instr.dst
            if dst is not None and (
                not (live >> dst) & 1
                or (instr.kind == "move" and dst == instr.uses[0])
            ) and instr.is_removable_if_dead:
                continue
            if dst is not None:
                live &= ~(1 << dst)
            for use in instr.uses:
                live |= 1 << use
            kept_reversed.append(instr)
        if len(kept_reversed) != len(instructions):
            kept_reversed.reverse()
            block.instructions = kept_reversed
            changed = True
    return changed
