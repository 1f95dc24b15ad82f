"""Return merging — dex2oat's size optimization that funnels multiple
``return`` sites through one exit block, so the (multi-instruction)
epilogue is emitted once (paper Section 5 cites it among ART's HGraph
optimizations)."""

from __future__ import annotations

from repro.hgraph.ir import HGraph, HInstruction, graph_transform

__all__ = ["merge_returns"]


@graph_transform
def merge_returns(graph: HGraph) -> bool:
    value_returns = [
        bid for bid, b in graph.blocks.items() if b.terminator.kind == "return"
    ]
    void_returns = [
        bid for bid, b in graph.blocks.items() if b.terminator.kind == "return-void"
    ]
    changed = False
    if len(value_returns) > 1:
        # One fresh register carries the merged return value.
        ret_reg = graph.num_registers
        graph.num_registers += 1
        exit_id = max(graph.blocks) + 1
        exit_block_instrs = [HInstruction("return", uses=(ret_reg,))]
        graph.blocks[exit_id] = type(graph.blocks[graph.entry_id])(
            block_id=exit_id, instructions=exit_block_instrs, successors=[]
        )
        for bid in value_returns:
            block = graph.blocks[bid]
            src = block.terminator.uses[0]
            block.instructions = block.body + [
                HInstruction("move", dst=ret_reg, uses=(src,)),
                HInstruction("goto"),
            ]
            block.successors = [exit_id]
        changed = True
    if len(void_returns) > 1:
        exit_id = max(graph.blocks) + 1
        graph.blocks[exit_id] = type(graph.blocks[graph.entry_id])(
            block_id=exit_id,
            instructions=[HInstruction("return-void")],
            successors=[],
        )
        for bid in void_returns:
            block = graph.blocks[bid]
            block.instructions = block.body + [HInstruction("goto")]
            block.successors = [exit_id]
        changed = True
    if changed:
        graph.recompute_predecessors()
    return changed
