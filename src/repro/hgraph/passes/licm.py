"""Loop-invariant code motion — one of the HGraph optimizations the
paper lists among ART's stock size/speed passes (§5).

Classic non-SSA LICM with conservative safety conditions:

* natural loops are found from back edges (``u → h`` where ``h``
  dominates ``u``), bodies by the standard reverse-reachability walk;
* an instruction hoists when it is **pure** (no side effects, cannot
  throw), none of its operands is defined inside the loop, it is the
  **only** definition of its destination in the loop, and the
  destination is **not live into the header** (so no first-iteration
  read can observe the pre-loop value);
* hoisted instructions land in a **preheader** created on demand (all
  non-back-edge predecessors are redirected through it).

Pure instructions make speculation safe, so no dominance-of-exits test
is needed: executing the computation early can only produce the value
every in-loop use would have seen anyway.
"""

from __future__ import annotations

from repro.hgraph.ir import HBasicBlock, HGraph, HInstruction, graph_transform
from repro.hgraph.liveness import mask_to_set

__all__ = ["dominators", "hoist_loop_invariants", "natural_loops"]


def _dominator_masks(graph: HGraph) -> dict[int, int]:
    """Iterative dominators, one bitmask per block (bit ``b`` = block
    ``b`` dominates it)."""
    blocks = graph.blocks
    entry = graph.entry_id
    everything = 0
    for bid in blocks:
        everything |= 1 << bid
    dom = dict.fromkeys(blocks, everything)
    dom[entry] = 1 << entry
    changed = True
    while changed:
        changed = False
        for bid, block in blocks.items():
            if bid == entry:
                continue
            preds = block.predecessors
            new = everything if preds else 0
            for pred in preds:
                new &= dom[pred]
            new |= 1 << bid
            if new != dom[bid]:
                dom[bid] = new
                changed = True
    return dom


def dominators(graph: HGraph) -> dict[int, set[int]]:
    """Dominator set per block (fine for the small CFGs here)."""
    return {bid: mask_to_set(mask) for bid, mask in _dominator_masks(graph).items()}


def natural_loops(graph: HGraph) -> dict[int, set[int]]:
    """``header → loop body blocks`` for every natural loop (bodies of
    back edges sharing a header are merged)."""
    dom = _dominator_masks(graph)
    loops: dict[int, set[int]] = {}
    for bid, block in graph.blocks.items():
        for succ in block.successors:
            if (dom[bid] >> succ) & 1:  # back edge bid -> succ
                body = loops.setdefault(succ, {succ})
                stack = [bid]
                while stack:
                    node = stack.pop()
                    if node in body:
                        continue
                    body.add(node)
                    stack.extend(graph.blocks[node].predecessors)
    return loops


def _ensure_preheader(graph: HGraph, header: int, body: set[int]) -> HBasicBlock:
    """Insert (or reuse) a preheader: the unique out-of-loop predecessor."""
    outside_preds = [p for p in graph.blocks[header].predecessors if p not in body]
    if len(outside_preds) == 1:
        candidate = graph.blocks[outside_preds[0]]
        if candidate.successors == [header]:
            return candidate
    new_id = max(graph.blocks) + 1
    pre = HBasicBlock(
        block_id=new_id,
        instructions=[HInstruction("goto")],
        successors=[header],
    )
    graph.blocks[new_id] = pre
    for pid in outside_preds:
        pred = graph.blocks[pid]
        pred.successors = [new_id if s == header else s for s in pred.successors]
        term = pred.terminator
        if term.kind == "switch":
            term.extra["targets"] = [
                new_id if t == header else t for t in term.extra["targets"]
            ]
    if header == graph.entry_id:
        graph.entry_id = new_id
    graph.recompute_predecessors()
    return pre


@graph_transform
def hoist_loop_invariants(graph: HGraph) -> bool:
    """Run LICM over every natural loop; returns True when changed."""
    loops = natural_loops(graph)
    if not loops:
        return False
    changed = False
    # Inner loops first (smaller bodies), so invariants can bubble
    # outward across runs of the pass pipeline.
    for header in sorted(loops, key=lambda h: len(loops[h])):
        body = loops[header]
        header_live_in = graph.liveness().live_in[header]
        defs_in_loop: dict[int, int] = {}
        for bid in body:
            for instr in graph.blocks[bid].instructions:
                if instr.dst is not None:
                    defs_in_loop[instr.dst] = defs_in_loop.get(instr.dst, 0) + 1

        hoisted: list[HInstruction] = []
        for bid in sorted(body):
            block = graph.blocks[bid]
            instructions = block.instructions
            kept: list[HInstruction] = []
            for index in range(len(instructions) - 1):
                instr = instructions[index]
                dst = instr.dst
                invariant = (
                    dst is not None
                    and defs_in_loop.get(dst, 0) == 1
                    and not (header_live_in >> dst) & 1
                    and instr.is_removable_if_dead
                    and all(u not in defs_in_loop for u in instr.uses)
                )
                if invariant:
                    hoisted.append(instr)
                    defs_in_loop.pop(dst, None)
                else:
                    kept.append(instr)
            if len(kept) != len(instructions) - 1:
                kept.append(instructions[-1])
                block.instructions = kept
        if hoisted:
            changed = True
            pre = _ensure_preheader(graph, header, body)
            pre.instructions[-1:-1] = hoisted
            # The next loop reads liveness of the graph as changed here.
            graph.invalidate_liveness()
    if changed:
        graph.recompute_predecessors()
        graph.validate()
    return changed
