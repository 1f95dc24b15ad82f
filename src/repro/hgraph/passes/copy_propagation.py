"""Copy propagation (per basic block) — rewrites uses of ``move``
destinations to their sources, exposing more CSE/DCE opportunities.

Linear in the block: next to the ``dst → src`` copy map a reverse
``src → dsts`` map says which copies a redefinition of ``src`` kills.
"""

from __future__ import annotations

from repro.hgraph.ir import HGraph, HInstruction, graph_transform

__all__ = ["propagate_copies"]


@graph_transform
def propagate_copies(graph: HGraph) -> bool:
    changed = False
    for block in graph.blocks.values():
        copies: dict[int, int] = {}
        readers: dict[int, set[int]] = {}
        instructions = block.instructions
        for index, instr in enumerate(instructions):
            if copies:
                uses = instr.uses
                resolved = tuple([copies.get(u, u) for u in uses])
                if resolved != uses:
                    instr = HInstruction(instr.kind, instr.dst, resolved, instr.extra)
                    instructions[index] = instr
                    changed = True
            dst = instr.dst
            if dst is None:
                continue
            # The definition kills copies through and of dst.
            src = copies.pop(dst, None)
            if src is not None:
                readers[src].discard(dst)
            for reader in readers.pop(dst, ()):
                del copies[reader]
            if instr.kind == "move" and dst != instr.uses[0]:
                src = instr.uses[0]
                copies[dst] = src
                readers.setdefault(src, set()).add(dst)
    return changed
