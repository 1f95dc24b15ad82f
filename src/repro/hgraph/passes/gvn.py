"""Local value numbering (common subexpression elimination).

A per-block analogue of dex2oat's GVN: pure expressions (and memory
loads, guarded by a memory epoch that any store/call bumps) are value
numbered; recomputations become ``move`` from the register that already
holds the value — provided that register has not been overwritten since.
"""

from __future__ import annotations

from typing import Hashable

from repro.hgraph.ir import SIDE_EFFECT_KINDS, HGraph, HInstruction, graph_transform

__all__ = ["value_number"]

#: Expression kinds eligible for value numbering, with the ``extra``
#: fields that distinguish two expressions of the kind.  Loads
#: participate via the memory epoch; ``div`` stays out (its throw is an
#: effect we keep).
_PAYLOAD_FIELDS: dict[str, tuple[str, ...]] = {
    "binop": ("op",),
    "binop-lit": ("op", "literal"),
    "const-string": ("string_idx",),
    "array-length": (),
    "iget": ("field_idx",),
    "aget": (),
}
_LOAD_KINDS = frozenset({"iget", "aget", "array-length"})


@graph_transform
def value_number(graph: HGraph) -> bool:
    changed = False
    for block in graph.blocks.values():
        version: dict[int, int] = {}
        epoch = 0
        available: dict[Hashable, tuple[int, int]] = {}
        instructions = block.instructions
        # Copied from the first rewritten instruction on; an untouched
        # block keeps its list.
        new_body: list[HInstruction] | None = None
        for index in range(len(instructions) - 1):
            instr = instructions[index]
            kind = instr.kind
            fields = _PAYLOAD_FIELDS.get(kind)
            key: Hashable | None = None
            if fields is not None and instr.extra.get("op") != "div":
                key = (
                    kind,
                    tuple([instr.extra[name] for name in fields]),
                    tuple([(u, version.get(u, 0)) for u in instr.uses]),
                    epoch if kind in _LOAD_KINDS else -1,
                )
                entry = available.get(key)
                if entry is not None and instr.dst is not None:
                    holder, held_version = entry
                    if version.get(holder, 0) == held_version:
                        changed = True
                        if new_body is None:
                            new_body = instructions[:index]
                        if instr.dst == holder:
                            # Recomputing into the same register: drop entirely.
                            continue
                        instr = HInstruction("move", dst=instr.dst, uses=(holder,))
                        key = None  # the move defines dst below
            if instr.kind in SIDE_EFFECT_KINDS:
                epoch += 1
            if instr.dst is not None:
                version[instr.dst] = version.get(instr.dst, 0) + 1
                if key is not None:
                    available[key] = (instr.dst, version[instr.dst])
            if new_body is not None:
                new_body.append(instr)
        if new_body is not None:
            new_body.append(instructions[-1])
            block.instructions = new_body
    return changed
