"""Small-method inlining (the related-work interaction study).

The paper's related work notes that "function inlining may reduce code
size if applied carefully" [Damasio et al.].  Inlining also *interacts*
with outlining: inlined bodies duplicate code across callers, which the
link-time outliner can then re-share — while the call overhead the paper
worries about disappears.  The ``bench_ablation_inlining`` bench
measures that interaction; this pass implements the mechanism.

Conservative policy (correctness first):

* only ``invoke-static`` sites (virtual calls null-check the receiver as
  part of their semantics — inlining would erase the check);
* only single-block callees ending in ``return``/``return-void`` (no
  control flow to merge);
* callee body at most ``max_callee_instructions``;
* no self-recursive sites; at most ``max_inline_sites`` per caller
  (bounds register-file growth, which bounds frame size).

The callee's virtual registers are renamed into a fresh range of the
caller, arguments become moves, and the return becomes a move into the
call's destination.
"""

from __future__ import annotations

import copy
from typing import Callable

from repro.hgraph.ir import HGraph, HInstruction, graph_transform

__all__ = ["inline_small_methods"]

DEFAULT_MAX_CALLEE_INSTRUCTIONS = 8
DEFAULT_MAX_INLINE_SITES = 4


def _inlinable_body(callee: HGraph, max_instructions: int) -> list[HInstruction] | None:
    """The callee's single-block body if it qualifies, else None."""
    if len(callee.blocks) != 1:
        return None
    block = callee.blocks[callee.entry_id]
    term = block.terminator
    if term.kind not in ("return", "return-void"):
        return None
    if len(block.body) > max_instructions:
        return None
    return block.instructions


@graph_transform
def inline_small_methods(
    graph: HGraph,
    resolve: Callable[[str], HGraph | None],
    *,
    max_callee_instructions: int = DEFAULT_MAX_CALLEE_INSTRUCTIONS,
    max_inline_sites: int = DEFAULT_MAX_INLINE_SITES,
) -> int:
    """Inline qualifying static call sites in ``graph``.

    ``resolve`` maps a method name to its (un-optimized) HGraph, or None
    for natives/unknowns.  Returns the number of sites inlined.
    """
    inlined = 0
    for block in graph.blocks.values():
        new_body: list[HInstruction] = []
        for instr in block.body:
            if (
                inlined >= max_inline_sites
                or instr.kind != "invoke-static"
                or instr.extra["method"] == graph.method_name
            ):
                new_body.append(instr)
                continue
            callee = resolve(instr.extra["method"])
            if callee is None:
                new_body.append(instr)
                continue
            body = _inlinable_body(callee, max_callee_instructions)
            if body is None:
                new_body.append(instr)
                continue
            new_body.extend(_expand(graph, instr, callee, body))
            inlined += 1
        block.instructions = new_body + [block.terminator]
    if inlined:
        graph.validate()
    return inlined


def _expand(
    caller: HGraph,
    call: HInstruction,
    callee: HGraph,
    body: list[HInstruction],
) -> list[HInstruction]:
    """Rename the callee body into the caller's register space."""
    base = caller.num_registers
    caller.num_registers += callee.num_registers

    def remap(vreg: int) -> int:
        return base + vreg

    out: list[HInstruction] = []
    # Parameter intake: callee v0..vN-1 <- the call's argument vregs.
    for param, arg in enumerate(call.uses):
        out.append(HInstruction("move", dst=remap(param), uses=(arg,)))
    for instr in body:
        if instr.is_terminator:
            if instr.kind == "return" and call.dst is not None:
                out.append(
                    HInstruction("move", dst=call.dst, uses=(remap(instr.uses[0]),))
                )
            elif instr.kind == "return-void" and call.dst is not None:
                out.append(HInstruction("const", dst=call.dst, extra={"value": 0}))
            continue
        out.append(
            HInstruction(
                kind=instr.kind,
                dst=remap(instr.dst) if instr.dst is not None else None,
                uses=tuple(remap(u) for u in instr.uses),
                extra=copy.deepcopy(instr.extra),
            )
        )
    return out
