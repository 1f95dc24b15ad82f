"""Constant folding / propagation (per basic block) plus static branch
simplification — one of the HGraph-level size optimizations dex2oat
applies before Calibro ever sees the code (paper Section 5, "Code Size
Reduction in Android")."""

from __future__ import annotations

from repro.dex.interp import wrap64
from repro.hgraph.ir import HGraph, HInstruction, graph_transform

__all__ = ["fold_constants"]


def _eval_binop(op: str, lhs: int, rhs: int) -> int | None:
    """Evaluate a foldable binop; ``None`` when folding must not happen
    (division that would throw keeps its slowpath semantics)."""
    if op == "add":
        return wrap64(lhs + rhs)
    if op == "sub":
        return wrap64(lhs - rhs)
    if op == "mul":
        return wrap64(lhs * rhs)
    if op == "and":
        return wrap64(lhs & rhs)
    if op == "or":
        return wrap64(lhs | rhs)
    if op == "xor":
        return wrap64(lhs ^ rhs)
    if op == "shl":
        return wrap64(lhs << (rhs & 63))
    if op == "shr":
        return wrap64(lhs >> (rhs & 63))
    if op == "ushr":
        return wrap64((lhs & ((1 << 64) - 1)) >> (rhs & 63))
    if op == "min":
        return lhs if lhs <= rhs else rhs
    if op == "max":
        return lhs if lhs >= rhs else rhs
    if op == "div":
        if rhs == 0:
            return None
        q = abs(lhs) // abs(rhs)
        if (lhs < 0) != (rhs < 0):
            q = -q
        return wrap64(q)
    raise NotImplementedError(op)


def _compare(cmp: str, lhs: int, rhs: int) -> bool:
    return {
        "eq": lhs == rhs,
        "ne": lhs != rhs,
        "lt": lhs < rhs,
        "le": lhs <= rhs,
        "gt": lhs > rhs,
        "ge": lhs >= rhs,
    }[cmp]


@graph_transform
def fold_constants(graph: HGraph) -> bool:
    """Fold constant expressions; statically resolve constant branches.

    Returns True when anything changed.
    """
    changed = False
    for block in graph.blocks.values():
        known: dict[int, int] = {}
        instructions = block.instructions
        last = len(instructions) - 1
        for index in range(last):
            instr = instructions[index]
            folded = _fold_one(instr, known)
            if folded is not instr:
                changed = True
                instructions[index] = folded
            if folded.kind == "const":
                known[folded.dst] = folded.extra["value"]
            elif folded.dst is not None:
                known.pop(folded.dst, None)
        term = instructions[last]
        new_term, keep_successor = _fold_terminator(term, known)
        if new_term is not term:
            changed = True
            block.successors = [block.successors[keep_successor]]
            instructions[last] = new_term
    if changed:
        graph.recompute_predecessors()
    return changed


def _fold_one(instr: HInstruction, known: dict[int, int]) -> HInstruction:
    if instr.kind == "move" and instr.uses[0] in known:
        return HInstruction("const", dst=instr.dst, extra={"value": known[instr.uses[0]]})
    if instr.kind == "binop":
        lhs, rhs = instr.uses
        if lhs in known and rhs in known:
            value = _eval_binop(instr.extra["op"], known[lhs], known[rhs])
            if value is not None:
                return HInstruction("const", dst=instr.dst, extra={"value": value})
        # Algebraic identities: x+0, x-0, x*1, x|0, x^0 become moves.
        if rhs in known:
            op, c = instr.extra["op"], known[rhs]
            if (
                op in ("add", "sub", "or", "xor", "shl", "shr", "ushr") and c == 0
            ) or (op == "mul" and c == 1):
                return HInstruction("move", dst=instr.dst, uses=(lhs,))
            if op == "mul" and c == 0:
                return HInstruction("const", dst=instr.dst, extra={"value": 0})
    if instr.kind == "binop-lit" and instr.uses[0] in known:
        value = _eval_binop(instr.extra["op"], known[instr.uses[0]], instr.extra["literal"])
        if value is not None:
            return HInstruction("const", dst=instr.dst, extra={"value": value})
    return instr


def _fold_terminator(
    term: HInstruction, known: dict[int, int]
) -> tuple[HInstruction, int]:
    """Return ``(new_terminator, kept_successor_index)``; the terminator
    is unchanged when the branch is not statically decidable."""
    if term.kind != "if":
        return term, 0
    if term.extra.get("zero"):
        lhs = term.uses[0]
        if lhs not in known:
            return term, 0
        taken = _compare(term.extra["cmp"], known[lhs], 0)
    else:
        lhs, rhs = term.uses
        if lhs not in known or rhs not in known:
            return term, 0
        taken = _compare(term.extra["cmp"], known[lhs], known[rhs])
    return HInstruction("goto"), (0 if taken else 1)
