"""Dex bytecode → HGraph construction (the DEX2OAT front end).

Performs the classic leader analysis: instruction 0, every branch target
and every fall-through point after a branch start a basic block.  Blocks
that fall through get an explicit ``goto`` terminator so every block is
single-exit, matching what the code generator expects.
"""

from __future__ import annotations

from typing import Callable

from repro.dex import bytecode as bc
from repro.dex.method import DexMethod
from repro.hgraph.ir import HBasicBlock, HGraph, HInstruction

__all__ = ["build_hgraph"]


#: Dex instruction class → its HGraph lowering of a non-branch
#: instruction (``None`` drops it).
_LOWERINGS: dict[type, Callable[..., HInstruction | None]] = {
    bc.Nop: lambda i: None,
    bc.Const: lambda i: HInstruction("const", i.dst, (), {"value": i.value}),
    bc.ConstString: lambda i: HInstruction(
        "const-string", i.dst, (), {"string_idx": i.string_idx}
    ),
    bc.Move: lambda i: HInstruction("move", i.dst, (i.src,)),
    bc.BinOp: lambda i: HInstruction("binop", i.dst, (i.lhs, i.rhs), {"op": i.op}),
    bc.BinOpLit: lambda i: HInstruction(
        "binop-lit", i.dst, (i.lhs,), {"op": i.op, "literal": i.literal}
    ),
    bc.InvokeStatic: lambda i: HInstruction(
        "invoke-static", i.dst, tuple(i.args), {"method": i.method}
    ),
    bc.InvokeVirtual: lambda i: HInstruction(
        "invoke-virtual", i.dst, (i.receiver,) + tuple(i.args), {"method": i.method}
    ),
    bc.NewInstance: lambda i: HInstruction(
        "new-instance", i.dst, (), {"class_idx": i.class_idx, "num_fields": i.num_fields}
    ),
    bc.NewArray: lambda i: HInstruction("new-array", i.dst, (i.size,)),
    bc.ArrayLength: lambda i: HInstruction("array-length", i.dst, (i.array,)),
    bc.IGet: lambda i: HInstruction("iget", i.dst, (i.obj,), {"field_idx": i.field_idx}),
    bc.IPut: lambda i: HInstruction(
        "iput", None, (i.src, i.obj), {"field_idx": i.field_idx}
    ),
    bc.AGet: lambda i: HInstruction("aget", i.dst, (i.array, i.index)),
    bc.APut: lambda i: HInstruction("aput", None, (i.src, i.array, i.index)),
}


def build_hgraph(method: DexMethod) -> HGraph:
    """Build the control-flow graph for one (non-native) dex method."""
    if method.is_native:
        raise ValueError(f"{method.name}: native methods have no HGraph")
    code = method.code

    leaders = {0}
    for idx, instr in enumerate(code):
        if instr.is_branch:
            leaders.update(instr.branch_targets())
            if idx + 1 < len(code):
                leaders.add(idx + 1)
    leader_list = sorted(leaders)
    block_of_leader = {leader: bid for bid, leader in enumerate(leader_list)}

    graph = HGraph(
        method_name=method.name,
        num_registers=method.num_registers,
        num_inputs=method.num_inputs,
        entry_id=0,
    )

    for bid, leader in enumerate(leader_list):
        end = leader_list[bid + 1] if bid + 1 < len(leader_list) else len(code)
        block = HBasicBlock(block_id=bid)
        idx = leader
        while idx < end:
            dex_instr = code[idx]
            if dex_instr.is_branch:
                _terminate(block, dex_instr, idx, block_of_leader)
                break
            lowering = _LOWERINGS.get(type(dex_instr))
            if lowering is None:
                raise NotImplementedError(f"cannot lower {type(dex_instr).__name__}")
            lowered = lowering(dex_instr)
            if lowered is not None:
                block.instructions.append(lowered)
            idx += 1
        else:
            # Fell off the block end: explicit goto to the next leader.
            block.instructions.append(HInstruction("goto"))
            block.successors = [block_of_leader[end]]
        graph.blocks[bid] = block

    graph.recompute_predecessors()
    graph.validate()
    return graph


def _terminate(
    block: HBasicBlock,
    instr: bc.Instruction,
    idx: int,
    block_of_leader: dict[int, int],
) -> None:
    if isinstance(instr, bc.If):
        block.instructions.append(
            HInstruction("if", uses=(instr.lhs, instr.rhs), extra={"cmp": instr.cmp})
        )
        block.successors = [block_of_leader[instr.target], block_of_leader[idx + 1]]
    elif isinstance(instr, bc.IfZ):
        block.instructions.append(
            HInstruction("if", uses=(instr.lhs,), extra={"cmp": instr.cmp, "zero": True})
        )
        block.successors = [block_of_leader[instr.target], block_of_leader[idx + 1]]
    elif isinstance(instr, bc.Goto):
        block.instructions.append(HInstruction("goto"))
        block.successors = [block_of_leader[instr.target]]
    elif isinstance(instr, bc.PackedSwitch):
        block.instructions.append(
            HInstruction(
                "switch",
                uses=(instr.value,),
                extra={"first_key": instr.first_key, "targets": list(instr.targets)},
            )
        )
        block.successors = [block_of_leader[t] for t in instr.targets]
        block.successors.append(block_of_leader[idx + 1])  # default: fall through
    elif isinstance(instr, bc.Return):
        block.instructions.append(HInstruction("return", uses=(instr.src,)))
        block.successors = []
    elif isinstance(instr, bc.ReturnVoid):
        block.instructions.append(HInstruction("return-void"))
        block.successors = []
    else:  # pragma: no cover
        raise NotImplementedError(type(instr).__name__)
