"""HGraph → A64 code generation with CTO and LTBO.1 hooks.

This is the template-driven back end of the dex2oat substrate (paper
Fig. 5: the stage after "opt passes").  It is intentionally a *simple*
code generator — virtual registers get fixed homes (nine callee-saved
registers, then stack slots) and every IR operation expands from a fixed
template — because that is precisely the compiler the paper describes:
"the code-size-oriented optimizations of Android's compilers are
relatively weak, resulting in binary code with a considerable amount of
... redundant code".  The redundancy Calibro removes is generated here,
honestly.

Calibro hooks:

* **CTO** (Section 3.1): when a :class:`~repro.core.patterns.ThunkCache`
  is supplied, the three ART pattern templates emit ``bl <thunk>``
  instead of their 2-instruction bodies.
* **LTBO.1** (Section 3.2): the assembler records, as a by-product of
  emission, the embedded-data extents, PC-relative instructions with
  targets, terminator offsets, indirect-jump/native flags and slowpath
  extents into :class:`~repro.core.metadata.MethodMetadata`.

Register conventions (see :mod:`repro.isa.registers`): ``x0`` callee
ArtMethod + return value, ``x1..x6`` arguments, ``x9..x12`` scratch,
``x16`` pattern scratch (IP0), ``x19`` thread, ``x20..x28`` virtual
register homes, ``x29/x30`` frame/link.
"""

from __future__ import annotations

import struct

from repro import observability as obs
from repro.compiler.compiled import CompiledMethod, Relocation, RelocKind
from repro.compiler.stackmap import StackMapTable
from repro.core import patterns
from repro.core.metadata import DataExtent, MethodMetadata, PcRelativeRef, SlowpathExtent
from repro.dex.method import DexMethod
from repro.hgraph.ir import HGraph, HInstruction
from repro.isa import asm
from repro.isa import instructions as ins
from repro.isa import registers as regs
from repro.isa._bits import FieldRangeError, check_sint, check_uint
from repro.oat import layout

__all__ = ["CodegenError", "MethodCodegen", "compile_graph", "compile_jni_stub"]

#: Callee-saved homes for the first nine virtual registers.
_REG_HOMES = (
    regs.X20, regs.X21, regs.X22, regs.X23, regs.X24,
    regs.X25, regs.X26, regs.X27, regs.X28,
)
#: Caller-saved scratch registers used inside one template.
_SCRATCH = (regs.X9, regs.X10, regs.X11, regs.X12)

_COND_OF_CMP = {
    "eq": ins.Cond.EQ, "ne": ins.Cond.NE, "lt": ins.Cond.LT,
    "le": ins.Cond.LE, "gt": ins.Cond.GT, "ge": ins.Cond.GE,
}


# -- A64 field packing -----------------------------------------------------------
#
# The templates emit encoded words directly instead of instruction
# objects.  Each form's fixed bits are its encoding in the ISA model with
# every operand zero, so :mod:`repro.isa.instructions` stays the one
# definition of the encodings; operands are ORed into their fields here.
# Registers come from this module's own constants and never need range
# checks; immediates derived from the program being compiled are
# checked exactly as the ISA model checks them.

#: ``rd = rn <op> rm`` per IR arithmetic op (``mul`` is ``madd`` with
#: ``ra = xzr``); min/max lower to ``cmp`` + ``csel`` instead.
_ALU_RRR = {
    "add": ins.AddSubReg(op="add", rd=0, rn=0, rm=0).encode(),
    "sub": ins.AddSubReg(op="sub", rd=0, rn=0, rm=0).encode(),
    "mul": asm.mul(0, 0, 0).encode(),
    "div": asm.sdiv(0, 0, 0).encode(),
    "shl": ins.ShiftVar(op="lsl", rd=0, rn=0, rm=0).encode(),
    "shr": ins.ShiftVar(op="asr", rd=0, rn=0, rm=0).encode(),
    "ushr": ins.ShiftVar(op="lsr", rd=0, rn=0, rm=0).encode(),
    "and": ins.LogicalReg(op="and", rd=0, rn=0, rm=0).encode(),
    "or": ins.LogicalReg(op="orr", rd=0, rn=0, rm=0).encode(),
    "xor": ins.LogicalReg(op="eor", rd=0, rn=0, rm=0).encode(),
}
_MIN_MAX_COND = {"min": ins.Cond.LE, "max": ins.Cond.GE}
_ORR = _ALU_RRR["or"]
_CMP_REG = asm.cmp_reg(0, 0).encode()  # ``subs xzr, rn, rm``: rd is fixed
_CSEL = ins.CSel(rd=0, rn=0, rm=0, cond=0).encode()
#: ``rd = rn <op> #imm12``.
_IMM12 = {
    "add": asm.add_imm(0, 0, 0).encode(),
    "sub": asm.sub_imm(0, 0, 0).encode(),
    "cmp": asm.cmp_imm(0, 0).encode(),  # ``subs xzr, rn, #imm``
}
#: 64-bit ``ldr``/``str`` with a scaled unsigned offset.
_LDR = asm.ldr(0, 0).encode()
_STR = asm.str_(0, 0).encode()
#: 64-bit register pairs, keyed by ``(op, addressing mode)``.
_PAIR = {
    (op, mode): ins.LoadStorePair(op=op, rt=0, rt2=0, rn=0, mode=mode).encode()
    for op in ("ldp", "stp")
    for mode in ("offset", "pre", "post")
}
_MOVZ = ins.MoveWide(op="movz", rd=0, imm16=0).encode()
_MOVN = ins.MoveWide(op="movn", rd=0, imm16=0).encode()
_BL = ins.Bl(offset=0).encode()
_ADRP = ins.Adrp(rd=0).encode()
_BR = ins.Br(rn=0).encode()
_RET = ins.Ret().encode()
_BRK_SLOWPATH = ins.Brk(imm16=0x900).encode()

#: PC-relative forms resolved at finalisation: fixed bits and the
#: immediate field their displacement goes into.
_B = ins.B(offset=0).encode()
_BCOND = ins.BCond(cond=0, offset=0).encode()
_CBZ = ins.Cbz(rt=0, offset=0).encode()
_CBNZ = ins.Cbnz(rt=0, offset=0).encode()
_TBZ = ins.Tbz(rt=0, bit=0, offset=0).encode()
_TBNZ = ins.Tbnz(rt=0, bit=0, offset=0).encode()
_ADR = ins.Adr(rd=0, offset=0).encode()
_LDR_LITERAL = ins.LoadLiteral(rt=0, offset=0).encode()


def _place(field: str, delta: int) -> int:
    """Bits of the byte displacement ``delta`` in immediate ``field``."""
    if field == "adr":
        imm21 = check_sint(delta, 21, "imm21")
        return ((imm21 & 0b11) << 29) | ((imm21 >> 2) << 5)
    if delta % 4:
        raise FieldRangeError("branch offset must be word aligned")
    if field == "imm19":
        return check_sint(delta // 4, 19, "imm19") << 5
    if field == "imm26":
        return check_sint(delta // 4, 26, "imm26")
    return check_sint(delta // 4, 14, "imm14") << 5  # imm14


def _ldst(base: int, rt: int, rn: int, offset: int) -> int:
    """64-bit ``ldr``/``str rt, [rn, #offset]``."""
    if offset % 8:
        raise FieldRangeError(f"offset {offset:#x} not 8-byte aligned")
    return base | (check_uint(offset // 8, 12, "imm12") << 10) | (rn << 5) | rt


def _pair(op: str, mode: str, rt: int, rt2: int, rn: int, offset: int) -> int:
    """``ldp``/``stp rt, rt2`` around ``[rn, #offset]``."""
    imm7 = check_sint(offset // 8, 7, "imm7")
    return _PAIR[op, mode] | (imm7 << 15) | (rt2 << 10) | (rn << 5) | rt


def _mov(rd: int, rm: int) -> int:
    """``mov rd, rm`` (``orr rd, xzr, rm``)."""
    return _ORR | (rm << 16) | (regs.XZR << 5) | rd


def _imm12(op: str, rd: int, rn: int, imm12: int) -> int:
    return _IMM12[op] | (check_uint(imm12, 12, "imm12") << 10) | (rn << 5) | rd


def _movz(rd: int, imm16: int, hw: int = 0) -> int:
    return _MOVZ | (hw << 21) | (check_uint(imm16, 16, "imm16") << 5) | rd


class CodegenError(ValueError):
    """The method cannot be compiled (frame too large, etc.)."""


class _Label:
    __slots__ = ("index",)

    def __init__(self) -> None:
        self.index: int | None = None


class MethodCodegen:
    """Generates code for a single optimized HGraph."""

    def __init__(
        self,
        graph: HGraph,
        dexfile_method: DexMethod,
        cto: patterns.ThunkCache | None = None,
    ):
        self._graph = graph
        self._method = dexfile_method
        self._cto = cto
        #: The method as 32-bit little-endian words; embedded data is
        #: split into words too, so word ``i`` sits at offset ``4 * i``
        #: and labels bind to word indices.
        self._words: list[int] = []
        #: Side tables by word index, in emission order.
        self._fixups: list[tuple[int, _Label, str]] = []  # (index, label, imm field)
        #: ``(index, (kind, symbol, addend))``, or ``(index,
        #: ("local_label", label))`` for a jump-table slot holding a
        #: method-local address.
        self._relocs: list[tuple[int, tuple]] = []
        self._terminators: list[int] = []
        self._data: list[tuple[int, int]] = []  # (index, size in bytes)
        #: The hot path: emit one plain instruction word.
        self._emit = self._words.append
        #: Literal pool: ``(value, reloc symbol)`` → the label of its slot.
        self._pool: dict[tuple[int | None, str | None], _Label] = {}
        self._block_labels: dict[int, _Label] = {}
        self._epilogue = _Label()
        self._slowpath_labels: dict[str, _Label] = {}
        # (word index, dex_pc, kind, live vreg mask)
        self._stackmap_marks: list[tuple[int, int, str, int]] = []
        #: Live vreg mask after the IR instruction currently being
        #: lowered — what a safepoint at this position must preserve.
        self._current_live_mask = 0
        self._slowpath_marks: list[tuple[int, int]] = []  # (start word, end word)
        self._has_indirect_jump = False
        self._callees: list[str] = []
        self._dex_pc = 0

        # Home assignment: only virtual registers the method actually
        # references get a home (register or spill slot), so the
        # prologue/epilogue save exactly the callee-saved registers in
        # use — as a real allocator would.
        used: set[int] = set(range(graph.num_inputs))
        for block in graph.blocks.values():
            for instr in block.instructions:
                used.update(instr.uses)
                if instr.dst is not None:
                    used.add(instr.dst)
        ordered = sorted(used)
        self._home_map: dict[int, int] = {}
        self._spill_map: dict[int, int] = {}
        for rank, vreg in enumerate(ordered):
            if rank < len(_REG_HOMES):
                self._home_map[vreg] = _REG_HOMES[rank]
            else:
                self._spill_map[vreg] = len(self._spill_map)
        self._used_homes = [_REG_HOMES[i] for i in range(min(len(ordered), len(_REG_HOMES)))]
        save_bytes = 8 * len(self._used_homes)
        self._spill_base = 16 + save_bytes
        frame = 16 + save_bytes + 8 * len(self._spill_map)
        self._frame = (frame + 15) & ~15
        if self._frame > 504:
            raise CodegenError(
                f"{graph.method_name}: frame {self._frame} exceeds the stp pre-index range"
            )

    # -- emission primitives -------------------------------------------------

    def _emit_instrs(self, instructions: list[ins.Instruction]) -> None:
        """Emit instruction objects (the ART pattern bodies)."""
        for instr in instructions:
            if instr.is_terminator:
                self._terminators.append(len(self._words))
            self._words.append(instr.encode())

    def _emit_terminator(self, word: int) -> None:
        self._terminators.append(len(self._words))
        self._words.append(word)

    def _emit_fixup(self, word: int, label: _Label, field: str, terminator: bool = True) -> None:
        """Emit ``word``; its displacement to ``label`` goes into
        immediate ``field`` at finalisation."""
        index = len(self._words)
        self._fixups.append((index, label, field))
        if terminator:
            self._terminators.append(index)
        self._words.append(word)

    def _emit_reloc(self, word: int, kind: str, symbol: str, addend: int = 0) -> None:
        self._relocs.append((len(self._words), (kind, symbol, addend)))
        self._words.append(word)

    def _emit_data(self, data: bytes, reloc: tuple | None = None) -> None:
        index = len(self._words)
        self._data.append((index, len(data)))
        if reloc is not None:
            self._relocs.append((index, reloc))
        self._words.extend(struct.unpack(f"<{len(data) // 4}I", data))

    def _bind(self, label: _Label) -> None:
        if label.index is not None:
            raise CodegenError("label bound twice")
        label.index = len(self._words)

    def _load_literal(self, rt: int, value: int | None, symbol: str | None = None) -> None:
        key = (value, symbol)
        slot = self._pool.get(key)
        if slot is None:
            slot = self._pool[key] = _Label()
        self._emit_fixup(_LDR_LITERAL | rt, slot, "imm19", terminator=False)

    # -- virtual register access ----------------------------------------------

    def _spill_offset(self, vreg: int) -> int:
        return self._spill_base + 8 * self._spill_map[vreg]

    def _read(self, vreg: int, scratch: int) -> int:
        """Make the vreg's value available in a register; returns it."""
        home = self._home_map.get(vreg)
        if home is not None:
            return home
        self._emit(_ldst(_LDR, scratch, regs.SP, self._spill_offset(vreg)))
        return scratch

    def _read_into(self, vreg: int, target: int) -> None:
        """Force the value into ``target``."""
        home = self._home_map.get(vreg)
        if home is not None:
            self._emit(_mov(target, home))
        else:
            self._emit(_ldst(_LDR, target, regs.SP, self._spill_offset(vreg)))

    def _dst_reg(self, vreg: int, scratch: int) -> int:
        home = self._home_map.get(vreg)
        return home if home is not None else scratch

    def _commit(self, vreg: int, src: int) -> None:
        home = self._home_map.get(vreg)
        if home is None:
            self._emit(_ldst(_STR, src, regs.SP, self._spill_offset(vreg)))
        elif home != src:
            self._emit(_mov(home, src))

    # -- ART patterns (CTO hook) ------------------------------------------------

    def _java_call_tail(self, dex_pc: int) -> None:
        if self._cto is not None:
            symbol = self._cto.java_call()
            self._emit_reloc(_BL, RelocKind.CALL26, symbol)
            self._callees.append(symbol)
        else:
            self._emit_instrs(patterns.java_call_pattern())
        self._stackmap_marks.append(
            (len(self._words), dex_pc, "call", self._current_live_mask)
        )

    def _runtime_call(self, entrypoint: str, dex_pc: int, kind: str = "call") -> None:
        if self._cto is not None:
            symbol = self._cto.runtime_call(entrypoint)
            self._emit_reloc(_BL, RelocKind.CALL26, symbol)
            self._callees.append(symbol)
        else:
            self._emit_instrs(patterns.runtime_call_pattern(entrypoint))
        self._stackmap_marks.append(
            (len(self._words), dex_pc, kind, self._current_live_mask if kind == "call" else 0)
        )

    def _stack_check(self) -> None:
        if self._cto is not None:
            symbol = self._cto.stack_check()
            self._emit_reloc(_BL, RelocKind.CALL26, symbol)
            self._callees.append(symbol)
        else:
            self._emit_instrs(patterns.stack_check_pattern())

    # -- slowpaths ---------------------------------------------------------------

    def _slowpath(self, kind: str) -> _Label:
        """Label of the shared per-kind slowpath, created on first use."""
        label = self._slowpath_labels.get(kind)
        if label is None:
            label = self._slowpath_labels[kind] = _Label()
        return label

    def _null_check(self, obj_reg: int) -> None:
        self._emit_fixup(_CBZ | obj_reg, self._slowpath("pThrowNullPointerException"), "imm19")

    # -- main ---------------------------------------------------------------------

    def generate(self) -> CompiledMethod:
        graph = self._graph
        order = graph.block_order()
        for bid in order:
            self._block_labels[bid] = _Label()
        live_out = graph.liveness().live_out

        self._prologue()

        for position, bid in enumerate(order):
            block = graph.blocks[bid]
            self._bind(self._block_labels[bid])
            instructions = block.instructions
            live_after = _live_after(live_out[bid], instructions)
            for index in range(len(instructions) - 1):
                self._current_live_mask = live_after[index]
                self._lower(instructions[index])
                self._dex_pc += 1
            self._current_live_mask = 0
            next_bid = order[position + 1] if position + 1 < len(order) else None
            self._terminate(block.terminator, block.successors, next_bid)
            self._dex_pc += 1

        self._emit_epilogue()
        self._emit_slowpaths()
        self._emit_pool()
        return self._finalize()

    def _prologue(self) -> None:
        self._emit(_pair("stp", "pre", regs.FP, regs.LR, regs.SP, -self._frame))
        # ``mov x29, sp`` must be the add-immediate alias: register 31 is
        # only SP in add/sub-immediate operands, not in ORR.
        self._emit(_imm12("add", regs.FP, regs.SP, 0))
        if not self._method.is_leaf:
            self._stack_check()
        # Save the callee-saved registers used as vreg homes.
        homes = self._used_homes
        for k in range(0, len(homes) - 1, 2):
            self._emit(_pair("stp", "offset", homes[k], homes[k + 1], regs.SP, 16 + 8 * k))
        if len(homes) % 2:
            k = len(homes) - 1
            self._emit(_ldst(_STR, homes[k], regs.SP, 16 + 8 * k))
        # Move incoming arguments (x1..) into their vreg homes.
        for i in range(self._graph.num_inputs):
            self._commit(i, regs.X1 + i)

    def _emit_epilogue(self) -> None:
        self._bind(self._epilogue)
        homes = self._used_homes
        for k in range(0, len(homes) - 1, 2):
            self._emit(_pair("ldp", "offset", homes[k], homes[k + 1], regs.SP, 16 + 8 * k))
        if len(homes) % 2:
            k = len(homes) - 1
            self._emit(_ldst(_LDR, homes[k], regs.SP, 16 + 8 * k))
        self._emit(_pair("ldp", "post", regs.FP, regs.LR, regs.SP, self._frame))
        self._emit_terminator(_RET)

    def _emit_slowpaths(self) -> None:
        for kind, label in self._slowpath_labels.items():
            start = len(self._words)
            self._bind(label)
            self._runtime_call(kind, dex_pc=-1, kind="slowpath")
            self._emit_terminator(_BRK_SLOWPATH)  # unreachable: throws never return
            self._slowpath_marks.append((start, len(self._words)))

    def _emit_pool(self) -> None:
        if not self._pool:
            return
        # 8-align the pool start with a data padding word if needed.
        if len(self._words) % 2:
            self._emit_data(b"\x00\x00\x00\x00")
        for (value, symbol), label in self._pool.items():
            self._bind(label)
            if symbol is None:
                assert value is not None
                self._emit_data((value & ((1 << 64) - 1)).to_bytes(8, "little"))
            else:
                self._emit_data(b"\x00" * 8, reloc=(RelocKind.ABS64, symbol, value or 0))

    # -- IR lowering templates -------------------------------------------------

    def _lower(self, instr: HInstruction) -> None:
        kind = instr.kind
        if kind == "move":
            src = self._read(instr.uses[0], _SCRATCH[0])
            self._commit(instr.dst, src)
        elif kind == "binop":
            lhs = self._read(instr.uses[0], _SCRATCH[0])
            rhs = self._read(instr.uses[1], _SCRATCH[1])
            dst = self._dst_reg(instr.dst, _SCRATCH[2])
            self._lower_arith(instr.extra["op"], dst, lhs, rhs)
            self._commit(instr.dst, dst)
        elif kind == "binop-lit":
            self._lower_binop_lit(instr)
        elif kind == "const":
            self._lower_const(instr.dst, instr.extra["value"])
        elif kind == "const-string":
            self._lower_const_string(instr.dst, instr.extra["string_idx"])
        elif kind in ("invoke-static", "invoke-virtual"):
            self._lower_invoke(instr)
        elif kind == "new-instance":
            self._emit_instrs(asm.mov_imm(regs.X0, instr.extra["class_idx"]))
            self._emit_instrs(asm.mov_imm(regs.X1, instr.extra["num_fields"]))
            self._runtime_call("pAllocObjectResolved", self._dex_pc)
            self._commit(instr.dst, regs.X0)
        elif kind == "new-array":
            self._read_into(instr.uses[0], regs.X0)
            self._runtime_call("pAllocArrayResolved", self._dex_pc)
            self._commit(instr.dst, regs.X0)
        elif kind == "array-length":
            arr = self._read(instr.uses[0], _SCRATCH[0])
            self._null_check(arr)
            dst = self._dst_reg(instr.dst, _SCRATCH[1])
            self._emit(_ldst(_LDR, dst, arr, layout.ARRAY_LENGTH_OFFSET))
            self._commit(instr.dst, dst)
        elif kind == "iget":
            obj = self._read(instr.uses[0], _SCRATCH[0])
            self._null_check(obj)
            dst = self._dst_reg(instr.dst, _SCRATCH[1])
            self._emit(_ldst(_LDR, dst, obj, self._field_offset(instr.extra["field_idx"])))
            self._commit(instr.dst, dst)
        elif kind == "iput":
            src = self._read(instr.uses[0], _SCRATCH[0])
            obj = self._read(instr.uses[1], _SCRATCH[1])
            self._null_check(obj)
            self._emit(_ldst(_STR, src, obj, self._field_offset(instr.extra["field_idx"])))
        elif kind == "aget":
            addr = self._array_element_addr(instr.uses[0], instr.uses[1])
            dst = self._dst_reg(instr.dst, _SCRATCH[0])
            self._emit(_ldst(_LDR, dst, addr, layout.ARRAY_HEADER_SIZE))
            self._commit(instr.dst, dst)
        elif kind == "aput":
            addr = self._array_element_addr(instr.uses[1], instr.uses[2])
            src = self._read(instr.uses[0], _SCRATCH[3])
            self._emit(_ldst(_STR, src, addr, layout.ARRAY_HEADER_SIZE))
        else:  # pragma: no cover - exhaustive over IR kinds
            raise NotImplementedError(kind)

    def _field_offset(self, field_idx: int) -> int:
        return layout.OBJECT_HEADER_SIZE + 8 * field_idx

    def _array_element_addr(self, arr_vreg: int, idx_vreg: int) -> int:
        """Null + bounds check, then compute ``arr + idx*8`` into a
        scratch register (the element itself sits at ``+ARRAY_HEADER``).

        The unsigned ``b.hs`` against the length catches negative indices
        too (they become huge unsigned values) — the same trick ART uses.
        """
        s2 = _SCRATCH[2]
        arr = self._read(arr_vreg, _SCRATCH[0])
        self._null_check(arr)
        idx = self._read(idx_vreg, _SCRATCH[1])
        self._emit(_ldst(_LDR, s2, arr, layout.ARRAY_LENGTH_OFFSET))
        self._emit(_CMP_REG | (s2 << 16) | (idx << 5))
        self._emit_fixup(
            _BCOND | ins.Cond.HS, self._slowpath("pThrowArrayIndexOutOfBounds"), "imm19"
        )
        self._emit(_movz(s2, 8))
        self._emit(_ALU_RRR["mul"] | (s2 << 16) | (idx << 5) | s2)
        self._emit(_ALU_RRR["add"] | (arr << 16) | (s2 << 5) | s2)
        return s2

    def _lower_const(self, dst: int, value: int) -> None:
        reg = self._dst_reg(dst, _SCRATCH[0])
        if 0 <= value < (1 << 16):
            self._emit(_movz(reg, value))
        elif -(1 << 16) <= value < 0:
            self._emit(_MOVN | ((~value & 0xFFFF) << 5) | reg)
        elif 0 <= value < (1 << 32) and value & 0xFFFF == 0:
            self._emit(_movz(reg, value >> 16, hw=1))
        else:
            self._load_literal(reg, value)
        self._commit(dst, reg)

    def _lower_const_string(self, dst: int, string_idx: int) -> None:
        reg = self._dst_reg(dst, _SCRATCH[0])
        symbol = f"data:string:{string_idx}"
        self._emit_reloc(_ADRP | reg, RelocKind.ADRP_PAGE21, symbol)
        self._emit_reloc(_imm12("add", reg, reg, 0), RelocKind.ADD_LO12, symbol)
        self._commit(dst, reg)

    def _lower_arith(self, op: str, dst: int, lhs: int, rhs: int) -> None:
        """``dst = lhs <op> rhs`` on registers (the tail both binop forms share)."""
        if op == "div":
            self._emit_fixup(_CBZ | rhs, self._slowpath("pThrowDivZero"), "imm19")
        cond = _MIN_MAX_COND.get(op)
        if cond is not None:
            # The Math.min/max intrinsic lowering: cmp + csel.
            self._emit(_CMP_REG | (rhs << 16) | (lhs << 5))
            self._emit(_CSEL | (rhs << 16) | (cond << 12) | (lhs << 5) | dst)
        else:
            self._emit(_ALU_RRR[op] | (rhs << 16) | (lhs << 5) | dst)

    def _lower_binop_lit(self, instr: HInstruction) -> None:
        op = instr.extra["op"]
        literal = instr.extra["literal"]
        lhs = self._read(instr.uses[0], _SCRATCH[0])
        dst = self._dst_reg(instr.dst, _SCRATCH[2])
        if op in ("add", "sub"):
            self._emit(_imm12(op, dst, lhs, literal))
        else:
            self._emit(_movz(_SCRATCH[1], literal))
            self._lower_arith(op, dst, lhs, _SCRATCH[1])
        self._commit(instr.dst, dst)

    def _lower_invoke(self, instr: HInstruction) -> None:
        callee = instr.extra["method"]
        arg_vregs = instr.uses
        if instr.kind == "invoke-virtual":
            receiver = self._read(arg_vregs[0], _SCRATCH[0])
            self._null_check(receiver)
        # Marshal arguments into x1.. (sources live in callee-saved homes
        # or the frame, so nothing here clobbers a pending argument).
        for i, vreg in enumerate(arg_vregs):
            self._read_into(vreg, regs.X1 + i)
        # Load the callee ArtMethod* from the literal pool (bound at link).
        self._load_literal(regs.X0, 0, symbol=f"artmethod:{callee}")
        self._callees.append(callee)
        self._java_call_tail(self._dex_pc)
        if instr.dst is not None:
            self._commit(instr.dst, regs.X0)

    def _terminate(self, term: HInstruction, successors: list[int], next_bid: int | None) -> None:
        kind = term.kind
        if kind == "goto":
            # Even a fallthrough goto is emitted: an explicit terminator
            # is required for LTBO's separator map, as in real OAT code
            # every block boundary is observable.  A fallthrough goto
            # costs nothing after linking, so emit the branch.
            self._emit_fixup(_B, self._block_labels[successors[0]], "imm26")
        elif kind == "if":
            taken, fallthrough = successors
            self._lower_condition(term, self._block_labels[taken])
            if fallthrough != next_bid:
                self._emit_fixup(_B, self._block_labels[fallthrough], "imm26")
        elif kind == "return":
            self._read_into(term.uses[0], regs.X0)
            self._emit_fixup(_B, self._epilogue, "imm26")
        elif kind == "return-void":
            self._emit(_movz(regs.X0, 0))
            self._emit_fixup(_B, self._epilogue, "imm26")
        elif kind == "switch":
            self._lower_switch(term, successors)
        else:  # pragma: no cover
            raise NotImplementedError(kind)

    def _lower_condition(self, term: HInstruction, taken: _Label) -> None:
        cmp = term.extra["cmp"]
        lhs = self._read(term.uses[0], _SCRATCH[0])
        if term.extra.get("zero"):
            if cmp == "eq":
                self._emit_fixup(_CBZ | lhs, taken, "imm19")
                return
            if cmp == "ne":
                self._emit_fixup(_CBNZ | lhs, taken, "imm19")
                return
            # Sign bit 63: b5 = 1, b40 = 31.
            if cmp == "lt":
                self._emit_fixup(_TBNZ | (1 << 31) | (31 << 19) | lhs, taken, "imm14")
                return
            if cmp == "ge":
                self._emit_fixup(_TBZ | (1 << 31) | (31 << 19) | lhs, taken, "imm14")
                return
            self._emit(_imm12("cmp", regs.XZR, lhs, 0))
        else:
            rhs = self._read(term.uses[1], _SCRATCH[1])
            self._emit(_CMP_REG | (rhs << 16) | (lhs << 5))
        self._emit_fixup(_BCOND | _COND_OF_CMP[cmp], taken, "imm19")

    def _lower_switch(self, term: HInstruction, successors: list[int]) -> None:
        self._has_indirect_jump = True
        s0, s1, s2 = _SCRATCH[0], _SCRATCH[1], _SCRATCH[2]
        first_key = term.extra["first_key"]
        n_targets = len(term.extra["targets"])
        default_label = self._block_labels[successors[-1]]
        value = self._read(term.uses[0], s0)
        if first_key:
            if 0 <= first_key < 4096:
                self._emit(_imm12("sub", s0, value, first_key))
            else:
                self._load_literal(s1, first_key)
                self._emit(_ALU_RRR["sub"] | (s1 << 16) | (value << 5) | s0)
            value = s0
        self._emit(_imm12("cmp", regs.XZR, value, n_targets))
        self._emit_fixup(_BCOND | ins.Cond.HS, default_label, "imm19")
        table_label = _Label()
        self._emit_fixup(_ADR | s1, table_label, "adr", terminator=False)
        self._emit(_movz(s2, 8))
        self._emit(_ALU_RRR["mul"] | (s2 << 16) | (value << 5) | s2)
        self._emit(_ALU_RRR["add"] | (s2 << 16) | (s1 << 5) | s1)
        self._emit(_ldst(_LDR, s1, s1, 0))
        self._emit_terminator(_BR | (s1 << 5))
        # Jump table: 8-byte absolute entries, relocated to local labels.
        self._bind(table_label)
        for succ in successors[:-1]:
            self._emit_data(b"\x00" * 8, reloc=("local_label", self._block_labels[succ]))

    # -- finalisation -------------------------------------------------------------

    def _finalize(self) -> CompiledMethod:
        """Place every displacement, build the side tables and join the
        code once."""
        name = self._graph.method_name
        words = self._words
        pc_relative: list[PcRelativeRef] = []
        for index, label, field in self._fixups:
            delta = self._label_offset(label) - 4 * index
            words[index] |= _place(field, delta)
            pc_relative.append(PcRelativeRef(offset=4 * index, target=4 * index + delta))
        relocations: list[Relocation] = []
        for index, reloc in self._relocs:
            if reloc[0] == "local_label":
                reloc = (RelocKind.LOCAL_ABS64, name, self._label_offset(reloc[1]))
            relocations.append(Relocation(4 * index, *reloc))
        code = struct.pack(f"<{len(words)}I", *words)

        # Coalesce adjacent data extents (pool padding + slots, tables).
        merged: list[DataExtent] = []
        for index, size in self._data:
            start = 4 * index
            if merged and merged[-1].end == start:
                merged[-1] = DataExtent(start=merged[-1].start, size=merged[-1].size + size)
            else:
                merged.append(DataExtent(start=start, size=size))

        stackmaps = StackMapTable(method_name=name)
        for index, dex_pc, kind, live_mask in self._stackmap_marks:
            stackmaps.add(native_pc=4 * index, dex_pc=dex_pc, kind=kind, live_vregs=live_mask)

        metadata = MethodMetadata(
            method_name=name,
            code_size=len(code),
            embedded_data=merged,
            pc_relative=pc_relative,
            terminators=[4 * index for index in self._terminators],
            has_indirect_jump=self._has_indirect_jump,
            is_native=False,
            slowpaths=[
                SlowpathExtent(start=4 * start, end=4 * end)
                for start, end in self._slowpath_marks
            ],
        )
        return CompiledMethod(
            name=name,
            code=code,
            relocations=relocations,
            metadata=metadata,
            stackmaps=stackmaps,
            frame_size=self._frame,
            callees=tuple(dict.fromkeys(self._callees)),
        )

    def _label_offset(self, label: _Label) -> int:
        if label.index is None:
            raise CodegenError(f"{self._graph.method_name}: unbound label")
        return 4 * label.index


def _live_after(live_out: int, instructions: list[HInstruction]) -> list[int]:
    """The live-vreg bitmask *after* each instruction of a block, from
    the block's ``live_out`` — the values a safepoint there must keep
    alive (real StackMaps carry exactly this for GC root enumeration).
    The terminator's own uses count as live after the last body
    instruction."""
    masks = [0] * len(instructions)
    live = live_out
    for index in range(len(instructions) - 1, -1, -1):
        masks[index] = live
        instr = instructions[index]
        if instr.dst is not None:
            live &= ~(1 << instr.dst)
        for use in instr.uses:
            live |= 1 << use
    return masks


def compile_graph(
    graph: HGraph, method: DexMethod, cto: patterns.ThunkCache | None = None
) -> CompiledMethod:
    """Compile one optimized HGraph to a relocatable method blob."""
    sites_before = cto.total_sites if cto is not None else 0
    compiled = MethodCodegen(graph, method, cto).generate()
    if obs.current_tracer() is not None:
        obs.counter_add("codegen.methods", 1)
        obs.counter_add("codegen.bytes_emitted", compiled.size)
        if compiled.metadata is not None:
            obs.counter_add(
                "codegen.embedded_data_extents", len(compiled.metadata.embedded_data)
            )
        if cto is not None:
            # Pattern sites this method handed to the thunk cache.
            obs.counter_add("codegen.cto_pattern_hits", cto.total_sites - sites_before)
    return compiled


def compile_jni_stub(
    method: DexMethod, method_id: int, cto: patterns.ThunkCache | None = None
) -> CompiledMethod:
    """Emit the JNI transition stub for a native method.

    The stub pushes a frame, identifies itself to the runtime (method id
    in ``x17``) and transfers to the ``pJniBridge`` entrypoint, which
    dispatches the registered native implementation.  Flagged
    ``is_native`` so LTBO never touches it (paper Section 3.2).
    """
    asm_entries: list[ins.Instruction] = []
    relocations: list[Relocation] = []
    callees: list[str] = []
    asm_entries.append(asm.stp_pre(regs.FP, regs.LR, regs.SP, -16))
    asm_entries.append(ins.AddSubImm(op="add", rd=regs.FP, rn=regs.SP, imm12=0))
    asm_entries.extend(asm.mov_imm(regs.X17, method_id))
    offset = 4 * len(asm_entries)
    if cto is not None:
        symbol = cto.runtime_call("pJniBridge")
        asm_entries.append(ins.Bl(offset=0))
        relocations.append(Relocation(offset=offset, kind=RelocKind.CALL26, symbol=symbol))
        callees.append(symbol)
    else:
        asm_entries.extend(patterns.runtime_call_pattern("pJniBridge"))
    asm_entries.append(asm.ldr_pair_post(regs.FP, regs.LR, regs.SP, 16))
    asm_entries.append(ins.Ret())
    code = b"".join(i.encode_bytes() for i in asm_entries)
    stackmaps = StackMapTable(method_name=method.name)
    metadata = MethodMetadata(
        method_name=method.name,
        code_size=len(code),
        terminators=[len(code) - 4],
        is_native=True,
    )
    return CompiledMethod(
        name=method.name,
        code=code,
        relocations=relocations,
        metadata=metadata,
        stackmaps=stackmaps,
        frame_size=16,
        callees=tuple(callees),
    )
