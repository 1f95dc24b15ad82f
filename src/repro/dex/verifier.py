"""Structural verifier for mini-DEX methods.

A trimmed-down analogue of the ART verifier: it checks the structural
invariants the compiler relies on, so that malformed methods fail fast
with a clear message instead of miscompiling.
"""

from __future__ import annotations

from repro.dex import bytecode as bc
from repro.dex.method import DexFile, DexMethod

__all__ = ["VerificationError", "verify_dexfile", "verify_method"]


class VerificationError(ValueError):
    """A method violates a structural invariant."""


def _call_registers(instr: bc.InvokeStatic | bc.InvokeVirtual) -> tuple[int, ...]:
    receiver = (instr.receiver,) if isinstance(instr, bc.InvokeVirtual) else ()
    result = (instr.dst,) if instr.dst is not None else ()
    return receiver + tuple(instr.args) + result


#: Dex instruction class → the registers it reads or writes.
_REGISTERS = {
    bc.Const: lambda i: (i.dst,),
    bc.ConstString: lambda i: (i.dst,),
    bc.Move: lambda i: (i.dst, i.src),
    bc.BinOp: lambda i: (i.dst, i.lhs, i.rhs),
    bc.BinOpLit: lambda i: (i.dst, i.lhs),
    bc.If: lambda i: (i.lhs, i.rhs),
    bc.IfZ: lambda i: (i.lhs,),
    bc.PackedSwitch: lambda i: (i.value,),
    bc.Return: lambda i: (i.src,),
    bc.InvokeStatic: _call_registers,
    bc.InvokeVirtual: _call_registers,
    bc.NewInstance: lambda i: (i.dst,),
    bc.NewArray: lambda i: (i.dst, i.size),
    bc.ArrayLength: lambda i: (i.dst, i.array),
    bc.IGet: lambda i: (i.dst, i.obj),
    bc.IPut: lambda i: (i.src, i.obj),
    bc.AGet: lambda i: (i.dst, i.array, i.index),
    bc.APut: lambda i: (i.src, i.array, i.index),
}


def verify_method(method: DexMethod, known_methods: set[str] | None = None) -> None:
    """Check register ranges, branch targets, terminator placement and
    (optionally) that every invoked method exists."""
    if method.is_native:
        return
    code = method.code
    if not code:
        raise VerificationError(f"{method.name}: empty method body")

    last = code[-1]
    if not (last.is_branch and isinstance(last, (bc.Return, bc.ReturnVoid, bc.Goto))):
        raise VerificationError(f"{method.name}: control can fall off the end")

    for idx, instr in enumerate(code):
        for target in instr.branch_targets():
            if not 0 <= target < len(code):
                raise VerificationError(
                    f"{method.name}: branch target {target} out of range at {_where(idx, instr)}"
                )
        registers = _REGISTERS.get(type(instr))
        regs = registers(instr) if registers is not None else ()
        if isinstance(instr, bc.InvokeStatic) and len(instr.args) > 6:
            raise VerificationError(
                f"{method.name}: more than 6 call arguments at {_where(idx, instr)}"
            )
        if isinstance(instr, bc.InvokeVirtual) and len(instr.args) > 5:
            raise VerificationError(
                f"{method.name}: more than 5 virtual call arguments at {_where(idx, instr)}"
            )
        for reg in regs:
            if not 0 <= reg < method.num_registers:
                raise VerificationError(
                    f"{method.name}: register v{reg} out of range at {_where(idx, instr)} "
                    f"(method declares {method.num_registers})"
                )
        if known_methods is not None and isinstance(
            instr, (bc.InvokeStatic, bc.InvokeVirtual)
        ):
            if instr.method not in known_methods:
                raise VerificationError(
                    f"{method.name}: unknown callee {instr.method!r} at {_where(idx, instr)}"
                )
        if isinstance(instr, bc.Return) and not method.returns_value:
            raise VerificationError(
                f"{method.name}: value return in void method at {_where(idx, instr)}"
            )


def _where(idx: int, instr: bc.Instruction) -> str:
    """Error-message location of instruction ``idx``."""
    return f"instruction {idx} ({type(instr).__name__})"


def verify_dexfile(dexfile: DexFile) -> None:
    """Verify every method, resolving callees across the whole file."""
    methods = dexfile.all_methods()
    by_name = {m.name: m for m in methods}
    if len(by_name) != len(methods):
        raise VerificationError("duplicate method names in dex file")
    names = set(by_name)
    for method in methods:
        verify_method(method, known_methods=names)
        for instr in method.code:
            if isinstance(instr, bc.ConstString) and not (
                0 <= instr.string_idx < len(dexfile.string_table)
            ):
                raise VerificationError(
                    f"{method.name}: string index {instr.string_idx} out of range"
                )
            if isinstance(instr, (bc.InvokeStatic, bc.InvokeVirtual)):
                callee = by_name[instr.method]
                expects = instr.dst is not None
                if expects and not callee.returns_value and not callee.is_native:
                    raise VerificationError(
                        f"{method.name}: expects a result from void {callee.name}"
                    )
