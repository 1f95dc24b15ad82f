"""HGraph: the optimization IR of the dex2oat substrate.

Real dex2oat translates each dex method into an SSA graph called HGraph,
optimizes it per method, then lowers it to machine code (paper Fig. 5).
This substrate keeps the same pipeline position but stays at the virtual
register (dex register) level rather than full SSA: instructions read and
write ``vN`` registers, and passes reason locally within basic blocks
plus a global liveness analysis for dead-code elimination.  That is
enough to reproduce the paper's premise — "most compilation
optimizations are concentrated at the HGraph level ... much code
redundancy cannot be identified at this level of abstraction" — while
staying honest about being a substrate, not a dex2oat clone.

Blocks end with exactly one terminator (``if``/``goto``/``switch``/
``return``/``return-void``); checks (null, bounds, div-zero) stay
implicit in the memory/arith operations and are materialised as compare
+ slowpath at code generation, as ART does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, TypeVar

from repro.hgraph.liveness import Liveness, compute_liveness

__all__ = ["HBasicBlock", "HGraph", "HInstruction", "IRValidationError", "graph_transform"]

#: Instruction kinds that terminate a block.
TERMINATOR_KINDS = frozenset({"if", "goto", "switch", "return", "return-void"})

#: Kinds with observable side effects (cannot be removed or reordered).
SIDE_EFFECT_KINDS = frozenset(
    {"invoke-static", "invoke-virtual", "new-instance", "new-array", "iput", "aput"}
)

#: Kinds that can throw and therefore must be kept even if their result
#: is dead (their slowpath is an observable effect).
THROWING_KINDS = frozenset(
    {"invoke-virtual", "iget", "iput", "aget", "aput", "array-length", "new-array"}
)

#: Kinds that are never removable, whatever their operands.
_KEPT_KINDS = TERMINATOR_KINDS | SIDE_EFFECT_KINDS | THROWING_KINDS
#: Arithmetic kinds whose ``div`` form throws (division by zero).
_ARITH_KINDS = frozenset({"binop", "binop-lit"})

#: Block terminator kind → required successor count (``switch`` is
#: checked against its target list).
_SUCCESSOR_COUNT = {"if": 2, "goto": 1, "return": 0, "return-void": 0}


@dataclass(slots=True)
class HInstruction:
    """One IR operation.

    ``dst`` is the defined virtual register (or ``None``); ``uses`` are
    the registers read, in positional order; ``extra`` carries the
    kind-specific payload (constant value, ALU op, callee name, ...).
    """

    kind: str
    dst: int | None = None
    uses: tuple[int, ...] = ()
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def is_terminator(self) -> bool:
        return self.kind in TERMINATOR_KINDS

    @property
    def has_side_effects(self) -> bool:
        return self.kind in SIDE_EFFECT_KINDS

    @property
    def can_throw(self) -> bool:
        if self.kind in THROWING_KINDS:
            return True
        return self.kind in _ARITH_KINDS and self.extra.get("op") == "div"

    @property
    def is_removable_if_dead(self) -> bool:
        """Pure computations may be dropped when their result is dead:
        not a terminator, no side effects, cannot throw."""
        kind = self.kind
        if kind in _KEPT_KINDS:
            return False
        return kind not in _ARITH_KINDS or self.extra.get("op") != "div"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dst = f"v{self.dst} <- " if self.dst is not None else ""
        uses = ", ".join(f"v{u}" for u in self.uses)
        extra = f" {self.extra}" if self.extra else ""
        return f"<{dst}{self.kind}({uses}){extra}>"


@dataclass(slots=True)
class HBasicBlock:
    """A straight-line instruction run ending in one terminator."""

    block_id: int
    instructions: list[HInstruction] = field(default_factory=list)
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)

    @property
    def terminator(self) -> HInstruction:
        if not self.instructions or not self.instructions[-1].is_terminator:
            raise IRValidationError(f"block {self.block_id} lacks a terminator")
        return self.instructions[-1]

    @property
    def body(self) -> list[HInstruction]:
        """All instructions except the terminator."""
        return self.instructions[:-1]


class IRValidationError(ValueError):
    """The graph violates a structural invariant."""


@dataclass
class HGraph:
    """The per-method IR graph.

    ``blocks`` maps block id to block; ``entry_id`` is the entry block.
    Block ids are stable across passes (removed ids simply disappear),
    which keeps pass debugging sane.
    """

    method_name: str
    num_registers: int
    num_inputs: int
    blocks: dict[int, HBasicBlock] = field(default_factory=dict)
    entry_id: int = 0
    _liveness: Liveness | None = field(default=None, init=False, repr=False, compare=False)

    def liveness(self) -> Liveness:
        """Per-block live-in/live-out register bitmasks.

        Computed on first use and shared by every reader (DCE, LICM,
        code generation) until a pass changes the graph: functions
        decorated with :func:`graph_transform` drop it whenever they
        report a change, and a transform that reads liveness between
        its own edits calls :meth:`invalidate_liveness` itself.
        """
        if self._liveness is None:
            self._liveness = compute_liveness(self)
        return self._liveness

    def invalidate_liveness(self) -> None:
        self._liveness = None

    def block_order(self) -> list[int]:
        """Reverse-post-order from the entry — the layout order used by
        code generation (deterministic)."""
        seen: set[int] = set()
        order: list[int] = []
        stack: list[tuple[int, Iterator[int]]] = []
        seen.add(self.entry_id)
        stack.append((self.entry_id, iter(self.blocks[self.entry_id].successors)))
        post: list[int] = []
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(self.blocks[succ].successors)))
                    advanced = True
                    break
            if not advanced:
                post.append(node)
                stack.pop()
        order = list(reversed(post))
        return order

    def recompute_predecessors(self) -> None:
        for block in self.blocks.values():
            block.predecessors = []
        for block in self.blocks.values():
            for succ in block.successors:
                self.blocks[succ].predecessors.append(block.block_id)

    def instruction_count(self) -> int:
        return sum(len(b.instructions) for b in self.blocks.values())

    def validate(self) -> None:
        """Check the structural invariants the code generator relies on."""
        name = self.method_name
        blocks = self.blocks
        if self.entry_id not in blocks:
            raise IRValidationError(f"{name}: entry block missing")
        num_registers = self.num_registers
        for bid, block in blocks.items():
            if bid != block.block_id:
                raise IRValidationError(f"{name}: block id mismatch at {bid}")
            instructions = block.instructions
            if not instructions:
                raise IRValidationError(f"{name}: empty block {bid}")
            last = len(instructions) - 1
            for position, instr in enumerate(instructions):
                if instr.kind in TERMINATOR_KINDS and position != last:
                    raise IRValidationError(
                        f"{name}: terminator in the middle of block {bid}"
                    )
            term = block.terminator
            successors = block.successors
            expected = _SUCCESSOR_COUNT.get(term.kind)
            if expected is not None and len(successors) != expected:
                raise IRValidationError(
                    f"{name}: block {bid} terminator {term.kind} has "
                    f"{len(successors)} successors"
                )
            if term.kind == "switch" and len(successors) != len(term.extra["targets"]) + 1:
                raise IRValidationError(
                    f"{name}: block {bid} switch successor count mismatch"
                )
            for succ in successors:
                if succ not in blocks:
                    raise IRValidationError(
                        f"{name}: block {bid} points at missing block {succ}"
                    )
            for instr in instructions:
                for reg in instr.uses:
                    if not 0 <= reg < num_registers:
                        raise IRValidationError(
                            f"{name}: v{reg} out of range in block {bid}"
                        )
                dst = instr.dst
                if dst is not None and not 0 <= dst < num_registers:
                    raise IRValidationError(f"{name}: v{dst} out of range in block {bid}")


_Pass = TypeVar("_Pass", bound=Callable[..., Any])


def graph_transform(fn: _Pass) -> _Pass:
    """Mark ``fn(graph, ...)`` as a graph transformation.

    A truthy result means the transformation changed ``graph``, so the
    graph's shared liveness (:meth:`HGraph.liveness`) is dropped; a
    falsy result promises the graph is unchanged.
    """

    @functools.wraps(fn)
    def transform(graph: HGraph, *args: Any, **kwargs: Any) -> Any:
        result = fn(graph, *args, **kwargs)
        if result:
            graph.invalidate_liveness()
        return result

    return transform  # type: ignore[return-value]
