"""Bitmask liveness and linear copy propagation against set-based
references.

The production analyses are written for speed: liveness is a bitmask
dataflow shared through ``HGraph.liveness()``, copy propagation keeps a
reverse ``src → dsts`` map instead of rebuilding its copy map on every
definition.  The straightforward set-based versions below are the
specification.  Every method of the six paper apps (scale 0.25) runs the
default pass pipeline step by step; after every pass the shared
liveness must equal the reference, and every copy-propagation step must
rewrite exactly what the reference rewrites.  The generated apps rarely
change block-level liveness inside the pipeline, so seeded random
methods (constant branches, loops, dead code across blocks, copy chains
with redefined sources) cover the cases where a stale shared liveness
or a missed copy kill would show.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.dex import MethodBuilder
from repro.hgraph import build_hgraph
from repro.hgraph.ir import HGraph, HInstruction
from repro.hgraph.passes import default_pipeline, liveness, merge_returns, propagate_copies
from repro.hgraph.liveness import mask_to_set
from repro.workloads import APP_NAMES, app_spec, generate_app


def reference_liveness(graph: HGraph) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    """``(live_in, live_out)`` register sets by round-robin iteration."""
    gen: dict[int, set[int]] = {}
    kill: dict[int, set[int]] = {}
    for bid, block in graph.blocks.items():
        defined: set[int] = set()
        upward: set[int] = set()
        for instr in block.instructions:
            upward |= set(instr.uses) - defined
            if instr.dst is not None:
                defined.add(instr.dst)
        gen[bid], kill[bid] = upward, defined
    live_in: dict[int, set[int]] = {bid: set() for bid in graph.blocks}
    live_out: dict[int, set[int]] = {bid: set() for bid in graph.blocks}
    changed = True
    while changed:
        changed = False
        for bid, block in graph.blocks.items():
            out: set[int] = set()
            for succ in block.successors:
                out |= live_in[succ]
            new_in = gen[bid] | (out - kill[bid])
            if out != live_out[bid] or new_in != live_in[bid]:
                live_out[bid], live_in[bid] = out, new_in
                changed = True
    return live_in, live_out


def reference_copy_propagation(graph: HGraph) -> bool:
    """Per-block copy propagation that rebuilds the copy map whenever a
    definition kills copies."""
    changed = False
    for block in graph.blocks.values():
        copies: dict[int, int] = {}
        rewritten: list[HInstruction] = []
        for instr in block.instructions:
            resolved = tuple(copies.get(u, u) for u in instr.uses)
            if resolved != instr.uses:
                instr = HInstruction(instr.kind, instr.dst, resolved, instr.extra)
                changed = True
            if instr.dst is not None:
                copies.pop(instr.dst, None)
                copies = {d: s for d, s in copies.items() if s != instr.dst}
            if instr.kind == "move" and instr.dst != instr.uses[0]:
                copies[instr.dst] = instr.uses[0]
            rewritten.append(instr)
        block.instructions = rewritten
    return changed


def _shape(graph: HGraph) -> dict[int, list[tuple]]:
    return {
        bid: [(i.kind, i.dst, i.uses, i.extra) for i in block.instructions]
        for bid, block in graph.blocks.items()
    }


def _assert_liveness_matches(graph: HGraph, where: str) -> None:
    ref_in, ref_out = reference_liveness(graph)
    shared = graph.liveness()
    assert {b: mask_to_set(m) for b, m in shared.live_in.items()} == ref_in, where
    assert {b: mask_to_set(m) for b, m in shared.live_out.items()} == ref_out, where
    assert liveness(graph) == ref_out, where


def _random_method(rng: random.Random, index: int):
    """A structurally valid method: straight-line arithmetic, moves and
    constants over v2..v5 (v0/v1 are read-only inputs) cut by forward
    and backward branches, plus repeated expressions for value
    numbering and counted loops with an invariant for LICM."""
    b = MethodBuilder(f"LR;->m{index}", num_inputs=2, num_registers=8)
    labels = [b.new_label() for _ in range(4)]
    unbound = list(labels)

    def dst() -> int:
        return rng.randrange(2, 6)

    def src() -> int:
        return rng.randrange(6)

    for _ in range(rng.randint(6, 28)):
        roll = rng.random()
        if roll < 0.1 and unbound:
            b.bind(unbound.pop(0))
        elif roll < 0.26:
            b.move(dst(), src())
        elif roll < 0.36:
            b.const(dst(), rng.choice((0, 1, 5)))
        elif roll < 0.52:
            b.binop(rng.choice(("add", "sub", "mul", "xor")), dst(), src(), src())
        elif roll < 0.6:
            op, lhs, rhs = rng.choice(("add", "mul")), src(), src()
            b.binop(op, dst(), lhs, rhs)
            b.binop(op, dst(), lhs, rhs)
        elif roll < 0.68:
            b.binop_lit("add", dst(), src(), rng.randint(0, 9))
        elif roll < 0.76:
            loop = b.new_label()
            b.bind(loop)
            b.binop(rng.choice(("add", "mul")), rng.choice((6, 7)), 0, 1)
            counter = dst()
            b.binop_lit("sub", counter, counter, 1)
            b.binop("add", dst(), src(), rng.choice((6, 7)))
            b.if_z("ne", counter, loop)
        elif roll < 0.88:
            b.if_z(rng.choice(("eq", "ne", "lt")), src(), rng.choice(labels))
        else:
            b.goto(rng.choice(labels))
    for label in unbound:
        b.bind(label)
    b.ret(src())
    return b.build()


@pytest.fixture(scope="module")
def methods():
    rng = random.Random(12)
    return [
        method
        for name in APP_NAMES
        for method in generate_app(app_spec(name, 0.25)).dexfile.all_methods()
        if not method.is_native
    ] + [_random_method(rng, index) for index in range(300)]


def test_every_app_method_is_covered(methods):
    assert len(methods) > 300 + 300


def test_shared_liveness_matches_reference_after_every_pass(methods):
    checked = 0
    for method in methods:
        graph = build_hgraph(method)
        _assert_liveness_matches(graph, f"{method.name} after build")
        for _ in range(4):
            any_change = False
            for pass_name, pass_fn in default_pipeline():
                any_change |= bool(pass_fn(graph))
                _assert_liveness_matches(graph, f"{method.name} after {pass_name}")
                checked += 1
            if not any_change:
                break
        merge_returns(graph)
        _assert_liveness_matches(graph, f"{method.name} after return merging")
    assert checked > len(methods)


def test_linear_copy_propagation_matches_reference(methods):
    rewrites = 0
    for method in methods:
        graph = build_hgraph(method)
        for _ in range(4):
            any_change = False
            for pass_name, pass_fn in default_pipeline():
                if pass_fn is propagate_copies:
                    expected = copy.deepcopy(graph)
                    expected_changed = reference_copy_propagation(expected)
                    changed = propagate_copies(graph)
                    assert changed == expected_changed, method.name
                    assert _shape(graph) == _shape(expected), method.name
                    rewrites += changed
                else:
                    changed = pass_fn(graph)
                any_change |= bool(changed)
            if not any_change:
                break
    # The comparison saw real rewrites, not only no-op runs.
    assert rewrites > 50
