"""Unreachable block elimination — blocks no path from the entry can
reach are deleted (one of the standard dex2oat size optimizations)."""

from __future__ import annotations

from repro.hgraph.ir import HGraph, graph_transform

__all__ = ["remove_unreachable"]


@graph_transform
def remove_unreachable(graph: HGraph) -> bool:
    reachable: set[int] = set()
    stack = [graph.entry_id]
    while stack:
        bid = stack.pop()
        if bid in reachable:
            continue
        reachable.add(bid)
        stack.extend(graph.blocks[bid].successors)
    doomed = set(graph.blocks) - reachable
    if not doomed:
        return False
    for bid in doomed:
        del graph.blocks[bid]
    graph.recompute_predecessors()
    return True
