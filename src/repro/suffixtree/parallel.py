"""Execution helper for the paralleled suffix tree optimization (PlOpti).

Paper Section 3.4.1: candidate methods are partitioned into K groups
evenly by method count (a *random* partition — clustering was rejected
for its own overhead), one suffix tree is built per group, and the
build/detect/outline/patch work runs per tree in parallel.

This module provides the group-parallel execution substrate.  Group
payloads are mapped through a worker function with a **persistent,
process-wide pool** when (a) more than one CPU is available and (b) the
caller asked for more than one job; otherwise the groups run serially.
The pool is created lazily on first use and reused for the life of the
process (``shutdown_shared_pool`` tears it down), so repeated builds —
the build-service workload — stop paying the fork/teardown cost that a
per-call ``ProcessPoolExecutor`` charged on every ``map_over_groups``.
Either way the *partitioning* benefit survives: K small trees have a
much smaller working set and far fewer candidate repeats than one
global tree, which is the component of the paper's speedup that does
not depend on thread hardware (and the only one measurable in a
single-core container — see DESIGN.md).
"""

from __future__ import annotations

import atexit
import os
import pickle
import random
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Callable, Sequence, TypeVar

from repro import observability as obs
from repro.core.errors import ConfigError

__all__ = [
    "available_parallelism",
    "map_over_groups",
    "partition_evenly",
    "round_robin_shards",
    "shared_pool",
    "shutdown_shared_pool",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


def available_parallelism() -> int:
    """Number of usable CPUs (best effort)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- the persistent process pool ---------------------------------------------

_SHARED_POOL: ProcessPoolExecutor | None = None


def shared_pool(max_workers: int | None = None) -> ProcessPoolExecutor:
    """The process-wide persistent executor (created lazily, reused).

    ``max_workers`` only applies to the *first* call that actually
    creates the pool; afterwards the existing pool is returned whatever
    its size (call :func:`shutdown_shared_pool` first to resize).
    """
    global _SHARED_POOL
    if _SHARED_POOL is None:
        _SHARED_POOL = ProcessPoolExecutor(
            max_workers=max_workers or available_parallelism()
        )
    return _SHARED_POOL


def shutdown_shared_pool() -> None:
    """Tear down the persistent pool (no-op when none was created)."""
    global _SHARED_POOL
    if _SHARED_POOL is not None:
        _SHARED_POOL.shutdown()
        _SHARED_POOL = None


atexit.register(shutdown_shared_pool)


def partition_evenly(items: Sequence[_T], groups: int, seed: int = 0) -> list[list[_T]]:
    """Randomly partition ``items`` into ``groups`` lists of near-equal size.

    Mirrors the paper's "simple and random partition ... evenly in terms
    of method numbers".  Deterministic for a given ``seed`` so builds are
    reproducible.
    """
    if groups < 1:
        raise ConfigError("groups must be >= 1")
    indices = list(range(len(items)))
    random.Random(seed).shuffle(indices)
    buckets: list[list[_T]] = [[] for _ in range(min(groups, max(1, len(items))))]
    for rank, idx in enumerate(indices):
        buckets[rank % len(buckets)].append(items[idx])
    return [b for b in buckets if b]


def round_robin_shards(count: int, shards: int) -> list[list[int]]:
    """Deterministically assign ``count`` item indices to at most
    ``shards`` buckets, round-robin; empty buckets are dropped.

    This is the group→shard placement of the multi-process shard
    executor (:mod:`repro.service.shard`).  Round-robin keeps shard
    loads within one group of each other — matching the paper's
    even-by-method-count partitioning philosophy one level up — and is a
    pure function of ``(count, shards)``, so a sharded build touches
    exactly the same payloads in exactly the same per-shard order on
    every run.
    """
    if shards < 1:
        raise ConfigError("shards must be >= 1")
    buckets: list[list[int]] = [[] for _ in range(min(shards, max(1, count)))]
    for index in range(count):
        buckets[index % len(buckets)].append(index)
    return [bucket for bucket in buckets if bucket]


def map_over_groups(
    worker: Callable[[_T], _R],
    groups: Sequence[_T],
    jobs: int = 1,
) -> list[_R]:
    """Apply ``worker`` to each group, in parallel when possible.

    Results are returned in group order.  Parallel runs go through the
    persistent :func:`shared_pool`; at most ``jobs`` tasks are in flight
    at once even when the pool is wider.  A worker that cannot be
    shipped to another process (a lambda or a local function) runs the
    groups serially instead, counted as ``plopti.serial_fallbacks``.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    effective = min(jobs, len(groups), available_parallelism())
    if effective <= 1 or len(groups) <= 1:
        return [worker(group) for group in groups]
    if not _picklable(worker):
        obs.counter_add("plopti.serial_fallbacks")
        return [worker(group) for group in groups]
    pool = shared_pool()
    results: list[_R | None] = [None] * len(groups)
    in_flight: dict[Future, int] = {}
    next_index = 0
    while next_index < len(groups) or in_flight:
        while next_index < len(groups) and len(in_flight) < effective:
            in_flight[pool.submit(worker, groups[next_index])] = next_index
            next_index += 1
        done, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
        for future in done:
            results[in_flight.pop(future)] = future.result()
    return results  # type: ignore[return-value]


def _picklable(worker: Callable) -> bool:
    """Whether ``worker`` can be sent to a pool process."""
    try:
        pickle.dumps(worker)
    except (pickle.PicklingError, AttributeError, TypeError):
        return False
    return True
