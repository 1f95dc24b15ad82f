"""Group partitioning and the parallel map substrate."""

from __future__ import annotations

import pytest

from repro.suffixtree import available_parallelism, map_over_groups, partition_evenly


def test_partition_even_sizes():
    items = list(range(100))
    parts = partition_evenly(items, 8)
    assert sum(len(p) for p in parts) == 100
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(x for p in parts for x in p) == items


def test_partition_deterministic_in_seed():
    items = list(range(40))
    assert partition_evenly(items, 4, seed=7) == partition_evenly(items, 4, seed=7)
    assert partition_evenly(items, 4, seed=7) != partition_evenly(items, 4, seed=8)


def test_partition_is_random_not_contiguous():
    """The paper chose a *random* partition; a contiguous split would
    keep the generation-order locality."""
    items = list(range(64))
    parts = partition_evenly(items, 2, seed=1)
    assert parts[0] != items[:32]


def test_partition_more_groups_than_items():
    parts = partition_evenly([1, 2], 8)
    assert sum(len(p) for p in parts) == 2
    assert all(p for p in parts)


def test_partition_rejects_zero_groups():
    with pytest.raises(ValueError):
        partition_evenly([1], 0)


def test_map_over_groups_serial_path():
    assert map_over_groups(lambda g: sum(g), [[1, 2], [3, 4]], jobs=1) == [3, 7]


def test_map_over_groups_preserves_order():
    groups = [[i] for i in range(10)]
    assert map_over_groups(lambda g: g[0] * 2, groups, jobs=4) == [i * 2 for i in range(10)]


def test_map_over_groups_rejects_bad_jobs():
    with pytest.raises(ValueError):
        map_over_groups(lambda g: g, [[1]], jobs=0)


def test_available_parallelism_positive():
    assert available_parallelism() >= 1


def test_unpicklable_worker_runs_serially_and_is_counted(monkeypatch):
    """A lambda cannot reach a pool process: with several CPUs the map
    falls back to in-process execution and counts it."""
    from repro import observability as obs
    from repro.suffixtree import parallel

    monkeypatch.setattr(parallel, "available_parallelism", lambda: 4)
    with obs.tracing() as tracer:
        assert map_over_groups(lambda g: g[0] + 1, [[1], [2], [3]], jobs=3) == [2, 3, 4]
    assert tracer.counters["plopti.serial_fallbacks"] == 1
