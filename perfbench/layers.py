"""Per-layer timing for the traced benchmark run.

The program is never edited.  For the traced window, :class:`Recorder`
replaces the names that each layer's callers look up -- the call site,
for example ``repro.compiler.driver.build_hgraph`` -- with wrappers
that record one span per call: layer name, start, end, the enclosing
span on the same thread, and the benchmark request it belongs to.
Spans stay in memory and are written once, after the window.  The
wrappers exist only in the benchmark process; a forked pool or shard
child calls straight through, so child-side work is measured from the
``OutlineStats`` that ``outline_partitioned`` returns instead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path

__all__ = ["LAYER_METRICS", "NullRecorder", "Recorder", "summarize"]

# Layers whose span encloses a whole request; they are reported, but
# they do not count as covering time in ``unattributed_share``.
ENVELOPES = frozenset({"service.submit", "graph.build"})

#: Timed per-layer metric -> layer (seconds per completed build).
TIMED = {
    "dex.verify_s": "dex.verify",
    "hgraph.build_s": "hgraph.build",
    "hgraph.passes_s": "hgraph.passes",
    "compiler.dex2oat_s": "compiler.dex2oat",
    "compiler.codegen_s": "compiler.codegen",
    "ltbo.select_s": "ltbo.select",
    "ltbo.outline_s": "ltbo.outline",
    "merge.merge_s": "merge.merge",
    "suffixtree.map_s": "suffixtree.map",
    "oat.link_s": "oat.link",
    "cache.lookup_s": "cache.lookup",
    "cache.store_s": "cache.store",
    "graph.build_s": "graph.build",
    "graph.state_io_s": "graph.state_io",
    "pool.map_s": "pool.map",
    "shard.map_s": "shard.map",
    "service.submit_s": "service.submit",
    "service.codec_s": "service.codec",
}

#: Self time (total minus enclosed child spans) of the layers that
#: enclose other layers, seconds per completed build.
SELF = {
    "compiler.dex2oat_self_s": "compiler.dex2oat",
    "ltbo.outline_self_s": "ltbo.outline",
    "merge.merge_self_s": "merge.merge",
    "graph.build_self_s": "graph.build",
    "service.submit_self_s": "service.submit",
}

#: Every per-layer metric with its unit and better-direction, in
#: report order.  ``BENCHMARK.json`` lists the same names.
LAYER_METRICS = {
    **{name: ("s", "lower") for name in TIMED},
    **{name: ("s", "lower") for name in SELF},
    "hgraph.ir_removed": ("count", "higher"),
    "compiler.methods": ("count", "lower"),
    "ltbo.group_work_s": ("s", "lower"),
    "ltbo.rewrite_s": ("s", "lower"),
    "ltbo.parallel_efficiency": ("ratio", "higher"),
    "ltbo.executor_overhead_s": ("s", "lower"),
    "ltbo.repeats_outlined": ("count", "higher"),
    "ltbo.outline_yield": ("ratio", "higher"),
    "merge.functions_merged": ("count", "higher"),
    "merge.functions_folded": ("count", "higher"),
    "suffixtree.tree_build_s": ("s", "lower"),
    "suffixtree.search_s": ("s", "lower"),
    "suffixtree.symbols": ("count", "lower"),
    "cache.lookups": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "graph.nodes_rebuilt": ("count", "lower"),
    "graph.reuse_ratio": ("ratio", "higher"),
    "pool.retries": ("count", "lower"),
    "pool.serial_fallbacks": ("count", "lower"),
    "shard.retries": ("count", "lower"),
    "shard.serial_fallbacks": ("count", "lower"),
    "service.frontdoor_s": ("s", "lower"),
    "unattributed_share": ("ratio", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


class Span:
    __slots__ = ("layer", "parent", "request", "start", "end", "info")

    def __init__(self, layer: str, parent: "Span | None", request) -> None:
        self.layer = layer
        self.parent = parent
        self.request = request
        self.start = self.end = 0.0
        self.info: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


# -- what each wrapper notes besides its span --------------------------------


def _note_passes(span, args, kwargs, stats) -> None:
    span.info["ir_removed"] = stats.instructions_before - stats.instructions_after


def _note_lookup(span, args, kwargs, value) -> None:
    span.info["hit"] = value is not None


def _note_outline(span, args, kwargs, result) -> None:
    """Group compute of the groups mined in this call.  Cached groups
    carry the timings of their original mining run, so they are left
    out."""
    cached = set(result.cached_indices)
    mined = [s for i, s in enumerate(result.group_stats) if i not in cached]
    span.info.update(
        work=sum(s.build_seconds + s.search_seconds + s.rewrite_seconds for s in mined),
        tree_build=sum(s.build_seconds for s in mined),
        search=sum(s.search_seconds for s in mined),
        rewrite=sum(s.rewrite_seconds for s in mined),
        symbols=sum(s.sequence_symbols for s in mined),
        outlined=sum(s.repeats_outlined for s in mined),
        enumerated=sum(s.repeats_enumerated for s in mined),
    )


def _jobs_map_over_groups(span, args, kwargs) -> None:
    from repro.suffixtree.parallel import available_parallelism

    groups = args[1] if len(args) > 1 else kwargs["groups"]
    jobs = args[2] if len(args) > 2 else kwargs.get("jobs", 1)
    span.info["jobs"] = max(1, min(jobs, len(groups), available_parallelism()))


def _jobs_pool(span, args, kwargs) -> None:
    pool, payloads = args[0], args[2] if len(args) > 2 else kwargs["payloads"]
    span.info["jobs"] = max(1, min(pool.max_workers, len(payloads)))


def _jobs_shard(span, args, kwargs) -> None:
    executor, payloads = args[0], args[2] if len(args) > 2 else kwargs["payloads"]
    span.info["jobs"] = max(1, min(executor.shards, len(payloads)))


def _label(args, kwargs):
    return kwargs.get("label", "")


def _message_id(args, kwargs):
    message = args[0] if args else kwargs.get("message")
    return message.get("id") if isinstance(message, dict) else None


def _note_decoded(recorder):
    def note(span, args, kwargs, data) -> None:
        key = recorder.aliases.get(data.get("id"))
        if key is not None:
            span.request = key

    return note


def _site(module, attr, layer, *, key_of=None, before=None, note=None) -> tuple:
    return (module, attr, layer, key_of, before, note)


def _sites(recorder) -> list:
    """(module, attribute, layer, key_of, before, note) for every
    wrapped call site: ``key_of(args, kwargs)`` names the request a
    call belongs to, ``before`` and ``note`` add to the span's info
    before and after the call."""
    driver, graph = "repro.compiler.driver", "repro.service.graph"
    pipeline, parallel = "repro.core.pipeline", "repro.core.parallel"
    cache, passes = "repro.service.cache", "repro.hgraph.passes.manager"
    server, client = "repro.service.server", "repro.service.client"
    return [
        _site(driver, "verify_dexfile", "dex.verify"),
        _site(graph, "verify_method", "dex.verify"),
        _site("repro.dex.serialize", "verify_dexfile", "dex.verify"),
        _site(driver, "build_hgraph", "hgraph.build"),
        _site(graph, "build_hgraph", "hgraph.build"),
        _site(passes, "PassManager.run", "hgraph.passes", note=_note_passes),
        _site(pipeline, "dex2oat", "compiler.dex2oat"),
        _site(graph, "dex2oat", "compiler.dex2oat"),
        _site(driver, "compile_graph", "compiler.codegen"),
        _site(driver, "compile_jni_stub", "compiler.codegen"),
        _site(graph, "compile_graph", "compiler.codegen"),
        _site(graph, "compile_jni_stub", "compiler.codegen"),
        _site("repro.core.candidates", "select_candidates", "ltbo.select"),
        _site(parallel, "outline_partitioned", "ltbo.outline", note=_note_outline),
        _site(parallel, "map_over_groups", "suffixtree.map", before=_jobs_map_over_groups),
        _site("repro.core.merge", "merge_functions", "merge.merge"),
        _site(pipeline, "link", "oat.link"),
        _site(cache, "OutlineCache.lookup_chunk", "cache.lookup", note=_note_lookup),
        _site(cache, "OutlineCache.lookup_object", "cache.lookup", note=_note_lookup),
        _site(cache, "OutlineCache.store_chunk", "cache.store"),
        _site(cache, "OutlineCache.store_object", "cache.store"),
        _site(graph, "BuildGraph.build", "graph.build"),
        _site(graph, "BuildGraph.load_state", "graph.state_io"),
        _site(graph, "BuildGraph.save_state", "graph.state_io"),
        _site("repro.service.pool", "WorkerPool.map_groups", "pool.map", before=_jobs_pool),
        _site("repro.service.shard", "ShardExecutor.map_groups", "shard.map", before=_jobs_shard),
        _site("repro.service.build", "BuildService.submit", "service.submit", key_of=_label),
        _site(server, "encode_message", "service.codec", key_of=_message_id),
        _site(server, "decode_message", "service.codec", note=_note_decoded(recorder)),
        _site(client, "encode_message", "service.codec"),
        _site(client, "decode_message", "service.codec"),
    ]


class NullRecorder:
    """The untraced stand-in: nothing is wrapped or recorded."""

    def request(self, key, alias=None):
        return contextlib.nullcontext()


class Recorder:
    """In-memory span recorder; :meth:`installed` wraps every call site
    for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: request key -> (start, end) as the caller saw it.
        self.requests: dict[object, tuple[float, float]] = {}
        #: build label or protocol message id -> request key.
        self.aliases: dict[object, object] = {}
        self._local = threading.local()
        self._pid = os.getpid()

    @contextlib.contextmanager
    def request(self, key, alias=None):
        """Attribute spans on this thread (and spans carrying
        ``alias`` as build label or message id) to request ``key``."""
        if alias is not None:
            self.aliases[alias] = key
        self._local.request = key
        start = time.perf_counter()
        try:
            yield
        finally:
            self.requests[key] = (start, time.perf_counter())
            self._local.request = None

    def _wrap(self, fn, layer, key_of, before, note):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != recorder._pid:
                return fn(*args, **kwargs)
            local = recorder._local
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = Span(
                layer,
                parent,
                parent.request if parent is not None else getattr(local, "request", None),
            )
            if key_of is not None:
                span.request = recorder.aliases.get(key_of(args, kwargs), span.request)
            if before is not None:
                before(span, args, kwargs)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        restore = []
        try:
            for module_name, attr, layer, key_of, before, note in _sites(self):
                owner = importlib.import_module(module_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[name]
                restore.append((owner, name, original))
                setattr(owner, name, self._wrap(original, layer, key_of, before, note))
            yield self
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)

    def dump(self, path: Path, totals: dict) -> None:
        """Write the spans and the per-layer totals, once."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        doc = {
            "layers": totals,
            "spans": [
                {
                    "layer": s.layer,
                    "start": s.start,
                    "end": s.end,
                    "parent": ids.get(id(s.parent)) if s.parent is not None else None,
                    "request": None if s.request is None else str(s.request),
                    "info": s.info,
                }
                for s in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")


# -- reduction to per-layer metrics ------------------------------------------


def _outermost(spans: list[Span]) -> dict[str, list[Span]]:
    """Spans by layer, leaving out any span nested in a span of its own
    layer (``lookup_group`` calls ``lookup_chunk``, for instance)."""
    out: dict[str, list[Span]] = {}
    for span in spans:
        node = span.parent
        while node is not None and node.layer != span.layer:
            node = node.parent
        if node is None:
            out.setdefault(span.layer, []).append(span)
    return out


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` inside the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Total and self seconds per layer, plus the call count."""
    children: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)] = children.get(id(span.parent), 0.0) + span.seconds
    out: dict[str, dict[str, float]] = {}
    for layer, members in _outermost(spans).items():
        total = sum(s.seconds for s in members)
        self_time = sum(s.seconds - children.get(id(s), 0.0) for s in members)
        out[layer] = {"total_s": total, "self_s": self_time, "calls": len(members)}
    return out


def summarize(recorder: Recorder, builds: int, latencies: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the recorded spans.

    ``builds`` is the number of completed builds in the traced window;
    timings and work counts are per completed build.  ``latencies``
    maps request key -> client-observed seconds.  Returns
    ``(metrics, layer_totals)``; the metrics that come from outputs
    rather than spans (exact counts, executor retries, overhead) are
    added by the caller.
    """
    per = max(builds, 1)
    by_layer = _outermost(recorder.spans)
    totals = layer_totals(recorder.spans)
    metrics: dict[str, float] = {}
    for name, layer in TIMED.items():
        metrics[name] = totals.get(layer, {}).get("total_s", 0.0) / per
    for name, layer in SELF.items():
        metrics[name] = totals.get(layer, {}).get("self_s", 0.0) / per

    metrics["hgraph.ir_removed"] = (
        sum(s.info.get("ir_removed", 0) for s in by_layer.get("hgraph.passes", [])) / per
    )
    metrics["compiler.methods"] = len(by_layer.get("compiler.codegen", [])) / per

    outlines = by_layer.get("ltbo.outline", [])
    ltbo = {
        key: sum(s.info.get(key, 0) for s in outlines)
        for key in ("work", "tree_build", "search", "rewrite", "symbols", "outlined", "enumerated")
    }
    metrics["ltbo.group_work_s"] = ltbo["work"] / per
    metrics["ltbo.rewrite_s"] = ltbo["rewrite"] / per
    metrics["suffixtree.tree_build_s"] = ltbo["tree_build"] / per
    metrics["suffixtree.search_s"] = ltbo["search"] / per
    metrics["suffixtree.symbols"] = ltbo["symbols"] / per
    metrics["ltbo.outline_yield"] = (
        ltbo["outlined"] / ltbo["enumerated"] if ltbo["enumerated"] else 0.0
    )

    # Executor accounting: each executor call ran exactly the groups its
    # enclosing outline call mined, spread over ``jobs`` workers.
    capacity = overhead = work = 0.0
    for layer in ("suffixtree.map", "pool.map", "shard.map"):
        for span in by_layer.get(layer, []):
            parent = span.parent
            while parent is not None and parent.layer != "ltbo.outline":
                parent = parent.parent
            group_work = parent.info.get("work", 0.0) if parent is not None else 0.0
            jobs = span.info.get("jobs", 1)
            work += group_work
            capacity += span.seconds * jobs
            overhead += span.seconds - group_work / jobs
    metrics["ltbo.parallel_efficiency"] = work / capacity if capacity else 0.0
    metrics["ltbo.executor_overhead_s"] = overhead / per

    lookups = by_layer.get("cache.lookup", [])
    metrics["cache.lookups"] = len(lookups) / per
    metrics["cache.hit_ratio"] = (
        sum(1 for s in lookups if s.info.get("hit")) / len(lookups) if lookups else 0.0
    )

    # Attribution: the share of each request's wall time that no layer
    # span (request envelopes aside) covers, and the front-door share
    # (client latency minus the service's own submit time).
    by_request: dict[object, list[tuple[float, float]]] = {}
    submit_seconds: dict[object, float] = {}
    for span in recorder.spans:
        if span.request is None:
            continue
        if span.layer == "service.submit":
            submit_seconds[span.request] = submit_seconds.get(span.request, 0.0) + span.seconds
        if span.layer not in ENVELOPES:
            by_request.setdefault(span.request, []).append((span.start, span.end))
    wall = uncovered = frontdoor = 0.0
    for key, (start, end) in recorder.requests.items():
        wall += end - start
        uncovered += (end - start) - _covered(by_request.get(key, []), start, end)
        if key in submit_seconds and key in latencies:
            frontdoor += latencies[key] - submit_seconds[key]
    metrics["unattributed_share"] = uncovered / wall if wall else 0.0
    metrics["service.frontdoor_s"] = frontdoor / per
    return metrics, totals
