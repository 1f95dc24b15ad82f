"""End-to-end trace coverage: the phase spans must account for the build.

If the phase tree said "compile 54%, outline 42%, link 4%" but those
summed to half the real wall time, every percentage in ``calibro
trace`` would be a lie.  This pins the accounting: the top-level phase
spans cover at least 95% of the root span, and the root span covers at
least 95% of the externally observed wall time.
"""

from __future__ import annotations

import time

from repro import observability as obs
from repro.core import CalibroConfig, build_app
from repro.workloads import app_spec, generate_app


def test_build_trace_phases_cover_wall_time():
    dexfile = generate_app(app_spec("Meituan", 0.3)).dexfile
    config = CalibroConfig.cto_ltbo_plopti(2)
    build_app(dexfile, config)  # warm caches so timing reflects steady state

    with obs.tracing():
        wall_start = time.perf_counter()
        build = build_app(dexfile, config)
        wall = time.perf_counter() - wall_start

    trace = build.trace
    assert trace is not None
    root = trace.find("build")
    assert root is not None

    # The root span vs the stopwatch around the call.
    assert root.duration >= 0.95 * wall

    # The three phases vs the root: dex2oat + ltbo + link leave at most
    # 5% of the build unattributed.
    phases = [trace.find(n) for n in ("build.dex2oat", "build.ltbo", "build.link")]
    assert all(p is not None for p in phases)
    assert sum(p.duration for p in phases) >= 0.95 * root.duration

    # The structured trace and the legacy timings dict agree exactly —
    # they are the same spans.
    assert build.timings["compile"] == phases[0].duration
    assert build.timings["ltbo"] == phases[1].duration
    assert build.timings["total"] == root.duration

    # Reconstructed PlOpti group spans: both partitions present, nested
    # under the outline span, each with its three-stage breakdown.
    outline = trace.find("ltbo.outline")
    groups = [s for s in outline.children if s.name == "ltbo.group"]
    assert len(groups) == 2
    for group in groups:
        stages = {c.name for c in group.children}
        assert stages == {
            "ltbo.group.tree_build",
            "ltbo.group.select",
            "ltbo.group.rewrite",
        }

    # The optimization passes' reconstructed span sits inside code
    # generation, whose per-method loop runs them.
    codegen = trace.find("dex2oat.codegen")
    opt = [s for s in codegen.children if s.name == "dex2oat.opt"]
    assert len(opt) == 1
    assert 0.0 < opt[0].duration <= codegen.duration

    # Counters made it into the trace, and the headline ones are sane.
    assert trace.counters["dex2oat.methods"] > 0
    assert trace.counters["plopti.partitions"] == 2
    assert trace.counters["ltbo.bytes_saved"] > 0
