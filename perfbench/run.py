"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cold_build --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints every
end-to-end metric; ``--trace 1`` runs the workload untraced and then
traced, and prints every per-layer metric.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it carry the run's
provenance and details.  The exit code is 0 only when every output
matched its reference; without the program's source next to this
directory it is 2 and nothing is printed.  ``perfbench/README.md``
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The interpreter hash seed every run uses (see ``main``).
HASH_SEED = "0"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: End-to-end metric -> (unit, better).  ``BENCHMARK.json`` lists the
#: same names with their bounds.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_builds_per_s": ("1/s", "higher"),
    "latency_p50_s": ("s", "lower"),
    "latency_p90_s": ("s", "lower"),
    "success_rate": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "text_bytes": ("bytes", "lower"),
    "reduction_pct": ("%", "higher"),
    "runtime_cycles_ratio": ("ratio", "lower"),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("cold_build", "incremental_stream", "serve_mix")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="app size factor (1.0 = the paper apps)"
    )
    return parser.parse_args(argv)


def provenance(args: argparse.Namespace) -> dict:
    """Enough to tell which host, interpreter and source a number came
    from; the CPU counts are recorded separately because they can
    differ (affinity masks)."""
    from repro.suffixtree.parallel import available_parallelism

    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        git_sha = done.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "available_parallelism": available_parallelism(),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha,
        "src_sha256": source.hexdigest(),
    }


def latency_summary(latencies: list[float]) -> dict:
    """Median and p90, and how many samples lie beyond p90."""
    ordered = sorted(latencies) or [0.0]  # no completed build: the run is incorrect
    p90 = statistics.quantiles(ordered, n=10)[-1] if len(ordered) > 1 else ordered[0]
    return {
        "samples": len(latencies),
        "p50": statistics.median(ordered),
        "p90": p90,
        "beyond_p90": sum(1 for x in ordered if x > p90),
    }


def errors_of(outcome) -> int:
    return min(outcome.attempted, outcome.failed + len(outcome.mismatches))


def measured(workload, args, work_dir: Path) -> tuple[dict, dict, object]:
    """The end-to-end run: ``SETUP_REPEATS`` set-ups (the last one is
    kept), one untraced window, verification."""
    from layers import NullRecorder

    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
        t0 = time.perf_counter()
        state = workload.setup(args.seed, args.scale, work_dir)
        setup_times.append(time.perf_counter() - t0)
    try:
        outcome = workload.window(state, args.seconds, NullRecorder())
    finally:
        workload.close(state)
    workload.verify(state, outcome)
    lat = latency_summary(list(outcome.latencies.values()))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_builds_per_s": len(outcome.latencies) / outcome.seconds,
        "latency_p50_s": lat["p50"],
        "latency_p90_s": lat["p90"],
        "success_rate": 1.0 - errors_of(outcome) / outcome.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "text_bytes": outcome.exact.get("text_bytes", 0),
        "reduction_pct": outcome.exact.get("reduction_pct", 0.0),
        "runtime_cycles_ratio": outcome.exact.get("runtime_cycles_ratio", 0.0),
    }
    detail = {"latency": lat, "setup_runs_s": setup_times, "window_s": outcome.seconds}
    return metrics, detail, outcome


def traced(workload, args, work_dir: Path) -> tuple[dict, dict, object]:
    """The per-layer run: an untraced window, then a traced window on a
    fresh set-up; the two must produce the same bytes."""
    from layers import LAYER_METRICS, NullRecorder, Recorder, summarize

    windows = []
    recorder = Recorder()
    for recording in (NullRecorder(), recorder):
        state = workload.setup(args.seed, args.scale, work_dir)
        try:
            if recording is recorder:
                with recorder.installed():
                    outcome = workload.window(state, args.seconds, recorder)
            else:
                outcome = workload.window(state, args.seconds, recording)
        finally:
            workload.close(state)
        workload.verify(state, outcome)
        windows.append(outcome)
    plain, outcome = windows
    for key in sorted(plain.digests.keys() & outcome.digests.keys(), key=repr):
        if plain.digests[key] != outcome.digests[key]:
            outcome.mismatches.append(f"{key}: traced output differs from the untraced one")
    outcome.failed += plain.failed
    outcome.attempted += plain.attempted
    outcome.mismatches.extend(plain.mismatches)

    metrics, totals = summarize(recorder, len(outcome.latencies), outcome.latencies)
    for name in LAYER_METRICS:
        metrics.setdefault(name, outcome.exact.get(name, outcome.executor.get(name, 0)))
    plain_rate = len(plain.latencies) / plain.seconds
    traced_rate = len(outcome.latencies) / outcome.seconds
    metrics["trace.overhead_pct"] = 100.0 * (plain_rate - traced_rate) / plain_rate
    out = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"
    recorder.dump(out, totals)
    detail = {
        "layers": totals,
        "untraced_builds_per_s": plain_rate,
        "traced_builds_per_s": traced_rate,
        "spans": len(recorder.spans),
        "trace_file": str(out.relative_to(ROOT)),
    }
    return metrics, detail, outcome


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    # The app generator seeds its per-idiom streams from hash() of a
    # str tuple, so generated apps differ between processes unless the
    # hash seed is fixed.  Fix it, replacing this process.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    # The program's defaults: no observability kill switch, no faults.
    for name in ("CALIBRO_OBS_OFF", "CALIBRO_FAULTS"):
        os.environ.pop(name, None)
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    # Scratch space for caches and the server socket.  It is left in
    # place: deleting a cache file can take tens of milliseconds on a
    # journaling file system that discards freed blocks, and a run
    # writes hundreds of them.
    work_dir = ROOT / ".perfbench" / "tmp" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work_dir)
    previous_cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        import layers
        import workloads
        from repro.suffixtree.parallel import shutdown_shared_pool

        workload = workloads.WORKLOADS[args.workload]
        try:
            run = traced if args.trace else measured
            metrics, detail, outcome = run(workload, args, work_dir)
        finally:
            shutdown_shared_pool()
    finally:
        os.chdir(previous_cwd)
    table = layers.LAYER_METRICS if args.trace else END_TO_END

    failed = errors_of(outcome)
    detail.update(
        exact=outcome.exact,
        executor=outcome.executor,
        errors=outcome.errors[:10],
        mismatches=outcome.mismatches[:10],
    )
    print(json.dumps({"provenance": provenance(args)}))
    print(json.dumps({"detail": detail}, default=str))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": outcome.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _better) in table.items()
                },
            }
        )
    )
    sys.stdout.flush()
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
