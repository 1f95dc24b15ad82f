"""The three benchmark workloads.

Every workload is closed loop: each caller sends its next request only
after the previous reply.  Inputs come from the workload seed alone.
A workload has three parts:

* ``setup(seed, scale, work_dir)`` makes the inputs and starts whatever
  serves them (untimed here; the runner times it as ``setup_s``);
* ``window(state, seconds, recorder)`` runs requests until ``seconds``
  of measured time have passed and returns an :class:`Outcome`;
* ``verify(state, outcome)`` builds references after the window and
  checks every output, filling ``outcome.mismatches`` and
  ``outcome.exact``.

``close(state)`` stops servers and pools.  All builds use the
program's defaults; references are uncached serial ``build_app`` runs
(``jobs=1``), so they share no executor or cache code with the builds
they check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import CalibroConfig, build_app
from repro.core.errors import ServiceError
from repro.dex import Interpreter
from repro.dex.interp import DexError
from repro.oat.oatfile import OatFile
from repro.runtime import CycleModel, Emulator
from repro.service import (
    AsyncBuildServer,
    BuildService,
    CalibroClient,
    ServiceConfig,
    serve_in_background,
)
from repro.workloads import APP_NAMES, app_spec, diff_stream, generate_app, mutate_app

__all__ = ["WORKLOADS", "Outcome"]

#: The paper's headline configuration: CTO + LTBO + PlOpti, K = 8.
CONFIG = CalibroConfig.cto_ltbo_plopti(8)
MERGE_CONFIG = CONFIG.with_merging()

#: cold_build's build cycle: every app about as often as its OAT size
#: in Table 4, in units of 200 MB (Kuaishou three times, Toutiao and
#: Wechat twice).  With each app once, the median falls on the gap
#: between the third and fourth app by size and jumps between them from
#: run to run; this way it falls in the middle of the Toutiao and
#: Wechat builds, and p90 in the middle of Kuaishou's.
COLD_CYCLE = APP_NAMES + ("Kuaishou", "Toutiao", "Kuaishou", "Wechat")

#: Diff-stream length; the stream repeats through fresh services.
STREAM_STEPS = 30
#: Stream steps checked against a reference, besides the final one.
STREAM_SAMPLES = 5
#: serve_mix: share of requests that carry a fresh one-method edit.
MISS_SHARE = 0.12
SERVE_CLIENTS = 2
#: serve_mix: the apps by popularity.  The most requested app is
#: mid-sized and the next ones alternate small and large, so the
#: median request falls in the middle of Toutiao's warm hits instead of
#: on an edge between two apps.
SERVE_RANKS = ("Toutiao", "Taobao", "Wechat", "Fanqie", "Kuaishou", "Meituan")
#: serve_mix: requests per shuffled deck, and decks planned per client
#: (about twice what a run sends).
DECK = 60
SERVE_DECKS = 4
#: A window runs on past its seconds until this many builds were
#: attempted, so that p90 has at least ten samples beyond it.
MIN_BUILDS = 100


def make_app(name: str, seed: int, scale: float):
    """Paper app ``name`` with its generator seed moved by the workload
    seed (seed 0 gives the repository's stock apps)."""
    spec = app_spec(name, scale)
    return generate_app(dataclasses.replace(spec, seed=spec.seed + 7919 * seed))


def digest(oat_bytes: bytes) -> str:
    return hashlib.sha256(oat_bytes).hexdigest()


def reference(dexfile, config: CalibroConfig):
    """The uncached, serial build an output must equal byte for byte."""
    return build_app(dexfile, dataclasses.replace(config, jobs=1))


def run_script(oat: OatFile, dexfile, app) -> tuple[list, int]:
    """UI-script results on the emulator (traps as ``("trap", kind)``)
    and the cycles they took under Table 7's predictive core model."""
    emulator = Emulator(
        oat,
        dexfile,
        native_handlers=app.native_handlers,
        cycle_model=CycleModel(pipeline="predictive"),
    )
    results, cycles = [], 0
    for method, args in app.ui_script.iterate():
        run = emulator.call(method, list(args))
        cycles += run.cycles
        results.append(("trap", run.trap) if run.trap is not None else run.value)
    return results, cycles


def interpret_script(dexfile, app) -> list:
    """The reference UI-script results from the dex interpreter."""
    interp = Interpreter(
        dexfile, native_handlers=app.native_handlers, max_steps=200_000_000
    )
    results = []
    for method, args in app.ui_script.iterate():
        try:
            results.append(interp.call(method, list(args)))
        except DexError as exc:
            results.append(("trap", exc.kind))
    return results


@dataclass
class Outcome:
    """What one measured window produced."""

    #: request key -> client-observed seconds, completed builds only.
    latencies: dict = field(default_factory=dict)
    attempted: int = 0
    #: Builds that raised or were refused, and why.
    failed: int = 0
    errors: list = field(default_factory=list)
    #: Measured seconds (set-up and re-priming excluded).
    seconds: float = 0.0
    #: request key -> OAT digest, for the traced/untraced comparison.
    digests: dict = field(default_factory=dict)
    #: Outputs that differ from their reference, one entry each.
    mismatches: list = field(default_factory=list)
    #: Exact output metrics, filled by ``verify``.
    exact: dict = field(default_factory=dict)
    #: Executor supervision counts from the services used.
    executor: dict = field(default_factory=dict)
    #: Kept by the window for ``verify``.
    keep: dict = field(default_factory=dict)


class _Clock:
    """Measured time, which can be paused for untimed work in a window,
    and the window's stopping rule."""

    def __init__(self, seconds: float, min_builds: int) -> None:
        self.seconds = seconds
        self.min_builds = min_builds
        self.paused = 0.0
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.paused

    def done(self, attempted: int) -> bool:
        return attempted >= self.min_builds and self.elapsed() >= self.seconds


def _exact(outputs: list, baselines: list) -> dict:
    """Exact metrics over distinct outputs: ``outputs`` and
    ``baselines`` are aligned ``(text_bytes, cycles)`` pairs."""
    if not outputs:  # every build failed; the run already reads incorrect
        return {}
    text = sum(t for t, _ in outputs)
    return {
        "text_bytes": text,
        "reduction_pct": 100.0 * (1.0 - text / sum(t for t, _ in baselines)),
        "runtime_cycles_ratio": (
            sum(c for _, c in outputs) / sum(c for _, c in baselines)
        ),
    }


def _check_script(outcome: Outcome, label: str, oat: OatFile, dexfile, app) -> int:
    """Emulator vs interpreter on the UI script; returns the cycles."""
    got, cycles = run_script(oat, dexfile, app)
    if got != interpret_script(dexfile, app):
        outcome.mismatches.append(
            f"{label}: emulated UI script differs from the interpreter"
        )
    return cycles


# -- cold_build ---------------------------------------------------------------


@dataclass
class ColdState:
    apps: list
    baselines: dict


def cold_setup(seed: int, scale: float, work_dir: Path) -> ColdState:
    apps = [make_app(name, seed, scale) for name in APP_NAMES]
    baselines = {
        app.name: build_app(app.dexfile, CalibroConfig.baseline()) for app in apps
    }
    return ColdState(apps=apps, baselines=baselines)


def cold_window(
    state: ColdState, seconds: float, recorder, min_builds: int = MIN_BUILDS
) -> Outcome:
    """One caller builds the apps of ``COLD_CYCLE`` in turn with
    ``build_app``, no cache, until time is up and the cycle ran once."""
    outcome = Outcome()
    first: dict = {}
    clock = _Clock(seconds, min_builds)
    apps = {app.name: app for app in state.apps}
    cycle = [apps[name] for name in COLD_CYCLE]
    index = 0
    while not clock.done(outcome.attempted) or index < len(cycle):
        app = cycle[index % len(cycle)]
        key = (app.name, index)
        outcome.attempted += 1
        try:
            with recorder.request(key):
                t0 = time.perf_counter()
                build = build_app(app.dexfile, CONFIG)
                latency = time.perf_counter() - t0
        except Exception as exc:  # a failed build is counted, not fatal
            outcome.failed += 1
            outcome.errors.append(f"{app.name}: build failed: {exc!r}")
        else:
            outcome.latencies[key] = latency
            outcome.digests[key] = digest(build.oat.to_bytes())
            first.setdefault(app.name, build)
        index += 1
    outcome.seconds = clock.elapsed()
    outcome.keep["first"] = first
    return outcome


def cold_verify(state: ColdState, outcome: Outcome) -> None:
    first = outcome.keep["first"]
    outputs, baselines = [], []
    outlined = 0
    for app in state.apps:
        want = digest(reference(app.dexfile, CONFIG).oat.to_bytes())
        for (name, _), got in outcome.digests.items():
            if name == app.name and got != want:
                outcome.mismatches.append(f"{app.name}: OAT differs from the reference build")
        build = first.get(app.name)
        if build is None:
            continue
        outlined += build.ltbo.total_outlined_functions
        base = state.baselines[app.name]
        cycles = _check_script(outcome, app.name, build.oat, app.dexfile, app)
        outputs.append((build.text_size, cycles))
        baselines.append((base.text_size, run_script(base.oat, app.dexfile, app)[1]))
    outcome.exact.update(_exact(outputs, baselines))
    outcome.exact["ltbo.repeats_outlined"] = outlined


def cold_close(state: ColdState) -> None:
    pass


# -- incremental_stream -------------------------------------------------------


@dataclass
class StreamState:
    app: object
    stream: list
    samples: list
    work_dir: Path
    service: BuildService | None = None


def _stream_service(state: StreamState) -> BuildService:
    """A fresh incremental service on a fresh cache, primed with v0."""
    cache_dir = tempfile.mkdtemp(prefix="stream-cache-", dir=state.work_dir)
    service = BuildService(ServiceConfig(cache_dir=cache_dir, incremental=True))
    service.submit(state.app.dexfile, CONFIG, label=state.app.name)
    return service


def stream_setup(seed: int, scale: float, work_dir: Path) -> StreamState:
    # The stock app: the seed draws the stream, so runs of different
    # seeds differ in edits, not in the app they start from.
    app = make_app("Kuaishou", 0, scale)
    stream = list(
        diff_stream(
            app.dexfile,
            steps=STREAM_STEPS,
            seed=seed,
            protected=frozenset(app.entry_points),
        )
    )
    rng = random.Random(f"{seed}:stream-samples")
    samples = sorted(rng.sample(range(STREAM_STEPS - 1), STREAM_SAMPLES))
    samples.append(STREAM_STEPS - 1)
    state = StreamState(app=app, stream=stream, samples=samples, work_dir=work_dir)
    state.service = _stream_service(state)
    return state


def _add_stats(outcome: Outcome, service: BuildService) -> None:
    """Add the service's executor retries and serial fallbacks."""
    executors = {"pool": service.pool, "shard": service.shard_executor}
    for name, executor in executors.items():
        if executor is None:
            continue
        for counter in ("retries", "serial_fallbacks"):
            key = f"{name}.{counter}"
            count = getattr(executor.stats, counter)
            outcome.executor[key] = outcome.executor.get(key, 0) + count


def stream_window(
    state: StreamState, seconds: float, recorder, min_builds: int = MIN_BUILDS
) -> Outcome:
    """One caller sends the stream's versions in order through one
    incremental service.  When the stream ends with time left, the next
    pass starts on a fresh service and cache (re-priming is untimed),
    so every pass does the same work."""
    outcome = Outcome()
    first_pass: dict = {}
    deltas = []
    clock = _Clock(seconds, min_builds)
    pass_index = 0
    while pass_index == 0 or not clock.done(outcome.attempted):
        if pass_index > 0:
            paused = time.perf_counter()
            _add_stats(outcome, state.service)
            state.service.close()
            state.service = _stream_service(state)
            clock.paused += time.perf_counter() - paused
        for step, (dexfile, _mutation) in enumerate(state.stream):
            if pass_index > 0 and clock.done(outcome.attempted):
                break
            key = (pass_index, step)
            outcome.attempted += 1
            try:
                with recorder.request(key):
                    t0 = time.perf_counter()
                    report = state.service.submit(dexfile, CONFIG, label=state.app.name)
                    latency = time.perf_counter() - t0
            except Exception as exc:
                outcome.failed += 1
                outcome.errors.append(f"step {step}: build failed: {exc!r}")
                continue
            outcome.latencies[key] = latency
            outcome.digests[key] = digest(report.build.oat.to_bytes())
            if pass_index == 0:
                deltas.append(report.graph)
                if step in state.samples:
                    first_pass[step] = report.build
        pass_index += 1
    outcome.seconds = clock.elapsed()
    _add_stats(outcome, state.service)
    outcome.keep["first"] = first_pass
    total = sum(d.nodes_total for d in deltas)
    rebuilt = sum(d.nodes_rebuilt for d in deltas)
    outcome.exact["graph.nodes_rebuilt"] = rebuilt / max(len(deltas), 1)
    outcome.exact["graph.reuse_ratio"] = sum(d.nodes_reused for d in deltas) / max(total, 1)
    return outcome


def stream_verify(state: StreamState, outcome: Outcome) -> None:
    """Sampled steps and the final step equal a from-scratch reference;
    every other step of every pass equals the same step of pass 0."""
    for (pass_index, step), got in outcome.digests.items():
        first = outcome.digests.get((0, step))
        if got != first:
            outcome.mismatches.append(
                f"pass {pass_index} step {step}: OAT differs from pass 0"
            )
    outputs, baselines = [], []
    outlined = 0
    app = state.app
    for step, build in outcome.keep["first"].items():
        dexfile = state.stream[step][0]
        if digest(build.oat.to_bytes()) != digest(reference(dexfile, CONFIG).oat.to_bytes()):
            outcome.mismatches.append(f"step {step}: OAT differs from the reference build")
        outlined += build.ltbo.total_outlined_functions
        base = build_app(dexfile, CalibroConfig.baseline())
        cycles = _check_script(outcome, f"step {step}", build.oat, dexfile, app)
        outputs.append((build.text_size, cycles))
        baselines.append((base.text_size, run_script(base.oat, dexfile, app)[1]))
    outcome.exact.update(_exact(outputs, baselines))
    outcome.exact["ltbo.repeats_outlined"] = outlined


def stream_close(state: StreamState) -> None:
    if state.service is not None:
        state.service.close()
        state.service = None


# -- serve_mix ----------------------------------------------------------------


@dataclass
class ServeState:
    apps: list
    combos: list
    #: Per client: [(combo index, edited dex or None), ...].
    plans: list
    service: BuildService
    #: Stops the server, then closes the service.
    stack: contextlib.ExitStack
    socket_path: str
    #: combo index -> the warm-up request's BuildResult.
    warm: dict = field(default_factory=dict)


def _deck(combos: int) -> list[int]:
    """One deck of ``DECK`` combo indices, each combo as often as its
    Zipf weight ``1 / (rank + 1)`` says (largest remainders), where the
    rank is the combo's index."""
    weights = [1.0 / (rank + 1) for rank in range(combos)]
    shares = [DECK * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(combos), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: DECK - sum(counts)]:
        counts[i] += 1
    return [combo for combo, count in enumerate(counts) for _ in range(count)]


def _plan(seed: int, client: int, apps: list, combos: list) -> list:
    """The client's requests: shuffled decks, so every run sends the
    same Zipf mix; ``MISS_SHARE`` of each deck carries a fresh
    one-method edit of its app."""
    rng = random.Random(f"{seed}:serve:{client}")
    misses = round(MISS_SHARE * DECK)
    plan = []
    for _ in range(SERVE_DECKS):
        deck = _deck(len(combos))
        rng.shuffle(deck)
        edited = set(rng.sample(range(DECK), misses))
        for position, combo in enumerate(deck):
            if position not in edited:
                plan.append((combo, None))
                continue
            app = apps[combos[combo][0]]
            dexfile, _ = mutate_app(
                app.dexfile,
                seed=rng.randrange(1 << 30),
                kind="edit",
                protected=frozenset(app.entry_points),
            )
            plan.append((combo, dexfile))
    return plan


def serve_setup(seed: int, scale: float, work_dir: Path) -> ServeState:
    """Inputs, one server over a sharded service on a fresh cache, and
    one untimed warm-up request per (app, config)."""
    # The stock apps: the seed orders the requests and draws the edits.
    apps = [make_app(name, 0, scale) for name in APP_NAMES]
    # Zipf rank order: SERVE_RANKS under CONFIG, then under MERGE_CONFIG.
    combos = [
        (APP_NAMES.index(name), config)
        for config in (CONFIG, MERGE_CONFIG)
        for name in SERVE_RANKS
    ]
    plans = [_plan(seed, client, apps, combos) for client in range(SERVE_CLIENTS)]
    cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=work_dir)
    # Relative to the working directory: unix socket paths are short.
    socket_path = "serve.sock"
    with contextlib.ExitStack() as stack:
        service = stack.enter_context(
            BuildService(ServiceConfig(cache_dir=cache_dir, shards=2))
        )
        stack.enter_context(serve_in_background(AsyncBuildServer(service, socket_path)))
        state = ServeState(apps, combos, plans, service, stack.pop_all(), socket_path)
    try:
        client = CalibroClient(socket_path, tenant="warmup")
        for index, (app_index, config) in enumerate(combos):
            state.warm[index] = client.build(
                apps[app_index].dexfile, config, label=f"warm-{index}"
            )
    except BaseException:
        serve_close(state)
        raise
    return state


def serve_window(
    state: ServeState, seconds: float, recorder, min_builds: int = MIN_BUILDS
) -> Outcome:
    """Two clients, one tenant each, send their plans until time is up."""
    outcome = Outcome()
    lock = threading.Lock()
    barrier = threading.Barrier(SERVE_CLIENTS + 1)
    clock_box: list = []

    def client_loop(client_index: int) -> None:
        client = CalibroClient(state.socket_path, tenant=f"tenant{client_index}")
        barrier.wait()
        clock = clock_box[0]
        for i, (combo, edited) in enumerate(state.plans[client_index]):
            if clock.done(outcome.attempted):
                break
            app_index, config = state.combos[combo]
            dexfile = edited if edited is not None else state.apps[app_index].dexfile
            key = (client_index, i)
            label = f"c{client_index}-{i}"
            with lock:
                outcome.attempted += 1
            try:
                with recorder.request(key, alias=label):
                    t0 = time.perf_counter()
                    result = client.submit(
                        dexfile, config, label=label, request_id=label
                    ).wait()
                    latency = time.perf_counter() - t0
            except (ServiceError, OSError) as exc:  # refused, failed or cut off
                with lock:
                    outcome.failed += 1
                    outcome.errors.append(f"{label}: {exc!r}")
                continue
            with lock:
                outcome.latencies[key] = latency
                outcome.digests[key] = digest(result.oat_bytes)

    threads = [
        threading.Thread(target=client_loop, args=(k,), name=f"perfbench-client{k}")
        for k in range(SERVE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    clock_box.append(_Clock(seconds, min_builds))
    barrier.wait()
    for thread in threads:
        thread.join()
    outcome.seconds = clock_box[0].elapsed()
    _add_stats(outcome, state.service)
    return outcome


def serve_verify(state: ServeState, outcome: Outcome) -> None:
    """Every warm output equals its reference; every hit equals its
    warm output; every edited request equals its own reference."""
    warm_digests = {}
    outputs, baselines = [], []
    outlined = merged = folded = 0
    base_cache: dict = {}
    for index, (app_index, config) in enumerate(state.combos):
        app = state.apps[app_index]
        result = state.warm[index]
        warm_digests[index] = digest(result.oat_bytes)
        if warm_digests[index] != digest(reference(app.dexfile, config).oat.to_bytes()):
            outcome.mismatches.append(
                f"warm {app.name} {config.name}: OAT differs from the reference build"
            )
        outlined += result.summary["outlined_functions"]
        merged += result.summary["functions_merged"]
        folded += result.summary["functions_folded"]
        oat = OatFile.from_bytes(result.oat_bytes)
        if app.name not in base_cache:
            base = build_app(app.dexfile, CalibroConfig.baseline())
            base_cache[app.name] = (base.text_size, run_script(base.oat, app.dexfile, app)[1])
        cycles = _check_script(outcome, f"{app.name} {config.name}", oat, app.dexfile, app)
        outputs.append((oat.text_size, cycles))
        baselines.append(base_cache[app.name])
    for (client_index, i), got in outcome.digests.items():
        combo, edited = state.plans[client_index][i]
        if edited is None:
            want = warm_digests[combo]
        else:
            want = digest(reference(edited, state.combos[combo][1]).oat.to_bytes())
        if got != want:
            outcome.mismatches.append(f"c{client_index}-{i}: OAT differs from the reference build")
    outcome.exact.update(_exact(outputs, baselines))
    outcome.exact["ltbo.repeats_outlined"] = outlined
    outcome.exact["merge.functions_merged"] = merged
    outcome.exact["merge.functions_folded"] = folded


def serve_close(state: ServeState) -> None:
    state.stack.close()


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    window: object
    verify: object
    close: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold_build", cold_setup, cold_window, cold_verify, cold_close),
        Workload("incremental_stream", stream_setup, stream_window, stream_verify, stream_close),
        Workload("serve_mix", serve_setup, serve_window, serve_verify, serve_close),
    )
}
