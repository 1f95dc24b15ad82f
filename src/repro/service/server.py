"""The async multi-tenant serve front door.

``calibro serve`` was a synchronous batch loop: N inputs in, N OATs
out, one client at a time.  :class:`AsyncBuildServer` is the
production-shaped front end over the same :class:`~repro.service.
BuildService`: an asyncio accept loop on a **local stream socket** that
admits many concurrent clients, speaks the schema-versioned JSONL
protocol (:mod:`repro.service.protocol`), and dispatches admitted
builds onto the service through a **bounded executor** — the pool,
shards, incremental graph and content-addressed cache are all reused,
so every tenant's warm artifacts are shared exactly as ShareJIT shares
a cross-process code cache.  With a disk-backed cache the sharing
reaches into the worker processes themselves
(``ServiceConfig.shared_cache``, on by default when ``cache_dir`` is
set): shard and pool children hold their own read-through handle on
the same directory, so a group mined by shard 2 of tenant A is a disk
hit for shard 0 of tenant B — without a round-trip through the
supervisor.  The ``status`` op's ``stats["service"]["shared_cache"]``
field reports the resolved knob.

Admission control happens *before* any work is queued, synchronously in
the accept loop (no await between check and registration, so admission
order is exactly arrival order):

* a **queue-depth cap** — at most ``queue_depth`` builds in flight
  (queued + running); the next one gets an explicit ``overloaded``
  response (``reason: "queue-full"``) instead of unbounded latency;
* **per-tenant quotas** — at most ``tenant_quota`` in-flight builds per
  tenant (``reason: "tenant-quota"``), so one chatty tenant cannot
  starve the rest;
* **cooperative cancellation** — a ``cancel`` op aborts a build that is
  still *queued* (it never runs); a running build is never killed
  mid-flight (the pool's own timeout ladder covers stuck work).

Accepted builds stream ``progress`` events per pipeline phase (the
``phase_hook`` threaded through :meth:`BuildService.submit`) and finish
with exactly one terminal event.  A build that fails — including a
deterministic :data:`~repro.service.faults.FAULTS_ENV` injection at the
``serve:<label>`` site — produces a structured ``error`` response; the
accept loop never wedges.

Everything is instrumented under ``service.server.*`` (counters,
gauges, histograms — reference in ``docs/observability.md``), flows
into the ordinary tracer/ledger/Prometheus plumbing, and a
``flush_interval`` timer keeps the exposition file fresh even when the
serve loop sits idle.  Per-tenant request counts ride the exposition as
labeled ``calibro_service_server_tenant_requests`` series.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from repro import observability as obs
from repro.core.errors import CalibroError, ConfigError, ServiceError
from repro.core.pipeline import CalibroConfig
from repro.dex.method import DexFile
from repro.dex.serialize import dexfile_from_json, load_dexfile
from repro.observability.prom import format_labels, prom_name
from repro.service.build import BuildReport, BuildService
from repro.service.faults import maybe_inject
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    validate_request,
)

__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_TENANT_QUOTA",
    "AsyncBuildServer",
    "serve_in_background",
]

#: Maximum builds in flight (queued + running) before ``overloaded``.
DEFAULT_QUEUE_DEPTH = 8
#: Maximum in-flight builds per tenant before ``overloaded``.
DEFAULT_TENANT_QUOTA = 4


@dataclass
class _Job:
    """One admitted build request, from ``accepted`` to its terminal
    event."""

    build_id: str
    request_id: Any
    tenant: str
    label: str
    dexfile: DexFile
    config: CalibroConfig | None
    want_oat: bool
    send: Callable[[dict[str, Any]], Awaitable[None]]
    accepted_at: float
    state: str = "queued"  # queued | running | done | error | cancelled
    cancel_requested: bool = False
    task: "asyncio.Task | None" = None
    #: Distributed-trace context from the request's ``trace`` field
    #: (``None`` mints a fresh trace for the build).
    context: "obs.TraceContext | None" = None
    #: Client asked for the build's trace document in the result event.
    want_trace: bool = False
    #: Last pipeline phase reported by the build's ``phase_hook``
    #: (live introspection via the ``status`` op).
    phase: str = ""
    #: The per-build tracer while the build runs (executor thread);
    #: the ``status`` op snapshots it for the live span tree.
    tracer: "obs.Tracer | None" = None
    #: The finished build's serialized trace (v3 document), kept for
    #: the result event when ``want_trace`` is set.
    trace_doc: "dict[str, Any] | None" = None


@dataclass
class _TenantBook:
    """Per-tenant accounting (stats, status op, labeled prom series)."""

    inflight: int = 0
    accepted: int = 0
    rejected: int = 0


class AsyncBuildServer:
    """Async front door over one :class:`BuildService`.

    ``max_concurrent`` bounds the executor actually running builds
    (default 1: requests interleave at the socket, build execution is
    serialized onto the service — group-level parallelism comes from
    the service's own pool/shards).  ``default_config`` is the
    :class:`CalibroConfig` used when a build request carries none.
    ``flush_interval`` (seconds) refreshes the service's Prometheus
    exposition file on a timer so long-idle loops still scrape fresh.

    Drive it with :meth:`serve` (runs until a ``shutdown`` op or
    :meth:`request_shutdown`), or from synchronous code via
    :func:`serve_in_background`.
    """

    def __init__(
        self,
        service: BuildService,
        socket_path: "str | os.PathLike[str]",
        *,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        tenant_quota: int = DEFAULT_TENANT_QUOTA,
        max_concurrent: int = 1,
        flush_interval: float | None = None,
        default_config: CalibroConfig | None = None,
    ) -> None:
        if queue_depth < 1:
            raise ConfigError(f"queue_depth must be >= 1, got {queue_depth}")
        if tenant_quota < 1:
            raise ConfigError(f"tenant_quota must be >= 1, got {tenant_quota}")
        if max_concurrent < 1:
            raise ConfigError(f"max_concurrent must be >= 1, got {max_concurrent}")
        if flush_interval is not None and flush_interval <= 0:
            raise ConfigError(
                f"flush_interval must be None or > 0, got {flush_interval}"
            )
        self.service = service
        self.socket_path = os.fspath(socket_path)
        self.queue_depth = queue_depth
        self.tenant_quota = tenant_quota
        self.max_concurrent = max_concurrent
        self.flush_interval = flush_interval
        self.default_config = default_config
        self._jobs: dict[str, _Job] = {}
        #: Open connections: handler task → its stream writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._tenants: dict[str, _TenantBook] = {}
        self._ids = itertools.count(1)
        self._accepted = 0
        self._rejected = 0
        self._cancelled = 0
        self._errors = 0
        self._results = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._tracer: "obs.Tracer | None" = None
        self._slots: asyncio.Semaphore | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._shutdown = None  # asyncio.Event, created on serve()
        # Per-tenant labeled series ride the service's exposition file.
        reporter = service.metrics_reporter
        if reporter is not None:
            reporter.extra_source = self.tenant_series

    # -- lifecycle ----------------------------------------------------------

    async def serve(self, *, ready: "threading.Event | None" = None) -> None:
        """Accept clients until a ``shutdown`` op (or
        :meth:`request_shutdown`).  ``ready`` is set once the socket is
        listening — the hand-off :func:`serve_in_background` waits on.

        At shutdown the listener closes first, queued builds are
        cancelled (their clients get the ``cancelled`` terminal event),
        running builds are drained to completion, and then the
        connections still open are closed and their handlers awaited.
        """
        self._loop = asyncio.get_running_loop()
        self._slots = asyncio.Semaphore(self.max_concurrent)
        self._shutdown = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_concurrent, thread_name_prefix="calibro-serve"
        )
        # A long-lived serve loop wants one long-lived tracer: counters
        # accumulate across builds and flush_metrics() has something to
        # render.  Respect a tracer the embedder already installed.
        own_tracer = None
        if obs.enabled() and obs.current_tracer() is None:
            own_tracer = obs.Tracer()
            obs.install_tracer(own_tracer)
        # Pin the serve-lifetime tracer: request handlers adopt into
        # *this* tracer, not whatever is globally installed when the
        # request lands — an in-process client's temporary tracer (the
        # test/bench shape) must not receive the server's span trees.
        self._tracer = obs.current_tracer()
        # A stale socket from a killed server would fail the bind.
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)
        server = await asyncio.start_unix_server(
            self._handle_connection, path=self.socket_path,
            limit=MAX_FRAME_BYTES,
        )
        flusher = (
            asyncio.ensure_future(self._flush_loop())
            if self.flush_interval is not None
            else None
        )
        if ready is not None:
            ready.set()
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            if flusher is not None:
                flusher.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await flusher
            # Queued work dies cleanly; running work drains.
            pending = [job for job in self._jobs.values() if job.task is not None]
            for job in pending:
                if job.state == "queued":
                    job.cancel_requested = True
                    job.task.cancel()
            if pending:
                await asyncio.gather(
                    *(job.task for job in pending), return_exceptions=True
                )
            # A handler waiting in readline for a next request sees end
            # of stream and returns; cancelling it instead would leave a
            # cancelled task for the stream machinery to log.
            handlers = list(self._connections.items())
            for _handler, writer in handlers:
                writer.close()
            await asyncio.gather(*(h for h, _ in handlers), return_exceptions=True)
            self._executor.shutdown(wait=True)
            self.service.flush_metrics()
            if own_tracer is not None and obs.current_tracer() is own_tracer:
                obs.uninstall_tracer(None)
            self._tracer = None
            with contextlib.suppress(OSError):
                os.unlink(self.socket_path)
            self._loop = None

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger (the CLI's signal handler and
        :func:`serve_in_background` use it)."""
        loop = self._loop
        if loop is None or self._shutdown is None:
            return
        loop.call_soon_threadsafe(self._shutdown.set)

    async def _flush_loop(self) -> None:
        """Periodic exposition refresh: a serve loop that sits idle for
        an hour must not serve hour-old scrape data."""
        while True:
            await asyncio.sleep(self.flush_interval)
            if self.service.flush_metrics():
                obs.counter_add("service.server.flushes")

    # -- the accept loop ----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        obs.counter_add("service.server.connections")
        handler = asyncio.current_task()
        self._connections[handler] = writer
        write_lock = asyncio.Lock()

        async def send(message: dict[str, Any]) -> None:
            # A client may hang up mid-build; its job still completes
            # (it was admitted), the send just goes nowhere.
            with contextlib.suppress(Exception):
                async with write_lock:
                    writer.write(encode_message(message))
                    await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                obs.counter_add("service.server.requests")
                request_id: Any = None
                try:
                    data = decode_message(line)
                    request_id = data.get("id")
                    op = validate_request(data)
                except ProtocolError as exc:
                    await send({
                        "event": "error",
                        "id": request_id,
                        "code": "protocol",
                        "message": str(exc),
                    })
                    continue
                if op == "build":
                    await self._admit_build(data, send)
                elif op == "status":
                    obs.counter_add("service.server.status")
                    await send({
                        "event": "status",
                        "id": request_id,
                        "stats": self.stats(),
                    })
                elif op == "cancel":
                    await self._cancel(data, send)
                else:  # shutdown
                    await send({"event": "shutdown", "id": request_id, "ok": True})
                    self._shutdown.set()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            del self._connections[handler]
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    # -- admission ----------------------------------------------------------

    def _inflight(self) -> int:
        return sum(1 for job in self._jobs.values() if job.state in ("queued", "running"))

    async def _admit_build(self, data: dict[str, Any], send) -> None:
        request_id = data.get("id")
        tenant = str(data.get("tenant") or "default")
        book = self._tenants.setdefault(tenant, _TenantBook())
        # The two admission checks and the registration below run with
        # no intervening await: admission order is arrival order.
        if self._inflight() >= self.queue_depth:
            reason = "queue-full"
        elif book.inflight >= self.tenant_quota:
            reason = "tenant-quota"
        else:
            reason = None
        if reason is not None:
            self._rejected += 1
            book.rejected += 1
            obs.counter_add("service.server.rejected")
            if reason == "queue-full":
                obs.counter_add("service.server.rejected_queue")
            else:
                obs.counter_add("service.server.rejected_quota")
            await send({
                "event": "overloaded",
                "id": request_id,
                "tenant": tenant,
                "reason": reason,
                "queue_depth": self.queue_depth,
                "tenant_quota": self.tenant_quota,
            })
            return
        try:
            job = self._parse_build(data, tenant, send)
        except (CalibroError, KeyError, TypeError, ValueError, OSError) as exc:
            self._errors += 1
            obs.counter_add("service.server.errors")
            await send({
                "event": "error",
                "id": request_id,
                "code": "bad-request",
                "message": str(exc),
            })
            return
        self._jobs[job.build_id] = job
        book.inflight += 1
        book.accepted += 1
        self._accepted += 1
        obs.counter_add("service.server.accepted")
        self._set_gauges()
        await send({
            "event": "accepted",
            "id": request_id,
            "build": job.build_id,
            "tenant": tenant,
            "queued": self._inflight() - 1,
        })
        job.task = asyncio.ensure_future(self._run_job(job))

    def _parse_build(self, data: dict[str, Any], tenant: str, send) -> _Job:
        if data.get("dex") is not None:
            dexfile = dexfile_from_json(data["dex"])
        else:
            dexfile = load_dexfile(str(data["dex_path"]))
        config = (
            CalibroConfig.from_dict(data["config"])
            if data.get("config")
            else self.default_config
        )
        label = str(data.get("label") or "")
        context = (
            obs.TraceContext.from_dict(data["trace"])
            if data.get("trace") is not None
            else None
        )
        return _Job(
            build_id=f"b{next(self._ids)}",
            request_id=data.get("id"),
            tenant=tenant,
            label=label,
            dexfile=dexfile,
            config=config,
            want_oat=bool(data.get("want_oat", True)),
            send=send,
            accepted_at=time.monotonic(),
            context=context,
            want_trace=bool(data.get("want_trace", False)),
        )

    async def _cancel(self, data: dict[str, Any], send) -> None:
        request_id = data.get("id")
        build_id = str(data.get("build"))
        job = self._jobs.get(build_id)
        if job is None:
            await send({
                "event": "error",
                "id": request_id,
                "code": "unknown-build",
                "message": f"no such build: {build_id}",
            })
            return
        if job.state != "queued":
            # Cooperative contract: running (or finished) builds are
            # never killed from the wire; the pool's timeout ladder owns
            # stuck work.
            await send({
                "event": "cancelled",
                "id": request_id,
                "build": build_id,
                "ok": False,
                "state": job.state,
            })
            return
        job.cancel_requested = True
        if job.task is not None:
            job.task.cancel()
        await send({
            "event": "cancelled",
            "id": request_id,
            "build": build_id,
            "ok": True,
            "state": "queued",
        })

    # -- build execution ----------------------------------------------------

    async def _run_job(self, job: _Job) -> None:
        loop = asyncio.get_running_loop()
        try:
            await self._slots.acquire()
        except asyncio.CancelledError:
            await self._finish_cancelled(job)
            return
        if job.cancel_requested:
            self._slots.release()
            await self._finish_cancelled(job)
            return
        job.state = "running"
        obs.histogram_observe(
            "service.server.queue_wait_seconds", time.monotonic() - job.accepted_at
        )
        self._set_gauges()
        await job.send({
            "event": "progress",
            "id": job.request_id,
            "build": job.build_id,
            "phase": "started",
        })

        def phase_hook(phase: str) -> None:
            # Fires in the executor thread; hop onto the loop to write.
            job.phase = phase  # live introspection (status op)
            loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(job.send({
                    "event": "progress",
                    "id": job.request_id,
                    "build": job.build_id,
                    "phase": phase,
                }))
            )

        try:
            report = await loop.run_in_executor(
                self._executor, self._execute, job, phase_hook
            )
        except CalibroError as exc:
            job.state = "error"
            self._errors += 1
            obs.counter_add("service.server.errors")
            await job.send({
                "event": "error",
                "id": job.request_id,
                "build": job.build_id,
                "code": "build-error",
                "message": str(exc),
            })
        except Exception as exc:  # pragma: no cover - the never-wedge net
            job.state = "error"
            self._errors += 1
            obs.counter_add("service.server.errors")
            await job.send({
                "event": "error",
                "id": job.request_id,
                "build": job.build_id,
                "code": "internal",
                "message": f"{type(exc).__name__}: {exc}",
            })
        else:
            job.state = "done"
            self._results += 1
            obs.counter_add("service.server.results")
            payload: dict[str, Any] = {
                "event": "result",
                "id": job.request_id,
                "build": job.build_id,
                "summary": report.summary(),
            }
            if job.want_trace and job.trace_doc is not None:
                payload["trace"] = job.trace_doc
            if job.want_oat:
                payload["oat_b64"] = base64.b64encode(
                    report.build.oat.to_bytes()
                ).decode("ascii")
            await job.send(payload)
        finally:
            self._slots.release()
            self._retire(job)
            obs.histogram_observe(
                "service.server.request_seconds",
                time.monotonic() - job.accepted_at,
            )

    def _execute(self, job: _Job, phase_hook) -> BuildReport:
        """Runs in the bounded executor thread.  The ``serve:<label>``
        fault site lets ``CALIBRO_FAULTS`` (with ``in_parent=True`` and
        an ``error`` rate) fail a served build deterministically — the
        caller turns that into a structured ``error`` response.

        Every build measures into its own *thread-local* tracer rooted
        at a ``service.server.request`` span — concurrent executor
        threads cannot interleave span stacks — inside the distributed
        trace the client propagated (``job.context``; a fresh trace
        when the request carried none).  The finished span tree is
        adopted into the server's long-lived tracer and, when the
        client asked (``want_trace``), serialized into the result
        event so the client can merge it under its own submit span.
        """
        maybe_inject("serve", job.label or job.build_id)
        parent = self._tracer
        if parent is None:  # observability disabled — straight through
            return self.service.submit(
                job.dexfile, job.config, label=job.label, phase_hook=phase_hook
            )
        ctx = job.context if job.context is not None else obs.TraceContext.new()
        tracer = obs.Tracer(context=ctx)
        job.tracer = tracer
        try:
            with obs.thread_tracing(tracer):
                with obs.span(
                    "service.server.request",
                    build=job.build_id,
                    tenant=job.tenant,
                    label=job.label,
                ):
                    report = self.service.submit(
                        job.dexfile,
                        job.config,
                        label=job.label,
                        phase_hook=phase_hook,
                    )
        finally:
            # Merge the request's spans and registries into the
            # long-lived server trace whether the build succeeded or
            # not — failed requests are exactly the ones worth seeing.
            job.tracer = None
            job.trace_doc = tracer.snapshot().to_dict()
            parent.adopt(tracer.snapshot())
            self.service.flush_metrics()
        return report

    async def _finish_cancelled(self, job: _Job) -> None:
        job.state = "cancelled"
        self._cancelled += 1
        obs.counter_add("service.server.cancelled")
        self._retire(job)
        await job.send({
            "event": "cancelled",
            "id": job.request_id,
            "build": job.build_id,
            "ok": True,
            "state": "cancelled",
        })

    def _retire(self, job: _Job) -> None:
        book = self._tenants.get(job.tenant)
        if book is not None and job.state in ("done", "error", "cancelled"):
            book.inflight = max(0, book.inflight - 1)
        self._set_gauges()

    def _set_gauges(self) -> None:
        running = sum(1 for job in self._jobs.values() if job.state == "running")
        queued = sum(1 for job in self._jobs.values() if job.state == "queued")
        obs.gauge_set("service.server.active", running)
        obs.gauge_set("service.server.queued", queued)
        obs.gauge_set(
            "service.server.tenants",
            sum(1 for book in self._tenants.values() if book.inflight > 0),
        )

    # -- introspection ------------------------------------------------------

    @staticmethod
    def _span_node(span: "obs.Span") -> dict[str, Any]:
        """One node of the live span tree (compact: name, seconds so
        far, children) for the ``status`` op."""
        return {
            "name": span.name,
            "seconds": round(span.duration, 6),
            "children": [AsyncBuildServer._span_node(c) for c in span.children],
        }

    def _job_status(self, job: _Job) -> dict[str, Any]:
        """Live view of one in-flight build: phase, age and — while it
        runs — the span tree snapshotted from its thread's tracer."""
        entry: dict[str, Any] = {
            "build": job.build_id,
            "tenant": job.tenant,
            "label": job.label,
            "state": job.state,
            "phase": job.phase,
            "seconds": round(time.monotonic() - job.accepted_at, 6),
        }
        tracer = job.tracer
        if tracer is not None:
            # Snapshot of another thread's tracer: snapshot() copies,
            # so the build keeps measuring undisturbed.  A torn read
            # during a rare concurrent mutation degrades to "no spans".
            try:
                snap = tracer.snapshot()
            except RuntimeError:  # pragma: no cover - list mutated mid-copy
                snap = None
            if snap is not None:
                entry["trace_id"] = snap.meta.get("trace_id", "")
                entry["spans"] = [self._span_node(s) for s in snap.spans]
        return entry

    def stats(self) -> dict[str, Any]:
        """Front-door bookkeeping: the ``status`` op's ``stats`` field
        (service stats nested under ``"service"``, live per-build
        introspection under ``"builds"``)."""
        return {
            "protocol_version": PROTOCOL_VERSION,
            "queue_depth": self.queue_depth,
            "tenant_quota": self.tenant_quota,
            "max_concurrent": self.max_concurrent,
            "accepted": self._accepted,
            "rejected": self._rejected,
            "cancelled": self._cancelled,
            "errors": self._errors,
            "results": self._results,
            "active": sum(1 for j in self._jobs.values() if j.state == "running"),
            "queued": sum(1 for j in self._jobs.values() if j.state == "queued"),
            "builds": [
                self._job_status(job)
                for job in self._jobs.values()
                if job.state in ("queued", "running")
            ],
            "tenants": {
                tenant: {
                    "inflight": book.inflight,
                    "accepted": book.accepted,
                    "rejected": book.rejected,
                }
                for tenant, book in sorted(self._tenants.items())
            },
            "service": self.service.stats(),
        }

    def tenant_series(self) -> list[str]:
        """Per-tenant labeled series for the Prometheus exposition
        (``calibro_service_server_tenant_requests{tenant=...,outcome=...}``).
        Attached to the service's reporter as its ``extra_source``."""
        metric = prom_name("service.server.tenant_requests")
        lines = [f"# TYPE {metric} counter"]
        for tenant, book in sorted(self._tenants.items()):
            for outcome, value in (
                ("accepted", book.accepted),
                ("rejected", book.rejected),
            ):
                labels = format_labels({"tenant": tenant, "outcome": outcome})
                lines.append(f"{metric}{labels} {value}")
        return lines


@contextlib.contextmanager
def serve_in_background(server: AsyncBuildServer, *, startup_timeout: float = 10.0):
    """Run ``server`` on a daemon thread with its own event loop — the
    harness tests, benchmarks and embedders drive clients from
    synchronous code.  The block yields once the socket listens; on
    exit the server drains and the thread joins."""
    ready = threading.Event()
    failure: list[BaseException] = []

    def runner() -> None:
        try:
            asyncio.run(server.serve(ready=ready))
        except BaseException as exc:  # surfaced to the foreground below
            failure.append(exc)
            ready.set()

    thread = threading.Thread(target=runner, name="calibro-serve", daemon=True)
    thread.start()
    if not ready.wait(startup_timeout):
        raise ServiceError("serve front door failed to start in time")
    if failure:
        raise ServiceError(f"serve front door died on startup: {failure[0]}")
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(timeout=startup_timeout)
        if failure:
            raise ServiceError(f"serve front door died: {failure[0]}")
