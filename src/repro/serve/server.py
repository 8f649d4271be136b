"""The resilient asyncio benchmark server.

:class:`BenchServer` wires every robustness primitive in this package (and
in :mod:`repro.core.reliability`) around a swappable
:class:`~repro.serve.lifecycle.BenchmarkHandle`:

==============  ======  ==================================================
endpoint        method  behaviour
==============  ======  ==================================================
/query          POST    one architecture; coalesced into micro-batches
/batch-query    POST    many architectures; one vectorised surrogate call
/pareto         POST    Pareto front over (accuracy, performance)
/reload         POST    verify → load → atomic swap → rollback on failure
/healthz        GET     liveness (always 200 while the loop runs)
/readyz         GET     readiness (503 while reloading or draining)
/statz          GET     server-state snapshot + info block + SLO burn rates
/metrics        GET     Prometheus text exposition (windowed p50/p95/p99)
/tracez         GET     bounded in-memory ring of recent request spans
/debug/profile  GET     sampling profiler; collapsed-stack flamegraph text
==============  ======  ==================================================

Request lifecycle for the query endpoints: parse (400 on bad input) →
deadline from ``timeout_ms`` → circuit breaker admit (503 + Retry-After
when open) → bounded admission (429 + Retry-After when shedding, 504 when
the budget expires queued) → drills → surrogate work off-loop in an
executor → breaker verdict.  Surrogate and integrity errors count as
breaker failures; deadline expiry concludes the admitted call as an
*abandon* (no health verdict).

Telemetry is strictly out of band: every ``repro.obs`` registry/log touch
is gated on :func:`repro.obs.telemetry_active` and responses are
byte-identical with telemetry on or off.  The **live plane** (windowed
latency quantiles, SLO burn rates, the trace ring) is server-owned state —
always maintained, like the admission/coalescer counters, so ``/metrics``
and ``/tracez`` answer even when logging is off — and is observation-only:
it never touches response bytes.  Requests carrying a W3C ``traceparent``
header get one echoed back with this server's span id; span ids come from
a seeded counter generator, so the echo is a pure function of the request
sequence and identical across telemetry states.
"""

from __future__ import annotations

import asyncio
import math
import platform
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Sequence

import repro
import repro.obs as obs
from repro.obs.expo import EXPOSITION_CONTENT_TYPE, render_exposition
from repro.core.benchmark import AccelNASBench
from repro.core.reliability import (
    ArtifactIntegrityError,
    CircuitBreaker,
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    RetryPolicy,
)
from repro.searchspace import ArchSpec
from repro.serve.admission import AdmissionGate, Overloaded
from repro.serve.coalescer import Coalescer
from repro.serve.faults import InjectedServeFault
from repro.serve.http import (
    ProtocolError,
    Request,
    Response,
    json_response,
    read_request,
)
from repro.serve.cache import ResponseCache
from repro.serve.lifecycle import BenchmarkHandle, ReloadError

QUERY_ENDPOINTS = ("query", "batch-query", "pareto")


@dataclass
class ServerConfig:
    """Tunables for one :class:`BenchServer`.

    Attributes:
        host / port: Bind address; port 0 picks a free port (tests).
        default_timeout: Deadline budget in seconds for requests that send
            no ``timeout_ms``.
        max_timeout: Upper clamp on any client-requested budget.
        max_inflight / max_queue / retry_after: Admission-gate watermarks
            and the 429 ``Retry-After`` hint.
        max_batch / max_delay: Coalescer flush policy.
        coalesce: Whether ``/query`` goes through the coalescer at all
            (the load generator benchmarks both paths).
        cache_size: LRU entries for the ``/query`` response cache (0
            disables it).  Keys fold in the artifact generation, so a hot
            reload invalidates the cache; responses are byte-identical
            with the cache on or off.
        failure_threshold: Consecutive failures that trip an endpoint's
            circuit breaker.
        breaker_recovery: Cooldown schedule for tripped breakers; defaults
            to 0.1 s doubling up to 5 s (seeded-deterministic probes).
        drills: Optional seeded fault-drill plan over
            :data:`~repro.core.reliability.SERVE_FAULT_KINDS`.
        drill_slow: Handler stall, in seconds, when a ``slow`` drill fires.
        clock: Injectable monotonic clock for deadlines and breakers.
        trace_ring: Capacity of the in-memory span ring behind ``/tracez``
            (0 disables request tracing entirely).
        trace_sample: Head-sampling rate in [0, 1] — the fraction of
            traces recorded into the ring, decided deterministically per
            trace id.
        trace_seed: Seed for trace/span id generation and sampling.
        slo_availability: Availability SLO target (fraction of requests
            that must not 5xx).
        slo_latency_target: Latency SLO target (fraction of good requests
            that must finish within ``slo_latency_ms``).
        slo_latency_ms: Latency SLO threshold, milliseconds.
        profile_max_seconds: Upper clamp on ``/debug/profile?seconds=N``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    default_timeout: float = 5.0
    max_timeout: float = 60.0
    max_inflight: int = 8
    max_queue: int = 64
    retry_after: float = 0.5
    max_batch: int = 16
    max_delay: float = 0.005
    coalesce: bool = True
    cache_size: int = 256
    failure_threshold: int = 5
    breaker_recovery: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            base_delay=0.1, backoff=2.0, max_delay=5.0
        )
    )
    drills: FaultPlan = field(default_factory=FaultPlan)
    drill_slow: float = 0.05
    clock: Callable[[], float] = time.monotonic
    trace_ring: int = 256
    trace_sample: float = 1.0
    trace_seed: int = 0
    slo_availability: float = 0.999
    slo_latency_target: float = 0.99
    slo_latency_ms: float = 250.0
    profile_max_seconds: float = 30.0


class BenchServer:
    """One asyncio HTTP server over a swappable benchmark handle."""

    def __init__(
        self,
        bench: AccelNASBench | BenchmarkHandle,
        config: ServerConfig | None = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.handle = (
            bench
            if isinstance(bench, BenchmarkHandle)
            else BenchmarkHandle(bench)
        )
        self.gate = AdmissionGate(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue,
            retry_after=self.config.retry_after,
        )
        self.coalescer = Coalescer(
            self._coalesced_runner,
            max_batch=self.config.max_batch,
            max_delay=self.config.max_delay,
            on_flush=self._note_flush,
            on_batch=self._note_batch,
            clock=obs.monotonic,
        )
        self.breakers: dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                name=name,
                failure_threshold=self.config.failure_threshold,
                recovery=self.config.breaker_recovery,
                clock=self.config.clock,
            )
            for name in QUERY_ENDPOINTS
        }
        self.cache = (
            ResponseCache(self.config.cache_size)
            if self.config.cache_size > 0
            else None
        )
        self._request_index: dict[str, int] = {}
        self._server: asyncio.AbstractServer | None = None
        self._stopping = asyncio.Event()
        self._connections: set[asyncio.StreamWriter] = set()
        self._inflight = 0
        self._drained = asyncio.Event()
        self._drained.set()
        self.port: int | None = None
        self._log = obs.get_logger("repro.serve")
        # Live telemetry plane (server-owned, always on; observation-only).
        self.trace_ring = (
            obs.TraceRing(self.config.trace_ring)
            if self.config.trace_ring > 0
            else None
        )
        self.sampler = obs.HeadSampler(
            rate=self.config.trace_sample, seed=self.config.trace_seed
        )
        # Two independent id streams: echoes must be a pure function of
        # the traceparent-bearing request sequence (byte-identity across
        # telemetry states), so ring-local id minting must never advance
        # the echo counter.
        self._echo_ids = obs.IdGenerator(seed=self.config.trace_seed)
        self._ring_ids = obs.IdGenerator(seed=self.config.trace_seed + 1)
        self.slo = obs.SLOTracker(
            availability_target=self.config.slo_availability,
            latency_target=self.config.slo_latency_target,
            latency_threshold=self.config.slo_latency_ms / 1000.0,
        )
        self._latency: dict[str, obs.WindowedQuantiles] = {}
        self._batch_info: dict[str, tuple[str, int]] = {}
        self._started_clock = self.config.clock()
        self._profile_lock = asyncio.Lock()

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind and start accepting connections (sets ``self.port``)."""
        self._server = await asyncio.start_server(
            self._on_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if obs.telemetry_active():
            self._log.info(
                "serve.started", host=self.config.host, port=self.port
            )

    async def run(self) -> None:
        """Start (if needed) and serve until :meth:`request_stop`."""
        if self._server is None:
            await self.start()
        await self._stopping.wait()
        await self.stop()

    def request_stop(self) -> None:
        """Ask the server to drain and exit (safe from signal handlers)."""
        self._stopping.set()

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, then close."""
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.coalescer.close()
        await self._drained.wait()
        for writer in list(self._connections):
            writer.close()
        if obs.telemetry_active():
            self._log.info("serve.stopped", port=self.port)

    @property
    def ready(self) -> bool:
        return not self._stopping.is_set() and not self.handle.reloading

    # ---------------------------------------------------------- connection

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while not self._stopping.is_set():
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    response = json_response(exc.status, {"error": exc.reason})
                    writer.write(response.render(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                self._track_enter()
                try:
                    response = await self._dispatch(request)
                    keep_alive = (
                        request.keep_alive and not self._stopping.is_set()
                    )
                    writer.write(response.render(keep_alive=keep_alive))
                    await writer.drain()
                finally:
                    self._track_exit()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            return  # client went away mid-exchange; nothing left to answer
        finally:
            self._connections.discard(writer)
            writer.close()

    def _track_enter(self) -> None:
        self._inflight += 1
        self._drained.clear()

    def _track_exit(self) -> None:
        self._inflight -= 1
        if self._inflight == 0:
            self._drained.set()

    # ------------------------------------------------------------- routing

    async def _dispatch(self, request: Request) -> Response:
        started = self.config.clock()
        trace_started = obs.monotonic()
        endpoint = request.path.strip("/") or "root"
        ctx, parent_id, echo = self._trace_context(request, endpoint)
        request.trace_ctx = ctx
        route = (request.method, request.path)
        handler = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/readyz"): self._handle_readyz,
            ("GET", "/statz"): self._handle_statz,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/tracez"): self._handle_tracez,
            ("GET", "/debug/profile"): self._handle_profile,
            ("POST", "/query"): self._handle_query,
            ("POST", "/batch-query"): self._handle_batch_query,
            ("POST", "/pareto"): self._handle_pareto,
            ("POST", "/reload"): self._handle_reload,
        }.get(route)
        if handler is None:
            known = {
                "/healthz",
                "/readyz",
                "/statz",
                "/metrics",
                "/tracez",
                "/debug/profile",
                "/query",
                "/batch-query",
                "/pareto",
                "/reload",
            }
            if request.path in known:
                response = json_response(
                    405, {"error": f"method {request.method} not allowed"}
                )
            else:
                response = json_response(
                    404, {"error": f"no such endpoint: {request.path}"}
                )
        else:
            try:
                response = await handler(request)
            except ProtocolError as exc:
                response = json_response(exc.status, {"error": exc.reason})
        if echo:
            # Pure protocol plumbing, independent of telemetry state: the
            # caller sent a traceparent, so hand back our span under the
            # same trace (byte-identity tests pin this across obs on/off).
            response.headers["traceparent"] = obs.format_traceparent(ctx)
        latency = self.config.clock() - started
        batch_info = (
            self._batch_info.pop(ctx.span_id, None) if ctx is not None else None
        )
        if endpoint in QUERY_ENDPOINTS:
            # Always-on live plane: windowed quantiles + SLO accounting are
            # server-owned state, maintained regardless of the telemetry
            # switch so /metrics and /statz answer under --log-level off.
            self._observe_latency(endpoint, latency)
            self.slo.record(response.status, latency)
            if self.trace_ring is not None and ctx is not None and ctx.sampled:
                self.trace_ring.record(
                    f"serve.{endpoint}",
                    ctx,
                    start=trace_started,
                    duration=obs.monotonic() - trace_started,
                    parent_id=parent_id,
                    status="ok" if response.status < 500 else "error",
                    attrs={
                        "http.method": request.method,
                        "http.status": response.status,
                    },
                    links=[batch_info[0]] if batch_info is not None else [],
                )
        if obs.telemetry_active():
            registry = obs.metrics()
            registry.inc(f"serve.requests.{endpoint}")
            registry.inc(f"serve.status.{response.status}")
            registry.set_gauge("serve.queue_depth", self.gate.depth)
            self._log.info(
                "serve.access",
                method=request.method,
                path=request.path,
                status=response.status,
                latency_ms=round(latency * 1000.0, 3),
                batch=batch_info[1] if batch_info is not None else 0,
                cache=getattr(request, "cache_state", "-"),
                trace_id=ctx.trace_id if ctx is not None else "-",
            )
        return response

    def _trace_context(
        self, request: Request, endpoint: str
    ) -> tuple["obs.TraceContext | None", str | None, bool]:
        """Derive this request's trace context: (ctx, parent span id, echo).

        A valid incoming ``traceparent`` always yields a context (and an
        echo) so the header handshake is telemetry-independent; otherwise
        a ring-local root context is minted for query endpoints when
        tracing is enabled.  The two id streams are separate, so ring
        minting never shifts the echo sequence.
        """
        incoming = obs.parse_traceparent(request.headers.get("traceparent", ""))
        if incoming is not None:
            ctx = obs.TraceContext(
                incoming.trace_id,
                self._echo_ids.span_id(),
                self.sampler.sampled(incoming.trace_id),
            )
            return ctx, incoming.span_id, True
        if self.trace_ring is not None and endpoint in QUERY_ENDPOINTS:
            trace_id = self._ring_ids.trace_id()
            ctx = obs.TraceContext(
                trace_id,
                self._ring_ids.span_id(),
                self.sampler.sampled(trace_id),
            )
            return ctx, None, False
        return None, None, False

    def _observe_latency(self, endpoint: str, seconds: float) -> None:
        window = self._latency.get(endpoint)
        if window is None:
            window = obs.WindowedQuantiles()
            self._latency[endpoint] = window
        window.observe(seconds)

    # ------------------------------------------------------------ handlers

    async def _handle_healthz(self, request: Request) -> Response:
        return json_response(
            200, {"status": "ok", "generation": self.handle.generation}
        )

    async def _handle_readyz(self, request: Request) -> Response:
        payload = {"ready": self.ready, "generation": self.handle.generation}
        return json_response(200 if self.ready else 503, payload)

    async def _handle_statz(self, request: Request) -> Response:
        return json_response(
            200,
            {
                "admission": self.gate.stats(),
                "coalescer": self.coalescer.stats(),
                "breakers": {
                    name: {"state": breaker.state, "trips": breaker.trips}
                    for name, breaker in self.breakers.items()
                },
                "cache": None if self.cache is None else self.cache.stats(),
                "generation": self.handle.generation,
                "inflight": self._inflight,
                "info": {
                    "generation": self.handle.generation,
                    "python": platform.python_version(),
                    "repro": repro.__version__,
                    "store_path": (
                        str(self.handle.path)
                        if self.handle.path is not None
                        else None
                    ),
                    "trace_ring": self.config.trace_ring,
                    "trace_sample": self.config.trace_sample,
                    "uptime_s": round(
                        self.config.clock() - self._started_clock, 3
                    ),
                },
                "slo": self.slo.snapshot(),
            },
        )

    async def _handle_metrics(self, request: Request) -> Response:
        """Prometheus text exposition: obs registry + the always-on plane."""
        snapshot = obs.metrics().snapshot()
        for endpoint, window in sorted(self._latency.items()):
            snapshot["windows"][
                f"serve.latency.window.{endpoint}"
            ] = window.snapshot()
        extra = {
            "serve.generation": float(self.handle.generation),
            "serve.inflight": float(self._inflight),
            "serve.queue_depth": float(self.gate.depth),
            "serve.uptime_seconds": round(
                self.config.clock() - self._started_clock, 6
            ),
        }
        if self.cache is not None:
            stats = self.cache.stats()
            extra["serve.cache.entries"] = float(stats["entries"])
            extra["serve.cache.hits"] = float(stats["hits"])
            extra["serve.cache.misses"] = float(stats["misses"])
        if self.trace_ring is not None:
            ring = self.trace_ring.snapshot()
            extra["serve.trace.total"] = float(ring["total"])
            extra["serve.trace.retained"] = float(len(ring["entries"]))
        extra.update(self.slo.gauges())
        text = render_exposition(snapshot, extra_gauges=extra)
        return Response(
            200, text.encode("utf-8"), content_type=EXPOSITION_CONTENT_TYPE
        )

    async def _handle_tracez(self, request: Request) -> Response:
        if self.trace_ring is None:
            return json_response(404, {"error": "tracing disabled"})
        return json_response(200, self.trace_ring.snapshot())

    async def _handle_profile(self, request: Request) -> Response:
        raw = request.query.get("seconds", "1")
        try:
            seconds = float(raw)
        except ValueError as exc:
            raise ProtocolError(400, "'seconds' must be a number") from exc
        if not seconds > 0:
            raise ProtocolError(400, "'seconds' must be > 0")
        seconds = min(seconds, self.config.profile_max_seconds)
        if self._profile_lock.locked():
            return json_response(409, {"error": "a profile is already running"})
        async with self._profile_lock:
            profiler = obs.SamplingProfiler()
            profiler.start()
            try:
                # The event loop keeps serving while the sampler thread
                # walks sys._current_frames in the background.
                await asyncio.sleep(seconds)
            finally:
                profiler.stop()
        body = profiler.collapsed().encode("utf-8")
        return Response(200, body, content_type="text/plain; charset=utf-8")

    async def _handle_query(self, request: Request) -> Response:
        payload = request.json()
        arch, device, metric = self._parse_target(payload, single=True)
        deadline = self._deadline(payload)

        async def work() -> dict:
            bench = self.handle.bench
            spec = ArchSpec.from_string(arch)
            cache = self.cache
            key = None
            if cache is not None:
                # The generation in the key makes entries from a replaced
                # artifact unreachable the instant a reload swaps it in.
                key = (
                    self.handle.generation,
                    spec.to_string(),
                    device or "",
                    metric,
                )
                payload = cache.get(key)
                request.cache_state = "hit" if payload is not None else "miss"
                if obs.telemetry_active():
                    registry = obs.metrics()
                    registry.inc(
                        "serve.cache.hit" if payload is not None
                        else "serve.cache.miss"
                    )
                    registry.set_gauge("serve.cache.entries", len(cache))
                if payload is not None:
                    return payload
            if self.config.coalesce:
                payload = await self.coalescer.query(
                    arch,
                    device or "",
                    metric,
                    deadline,
                    ctx=getattr(request, "trace_ctx", None),
                )
            else:
                loop = asyncio.get_running_loop()
                result = await loop.run_in_executor(
                    None, lambda: bench.query(spec, device, metric)
                )
                payload = _result_payload(result)
            if cache is not None:
                cache.put(key, payload)
            return payload

        return await self._guarded(request, "query", deadline, work)

    async def _handle_batch_query(self, request: Request) -> Response:
        payload = request.json()
        archs, device, metric = self._parse_target(payload, single=False)
        deadline = self._deadline(payload)

        async def work() -> dict:
            bench = self.handle.bench
            specs = [ArchSpec.from_string(a) for a in archs]
            loop = asyncio.get_running_loop()
            results = await loop.run_in_executor(
                None, lambda: bench.query_batch(specs, device, metric)
            )
            return {
                "count": len(results),
                "results": [_result_payload(r) for r in results],
            }

        return await self._guarded(request, "batch-query", deadline, work)

    async def _handle_pareto(self, request: Request) -> Response:
        payload = request.json()
        archs, device, metric = self._parse_target(payload, single=False)
        if device is None:
            raise ProtocolError(400, "pareto requires a 'device'")
        deadline = self._deadline(payload)

        async def work() -> dict:
            bench = self.handle.bench
            specs = [ArchSpec.from_string(a) for a in archs]
            loop = asyncio.get_running_loop()

            def compute() -> dict:
                import numpy as np

                from repro.core.pareto import pareto_front_indices

                accuracy = bench.query_accuracy_batch(specs)
                perf = bench.query_performance_batch(specs, device, metric)
                points = np.column_stack([accuracy, perf])
                # Accuracy is always maximised; latency-like metrics are
                # minimised, throughput-like maximised.
                maximize = (True, metric != "latency")
                idx = pareto_front_indices(points, maximize=maximize)
                return {
                    "count": len(idx),
                    "front": [
                        {
                            "index": int(i),
                            "arch": archs[int(i)],
                            "accuracy": float(accuracy[int(i)]),
                            "performance": float(perf[int(i)]),
                        }
                        for i in idx
                    ],
                    "device": device,
                    "metric": metric,
                }

            return await loop.run_in_executor(None, compute)

        return await self._guarded(request, "pareto", deadline, work)

    async def _handle_reload(self, request: Request) -> Response:
        payload = request.json()
        path = payload.get("path")
        try:
            summary = await self.handle.reload(path)
        except ReloadError as exc:
            status = 409 if exc.conflict else 500
            if obs.telemetry_active():
                self._log.warning(
                    "serve.reload_failed", reason=exc.reason, status=status
                )
                obs.metrics().inc("serve.reload.failed")
            return json_response(status, {"error": exc.reason})
        if self.cache is not None:
            # Entries are already unreachable (generation-keyed); drop them
            # to release the old artifact's payloads eagerly.
            self.cache.clear()
        if obs.telemetry_active():
            self._log.info(
                "serve.reloaded",
                path=summary["path"],
                generation=summary["generation"],
            )
            obs.metrics().inc("serve.reload.ok")
        return json_response(200, summary)

    # ------------------------------------------------------------ guarding

    async def _guarded(
        self,
        request: Request,
        endpoint: str,
        deadline: Deadline,
        work: Callable[[], Awaitable[dict]],
    ) -> Response:
        """Run ``work`` behind breaker + admission + deadline + drills."""
        index = self._request_index.get(endpoint, 0)
        self._request_index[endpoint] = index + 1
        breaker = self.breakers[endpoint]
        try:
            breaker.allow()
        except CircuitOpen as exc:
            if obs.telemetry_active():
                obs.metrics().inc(f"serve.breaker.rejected.{endpoint}")
            return json_response(
                503,
                {"error": "circuit open"},
                headers={"Retry-After": _retry_after(exc.retry_after)},
            )
        admitted = False
        try:
            await self.gate.acquire(deadline)
            admitted = True
            drills, delay = self.config.drills, self.config.drill_slow
            if delay > 0.0 and drills.fires("slow", endpoint, index):
                await asyncio.sleep(min(delay, max(deadline.remaining(), 0.0)))
            deadline.check(endpoint)
            if drills.fires("error", endpoint, index):
                raise InjectedServeFault(endpoint, index)
            result = await work()
            deadline.check(endpoint)
        except Overloaded as exc:
            breaker.record_abandon()
            if obs.telemetry_active():
                obs.metrics().inc("serve.shed")
            return json_response(
                429,
                {"error": "overloaded"},
                headers={"Retry-After": _retry_after(exc.retry_after)},
            )
        except DeadlineExceeded:
            breaker.record_abandon()
            if obs.telemetry_active():
                obs.metrics().inc("serve.deadline_expired")
            return json_response(504, {"error": "deadline exceeded"})
        except (KeyError, ValueError) as exc:
            # Bad input (unknown target, malformed arch): the client's
            # fault, not the surrogate's — no breaker verdict.
            breaker.record_abandon()
            return json_response(400, {"error": str(exc)})
        except ArtifactIntegrityError as exc:
            trips_before = breaker.trips
            breaker.record_failure()
            self._note_failure(endpoint, breaker, trips_before)
            return json_response(500, {"error": f"artifact integrity: {exc}"})
        except Exception as exc:
            trips_before = breaker.trips
            breaker.record_failure()
            self._note_failure(endpoint, breaker, trips_before)
            return json_response(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        else:
            breaker.record_success()
            return json_response(200, result)
        finally:
            if admitted:
                self.gate.release()

    # ------------------------------------------------------------- parsing

    def _parse_target(self, payload: dict, single: bool):
        if single:
            arch = payload.get("arch")
            if not isinstance(arch, str) or not arch:
                raise ProtocolError(400, "'arch' must be a non-empty string")
            archs: str | list[str] = arch
        else:
            raw = payload.get("archs")
            if (
                not isinstance(raw, list)
                or not raw
                or not all(isinstance(a, str) and a for a in raw)
            ):
                raise ProtocolError(
                    400, "'archs' must be a non-empty list of strings"
                )
            archs = list(raw)
        device = payload.get("device")
        if device is not None and not isinstance(device, str):
            raise ProtocolError(400, "'device' must be a string")
        metric = payload.get("metric", "throughput")
        if not isinstance(metric, str):
            raise ProtocolError(400, "'metric' must be a string")
        if device is not None:
            targets = self.handle.bench.targets
            if (device, metric) not in targets:
                raise ProtocolError(
                    400,
                    f"no surrogate for ({device!r}, {metric!r}); "
                    f"available: {targets}",
                )
        sample = archs if single else archs[0]
        try:
            ArchSpec.from_string(sample)
        except (ValueError, TypeError) as exc:
            raise ProtocolError(400, f"bad arch spec: {exc}") from exc
        return archs, device, metric

    def _deadline(self, payload: dict) -> Deadline:
        raw = payload.get("timeout_ms")
        if raw is None:
            budget = self.config.default_timeout
        else:
            if not isinstance(raw, (int, float)) or isinstance(raw, bool):
                raise ProtocolError(400, "'timeout_ms' must be a number")
            if raw <= 0:
                raise ProtocolError(400, "'timeout_ms' must be > 0")
            budget = min(raw / 1000.0, self.config.max_timeout)
        return Deadline.after(budget, clock=self.config.clock)

    # ------------------------------------------------------------ plumbing

    async def _coalesced_runner(
        self, device: str, metric: str, archs: Sequence[str]
    ) -> list[dict]:
        bench = self.handle.bench
        specs = [ArchSpec.from_string(a) for a in archs]
        loop = asyncio.get_running_loop()
        results = await loop.run_in_executor(
            None, lambda: bench.query_batch(specs, device or None, metric)
        )
        return [_result_payload(r) for r in results]

    def _note_flush(self, batch_size: int) -> None:
        if obs.telemetry_active():
            registry = obs.metrics()
            registry.set_gauge("serve.coalesce.last_batch", batch_size)
            registry.observe(
                "serve.coalesce.batch_size",
                float(batch_size),
                buckets=(1, 2, 4, 8, 16, 32, 64),
            )

    def _note_batch(
        self, ctxs: list, started: float, duration: float, status: str
    ) -> None:
        """Record one coalesced batch span linked to its merged requests.

        Every traced item gets a ``{span_id: (batch_span_id, batch_size)}``
        entry so request finalisation can link request → batch and the
        access log can report the coalesced batch size; the batch span
        itself is recorded when at least one merged trace is sampled.
        """
        if self.trace_ring is None:
            return
        linked = [ctx for ctx in ctxs if ctx is not None]
        if not linked:
            return
        if len(self._batch_info) > 4096:
            # Entries are popped at request finalisation; a runaway map
            # means requests died before finalising — drop, don't grow.
            self._batch_info.clear()
        sampled = [ctx for ctx in linked if ctx.sampled]
        batch_ctx = obs.TraceContext(
            linked[0].trace_id, self._ring_ids.span_id(), bool(sampled)
        )
        for ctx in linked:
            self._batch_info[ctx.span_id] = (batch_ctx.span_id, len(ctxs))
        if sampled:
            self.trace_ring.record(
                "serve.query_batch",
                batch_ctx,
                start=started,
                duration=duration,
                status=status,
                attrs={"batch_size": len(ctxs)},
                links=[ctx.span_id for ctx in linked],
            )

    def _note_failure(
        self, endpoint: str, breaker: CircuitBreaker, trips_before: int
    ) -> None:
        if not obs.telemetry_active():
            return
        obs.metrics().inc(f"serve.failures.{endpoint}")
        if breaker.trips > trips_before:
            obs.metrics().inc(f"serve.breaker.trips.{endpoint}")
            self._log.warning(
                "serve.breaker_tripped", endpoint=endpoint, trips=breaker.trips
            )


def _result_payload(result) -> dict:
    """JSON-ready dict for one QueryResult (deterministic key order)."""
    return {
        "arch": result.arch.to_string(),
        "accuracy": result.accuracy,
        "performance": result.performance,
        "device": result.device,
        "metric": result.metric,
    }


def _retry_after(seconds: float) -> str:
    """Integer Retry-After header value (at least 1 second)."""
    return str(max(1, math.ceil(seconds)))
