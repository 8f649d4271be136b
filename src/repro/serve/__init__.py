"""repro.serve — the resilient benchmark-as-a-service layer.

A stdlib-only asyncio HTTP service over a loaded
:class:`~repro.core.benchmark.AccelNASBench` (columnar store preferred —
memmapped shards, lazy per-surrogate loading), built so the surrogate
benchmark can be *queried like a service* by many concurrent NAS clients
with robustness as the headline:

- **micro-batch coalescing** (:class:`~repro.serve.coalescer.Coalescer`) —
  concurrent single-arch ``/query`` requests are gathered into one
  ``query_batch`` call under a max-batch / max-delay policy.
- **deadline propagation** — every request carries a wall-clock budget
  (``timeout_ms``, default from config) enforced at admission, in the
  coalescer and in the worker; expiry is HTTP 504.
- **bounded admission + load shedding**
  (:class:`~repro.serve.admission.AdmissionGate`) — a bounded in-flight
  slot pool with a bounded wait queue; overflow is shed instantly with
  HTTP 429 + ``Retry-After``, never unbounded memory.
- **per-endpoint circuit breaking**
  (:class:`~repro.core.reliability.CircuitBreaker`) — surrogate exceptions
  and :class:`~repro.core.reliability.ArtifactIntegrityError` trip a
  closed→open→half-open breaker with seeded-deterministic probe
  scheduling; open circuits answer HTTP 503 + ``Retry-After``.
- **generation-keyed response caching**
  (:class:`~repro.serve.cache.ResponseCache`) — an LRU over canonical
  ``(generation, arch, device, metric)`` keys answers repeat ``/query``
  hits without touching the surrogates; a hot reload's generation bump
  invalidates every prior entry, and responses are byte-identical with
  the cache on, off, hit or miss.
- **graceful drain + hot reload**
  (:class:`~repro.serve.lifecycle.BenchmarkHandle`) — shutdown drains
  in-flight requests; ``/reload`` verifies the new artifact (full
  all-shards sweep), loads it off-loop, atomically swaps, rolls back on
  failure, and flips ``/readyz`` during the swap.
- **out-of-band telemetry** — :mod:`repro.obs` request/status counters,
  queue-depth/shed/trip counters and coalesced-batch-size observations,
  all gated once on :func:`repro.obs.telemetry_active`; responses are
  byte-identical with telemetry on or off.
- **fault drills** (:mod:`repro.serve.faults`) — a seeded
  :class:`~repro.core.reliability.FaultPlan` over the serve kinds injects
  slow handlers and surrogate exceptions deterministically, so every
  robustness behaviour above is testable and reproducible.

Run it from the CLI::

    python -m repro.cli serve --bench anb.store --port 8080

or embed it::

    server = BenchServer(AccelNASBench.load("anb.store"), ServerConfig())
    asyncio.run(server.run())
"""

from repro.serve.admission import AdmissionGate, Overloaded
from repro.serve.cache import ResponseCache
from repro.serve.coalescer import Coalescer
from repro.serve.faults import InjectedServeFault, truncate_shard
from repro.serve.http import (
    ClientConnection,
    ProtocolError,
    Request,
    Response,
    json_response,
    request,
)
from repro.serve.lifecycle import BenchmarkHandle, ReloadError
from repro.serve.server import BenchServer, ServerConfig

__all__ = [
    "AdmissionGate",
    "BenchServer",
    "BenchmarkHandle",
    "ClientConnection",
    "Coalescer",
    "InjectedServeFault",
    "Overloaded",
    "ProtocolError",
    "ReloadError",
    "Request",
    "Response",
    "ResponseCache",
    "ServerConfig",
    "json_response",
    "request",
    "truncate_shard",
]
