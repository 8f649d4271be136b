"""repro.obs — dependency-free structured telemetry.

Four parts, all stdlib-only and all strictly out-of-band (telemetry never
influences a computed value, artifact byte or iteration order):

- **structured logging** — :func:`get_logger` + :func:`configure` with
  key=value or JSON-lines formatting (``--log-level`` / ``--log-json``).
- **metrics** — a thread-safe :class:`MetricsRegistry` of counters, gauges
  and fixed-bucket :class:`QuantileSketch` histograms with
  :meth:`~MetricsRegistry.snapshot` and JSONL export (``--metrics-out``).
- **tracing** — :func:`span` nested spans over an injectable monotonic
  clock, exported as JSONL (``--trace-out``); :func:`timer` is the always-on
  wall-clock helper benchmarks use.
- **run progress** — :class:`ProgressReporter` heartbeats wired into
  ``run_tasks``.

The v2 **live plane** layers on top (see ``docs/observability.md``):

- **quantile sketches** — :class:`QuantileSketch` (fixed-bound histogram
  cells, quantiles interpolated inside a cell) and
  :class:`WindowedQuantiles` (a cumulative sketch plus 1m/5m
  sliding-window rings of them), recorded via
  :meth:`MetricsRegistry.observe_window`.
- **exposition** — :mod:`repro.obs.expo` renders the registry as
  Prometheus text (``GET /metrics`` on serve; ``--prom-out`` on batch runs).
- **request tracing** — :class:`TraceContext` + W3C ``traceparent``
  parse/inject, deterministic :class:`IdGenerator`/:class:`HeadSampler`,
  and a bounded :class:`TraceRing` behind ``GET /tracez``.
- **profiling** — :class:`SamplingProfiler` collapsed-stack sampler
  (``GET /debug/profile``, ``repro.cli profile``).
- **SLOs** — :class:`SLOTracker` availability/latency burn rates feeding
  ``/statz`` and gauge metrics.

Telemetry is **off by default**.  Instrumented hot paths gate on
:func:`telemetry_active` once per run, so the disabled path executes zero
per-task observability work; ``benchmarks/bench_obs_overhead.py`` holds the
disabled overhead under 2% on the collect/query hot paths.

Typical embedding use::

    import repro.obs as obs

    obs.configure(level="info", json=False)       # logging on
    tracer = obs.install_tracer()                  # spans on
    ... run collection ...
    obs.metrics().export_jsonl("metrics.jsonl")
    tracer.export_jsonl("trace.jsonl")
    obs.reset()                                    # back to silent defaults
"""

from __future__ import annotations

from typing import IO

from repro.obs._state import (
    monotonic,
    reset_clock,
    set_clock,
    telemetry_active,
)
from repro.obs.log import (
    LEVELS,
    ObsLogger,
    configure_logging,
    get_logger,
    reset_logging,
)
from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    MetricsRegistry,
    registry as metrics,
)
from repro.obs.progress import ProgressReporter
from repro.obs.prof import SamplingProfiler, profile_for
from repro.obs.sketch import DEFAULT_QUANTILES, QuantileSketch
from repro.obs.slo import SLOTracker
from repro.obs.trace import (
    HeadSampler,
    IdGenerator,
    TraceContext,
    TraceRing,
    Tracer,
    current_tracer,
    format_traceparent,
    install_tracer,
    parse_traceparent,
    span,
    timer,
    uninstall_tracer,
)
from repro.obs.window import RingCounter, WindowedQuantiles

from repro.obs import _state

__all__ = [
    "configure",
    "disable",
    "reset",
    "telemetry_active",
    "monotonic",
    "set_clock",
    "reset_clock",
    "get_logger",
    "configure_logging",
    "reset_logging",
    "ObsLogger",
    "LEVELS",
    "metrics",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_QUANTILES",
    "QuantileSketch",
    "WindowedQuantiles",
    "RingCounter",
    "span",
    "timer",
    "Tracer",
    "install_tracer",
    "uninstall_tracer",
    "current_tracer",
    "TraceContext",
    "parse_traceparent",
    "format_traceparent",
    "IdGenerator",
    "HeadSampler",
    "TraceRing",
    "SamplingProfiler",
    "profile_for",
    "SLOTracker",
    "ProgressReporter",
]


def configure(
    level: str = "info",
    json: bool = False,
    stream: IO[str] | None = None,
    trace: bool = False,
) -> None:
    """Switch telemetry on: install the log handler, optionally a tracer.

    ``level="off"`` with ``trace=False`` leaves telemetry inactive (useful
    for CLI plumbing that calls configure unconditionally).  Calling again
    reconfigures in place.
    """
    configure_logging(level=level, json_lines=json, stream=stream)
    if trace and current_tracer() is None:
        install_tracer()
    _state.set_active(level != "off" or trace or current_tracer() is not None)


def disable() -> None:
    """Switch all telemetry off (keeps collected metric/trace data)."""
    _state.set_active(False)
    reset_logging()


def reset() -> None:
    """Full teardown to import-time defaults; tests call this between runs."""
    _state.set_active(False)
    reset_logging()
    uninstall_tracer()
    metrics().clear()
    reset_clock()
