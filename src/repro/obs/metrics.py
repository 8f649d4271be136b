"""Thread-safe metrics: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` is a named bag of three instrument kinds:

- **counter** — monotonically increasing float (``collect.retries``)
- **gauge** — last-write-wins float (``query.cache_hits``)
- **histogram** — a :class:`~repro.obs.sketch.QuantileSketch` over fixed,
  caller-supplied bucket upper bounds, exported as bounds, per-bucket
  counts, count and sum (``surrogate.fit_seconds``).

All mutators take a single lock, so instruments can be bumped from
``chunked_map`` worker threads without losing increments.  The module-level
:func:`registry` singleton is what instrumented code uses; tests build
private registries.  Export is JSONL through the existing ``atomic_write``
(lazily imported to keep ``repro.obs`` free of core imports at module
scope), with a header record mirroring the ``anb-journal`` convention::

    {"schema": "anb-metrics", "schema_version": 1}
    {"kind": "counter", "name": "collect.retries", "value": 3.0}
    {"kind": "histogram", "name": "surrogate.fit_seconds", "count": 2, ...}
"""

from __future__ import annotations

import json
import threading
from typing import Iterable, Sequence

from repro.obs.sketch import QuantileSketch
from repro.obs.window import WindowedQuantiles

METRICS_SCHEMA = "anb-metrics"
METRICS_SCHEMA_VERSION = 1

DEFAULT_SECONDS_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)


class MetricsRegistry:
    """Named counters, gauges and histograms behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, QuantileSketch] = {}
        self._windows: dict[str, WindowedQuantiles] = {}

    # -- mutators ---------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to counter ``name``."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> None:
        """Record ``value`` into histogram ``name`` (created on first use).

        ``buckets`` are the upper edges of a fresh histogram, strictly
        ascending; an existing histogram keeps the edges it was made with.
        """
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = QuantileSketch(bounds=buckets)
                self._histograms[name] = hist
            hist.observe(value)

    def observe_window(self, name: str, value: float) -> None:
        """Record ``value`` into the windowed-quantile instrument ``name``.

        The instrument (cumulative sketch + 1m/5m sliding-window rings,
        see :class:`~repro.obs.window.WindowedQuantiles`) is created with
        default spans/bounds on first use; it reads the injectable obs
        clock, so windowed values are deterministic under a fake clock.
        """
        with self._lock:
            window = self._windows.get(name)
            if window is None:
                window = WindowedQuantiles()
                self._windows[name] = window
            window.observe(value)

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._windows.clear()

    # -- readers ----------------------------------------------------------

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def gauge(self, name: str) -> float | None:
        with self._lock:
            return self._gauges.get(name)

    def window(self, name: str) -> WindowedQuantiles | None:
        with self._lock:
            return self._windows.get(name)

    def snapshot(self) -> dict:
        """Point-in-time copy: counters, gauges, histograms and windows."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: hist.as_dict()
                    for name, hist in sorted(self._histograms.items())
                },
                "windows": {
                    name: window.snapshot()
                    for name, window in sorted(self._windows.items())
                },
            }

    # -- export -----------------------------------------------------------

    def export_lines(self) -> Iterable[str]:
        """JSONL records (header first) for the current snapshot."""
        snap = self.snapshot()
        yield json.dumps(
            {"schema": METRICS_SCHEMA, "schema_version": METRICS_SCHEMA_VERSION},
            sort_keys=True,
        )
        for name, value in snap["counters"].items():
            yield json.dumps(
                {"kind": "counter", "name": name, "value": value}, sort_keys=True
            )
        for name, value in snap["gauges"].items():
            yield json.dumps(
                {"kind": "gauge", "name": name, "value": value}, sort_keys=True
            )
        for name, hist in snap["histograms"].items():
            record = {"kind": "histogram", "name": name}
            record.update(hist)
            yield json.dumps(record, sort_keys=True)
        for name, window in snap["windows"].items():
            record = {"kind": "window", "name": name}
            record.update(window)
            yield json.dumps(record, sort_keys=True)

    def export_jsonl(self, path) -> None:
        """Atomically write the snapshot as JSONL to ``path``."""
        from repro.core.reliability import atomic_write

        payload = "\n".join(self.export_lines()) + "\n"
        atomic_write(path, payload)


_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry instrumented code records into."""
    return _registry
