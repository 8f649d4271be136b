"""Sliding-window aggregation rings for live quantiles and rates.

A cumulative sketch (:mod:`repro.obs.sketch`) answers "what is p99 since
the process started"; an operator staring at a latency regression needs
"what is p99 *over the last minute*".  This module provides that view with
two ring structures, both driven by the injectable obs clock
(:func:`repro.obs.monotonic`) so every windowed value is deterministic
under a fake clock:

- :class:`WindowedQuantiles` — one cumulative :class:`QuantileSketch` plus
  a ring of per-interval sketches over the same bounds.  ``observe`` lands
  the value in both; ``snapshot`` merges the ring buckets inside each
  configured window (1m/5m by default) and reports count/sum/min/max and
  interpolated p50/p95/p99 for the whole run and for every window.
- :class:`RingCounter` — the same ring discipline over plain counters
  (the SLO tracker uses a pair for good/total rates).

Stale buckets are recycled lazily: a bucket whose epoch is older than the
ring span is replaced the next time its slot is written, and skipped when
read, so an idle stream costs nothing and windowed values decay to empty
on their own.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs import _state
from repro.obs.sketch import (
    DEFAULT_LATENCY_BOUNDS,
    DEFAULT_QUANTILES,
    QuantileSketch,
)

DEFAULT_WINDOWS = (60.0, 300.0)
DEFAULT_BUCKET_SECONDS = 5.0


def window_label(seconds: float) -> str:
    """Canonical label for a window span: 60 -> "1m", 300 -> "5m"."""
    if seconds >= 60.0 and float(seconds / 60.0).is_integer():
        return f"{int(seconds // 60)}m"
    return f"{format(seconds, 'g')}s"


def _ring_shape(
    windows: Sequence[float], bucket_seconds: float
) -> tuple[tuple[float, ...], float, int]:
    """Validated ``(windows, bucket_seconds, ring slots)`` for a ring."""
    windows = tuple(float(w) for w in windows)
    if not windows or list(windows) != sorted(set(windows)):
        raise ValueError("windows must be non-empty and strictly ascending")
    if bucket_seconds <= 0:
        raise ValueError("bucket_seconds must be > 0")
    if any(w < bucket_seconds or w % bucket_seconds for w in windows):
        raise ValueError(
            "every window must be a positive multiple of bucket_seconds"
        )
    return windows, float(bucket_seconds), int(windows[-1] / bucket_seconds)


class WindowedQuantiles:
    """Cumulative plus sliding-window histogram quantiles of one stream.

    Args:
        windows: Window spans in seconds (ascending); the ring covers the
            largest.
        bucket_seconds: Ring bucket granularity.
        bounds: Histogram upper edges used for quantile interpolation
            (ascending; +inf overflow is implicit).
        quantiles: Quantiles reported for the whole run and every window.
    """

    __slots__ = ("windows", "bucket_seconds", "sketch", "_ring")

    def __init__(
        self,
        windows: Sequence[float] = DEFAULT_WINDOWS,
        bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
        bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> None:
        self.windows, self.bucket_seconds, slots = _ring_shape(
            windows, bucket_seconds
        )
        self.sketch = QuantileSketch(bounds, quantiles)
        self._ring: list[tuple[int, QuantileSketch | None]] = [(-1, None)] * slots

    def _empty(self) -> QuantileSketch:
        return QuantileSketch(self.sketch.bounds, self.sketch.quantiles)

    def observe(self, value: float, now: float | None = None) -> None:
        """Record ``value`` at time ``now`` (default: the obs clock)."""
        if now is None:
            now = _state.monotonic()
        self.sketch.observe(value)
        epoch = int(now // self.bucket_seconds)
        slot = epoch % len(self._ring)
        bucket_epoch, bucket = self._ring[slot]
        if bucket is None or bucket_epoch != epoch:
            bucket = self._empty()
            self._ring[slot] = (epoch, bucket)
        bucket.observe(value)

    def window_snapshot(
        self, window_seconds: float, now: float | None = None
    ) -> dict:
        """Merged count/sum/min/max/quantiles over the trailing window."""
        if now is None:
            now = _state.monotonic()
        epoch = int(now // self.bucket_seconds)
        oldest = epoch - int(window_seconds / self.bucket_seconds) + 1
        merged = self._empty()
        for bucket_epoch, bucket in self._ring:
            if bucket is not None and oldest <= bucket_epoch <= epoch:
                merged.merge(bucket)
        return merged.snapshot()

    def snapshot(self, now: float | None = None) -> dict:
        """Cumulative sketch snapshot plus one entry per configured window."""
        if now is None:
            now = _state.monotonic()
        snap = self.sketch.snapshot()
        snap["windows"] = {
            window_label(w): self.window_snapshot(w, now=now)
            for w in self.windows
        }
        return snap


class RingCounter:
    """Sliding-window counter: per-bucket totals over the same ring discipline.

    The cumulative total is tracked alongside so one instrument serves both
    "how many ever" and "how many in the last minute".
    """

    __slots__ = ("windows", "bucket_seconds", "total", "_epochs", "_amounts")

    def __init__(
        self,
        windows: Sequence[float] = DEFAULT_WINDOWS,
        bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
    ) -> None:
        self.windows, self.bucket_seconds, slots = _ring_shape(
            windows, bucket_seconds
        )
        self.total = 0.0
        self._epochs = [-1] * slots
        self._amounts = [0.0] * slots

    def add(self, amount: float = 1.0, now: float | None = None) -> None:
        if now is None:
            now = _state.monotonic()
        self.total += amount
        epoch = int(now // self.bucket_seconds)
        slot = epoch % len(self._epochs)
        if self._epochs[slot] != epoch:
            self._epochs[slot] = epoch
            self._amounts[slot] = 0.0
        self._amounts[slot] += amount

    def window_total(
        self, window_seconds: float, now: float | None = None
    ) -> float:
        if now is None:
            now = _state.monotonic()
        epoch = int(now // self.bucket_seconds)
        oldest = epoch - int(window_seconds / self.bucket_seconds) + 1
        return sum(
            amount
            for bucket_epoch, amount in zip(self._epochs, self._amounts)
            if oldest <= bucket_epoch <= epoch
        )

    def snapshot(self, now: float | None = None) -> dict:
        if now is None:
            now = _state.monotonic()
        return {
            "total": self.total,
            "windows": {
                window_label(w): self.window_total(w, now=now)
                for w in self.windows
            },
        }
