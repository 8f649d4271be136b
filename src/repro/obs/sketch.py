"""Fixed-bound histograms with interpolated quantiles.

:class:`QuantileSketch` is the one histogram type of :mod:`repro.obs`:
strictly ascending upper-edge ``bounds`` (``+inf`` overflow implicit), one
count per cell, and count/sum/min/max for the stream.  A quantile is read by
linear interpolation inside the cell holding its rank, clamped to the
observed min/max.  There is no randomness and no stored sample: a snapshot
is a pure function of the observation sequence, which is what makes it
safe inside this repository's determinism contract.  With few
observations (n <= 5, say) the interpolated value is an estimate, not the
exact order statistic.

Two sketches with equal bounds merge cell by cell.  The sliding-window view
(:mod:`repro.obs.window`) keeps one sketch per ring bucket and reads a
window by merging the live ones; the metrics registry's histograms are
sketches too, exported through :meth:`QuantileSketch.as_dict`.

The class is stdlib-only and unlocked: callers that share a sketch across
threads must serialise access (the metrics registry wraps them in its own
lock).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


def _log_spaced_bounds() -> tuple[float, ...]:
    """Default latency bounds: 5 per decade from 100 µs to 60 s."""
    bounds = []
    for exponent in range(-4, 2):
        for mantissa in (1.0, 1.6, 2.5, 4.0, 6.3):
            bounds.append(mantissa * 10.0**exponent)
    bounds.append(60.0)
    return tuple(sorted(round(b, 10) for b in bounds))


DEFAULT_LATENCY_BOUNDS = _log_spaced_bounds()


def quantile_key(q: float) -> str:
    """Canonical snapshot key for quantile ``q`` (0.5 -> "p50", 0.999 -> "p99.9")."""
    pct = q * 100.0
    if pct == int(pct):
        return f"p{int(pct)}"
    return f"p{format(pct, 'g')}"


class QuantileSketch:
    """A fixed-bound histogram of one stream, with interpolated quantiles.

    Args:
        bounds: Cell upper edges, strictly ascending; a value lands in the
            first cell whose edge is ``>=`` it, and anything above the last
            edge (or NaN) in the overflow cell.
        quantiles: Quantiles reported by :meth:`snapshot`, each in (0, 1).
    """

    __slots__ = ("bounds", "quantiles", "counts", "count", "total", "min", "max")

    def __init__(
        self,
        bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("bounds must be non-empty and strictly ascending")
        quantiles = tuple(float(q) for q in quantiles)
        if not quantiles:
            raise ValueError("sketch needs at least one quantile")
        if list(quantiles) != sorted(set(quantiles)):
            raise ValueError("quantiles must be strictly ascending")
        if not 0.0 < quantiles[0] <= quantiles[-1] < 1.0:
            raise ValueError(f"quantiles must be in (0, 1), got {quantiles}")
        self.bounds = bounds
        self.quantiles = quantiles
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        # NaN compares false against every edge: it lands in the overflow cell.
        cell = bisect_left(self.bounds, value) if value == value else len(self.bounds)
        self.counts[cell] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` (same bounds) into this sketch."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge sketches with different bounds")
        for i, cell_count in enumerate(other.counts):
            self.counts[i] += cell_count
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def quantile(self, q: float) -> float | None:
        """Linear interpolation inside the cell holding rank ``q * count``."""
        if self.count == 0:
            return None
        bounds = self.bounds
        rank = q * self.count
        seen = 0.0
        for i, cell_count in enumerate(self.counts):
            if cell_count == 0:
                continue
            if seen + cell_count >= rank:
                lo_edge = bounds[i - 1] if i > 0 else 0.0
                hi_edge = bounds[i] if i < len(bounds) else self.max
                frac = (rank - seen) / cell_count
                value = lo_edge + (hi_edge - lo_edge) * frac
                return min(max(value, self.min), self.max)
            seen += cell_count
        return self.max

    def snapshot(self) -> dict:
        """Deterministic snapshot in the documented sketch-record shape."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "quantiles": {quantile_key(q): self.quantile(q) for q in self.quantiles},
        }

    def as_dict(self) -> dict:
        """The cells in the histogram-record shape of the metrics export."""
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
        }
