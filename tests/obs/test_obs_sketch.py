"""Histogram quantile sketches: cells, interpolation, merge, determinism."""

import random

import pytest

from repro.obs.sketch import (
    DEFAULT_LATENCY_BOUNDS,
    DEFAULT_QUANTILES,
    QuantileSketch,
    quantile_key,
)


def exact_quantile(values, q):
    values = sorted(values)
    rank = q * (len(values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(values) - 1)
    frac = rank - lo
    return values[lo] + (values[hi] - values[lo]) * frac


def test_quantile_key_spellings():
    assert quantile_key(0.5) == "p50"
    assert quantile_key(0.95) == "p95"
    assert quantile_key(0.99) == "p99"
    assert quantile_key(0.999) == "p99.9"


def test_sketch_rejects_out_of_range_quantile():
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            QuantileSketch(quantiles=(bad,))


def test_empty_estimator_returns_none():
    assert QuantileSketch().quantile(0.5) is None


def test_median_converges_on_uniform_stream():
    rng = random.Random(7)
    values = [rng.random() for _ in range(5000)]
    sketch = QuantileSketch()
    for v in values:
        sketch.observe(v)
    assert sketch.quantile(0.5) == pytest.approx(exact_quantile(values, 0.5), abs=0.02)


def test_p99_converges_on_skewed_stream():
    rng = random.Random(11)
    values = [rng.expovariate(10.0) for _ in range(8000)]
    sketch = QuantileSketch()
    for v in values:
        sketch.observe(v)
    exact = exact_quantile(values, 0.99)
    assert sketch.quantile(0.99) == pytest.approx(exact, rel=0.15)


def test_estimate_is_deterministic_function_of_sequence():
    rng = random.Random(3)
    values = [rng.random() for _ in range(500)]

    def run():
        sketch = QuantileSketch()
        for v in values:
            sketch.observe(v)
        return sketch.snapshot()

    assert run() == run()


def test_as_dict_shape():
    sketch = QuantileSketch((0.1, 1.0))
    for value in (0.05, 0.1, 0.5, 5.0, float("nan")):
        sketch.observe(value)
    d = sketch.as_dict()
    assert list(d) == ["bounds", "bucket_counts", "count", "sum"]
    # Upper edges are inclusive; above the last edge, and NaN, overflow.
    assert d["bounds"] == [0.1, 1.0]
    assert d["bucket_counts"] == [2, 1, 2]
    assert d["count"] == 5


def test_merge_adds_cells_and_extremes():
    a, b, both = QuantileSketch(), QuantileSketch(), QuantileSketch()
    for i, v in enumerate((0.003, 0.2, 0.04, 1.5, 0.0001, 0.07)):
        (a if i % 2 else b).observe(v)
        both.observe(v)
    a.merge(b)
    assert a.counts == both.counts
    assert (a.count, a.min, a.max) == (both.count, both.min, both.max)
    assert a.snapshot()["quantiles"] == both.snapshot()["quantiles"]
    with pytest.raises(ValueError, match="different bounds"):
        a.merge(QuantileSketch((1.0,)))


def test_sketch_defaults_and_snapshot():
    sketch = QuantileSketch()
    assert sketch.quantiles == DEFAULT_QUANTILES
    assert sketch.bounds == DEFAULT_LATENCY_BOUNDS
    for v in (0.2, 0.4, 0.6):
        sketch.observe(v)
    snap = sketch.snapshot()
    assert snap["count"] == 3
    assert snap["sum"] == pytest.approx(1.2)
    assert snap["min"] == 0.2
    assert snap["max"] == 0.6
    assert set(snap["quantiles"]) == {"p50", "p95", "p99"}
    # Interpolated, not the exact order statistic: rank 1.5 of 3 sits
    # halfway through the (0.25, 0.4] cell that holds 0.4.
    assert snap["quantiles"]["p50"] == pytest.approx(0.325)


def test_sketch_empty_snapshot_uses_nulls():
    snap = QuantileSketch().snapshot()
    assert snap["count"] == 0
    assert snap["min"] is None
    assert snap["max"] is None
    assert all(v is None for v in snap["quantiles"].values())


def test_sketch_quantile_lookup():
    sketch = QuantileSketch((1.0, 2.0, 4.0), quantiles=(0.5, 0.9))
    for v in (0.5, 1.5, 1.5, 3.0):
        sketch.observe(v)
    # Rank 2 of 4 is halfway through the two values in the (1, 2] cell;
    # any q reads, tracked or not.
    assert sketch.quantile(0.5) == 1.5
    assert sketch.quantile(0.25) == 1.0
    assert sketch.quantile(0.99) == 3.0  # clamped to the observed max


def test_sketch_rejects_bad_quantile_lists():
    with pytest.raises(ValueError, match="at least one"):
        QuantileSketch(quantiles=())
    with pytest.raises(ValueError, match="ascending"):
        QuantileSketch(quantiles=(0.9, 0.5))
    with pytest.raises(ValueError, match="ascending"):
        QuantileSketch(quantiles=(0.5, 0.5))
    with pytest.raises(ValueError, match="bounds"):
        QuantileSketch(bounds=(1.0, 1.0))
