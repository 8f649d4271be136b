"""Sliding-window rings: bucketing, expiry, windowed quantiles, counters."""

import pytest

import repro.obs as obs
from repro.obs.window import (
    DEFAULT_LATENCY_BOUNDS,
    RingCounter,
    WindowedQuantiles,
    window_label,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    clock = FakeClock()
    obs.set_clock(clock)
    return clock


def test_default_bounds_are_strictly_ascending():
    assert list(DEFAULT_LATENCY_BOUNDS) == sorted(set(DEFAULT_LATENCY_BOUNDS))
    assert DEFAULT_LATENCY_BOUNDS[0] == pytest.approx(1e-4)
    assert DEFAULT_LATENCY_BOUNDS[-1] == 63.0


def test_window_label_spellings():
    assert window_label(60.0) == "1m"
    assert window_label(300.0) == "5m"
    assert window_label(15.0) == "15s"


def test_constructor_validation():
    with pytest.raises(ValueError, match="windows"):
        WindowedQuantiles(windows=())
    with pytest.raises(ValueError, match="windows"):
        WindowedQuantiles(windows=(300.0, 60.0))
    with pytest.raises(ValueError, match="bucket_seconds"):
        WindowedQuantiles(bucket_seconds=0)
    with pytest.raises(ValueError, match="multiple"):
        WindowedQuantiles(windows=(7.0,), bucket_seconds=5.0)
    with pytest.raises(ValueError, match="bounds"):
        WindowedQuantiles(bounds=())


def test_snapshot_reports_cumulative_and_windows(clock):
    wq = WindowedQuantiles(windows=(60.0, 300.0), bucket_seconds=5.0)
    for v in (0.01, 0.02, 0.03):
        wq.observe(v)
    snap = wq.snapshot()
    assert snap["count"] == 3
    assert set(snap["windows"]) == {"1m", "5m"}
    assert snap["windows"]["1m"]["count"] == 3
    assert snap["windows"]["5m"]["count"] == 3


def test_old_observations_age_out_of_small_window(clock):
    wq = WindowedQuantiles(windows=(60.0, 300.0), bucket_seconds=5.0)
    wq.observe(1.0)
    clock.now = 90.0  # past the 1m window, inside the 5m one
    snap = wq.snapshot()
    assert snap["windows"]["1m"]["count"] == 0
    assert snap["windows"]["1m"]["quantiles"]["p50"] is None
    assert snap["windows"]["5m"]["count"] == 1
    assert snap["count"] == 1  # cumulative sketch never forgets


def test_ring_slot_recycles_after_full_revolution(clock):
    wq = WindowedQuantiles(windows=(60.0,), bucket_seconds=5.0)
    wq.observe(1.0)  # epoch 0
    clock.now = 60.0  # epoch 12 lands in the same slot (ring of 12)
    wq.observe(2.0)
    snap = wq.window_snapshot(60.0)
    assert snap["count"] == 1
    assert snap["min"] == 2.0


def test_windowed_quantiles_are_clamped_to_observed_range(clock):
    wq = WindowedQuantiles(windows=(60.0,), bucket_seconds=5.0)
    for v in (0.011, 0.012, 0.013, 0.014):
        wq.observe(v)
    snap = wq.window_snapshot(60.0)
    assert 0.011 <= snap["quantiles"]["p50"] <= 0.014
    assert 0.011 <= snap["quantiles"]["p99"] <= 0.014


def test_windowed_median_is_close_for_spread_values(clock):
    wq = WindowedQuantiles(windows=(60.0,), bucket_seconds=5.0)
    values = [0.001 * i for i in range(1, 101)]
    for v in values:
        wq.observe(v)
    p50 = wq.window_snapshot(60.0)["quantiles"]["p50"]
    assert p50 == pytest.approx(0.05, rel=0.3)


def test_observe_accepts_explicit_now_independent_of_clock(clock):
    wq = WindowedQuantiles(windows=(60.0,), bucket_seconds=5.0)
    wq.observe(1.0, now=500.0)
    assert wq.window_snapshot(60.0, now=500.0)["count"] == 1
    assert wq.window_snapshot(60.0, now=0.0)["count"] == 0


def test_ring_counter_window_totals(clock):
    counter = RingCounter(windows=(60.0, 300.0), bucket_seconds=5.0)
    counter.add(2.0)
    clock.now = 90.0
    counter.add(3.0)
    assert counter.total == 5.0
    assert counter.window_total(60.0) == 3.0
    assert counter.window_total(300.0) == 5.0
    snap = counter.snapshot()
    assert snap == {"total": 5.0, "windows": {"1m": 3.0, "5m": 5.0}}


def test_ring_counter_slot_recycles(clock):
    counter = RingCounter(windows=(60.0,), bucket_seconds=5.0)
    counter.add(1.0)
    clock.now = 60.0  # same slot, new epoch
    counter.add(1.0)
    assert counter.window_total(60.0) == 1.0
    assert counter.total == 2.0


def test_ring_counter_validation():
    with pytest.raises(ValueError, match="windows"):
        RingCounter(windows=())
    with pytest.raises(ValueError, match="multiple"):
        RingCounter(windows=(8.0,), bucket_seconds=5.0)


def test_cumulative_matches_window_spanning_several_buckets(clock):
    wq = WindowedQuantiles(windows=(60.0,), bucket_seconds=5.0)
    values = [0.0003, 0.02, 0.004, 1.7, 0.09, 0.015, 0.6, 0.0021, 0.33]
    for i, v in enumerate(values):
        clock.now = 7.0 * i  # nine observations over eight ring buckets
        wq.observe(v)
    snap = wq.snapshot()
    window = snap["windows"]["1m"]
    for key in ("count", "min", "max", "quantiles"):
        assert snap[key] == window[key], key
    assert snap["count"] == len(values)
