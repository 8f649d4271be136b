"""Metrics registry: counters, gauges, histograms, snapshot and export."""

import json
import threading

import pytest

from repro.obs.metrics import DEFAULT_SECONDS_BUCKETS, MetricsRegistry
from repro.obs.sketch import QuantileSketch
from repro.obs.validate import SchemaError, validate_metrics_file


def test_counter_accumulates():
    reg = MetricsRegistry()
    reg.inc("collect.retries")
    reg.inc("collect.retries", 2.5)
    assert reg.counter("collect.retries") == 3.5
    assert reg.counter("missing") == 0.0


def test_counter_rejects_negative():
    with pytest.raises(ValueError, match=">= 0"):
        MetricsRegistry().inc("x", -1)


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    assert reg.gauge("query.cache_hits") is None
    reg.set_gauge("query.cache_hits", 10)
    reg.set_gauge("query.cache_hits", 4)
    assert reg.gauge("query.cache_hits") == 4.0


def test_histogram_buckets():
    hist = QuantileSketch((0.1, 1.0))
    for value in (0.05, 0.5, 0.7, 5.0):
        hist.observe(value)
    d = hist.as_dict()
    assert d["bucket_counts"] == [1, 2, 1]
    assert d["count"] == 4
    assert d["sum"] == pytest.approx(6.25)


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        QuantileSketch(())
    with pytest.raises(ValueError, match="ascending"):
        QuantileSketch((1.0, 0.5))


def test_observe_creates_histogram_with_default_buckets():
    reg = MetricsRegistry()
    reg.observe("surrogate.fit_seconds", 0.42)
    hist = reg.snapshot()["histograms"]["surrogate.fit_seconds"]
    assert hist["bounds"] == list(DEFAULT_SECONDS_BUCKETS)
    assert hist["count"] == 1


def test_snapshot_is_sorted_and_detached():
    reg = MetricsRegistry()
    reg.inc("b")
    reg.inc("a")
    snap = reg.snapshot()
    assert list(snap["counters"]) == ["a", "b"]
    reg.inc("a")
    assert snap["counters"]["a"] == 1.0


def test_clear():
    reg = MetricsRegistry()
    reg.inc("a")
    reg.set_gauge("g", 1)
    reg.observe("h", 0.1)
    reg.observe_window("w", 0.1)
    reg.clear()
    snap = reg.snapshot()
    assert snap == {
        "counters": {},
        "gauges": {},
        "histograms": {},
        "windows": {},
    }


def test_threaded_increments_do_not_lose_updates():
    reg = MetricsRegistry()

    def bump():
        for _ in range(1000):
            reg.inc("hits")

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reg.counter("hits") == 8000.0


def test_export_jsonl_round_trips_schema(tmp_path):
    reg = MetricsRegistry()
    reg.inc("collect.tasks_completed", 20)
    reg.set_gauge("query.cache_hits", 7)
    reg.observe("surrogate.fit_seconds", 0.3)
    path = tmp_path / "metrics.jsonl"
    reg.export_jsonl(path)

    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header == {"schema": "anb-metrics", "schema_version": 1}
    assert validate_metrics_file(path) == 3


def test_validate_rejects_corrupt_export(tmp_path):
    path = tmp_path / "metrics.jsonl"
    path.write_text(
        '{"schema": "anb-metrics", "schema_version": 1}\n'
        '{"kind": "counter", "name": "x"}\n'
    )
    with pytest.raises(SchemaError, match="value"):
        validate_metrics_file(path)


# Histogram records exported by the registry, recorded byte for byte before
# the histogram and the windowed sketch were merged into one cell type.
HISTOGRAM_RECORDS = [
    '{"bounds": [0.0, 1.0, 2.0], "bucket_counts": [2, 2, 3, 2], "count": 9, '
    '"kind": "histogram", "name": "fit.custom", "sum": NaN}',
    '{"bounds": [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0], '
    '"bucket_counts": [2, 1, 1, 1, 0, 0, 1, 1, 0, 1, 2], "count": 10, '
    '"kind": "histogram", "name": "fit.default", "sum": NaN}',
    '{"bounds": [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0], '
    '"bucket_counts": [0, 1, 0, 0, 1, 2, 0, 0, 0, 0, 0], "count": 4, '
    '"kind": "histogram", "name": "fit.finite", "sum": 0.6040000000000001}',
    '{"bounds": [5.0], "bucket_counts": [0, 1], "count": 1, '
    '"kind": "histogram", "name": "fit.single", "sum": 7.0}',
]


def test_histogram_export_bytes_are_pinned():
    reg = MetricsRegistry()
    for v in (0.0004, 0.001, 0.0025, 0.05, 0.7, 3.0, 60.0, 75.5, float("nan"), 0.01):
        reg.observe("fit.default", v)
    for v in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.0, 9.0, float("nan")):
        reg.observe("fit.custom", v, buckets=(0.0, 1.0, 2.0))
    for v in (0.1, 0.2, 0.3, 0.004):
        reg.observe("fit.finite", v)
    reg.observe("fit.single", 7, buckets=(5,))
    lines = [line for line in reg.export_lines() if '"histogram"' in line]
    assert lines == HISTOGRAM_RECORDS
