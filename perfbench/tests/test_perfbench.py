"""Tests of the benchmark itself: inputs, statistics, spans, metadata, smoke.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import harness  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402


# ------------------------------------------------------------------ inputs


@pytest.mark.parametrize(
    "make",
    [
        lambda s: inputs.build_sample_seed(s),
        lambda s: [a.to_string() for a in inputs.probe_archs(s, 8)],
        lambda s: inputs.search_plan(s, 3),
        lambda s: [a.to_string() for a in inputs.screen_pool(s, 0, 50)],
        lambda s: inputs.check_indices(s, 100, 5),
        lambda s: [inputs.ServeSchedule(s, 16).key(k) for k in range(40)],
    ],
)
def test_generators_repeat_for_a_seed_and_differ_across_seeds(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_screen_pools_are_unique_and_fresh_per_pass():
    first = inputs.screen_pool(1, 0, 300)
    assert len(set(first)) == 300
    assert set(first) != set(inputs.screen_pool(1, 1, 300))


def test_serve_schedule_mixes_hot_keys_and_new_archs():
    schedule = inputs.ServeSchedule(3, hot_keys=16)
    keys = [schedule.key(k) for k in range(500)]
    hot = [k for k in range(500) if schedule.is_hot(k)]
    assert len(hot) == 200
    assert {keys[k] for k in hot} <= set(schedule.hot)
    new = [keys[k] for k in range(500) if not schedule.is_hot(k)]
    assert len(set(new)) == len(new) == 300
    assert not set(new) & set(schedule.hot)
    assert {key[1:] for key in keys} == set(inputs.TARGETS)


# -------------------------------------------------------------- statistics


def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    values = list(rng.exponential(size=101))
    for p in (0, 12.5, 50, 95, 99, 100):
        assert harness.percentile(values, p) == pytest.approx(np.percentile(values, p))


@pytest.mark.parametrize(
    "n, expected",
    [(20000, 99.9), (2000, 99.0), (999, 95.0), (500, 95.0), (100, 90.0),
     (40, 75.0), (20, 50.0), (19, 100.0), (1, 100.0)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    values = [float(i) for i in range(n)]
    pct, value = harness.tail_percentile(values)
    assert pct == expected
    assert value == (max(values) if pct == 100.0 else harness.percentile(values, pct))


def test_host_slowness_is_the_median_over_the_interval_or_its_nearest_samples():
    samples = [[float(t), float(t)] for t in range(10)]
    assert hostspeed.slowness_between(samples, 2.0, 6.0) == 4.0
    assert hostspeed.slowness_between(samples, 2.0, 5.0) == 3.5
    # Too short for three samples: the three nearest to its midpoint.
    assert hostspeed.slowness_between(samples, 7.2, 7.4) == 7.0


# ------------------------------------------------------------------- spans


def _span(sid, parent, name, start, end, rows=0):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "request": None, "rows": rows}


def test_self_time_subtracts_the_union_of_direct_children():
    tree = [
        _span(1, None, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 3.0),
        _span(3, 1, "b", 2.0, 5.0),    # overlaps a: counted once
        _span(4, 1, "c", 9.0, 12.0),   # sticks out: clipped at 10
        _span(5, 2, "grandchild", 1.5, 2.5),
    ]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)


def test_layer_metrics_on_a_synthetic_run():
    tree = [
        _span(1, None, "store.load", 0.0, 0.5),
        _span(2, None, "benchmark.query_batch", 1.0, 2.0, rows=4),
        _span(3, 2, "searchspace.encode", 1.0, 1.25, rows=4),
        _span(4, 2, "surrogates.predict", 1.25, 1.75, rows=4),
        _span(5, None, "serve.coalescer.query", 0.5, 5.0),
        _span(6, None, "serve.coalescer.query", 0.5, 5.0),
        _span(7, None, "serve.coalescer.query", 0.5, 5.0),
        _span(8, None, "serve.coalescer.query", 0.5, 5.0),
        _span(9, None, "surrogates.predict", 3.0, 3.5, rows=1),
        _span(10, None, "parallel.map", 0.0, 2.0, rows=2),
        _span(11, None, "parallel.task", 0.0, 2.0),
        _span(12, None, "parallel.task", 0.0, 1.0),
    ]
    m = spans.layer_metrics(tree, {"encode_hits": 3, "encode_misses": 1,
                                   "coalescer_items": 6, "coalescer_flushes": 4})
    assert m["store.load_s"] == pytest.approx(0.5)
    assert m["store.first_query_s"] == pytest.approx(1.0)
    assert m["benchmark.query_self_s"] == pytest.approx(0.25)
    assert m["searchspace.encode_hit_ratio"] == pytest.approx(0.75)
    # Four queries waited 4.5 s each; together they waited on one 1 s
    # batch of 4 rows.
    assert m["serve.coalescer.wait_s"] == pytest.approx((18.0 - 4.0) / 4)
    assert m["serve.coalescer.mean_batch"] == pytest.approx(1.5)
    assert m["surrogates.predict_rows_per_s.le1"] == pytest.approx(2.0)
    assert m["surrogates.predict_rows_per_s.le64"] == pytest.approx(8.0)
    assert m["surrogates.predict_rows_per_s.gt1024"] == 0.0
    assert m["parallel.utilisation"] == pytest.approx(3.0 / 4.0)


def test_tracer_links_parents_and_counts_rows():
    tracer = spans.Tracer()

    def inner(xs):
        return len(xs)

    traced_inner = tracer.wrap(inner, "inner", rows=lambda a, k, r: len(a[0]))
    outer = tracer.wrap(lambda xs: traced_inner(xs) + traced_inner(xs[:1]), "outer")
    assert outer([1, 2, 3]) == 4  # inert while disabled
    assert tracer.spans == []
    tracer.enabled = True
    assert outer([1, 2, 3]) == 4
    recorded = spans.as_dicts(tracer)
    by_name = {}
    for span in recorded:
        by_name.setdefault(span["name"], []).append(span)
    (root,) = by_name["outer"]
    assert root["parent"] is None
    assert [s["parent"] for s in by_name["inner"]] == [root["id"]] * 2
    assert [s["rows"] for s in by_name["inner"]] == [3, 1]


# ---------------------------------------------------------------- metadata


def _benchmark_json():
    return json.loads(harness.BENCHMARK_JSON.read_text())


def test_metric_names_and_bounds():
    data = _benchmark_json()
    e2e, layers = data["end_to_end"], data["per_layer"]
    names = [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in data["workloads"]]:
        assert harness.NAME_RE.fullmatch(name), name
    for metric in e2e:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_metadata_matches_what_the_benchmark_reports():
    data = _benchmark_json()
    spec = harness.load_spec()
    assert [w["name"] for w in data["workloads"]] == list(harness.WORKLOADS)
    assert set(spec["workloads"]) == set(harness.WORKLOADS)
    layer_names = {m["name"] for m in data["per_layer"]}
    assert set(spans.layer_metrics([], {})) == layer_names
    mapped = {name for row in spec["layers"] for name in row["metrics"]}
    assert mapped == layer_names
    e2e = {m["name"] for m in data["end_to_end"]}
    assert set(spec["end_to_end"]) - {"error_rate"} == e2e
    import run

    fake = {"units": [[0.0, 1.0, 3, [1.0, 2.0]]], "normalised": True, "rss_mb": 1.0}
    metrics, wall = run.end_to_end([[0.0, 0.5]], fake, [[0.5, 2.0]] * 3)
    assert set(metrics) == set(wall) == e2e
    assert wall["throughput_per_s"] == 3.0
    assert metrics["throughput_per_s"]["value"] == 6.0
    assert metrics["setup_s"]["value"] == 0.25
    for w in data["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


# ------------------------------------------------------------------- smoke


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench-work")


def _run(work, workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny", "--work", str(work)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return harness.last_json_line(proc.stdout)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_each_workload_completes_a_tiny_run_without_errors(work, workload):
    result = _run(work, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"] for m in _benchmark_json()["end_to_end"]}
    assert set(result["metrics"]) == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["search", "serve"])
def test_traced_run_reports_every_layer_metric(work, workload):
    result = _run(work, workload, trace=1, seed=2)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in _benchmark_json()["per_layer"]}
    assert result["metrics"]["trace_overhead_ratio"]["value"] > 0

