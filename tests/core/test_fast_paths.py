"""Equivalence suite: every fast path must match its reference path exactly.

The performance layer (encoded-feature cache, batched queries, single-row
ensemble fast path, parallel collection and build) is only admissible because
it is *bit-identical* to the scalar/serial reference implementations.  These
tests pin that contract with exact comparisons.
"""

import numpy as np
import pytest

from repro.core.benchmark import AccelNASBench
from repro.core.dataset import (
    collect_accuracy_dataset,
    collect_device_dataset,
    sample_dataset_archs,
)
from repro.core.parallel import chunked_map, deterministic_map, resolve_n_jobs
from repro.trainsim.schemes import P_STAR

BUILD_KWARGS = dict(
    num_archs=120,
    devices={"a100": ("throughput",)},
    sample_seed=7,
    family="rf",
)


@pytest.fixture(scope="module")
def small_bench():
    bench, _ = AccelNASBench.build(P_STAR, **BUILD_KWARGS)
    return bench


class TestParallelHelpers:
    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(4) == 4
        assert resolve_n_jobs(0) == 1
        assert resolve_n_jobs(-1) >= 1
        assert resolve_n_jobs(None) >= 1

    def test_deterministic_map_preserves_order(self):
        items = list(range(37))
        assert deterministic_map(lambda x: x * x, items, n_jobs=4) == [
            x * x for x in items
        ]

    def test_chunked_map_preserves_order(self):
        items = list(range(101))
        assert chunked_map(lambda x: x - 3, items, n_jobs=5) == [
            x - 3 for x in items
        ]
        assert chunked_map(lambda x: x, [], n_jobs=3) == []


class TestCollectionParallelism:
    def test_accuracy_collection_matches_serial(self, some_archs):
        archs = some_archs[:24]
        serial = collect_accuracy_dataset(archs, P_STAR)
        parallel = collect_accuracy_dataset(archs, P_STAR, n_jobs=3)
        assert (serial.values == parallel.values).all()
        assert serial.archs == parallel.archs

    def test_device_collection_matches_serial(self, some_archs):
        archs = some_archs[:16]
        serial = collect_device_dataset(archs, "zcu102", "latency")
        parallel = collect_device_dataset(archs, "zcu102", "latency", n_jobs=4)
        assert (serial.values == parallel.values).all()


class TestParallelBuild:
    def test_parallel_build_saves_identical_bytes(self, tmp_path):
        serial, _ = AccelNASBench.build(P_STAR, **BUILD_KWARGS)
        parallel, _ = AccelNASBench.build(
            P_STAR, n_jobs=2, collect_n_jobs=2, **BUILD_KWARGS
        )
        p1, p2 = tmp_path / "serial.json", tmp_path / "parallel.json"
        serial.save(p1)
        parallel.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parallel_build_reports_in_input_order(self):
        _, serial_reports = AccelNASBench.build(P_STAR, **BUILD_KWARGS)
        _, parallel_reports = AccelNASBench.build(P_STAR, n_jobs=2, **BUILD_KWARGS)
        assert [r.dataset for r in serial_reports] == [
            r.dataset for r in parallel_reports
        ]
        assert serial_reports[0].dataset == "ANB-Acc"


class TestBatchedQueries:
    def test_query_batch_matches_scalar_query_exactly(self, small_bench, some_archs):
        archs = some_archs[:20]
        batched = small_bench.query_batch(archs, device="a100")
        for arch, res in zip(archs, batched):
            single = small_bench.query(arch, device="a100")
            assert res == single  # dataclass equality: exact floats

    def test_accuracy_batch_matches_scalar_exactly(self, small_bench, some_archs):
        archs = some_archs[:20]
        batched = small_bench.query_accuracy_batch(archs)
        singles = np.asarray([small_bench.query_accuracy(a) for a in archs])
        assert (batched == singles).all()

    def test_performance_batch_matches_scalar_exactly(self, small_bench, some_archs):
        archs = some_archs[:20]
        batched = small_bench.query_performance_batch(archs, "a100", "throughput")
        singles = np.asarray(
            [small_bench.query_performance(a, "a100", "throughput") for a in archs]
        )
        assert (batched == singles).all()

    def test_batch_unknown_target_rejected(self, small_bench, some_archs):
        with pytest.raises(KeyError):
            small_bench.query_batch(some_archs[:2], device="tpuv3")
        with pytest.raises(KeyError):
            small_bench.performance_objective("tpuv3")


class TestEnsembleFastPath:
    def test_predict_dispatches_single_row(self, small_bench, some_archs):
        X = small_bench.encoder.encode(some_archs[:6])
        inner = small_bench._accuracy_model.base
        full = inner.predict(X)
        rows = np.concatenate([inner.predict(X[i : i + 1]) for i in range(6)])
        assert (full == rows).all()
