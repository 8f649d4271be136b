"""Unit tests for surrogate feature encodings."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.counters import count_graph
from repro.searchspace import model_builder, stage_table
from repro.searchspace.features import ENCODINGS, FeatureEncoder
from repro.searchspace.mnasnet import (
    EXPANSION_CHOICES,
    KERNEL_CHOICES,
    LAYER_CHOICES,
    NUM_STAGES,
    SE_CHOICES,
    ArchSpec,
)
from repro.searchspace.model_builder import build_model


class TestWidths:
    def test_onehot_width(self):
        assert FeatureEncoder("onehot").num_features == NUM_STAGES * 10

    def test_integer_width(self):
        assert FeatureEncoder("integer").num_features == NUM_STAGES * 4

    def test_global_width(self):
        assert FeatureEncoder("onehot+global").num_features == NUM_STAGES * 10 + 4

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValueError, match="unknown encoding"):
            FeatureEncoder("fourier")


class TestEncodeOne:
    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_shape_and_dtype(self, encoding, some_archs):
        enc = FeatureEncoder(encoding)
        row = enc.encode_one(some_archs[0])
        assert row.shape == (enc.num_features,)
        assert row.dtype == np.float64

    def test_onehot_groups_sum_to_one(self, some_archs):
        enc = FeatureEncoder("onehot")
        row = enc.encode_one(some_archs[0])
        # 28 decision groups with sizes 3,2,3,2 repeating.
        sizes = [3, 2, 3, 2] * NUM_STAGES
        pos = 0
        for size in sizes:
            assert row[pos : pos + size].sum() == 1.0
            pos += size

    def test_integer_encoding_carries_raw_values(self, some_archs):
        arch = some_archs[0]
        row = FeatureEncoder("integer").encode_one(arch)
        assert row[0] == arch.expansion[0]
        assert row[1] == arch.kernel[0]
        assert row[2] == arch.layers[0]
        assert row[3] == arch.se[0]

    def test_global_features_finite_and_ordered(self, tiny_arch, big_arch):
        enc = FeatureEncoder("onehot+global")
        small = enc.encode_one(tiny_arch)[-4:]
        big = enc.encode_one(big_arch)[-4:]
        assert np.all(np.isfinite(small))
        assert big[0] > small[0]  # log flops
        assert big[1] > small[1]  # log params
        assert big[2] > small[2]  # depth
        assert big[3] > small[3]  # SE count


class TestEncodeBatch:
    def test_batch_matches_rows(self, some_archs):
        enc = FeatureEncoder("onehot")
        X = enc.encode(some_archs[:10])
        assert X.shape == (10, enc.num_features)
        for i, arch in enumerate(some_archs[:10]):
            assert np.array_equal(X[i], enc.encode_one(arch))

    def test_empty_batch(self):
        enc = FeatureEncoder("onehot")
        assert enc.encode([]).shape == (0, enc.num_features)

    def test_distinct_archs_distinct_rows(self, some_archs):
        enc = FeatureEncoder("onehot")
        X = enc.encode(some_archs[:20])
        assert len(np.unique(X, axis=0)) == 20

    def test_feature_names_align(self):
        for encoding in ENCODINGS:
            enc = FeatureEncoder(encoding)
            assert len(enc.feature_names()) == enc.num_features

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_vectorised_batch_matches_scalar_reference(self, encoding, some_archs):
        """The cached/vectorised batch path is bit-identical to encode_one."""
        enc = FeatureEncoder(encoding)
        X = enc.encode(some_archs[:30])
        ref = np.stack([enc.encode_one(a) for a in some_archs[:30]])
        assert (X == ref).all()

    def test_duplicate_archs_share_rows(self, some_archs):
        enc = FeatureEncoder("onehot")
        X = enc.encode([some_archs[0], some_archs[1], some_archs[0]])
        assert np.array_equal(X[0], X[2])


class TestEncoderCache:
    def test_repeat_encode_hits_cache(self, some_archs):
        enc = FeatureEncoder("onehot")
        first = enc.encode(some_archs[:10])
        info = enc.cache_info()
        assert info["misses"] == 10 and info["hits"] == 0
        second = enc.encode(some_archs[:10])
        info = enc.cache_info()
        assert info["hits"] == 10 and info["misses"] == 10
        assert (first == second).all()

    def test_partial_overlap_encodes_only_missing(self, some_archs):
        enc = FeatureEncoder("onehot")
        enc.encode(some_archs[:5])
        enc.encode(some_archs[:8])
        info = enc.cache_info()
        assert info["misses"] == 8
        assert info["hits"] == 5

    def test_lru_eviction_bounds_size(self, some_archs):
        enc = FeatureEncoder("onehot", cache_size=4)
        enc.encode(some_archs[:12])
        info = enc.cache_info()
        assert info["size"] == 4
        # Most recent survive; evicted archs re-encode with identical rows.
        again = enc.encode(some_archs[:12])
        assert (again == enc.encode(some_archs[:12])).all()

    def test_cache_disabled(self, some_archs):
        enc = FeatureEncoder("onehot", cache_size=0)
        X = enc.encode(some_archs[:6])
        assert enc.cache_info()["size"] == 0
        ref = np.stack([enc.encode_one(a) for a in some_archs[:6]])
        assert (X == ref).all()

    def test_cache_clear_resets_counters(self, some_archs):
        enc = FeatureEncoder("onehot")
        enc.encode(some_archs[:3])
        enc.cache_clear()
        info = enc.cache_info()
        assert info == {"hits": 0, "misses": 0, "size": 0, "capacity": enc.cache_size}

    def test_cached_rows_are_immutable(self, some_archs):
        enc = FeatureEncoder("onehot")
        enc.encode(some_archs[:1])
        row = enc._cache[some_archs[0]]
        assert not row.flags.writeable

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ValueError, match="cache_size"):
            FeatureEncoder("onehot", cache_size=-1)

    def test_thread_safety_under_concurrent_encodes(self, some_archs):
        import concurrent.futures

        enc = FeatureEncoder("onehot", cache_size=32)
        ref = np.stack([enc.encode_one(a) for a in some_archs])

        def worker(offset: int) -> bool:
            sub = some_archs[offset : offset + 20]
            X = enc.encode(sub)
            return bool((X == ref[offset : offset + 20]).all())

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            assert all(pool.map(worker, [0, 10, 20, 30]))


def _oracle_row(arch: ArchSpec) -> np.ndarray:
    """``onehot+global`` row from a real graph build: the exactness oracle."""
    row = []
    for stage in range(NUM_STAGES):
        for values, choices in (
            (arch.expansion, EXPANSION_CHOICES),
            (arch.kernel, KERNEL_CHOICES),
            (arch.layers, LAYER_CHOICES),
            (arch.se, SE_CHOICES),
        ):
            row.extend(float(values[stage] == c) for c in choices)
    counters = count_graph(build_model(arch))
    row += [
        math.log10(counters.flops),
        math.log10(counters.params),
        float(arch.total_layers),
        float(sum(arch.se)),
    ]
    return np.asarray(row, dtype=np.float64)


def _stages(values):
    return st.tuples(*[values] * NUM_STAGES)


off_grid_archs = st.builds(
    ArchSpec,
    expansion=_stages(st.integers(1, 8)),
    kernel=_stages(st.sampled_from([1, 3, 5, 7, 9])),
    layers=_stages(st.integers(1, 5)),
    se=_stages(st.sampled_from([0, 1])),
)


def _uniform(block: str) -> ArchSpec:
    return ArchSpec.from_string("|".join([block] * NUM_STAGES))


class TestGlobalExactness:
    """``onehot+global`` rows are byte-equal to the graph oracle."""

    @settings(max_examples=40, deadline=None)
    @given(archs=st.lists(off_grid_archs, min_size=1, max_size=4))
    def test_off_grid_rows_match_oracle(self, archs):
        enc = FeatureEncoder("onehot+global", cache_size=0)
        X = enc.encode(archs)
        for arch, row in zip(archs, X):
            ref = _oracle_row(arch).tobytes()
            assert row.tobytes() == ref
            assert enc.encode_one(arch).tobytes() == ref

    def test_seeded_pool_matches_oracle(self, space):
        """Catches np.log10 in place of math.log10 (differs on ~1% of rows)."""
        pool = space.sample_batch(1000, rng=np.random.default_rng(2024), unique=True)
        X = FeatureEncoder("onehot+global", cache_size=0).encode(pool)
        ref = np.stack([_oracle_row(a) for a in pool])
        assert X.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("depth", [4, 9, 300])
    def test_deep_rows_match_oracle(self, depth):
        arch = _uniform(f"e6k5L{depth}se1")
        enc = FeatureEncoder("onehot+global")
        assert enc.encode([arch])[0].tobytes() == _oracle_row(arch).tobytes()
        assert enc.encode_one(arch).tobytes() == _oracle_row(arch).tobytes()

    def test_million_layer_stages_encode_promptly(self):
        """Depth enters by arithmetic: no graph of 7 million blocks is built."""
        arch = _uniform("e6k5L1000000se1")
        result = []
        worker = threading.Thread(
            target=lambda: result.append(FeatureEncoder("onehot+global").encode([arch])),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=2.0)
        assert not worker.is_alive(), "encode of a deep arch did not finish in 2 s"
        assert result[0][0, -2] == 7_000_000.0

    def test_fresh_encode_builds_one_probe_per_config(self, space, monkeypatch):
        calls = []

        def counting_build(arch, *args, **kwargs):
            calls.append(arch)
            return build_model(arch, *args, **kwargs)

        monkeypatch.setattr(model_builder, "build_model", counting_build)
        monkeypatch.setattr(stage_table, "_TABLES", {})
        pool = space.sample_batch(5200, rng=np.random.default_rng(3), unique=True)
        FeatureEncoder("onehot+global", cache_size=0).encode(pool)
        configs = {
            (a.expansion[s], a.kernel[s], a.se[s]) for a in pool for s in range(NUM_STAGES)
        }
        assert 0 < len(calls) <= 2 * len(configs)
