"""Byte-identity pins for the tree engine and the shared-traversal predictors.

``GradientTreeBuilder`` (the partition engine) must grow exactly the trees
of ``OracleTreeBuilder`` (``tree_oracle.py``), the per-node reference
grower with one flatten + ``bincount`` kernel and no count subtraction:
the same node arrays, the same bin split points and the same leaf value
for every training row, compared as bytes.

The engine's kernel choice is forced by monkeypatching
``repro.surrogates.tree._BINCOUNT_MIN_ROWS``: ``0`` sends every histogram
pass to the per-column kernel, a huge value to the fused one.  Inputs:

- ``onehot``: the Table-1 one-hot matrix (every feature binary, so counts
  come from the staged buffer and nothing is subtracted);
- ``mixed``: one-hot plus continuous global features (count subtraction
  on, variable bin widths);
- ``large``: 9000 continuous rows, so the default crossover runs the
  per-column kernel on upper levels and the fused one below.
"""

import numpy as np
import pytest

import repro.surrogates.tree as tree_mod
from repro.core.surrogate_fit import SurrogateFitter
from repro.searchspace.features import FeatureEncoder
from repro.surrogates import make_surrogate
from repro.surrogates.forest import RandomForestRegressor
from repro.surrogates.gbdt import XGBRegressor
from repro.surrogates.lgb import LGBRegressor
from repro.surrogates.tree import (
    GradientTreeBuilder,
    HistogramBinner,
    TreeEnsemblePredictor,
)
from tests.surrogates.tree_oracle import OracleTreeBuilder

KERNELS = {"auto": None, "bincount": 0, "fused": 10**12}

GROWTH_CONFIGS = [
    {"growth": "depthwise", "max_depth": 6},
    {"growth": "depthwise", "max_depth": 12},
    {"growth": "depthwise", "max_depth": None},
    {"growth": "leafwise", "max_depth": None, "num_leaves": 31},
    {"growth": "leafwise", "max_depth": 8, "num_leaves": 63},
]
CONFIG_IDS = [str(c) for c in GROWTH_CONFIGS]


def _binned(X, y, max_bins=64):
    binner = HistogramBinner(max_bins=max_bins).fit(X)
    return binner, binner.transform(X), np.asarray(y, dtype=np.float64)


@pytest.fixture(scope="module")
def binned(xy_small):
    return _binned(*xy_small)


@pytest.fixture(scope="module")
def xy_mixed(small_acc_dataset):
    X = FeatureEncoder("onehot+global").encode(small_acc_dataset.archs)
    return X, small_acc_dataset.values


@pytest.fixture(scope="module")
def mixed(xy_mixed):
    return _binned(*xy_mixed)


@pytest.fixture(scope="module")
def binary():
    rng = np.random.default_rng(42)
    X = (rng.uniform(size=(900, 24)) < 0.4).astype(np.float64)
    y = X @ rng.normal(size=24) + 0.05 * rng.standard_normal(900)
    return _binned(X, y)


@pytest.fixture(scope="module")
def large():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((9000, 12))
    y = X[:, 0] - 2.0 * X[:, 1] + 0.1 * rng.standard_normal(9000)
    return _binned(X, y, max_bins=32)


def _force_kernel(monkeypatch, kernel):
    if KERNELS[kernel] is not None:
        monkeypatch.setattr(tree_mod, "_BINCOUNT_MIN_ROWS", KERNELS[kernel])


def _grow(builder_cls, data, h=None, **kwargs):
    binner, codes, y = data
    # Residuals of the mean, as in a first boosting round: raw ``-y`` on
    # the accuracy targets (all ~0.7) has no positive-gain split at all.
    g = y.mean() - y
    builder = builder_cls(binner, rng=np.random.default_rng(123), **kwargs)
    grown = builder.grow(codes, g, np.ones_like(g) if h is None else h)
    return builder, grown


def _assert_matches_oracle(data, h=None, **kwargs):
    """Grow with the engine and the oracle; return the engine's builder."""
    builder, part = _grow(GradientTreeBuilder, data, h, **kwargs)
    _, oracle = _grow(OracleTreeBuilder, data, h, **kwargs)
    assert part.tree.num_nodes > 1, "a stump pins nothing"
    assert part.tree.to_dict() == oracle.tree.to_dict()
    assert part.bins.tobytes() == oracle.bins.tobytes()
    assert part.train_prediction.tobytes() == oracle.train_prediction.tobytes()
    return builder


def _hess(data):
    return np.linspace(0.5, 2.0, len(data[2]))


def _assert_ensembles_identical(fit, monkeypatch, X):
    """Fit once with the engine and once with the oracle patched into the
    ensemble modules; every tree and every prediction must match."""
    engine = fit()
    monkeypatch.setattr(
        "repro.surrogates.gbdt.GradientTreeBuilder", OracleTreeBuilder
    )
    monkeypatch.setattr(
        "repro.surrogates.forest.GradientTreeBuilder", OracleTreeBuilder
    )
    oracle = fit()
    assert len(engine._trees) == len(oracle._trees)
    for ta, tb in zip(engine._trees, oracle._trees):
        assert ta.to_dict() == tb.to_dict()
    assert np.array_equal(engine.predict(X), oracle.predict(X))


class TestOracleMatrix:
    """The whole input x hessian x growth x colsample x kernel matrix."""

    @pytest.mark.parametrize("colsample", [1.0, 0.5])
    @pytest.mark.parametrize("growth", ["depthwise", "leafwise"])
    @pytest.mark.parametrize("hessian", ["unit", "varied"])
    @pytest.mark.parametrize("data", ["mixed", "binary", "large"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_partition_matches_oracle(
        self, request, monkeypatch, kernel, data, hessian, growth, colsample
    ):
        data = request.getfixturevalue(data)
        _force_kernel(monkeypatch, kernel)
        config = {"growth": growth, "colsample_bynode": colsample}
        if growth == "depthwise":
            config["max_depth"] = 8
        else:
            config.update(max_depth=None, num_leaves=31)
        h = _hess(data) if hessian == "varied" else None
        _assert_matches_oracle(data, h, **config)


class TestHistogramSubtractionGolden:
    """Mixed features: the engine derives counts as parent - sibling, the
    oracle histograms every node directly."""

    @pytest.mark.parametrize("config", GROWTH_CONFIGS, ids=CONFIG_IDS)
    def test_trees_identical_engine_on_and_off(self, mixed, config):
        _assert_matches_oracle(mixed, **config)

    def test_non_unit_hessians_identical(self, mixed):
        _assert_matches_oracle(mixed, _hess(mixed), max_depth=8)

    def test_engine_self_gates_on_feature_subsampling(self, mixed):
        """Full-feature counts do not depend on the feature draw, so the
        engine keeps subtracting under colsample while drawing the same
        candidates, in the same rng order, as the oracle."""
        builder = _assert_matches_oracle(
            mixed, colsample_bynode=0.5, max_depth=8
        )
        assert builder._stats["subtracted_hists"] > 0

    def test_wide_unbounded_tree_identical(self, mixed):
        _assert_matches_oracle(mixed, max_depth=None, min_child_samples=2)

    @pytest.mark.parametrize("module", ["gbdt", "forest"])
    def test_ensemble_fits_identical_engine_on_and_off(
        self, xy_mixed, monkeypatch, module
    ):
        X, y = xy_mixed

        def fit():
            if module == "gbdt":
                return XGBRegressor(n_estimators=15, max_depth=6, seed=7).fit(
                    X, y
                )
            return RandomForestRegressor(n_estimators=10, seed=3).fit(X, y)

        _assert_ensembles_identical(fit, monkeypatch, X)


class TestPartitionEngineGolden:
    """The one-hot Table-1 matrix: every feature binary, so the engine reads
    counts off the staged buffer instead of running a count pass."""

    @pytest.mark.parametrize("config", GROWTH_CONFIGS, ids=CONFIG_IDS)
    def test_trees_identical_partition_vs_legacy(self, binned, config):
        _assert_matches_oracle(binned, **config)

    @pytest.mark.parametrize("growth", ["depthwise", "leafwise"])
    def test_feature_subsampling_identical(self, binned, growth):
        _assert_matches_oracle(
            binned, colsample_bynode=0.5, growth=growth, max_depth=8
        )

    @pytest.mark.parametrize("growth", ["depthwise", "leafwise"])
    def test_non_unit_hessians_identical(self, binned, growth):
        _assert_matches_oracle(
            binned, _hess(binned), growth=growth, max_depth=8
        )

    @pytest.mark.parametrize("mode", ["auto", "bincount", "fused"])
    def test_every_hist_mode_matches_legacy(self, large, monkeypatch, mode):
        _force_kernel(monkeypatch, mode)
        _assert_matches_oracle(large, max_depth=10)

    def test_all_binary_features_identical(self, binary):
        for config in GROWTH_CONFIGS:
            builder = _assert_matches_oracle(binary, **config)
            assert builder._stats["subtracted_hists"] == 0

    def test_subtraction_off_identical(self, mixed):
        """The oracle never subtracts; the engine must actually subtract on
        this input for the comparison to pin the subtraction plan."""
        builder = _assert_matches_oracle(mixed, max_depth=10)
        assert builder._stats["subtracted_hists"] > 0

    @pytest.mark.parametrize("family", ["xgb", "lgb", "rf"])
    def test_ensemble_fits_identical_across_engines(
        self, xy_small, monkeypatch, family
    ):
        X, y = xy_small
        params = {
            "xgb": dict(n_estimators=12, max_depth=5, subsample=0.8,
                        colsample_bynode=0.7, seed=7),
            "lgb": dict(n_estimators=12, num_leaves=15, subsample=0.8,
                        colsample_bynode=0.7, seed=7),
            "rf": dict(n_estimators=8, max_depth=12, max_features=0.5,
                       seed=3),
        }[family]
        _assert_ensembles_identical(
            lambda: make_surrogate(family, **params).fit(X, y), monkeypatch, X
        )


class TestGrownRouting:
    """The boosting loop never re-predicts floats: growth's training-row
    leaf values and binned routing must equal ``FittedTree.predict`` on
    the raw features, bit for bit, for build rows and held-out rows."""

    @pytest.mark.parametrize("growth", ["depthwise", "leafwise"])
    def test_routing_matches_float_predict(self, xy_mixed, mixed, growth):
        X, _ = xy_mixed
        binner, codes, y = mixed
        build = np.arange(0, len(y), 3)
        held_out = np.setdiff1d(np.arange(len(y)), build)
        grown = GradientTreeBuilder(
            binner, growth=growth, max_depth=8, rng=np.random.default_rng(1)
        ).grow(codes[build], y[build].mean() - y[build], np.ones(len(build)))
        assert grown.tree.num_nodes > 1
        assert (
            grown.train_prediction.tobytes()
            == grown.tree.predict(X[build]).tobytes()
        )
        assert (
            grown.predict_codes(codes[held_out]).tobytes()
            == grown.tree.predict(X[held_out]).tobytes()
        )


class TestPerTreePrediction:
    @pytest.fixture(scope="class")
    def forest(self, xy_small):
        X, y = xy_small
        return RandomForestRegressor(n_estimators=25, seed=1).fit(X, y), X

    def test_predict_per_tree_matches_tree_loop(self, forest):
        model, X = forest
        predictor = TreeEnsemblePredictor(model.trees_)
        fast = predictor.predict_per_tree(X)
        slow = np.stack([t.predict(X) for t in model.trees_])
        assert fast.shape == slow.shape == (25, X.shape[0])
        assert np.array_equal(fast, slow)

    def test_per_tree_is_contiguous_tree_major(self, forest):
        model, X = forest
        fast = TreeEnsemblePredictor(model.trees_).predict_per_tree(X)
        assert fast.flags["C_CONTIGUOUS"]

    def test_predict_std_matches_legacy_loop(self, forest):
        """Satellite pin: predict_std must stay bit-identical to the old
        per-tree Python loop it replaced."""
        model, X = forest
        fast = model.predict_std(X)
        legacy = np.stack([t.predict(X) for t in model.trees_]).std(axis=0)
        assert np.array_equal(fast, legacy)

    def test_predict_std_requires_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            RandomForestRegressor().predict_std(np.zeros((1, 3)))

    def test_predict_consistent_with_per_tree_mean(self, forest):
        model, X = forest
        per_tree = TreeEnsemblePredictor(model.trees_).predict_per_tree(X)
        assert np.allclose(model.predict(X), per_tree.mean(axis=0))


class TestBincountHistograms:
    """The per-column ``bincount`` kernel forced on every pass must match
    the oracle's flatten + ``np.repeat`` kernel bit for bit."""

    def test_resolve_hist_mode(self, mixed, monkeypatch):
        """The kernel follows the staged rows of each pass and nothing else."""
        n = len(mixed[2])
        stats = {}
        for threshold in (0, n, n + 1):
            monkeypatch.setattr(tree_mod, "_BINCOUNT_MIN_ROWS", threshold)
            builder, _ = _grow(GradientTreeBuilder, mixed, max_depth=6)
            stats[threshold] = builder._stats
        assert stats[0]["fused_nodes"] == 0
        assert stats[0]["bincount_nodes"] > 0
        # passes staging all n rows (the root's) cross, smaller ones do not
        assert stats[n]["bincount_nodes"] > 0
        assert stats[n]["fused_nodes"] > 0
        assert stats[n + 1]["bincount_nodes"] == 0
        assert stats[n + 1]["fused_nodes"] > 0

    def test_auto_mode_crosses_threshold_identical(self, large):
        """Passes over big nodes stage more than ``_BINCOUNT_MIN_ROWS`` rows
        and run the column kernel; passes over small ones run the fused one."""
        builder = _assert_matches_oracle(
            large, growth="leafwise", max_depth=None, num_leaves=63
        )
        assert builder._stats["bincount_nodes"] > 0
        assert builder._stats["fused_nodes"] > 0

    @pytest.mark.parametrize("config", GROWTH_CONFIGS, ids=CONFIG_IDS)
    def test_trees_identical_bincount_vs_repeat(
        self, mixed, monkeypatch, config
    ):
        _force_kernel(monkeypatch, "bincount")
        _assert_matches_oracle(mixed, **config)

    def test_non_unit_hessians_identical(self, mixed, monkeypatch):
        _force_kernel(monkeypatch, "bincount")
        _assert_matches_oracle(mixed, _hess(mixed), max_depth=8)

    def test_feature_subsampling_identical(self, mixed, monkeypatch):
        _force_kernel(monkeypatch, "bincount")
        _assert_matches_oracle(mixed, colsample_bynode=0.5, max_depth=8)

    def test_unknown_hist_mode_rejected(self, binned):
        """Kernel and engine choice are not options of any constructor."""
        binner = binned[0]
        for knob, value in (
            ("hist_mode", "bincount"),
            ("hist_subtraction", False),
            ("engine", "partition"),
        ):
            with pytest.raises(TypeError, match=knob):
                GradientTreeBuilder(binner, **{knob: value})
            for cls in (XGBRegressor, LGBRegressor, RandomForestRegressor,
                        SurrogateFitter):
                with pytest.raises(TypeError, match=knob):
                    cls(**{knob: value})

    def test_ensemble_fits_identical_bincount_vs_repeat(
        self, xy_mixed, monkeypatch
    ):
        X, y = xy_mixed
        _force_kernel(monkeypatch, "bincount")
        _assert_ensembles_identical(
            lambda: XGBRegressor(n_estimators=15, max_depth=6, seed=7).fit(X, y),
            monkeypatch,
            X,
        )


def _depth_by_python_walk(tree) -> int:
    """Reference max_depth: the per-node Python loop the property replaced."""

    def walk(node: int, depth: int) -> int:
        if tree.feature[node] < 0:
            return depth
        return max(
            walk(int(tree.left[node]), depth + 1),
            walk(int(tree.right[node]), depth + 1),
        )

    return walk(0, 0)


class TestVectorisedMaxDepth:
    def test_matches_python_walk(self, xy_small):
        X, y = xy_small
        model = XGBRegressor(n_estimators=8, max_depth=None, seed=11).fit(X, y)
        for tree in model._trees:
            assert tree.max_depth == _depth_by_python_walk(tree)

    def test_stump_and_capped_trees(self, xy_small):
        X, y = xy_small
        for cap in (1, 3, 6):
            model = XGBRegressor(n_estimators=4, max_depth=cap, seed=5).fit(X, y)
            for tree in model._trees:
                assert tree.max_depth == _depth_by_python_walk(tree)
                assert tree.max_depth <= cap


class TestFlatArraysRoundTrip:
    @pytest.fixture(scope="class")
    def forest(self, xy_small):
        X, y = xy_small
        return RandomForestRegressor(n_estimators=12, seed=2).fit(X, y), X

    def test_predictor_as_from_arrays_identical(self, forest):
        model, X = forest
        predictor = TreeEnsemblePredictor(model.trees_)
        clone = TreeEnsemblePredictor.from_arrays(**predictor.as_arrays())
        assert clone.num_trees == predictor.num_trees
        assert np.array_equal(clone.predict_sum(X), predictor.predict_sum(X))

    def test_flat_tree_sequence_reproduces_trees(self, forest):
        from repro.surrogates.tree import FlatTreeSequence

        model, X = forest
        arrays = TreeEnsemblePredictor(model.trees_).as_arrays()
        seq = FlatTreeSequence(**arrays)
        assert len(seq) == len(model.trees_)
        for lazy, original in zip(seq, model.trees_):
            assert lazy.to_dict() == original.to_dict()
        # negative indexing and slicing behave like a list
        assert seq[-1].to_dict() == model.trees_[-1].to_dict()
        assert [t.num_nodes for t in seq[2:5]] == [
            t.num_nodes for t in model.trees_[2:5]
        ]
