"""Unit and property tests for the histogram tree engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.surrogates import make_surrogate
from repro.surrogates import tree as tree_module
from repro.surrogates.tree import (
    DecisionTreeRegressor,
    FittedTree,
    GradientTreeBuilder,
    HistogramBinner,
    TreeEnsemblePredictor,
)
from tests.surrogates.tree_oracle import oracle_leaves

ORACLE_FAMILIES = {
    "xgb": dict(n_estimators=15, max_depth=4),
    "lgb": dict(n_estimators=15, num_leaves=12),
    "rf": dict(n_estimators=8, max_depth=7),
    "dt": dict(max_depth=7),
}


class TestHistogramBinner:
    def test_codes_within_bin_range(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 5))
        binner = HistogramBinner(max_bins=16).fit(X)
        codes = binner.transform(X)
        for j in range(5):
            assert codes[:, j].min() >= 0
            assert codes[:, j].max() < binner.num_bins(j)

    def test_constant_feature_single_bin(self):
        X = np.ones((50, 2))
        X[:, 1] = np.arange(50)
        binner = HistogramBinner(max_bins=8).fit(X)
        assert binner.num_bins(0) == 1
        assert binner.num_bins(1) > 1

    def test_few_unique_values_exact_thresholds(self):
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        binner = HistogramBinner(max_bins=64).fit(X)
        assert binner.num_bins(0) == 2
        codes = binner.transform(X)
        assert set(codes[:, 0]) == {0, 1}

    def test_transform_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            HistogramBinner().transform(np.ones((2, 2)))

    def test_max_bins_validated(self):
        with pytest.raises(ValueError):
            HistogramBinner(max_bins=1)
        with pytest.raises(ValueError):
            HistogramBinner(max_bins=500)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(5, 60), st.integers(1, 4)),
            elements=st.floats(-100, 100),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_codes_order_consistent_with_values(self, X):
        """Within a feature, larger values never get smaller bin codes."""
        binner = HistogramBinner(max_bins=8).fit(X)
        codes = binner.transform(X)
        for j in range(X.shape[1]):
            order = np.argsort(X[:, j], kind="stable")
            sorted_codes = codes[order, j]
            assert np.all(np.diff(sorted_codes) >= 0)


class TestDecisionTree:
    def test_fits_step_function_exactly(self):
        X = np.linspace(0, 1, 100)[:, None]
        y = (X[:, 0] > 0.5).astype(float)
        model = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert np.allclose(model.predict(X), y)

    def test_overfits_pure_data_with_enough_depth(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(64, 3))
        y = rng.normal(size=64)
        model = DecisionTreeRegressor(max_depth=30, min_samples_leaf=1).fit(X, y)
        assert np.abs(model.predict(X) - y).max() < 1e-9

    def test_max_depth_respected(self, xy_small):
        X, y = xy_small
        model = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert model.tree_.max_depth <= 3

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        model = DecisionTreeRegressor(max_depth=20, min_samples_leaf=10).fit(X, y)
        # Route training points and count leaf populations.
        leaves = {}
        preds = model.predict(X)
        for value in preds:
            leaves[value] = leaves.get(value, 0) + 1
        assert min(leaves.values()) >= 10

    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.ones((2, 2)))

    def test_constant_target_gives_single_leaf(self):
        X = np.random.default_rng(3).normal(size=(50, 4))
        y = np.full(50, 2.5)
        model = DecisionTreeRegressor().fit(X, y)
        assert model.tree_.num_leaves == 1
        assert np.allclose(model.predict(X), 2.5)

    def test_validates_inputs(self):
        model = DecisionTreeRegressor()
        with pytest.raises(ValueError):
            model.fit(np.ones((3, 2)), np.ones(4))  # length mismatch
        with pytest.raises(ValueError):
            model.fit(np.ones(3), np.ones(3))  # X not 2-D
        with pytest.raises(ValueError):
            model.fit(np.array([[np.nan, 1.0]]), np.array([1.0]))


class TestGradientBuilder:
    def _build(self, X, g, h, **kwargs):
        binner = HistogramBinner(32).fit(X)
        builder = GradientTreeBuilder(binner, rng=np.random.default_rng(0), **kwargs)
        return builder.build(binner.transform(X), g, h)

    def test_leaf_values_follow_xgb_formula(self):
        # One split available; leaf value must be -G/(H+lambda).
        X = np.array([[0.0]] * 10 + [[1.0]] * 10)
        g = np.array([-1.0] * 10 + [1.0] * 10)
        h = np.ones(20)
        tree = self._build(X, g, h, reg_lambda=1.0, min_child_samples=1)
        preds = tree.predict(X)
        assert preds[0] == pytest.approx(10 / 11)  # -(-10)/(10+1)
        assert preds[-1] == pytest.approx(-10 / 11)

    def test_gamma_blocks_weak_splits(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 2))
        g = rng.normal(size=100) * 1e-3
        h = np.ones(100)
        tree = self._build(X, g, h, gamma=100.0)
        assert tree.num_leaves == 1

    def test_leafwise_respects_num_leaves(self, xy_small):
        X, y = xy_small
        binner = HistogramBinner(32).fit(X)
        builder = GradientTreeBuilder(
            binner,
            growth="leafwise",
            num_leaves=7,
            max_depth=None,
            rng=np.random.default_rng(0),
        )
        tree = builder.build(binner.transform(X), -y, np.ones_like(y))
        assert tree.num_leaves <= 7

    def test_invalid_growth_rejected(self, xy_small):
        X, _ = xy_small
        binner = HistogramBinner(32).fit(X)
        with pytest.raises(ValueError):
            GradientTreeBuilder(binner, growth="bestfirst")

    def test_colsample_validated(self, xy_small):
        X, _ = xy_small
        binner = HistogramBinner(32).fit(X)
        with pytest.raises(ValueError):
            GradientTreeBuilder(binner, colsample_bynode=0.0)

    def test_empty_build_rejected(self, xy_small):
        X, _ = xy_small
        binner = HistogramBinner(32).fit(X)
        builder = GradientTreeBuilder(binner)
        with pytest.raises(ValueError):
            builder.build(np.empty((0, X.shape[1]), dtype=np.int16), np.empty(0), np.empty(0))


class TestFittedTreeSerialization:
    def test_dict_roundtrip_preserves_predictions(self, xy_small):
        X, y = xy_small
        model = DecisionTreeRegressor(max_depth=6).fit(X, y)
        clone = FittedTree.from_dict(model.tree_.to_dict())
        assert np.array_equal(clone.predict(X), model.tree_.predict(X))


class TestOracleWalk:
    """Every prediction entry point routes like the scalar reference walk
    of ``tree_oracle.oracle_leaves``, byte for byte, NaN included, at small
    row counts and either side of the walk's block edges (``b`` rows per
    block of ``tree._CELLS`` cursors)."""

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(400, 6))
        y = 3 * X[:, 0] + X[:, 1] ** 2 + 0.05 * rng.standard_normal(400)
        # Enough rows for two one-tree blocks and one more.
        query = rng.uniform(size=(2 * tree_module._CELLS + 1, 6))
        query[::2, 0] = np.nan  # the most-split column; NaN routes right
        return X, y, query

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param(lambda b: 1, id="1"),
            pytest.param(lambda b: 64, id="64"),
            pytest.param(lambda b: 400, id="400"),
            pytest.param(lambda b: b - 1, id="b-1"),
            pytest.param(lambda b: b, id="b"),
            pytest.param(lambda b: b + 1, id="b+1"),
            pytest.param(lambda b: 2 * b + 1, id="2b+1"),
        ],
    )
    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_entry_points_match_scalar_walk(self, data, family, rows):
        X, y, query = data
        params = ORACLE_FAMILIES[family]
        if family == "dt":
            trees = [DecisionTreeRegressor(**params).fit(X, y).tree_]
        else:
            trees = list(make_surrogate(family, **params).fit(X, y)._trees)
        b = max(1, tree_module._CELLS // len(trees))
        Q = query[: rows(b)]
        predictor = TreeEnsemblePredictor(trees)
        a = predictor.as_arrays()
        leaves = oracle_leaves(
            Q, a["roots"], a["feature"], a["threshold"], a["left"], a["right"]
        )
        values = a["value"][leaves]
        assert (
            predictor.predict_sum(Q).tobytes()
            == values.sum(axis=1).tobytes()
        )
        assert (
            predictor.predict_per_tree(Q).tobytes()
            == np.ascontiguousarray(values.T).tobytes()
        )
        for tree, column in zip(trees, values.T):
            assert tree.predict(Q).tobytes() == column.tobytes()
        # Binned routing: codes stand in for X, bin split points for
        # thresholds.  One tree's block holds ``_CELLS`` rows, so from
        # ``b + 1`` rows on this walk is longer than one ensemble block.
        binner = HistogramBinner().fit(X)
        grown = GradientTreeBuilder(
            binner,
            growth="leafwise" if family == "lgb" else "depthwise",
            max_depth=7,
            rng=np.random.default_rng(2),
        ).grow(binner.transform(X), y.mean() - y, np.ones(len(y)))
        assert grown.tree.num_nodes > 1
        codes = binner.transform(Q)
        tree = grown.tree
        code_leaves = oracle_leaves(
            codes, [0], tree.feature, grown.bins, tree.left, tree.right
        )
        assert (
            grown.predict_codes(codes).tobytes()
            == tree.value[code_leaves[:, 0]].tobytes()
        )


class TestEnsemblePredictor:
    def test_matches_per_tree_sum(self, xy_small):
        X, y = xy_small
        trees = [
            DecisionTreeRegressor(max_depth=d, seed=d).fit(X, y).tree_
            for d in (2, 4, 6)
        ]
        stacked = TreeEnsemblePredictor(trees)
        expected = sum(t.predict(X) for t in trees)
        assert np.allclose(stacked.predict_sum(X), expected)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TreeEnsemblePredictor([])

    def test_input_narrower_than_stored_features_raises(self, xy_small):
        """The walk gathers rows flat, so a too-narrow ``X`` must raise
        instead of reading the next row's cells."""
        X, y = xy_small
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y).tree_
        stacked = TreeEnsemblePredictor([tree, tree])
        narrow = np.ascontiguousarray(X[:4, : int(tree.feature.max())])
        for predict in (
            stacked.predict_sum,
            stacked.predict_per_tree,
            tree.predict,
            TreeEnsemblePredictor.from_arrays(**stacked.as_arrays()).predict_sum,
        ):
            with pytest.raises(IndexError, match="out of bounds"):
                predict(narrow)

    def test_single_row_query(self, xy_small):
        X, y = xy_small
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y).tree_
        stacked = TreeEnsemblePredictor([tree, tree])
        single = stacked.predict_sum(X[:1])
        assert single.shape == (1,)
        assert single[0] == pytest.approx(2 * tree.predict(X[:1])[0])
