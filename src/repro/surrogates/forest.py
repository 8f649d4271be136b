"""Random forest regressor: bootstrap bagging + per-node feature subsampling."""

from __future__ import annotations

import numpy as np

from repro.core.parallel import deterministic_map
from repro.surrogates.base import Regressor
from repro.surrogates.tree import (
    FittedTree,
    GradientTreeBuilder,
    HistogramBinner,
    TreeEnsemblePredictor,
)


class RandomForestRegressor(Regressor):
    """Bagged ensemble of variance-reduction CART trees.

    Each tree draws its bootstrap rows and per-node feature subsets from its
    own rng stream, derived from the master ``seed`` via
    ``np.random.SeedSequence(seed).spawn(n_estimators)``.  Trees are therefore
    independent of fitting order and worker count: ``fit`` fans them out over
    :func:`repro.core.parallel.deterministic_map` and any ``n_jobs`` produces
    byte-identical ensembles to serial.

    Args:
        n_estimators: Number of trees.
        max_depth: Per-tree depth cap.
        min_samples_leaf: Minimum samples per leaf.
        max_features: Fraction of features examined per split node.
        bootstrap: Sample rows with replacement per tree.
        max_bins: Histogram resolution.
        seed: Master seed for bootstrap and feature subsampling.
        n_jobs: Tree-fitting worker threads (1 = serial; ``None``/``-1`` =
            all CPUs).  Not part of the saved parameter surface — artifacts
            are byte-identical for every value.
    """

    _PARAM_NAMES = (
        "n_estimators",
        "max_depth",
        "min_samples_leaf",
        "max_features",
        "bootstrap",
        "max_bins",
        "seed",
    )

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 16,
        min_samples_leaf: int = 2,
        max_features: float = 0.5,
        bootstrap: bool = True,
        max_bins: int = 64,
        seed: int = 0,
        n_jobs: int | None = 1,
    ) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.max_bins = max_bins
        self.seed = seed
        self.n_jobs = n_jobs
        self._trees: list[FittedTree] = []
        self._predictor: TreeEnsemblePredictor | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X, y = self._validate_xy(X, y)
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        binner = HistogramBinner(self.max_bins).fit(X)
        codes = binner.transform(X)
        n = X.shape[0]
        self._trees = []
        self._predictor = None
        seeds = np.random.SeedSequence(self.seed).spawn(self.n_estimators)

        def fit_tree(seq: np.random.SeedSequence) -> FittedTree:
            rng = np.random.default_rng(seq)
            if self.bootstrap:
                rows = rng.integers(0, n, size=n)
            else:
                rows = np.arange(n)
            builder = GradientTreeBuilder(
                binner,
                max_depth=self.max_depth,
                min_child_samples=self.min_samples_leaf,
                min_child_weight=0.0,
                reg_lambda=0.0,
                gamma=0.0,
                colsample_bynode=self.max_features,
                rng=rng,
            )
            sub_y = y[rows]
            return builder.build(codes[rows], g=-sub_y, h=np.ones_like(sub_y))

        self._trees = deterministic_map(fit_tree, seeds, n_jobs=self.n_jobs)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("model is not fitted")
        if self._predictor is None or self._predictor.num_trees != len(self._trees):
            self._predictor = TreeEnsemblePredictor(self._trees)
        X = np.asarray(X, dtype=np.float64)
        return self._predictor.predict_sum(X) / len(self._trees)

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Across-tree standard deviation of predictions.

        Used as the uncertainty estimate by the SMAC-lite Bayesian optimiser.
        One shared ensemble traversal (:meth:`TreeEnsemblePredictor.
        predict_per_tree`) replaces the former per-tree Python loop;
        the tree-major result reduces over ``axis=0`` in the same order, so
        the stds are bit-identical to the old loop.
        """
        if not self._trees:
            raise RuntimeError("model is not fitted")
        if self._predictor is None or self._predictor.num_trees != len(self._trees):
            self._predictor = TreeEnsemblePredictor(self._trees)
        X = np.asarray(X, dtype=np.float64)
        return self._predictor.predict_per_tree(X).std(axis=0)

    @property
    def trees_(self) -> list[FittedTree]:
        """Fitted member trees."""
        return self._trees
