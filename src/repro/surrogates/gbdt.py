"""XGBoost-style gradient-boosted trees (second-order, level-wise growth)."""

from __future__ import annotations

import numpy as np

from repro.surrogates.base import Regressor
from repro.surrogates.tree import (
    FittedTree,
    GradientTreeBuilder,
    HistogramBinner,
    TreeEnsemblePredictor,
)


class XGBRegressor(Regressor):
    """Gradient boosting with the XGBoost split objective and regularisers.

    Squared-error loss; each round fits a depth-capped tree to the current
    gradients (residuals) with L2 leaf regularisation ``reg_lambda``, minimum
    split gain ``gamma``, shrinkage ``learning_rate``, and row/column
    subsampling.  Optional early stopping on a held-out fraction.

    Args:
        n_estimators: Maximum boosting rounds.
        learning_rate: Shrinkage applied to every tree's contribution.
        max_depth: Per-tree depth cap (level-wise growth).
        min_child_weight: Minimum hessian sum per child.
        reg_lambda: L2 regularisation on leaf values.
        gamma: Minimum split gain.
        subsample: Row fraction sampled (without replacement) per round.
        colsample_bynode: Feature fraction examined per split node.
        max_bins: Histogram resolution.
        early_stopping_rounds: Stop when the validation loss has not improved
            for this many rounds (requires ``validation_fraction`` > 0).
        validation_fraction: Held-out fraction used for early stopping.
        seed: Randomness seed.

    Each round grows its tree with :class:`GradientTreeBuilder` and updates
    the training predictions from the routing growth already computed, so
    the boosting loop works on binned codes and never re-predicts floats.
    """

    _PARAM_NAMES = (
        "n_estimators",
        "learning_rate",
        "max_depth",
        "min_child_weight",
        "reg_lambda",
        "gamma",
        "subsample",
        "colsample_bynode",
        "max_bins",
        "early_stopping_rounds",
        "validation_fraction",
        "seed",
    )

    def __init__(
        self,
        n_estimators: int = 300,
        learning_rate: float = 0.1,
        max_depth: int = 6,
        min_child_weight: float = 1.0,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        subsample: float = 1.0,
        colsample_bynode: float = 1.0,
        max_bins: int = 64,
        early_stopping_rounds: int | None = None,
        validation_fraction: float = 0.1,
        seed: int = 0,
    ) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.subsample = subsample
        self.colsample_bynode = colsample_bynode
        self.max_bins = max_bins
        self.early_stopping_rounds = early_stopping_rounds
        self.validation_fraction = validation_fraction
        self.seed = seed
        self._trees: list[FittedTree] = []
        self._base_score = 0.0
        self._predictor: TreeEnsemblePredictor | None = None

    def _growth_kwargs(self) -> dict:
        return {"max_depth": self.max_depth, "growth": "depthwise"}

    def fit(self, X: np.ndarray, y: np.ndarray) -> "XGBRegressor":
        X, y = self._validate_xy(X, y)
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        rng = np.random.default_rng(self.seed)

        if self.early_stopping_rounds is not None and self.validation_fraction > 0:
            n_val = max(1, int(round(self.validation_fraction * X.shape[0])))
            perm = rng.permutation(X.shape[0])
            val_rows, train_rows = perm[:n_val], perm[n_val:]
            if len(train_rows) == 0:
                raise ValueError("validation_fraction leaves no training data")
            X_val, y_val = X[val_rows], y[val_rows]
            X, y = X[train_rows], y[train_rows]
        else:
            X_val = y_val = None

        binner = HistogramBinner(self.max_bins).fit(X)
        codes = binner.transform(X)
        n = X.shape[0]
        # Binned routing is bit-identical to float routing (codes come from
        # ``searchsorted(cuts, x, "left")``, so ``code <= b`` iff
        # ``x <= cuts[b]``), so the loop never re-touches floats.
        codes_val = binner.transform(X_val) if X_val is not None else None
        self._predictor = None
        self._base_score = float(y.mean())
        pred = np.full(n, self._base_score)
        val_pred = (
            np.full(len(y_val), self._base_score) if y_val is not None else None
        )
        self._trees = []
        best_val = np.inf
        rounds_since_best = 0
        hess = np.ones(n)

        for _ in range(self.n_estimators):
            grad = pred - y
            if self.subsample < 1.0:
                k = max(1, int(round(self.subsample * n)))
                rows = rng.choice(n, size=k, replace=False)
            else:
                rows = None
            builder = GradientTreeBuilder(
                binner,
                min_child_samples=1,
                min_child_weight=self.min_child_weight,
                reg_lambda=self.reg_lambda,
                gamma=self.gamma,
                colsample_bynode=self.colsample_bynode,
                rng=rng,
                **self._growth_kwargs(),
            )
            # Growth already routed every build row to its leaf, so the
            # boosting update reuses that routing and only traverses the
            # binned codes for rows the subsample left out.  Each row
            # receives the same single ``lr * leaf_value`` addend as a
            # full-matrix ``tree.predict``, so ``pred`` is bit-identical to
            # re-predicting the float matrix every round.
            if rows is None:
                grown = builder.grow(codes, grad, hess)
                delta = grown.train_prediction
            else:
                grown = builder.grow(codes[rows], grad[rows], hess[rows])
                delta = np.empty(n, dtype=np.float64)
                delta[rows] = grown.train_prediction
                held_out = np.ones(n, dtype=bool)
                held_out[rows] = False
                if held_out.any():
                    delta[held_out] = grown.predict_codes(codes[held_out])
            self._trees.append(grown.tree)
            pred += self.learning_rate * delta
            if val_pred is not None:
                val_pred += self.learning_rate * grown.predict_codes(codes_val)
            if val_pred is not None:
                val_loss = float(np.mean((val_pred - y_val) ** 2))
                if val_loss < best_val - 1e-12:
                    best_val = val_loss
                    rounds_since_best = 0
                else:
                    rounds_since_best += 1
                    if rounds_since_best >= self.early_stopping_rounds:
                        break
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("model is not fitted")
        if self._predictor is None or self._predictor.num_trees != len(self._trees):
            self._predictor = TreeEnsemblePredictor(self._trees)
        X = np.asarray(X, dtype=np.float64)
        return self._base_score + self.learning_rate * self._predictor.predict_sum(X)

    @property
    def n_trees_(self) -> int:
        """Number of boosting rounds actually performed."""
        return len(self._trees)
