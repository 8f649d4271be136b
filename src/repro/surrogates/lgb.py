"""LightGBM-style boosting: histogram splits with leaf-wise tree growth."""

from __future__ import annotations

from repro.surrogates.gbdt import XGBRegressor


class LGBRegressor(XGBRegressor):
    """Gradient boosting with best-first (leaf-wise) tree growth.

    Identical boosting loop to :class:`XGBRegressor` but grows each tree by
    repeatedly splitting the leaf with the highest gain until ``num_leaves``
    is reached — LightGBM's distinguishing growth policy, which yields deeper,
    more asymmetric trees for the same leaf budget.

    Args:
        num_leaves: Leaf-count cap per tree.
        max_depth: Optional depth safety cap (None = unbounded).
        (remaining args as in :class:`XGBRegressor`)
    """

    _PARAM_NAMES = XGBRegressor._PARAM_NAMES + ("num_leaves",)

    def __init__(
        self,
        n_estimators: int = 300,
        learning_rate: float = 0.1,
        num_leaves: int = 31,
        max_depth: int | None = None,
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
        super().__init__(
            n_estimators=n_estimators,
            learning_rate=learning_rate,
            max_depth=max_depth,
            min_child_weight=min_child_weight,
            reg_lambda=reg_lambda,
            gamma=gamma,
            subsample=subsample,
            colsample_bynode=colsample_bynode,
            max_bins=max_bins,
            early_stopping_rounds=early_stopping_rounds,
            validation_fraction=validation_fraction,
            seed=seed,
        )
        if num_leaves < 2:
            raise ValueError("num_leaves must be >= 2")
        self.num_leaves = num_leaves

    def _growth_kwargs(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "num_leaves": self.num_leaves,
            "growth": "leafwise",
        }
