"""Surrogate fitting pipeline (paper section 3.3.3, Tables 1 and 2).

Splits a :class:`~repro.core.dataset.BenchmarkDataset` 0.8/0.1/0.1, optionally
tunes the surrogate's hyperparameters with SMAC-lite on the train/val splits,
refits on the train split with the tuned configuration, and reports test-set
R^2, Kendall tau and MAE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

import repro.obs as obs
from repro.core.dataset import BenchmarkDataset, train_val_test_split
from repro.core.metrics import kendall_tau, mae, r2_score
from repro.hpo.configspace import (
    CategoricalParam,
    ConfigSpace,
    FloatParam,
    IntParam,
)
from repro.hpo.smac import SmacOptimizer
from repro.searchspace.features import FeatureEncoder
from repro.surrogates import Regressor, make_surrogate
from repro.surrogates.transform import TransformedTargetRegressor

# Default hyperparameter spaces per surrogate family, mirroring the ranges
# one would hand to SMAC3 for the real libraries.
DEFAULT_SPACES: dict[str, ConfigSpace] = {
    "xgb": ConfigSpace(
        [
            IntParam("n_estimators", 200, 900),
            FloatParam("learning_rate", 0.02, 0.15, log=True),
            IntParam("max_depth", 3, 7),
            FloatParam("min_child_weight", 1.0, 40.0, log=True),
            FloatParam("reg_lambda", 0.5, 16.0, log=True),
            FloatParam("subsample", 0.6, 1.0),
            FloatParam("colsample_bynode", 0.5, 1.0),
        ]
    ),
    "lgb": ConfigSpace(
        [
            IntParam("n_estimators", 200, 900),
            FloatParam("learning_rate", 0.02, 0.15, log=True),
            IntParam("num_leaves", 8, 64),
            FloatParam("min_child_weight", 1.0, 40.0, log=True),
            FloatParam("reg_lambda", 0.5, 16.0, log=True),
            FloatParam("subsample", 0.6, 1.0),
            FloatParam("colsample_bynode", 0.5, 1.0),
        ]
    ),
    "rf": ConfigSpace(
        [
            IntParam("n_estimators", 50, 200),
            IntParam("max_depth", 8, 20),
            IntParam("min_samples_leaf", 1, 8),
            FloatParam("max_features", 0.2, 0.9),
        ]
    ),
    "esvr": ConfigSpace(
        [
            FloatParam("C", 0.5, 50.0, log=True),
            FloatParam("epsilon", 5e-4, 5e-2, log=True),
            CategoricalParam("kernel", ("rbf", "linear")),
        ]
    ),
    "nusvr": ConfigSpace(
        [
            FloatParam("C", 0.5, 50.0, log=True),
            FloatParam("nu", 0.1, 0.9),
            CategoricalParam("kernel", ("rbf", "linear")),
        ]
    ),
    "gp": ConfigSpace(
        [
            FloatParam("length_scale", 0.5, 30.0, log=True),
            FloatParam("noise", 1e-6, 1e-1, log=True),
        ]
    ),
}

# Hand-tuned defaults used when HPO is skipped (hpo_budget=0).  The accuracy
# target is noisy (seed noise, scheme interaction), so trees are shallow and
# heavily regularised; device measurements are near-deterministic, so deeper
# trees with light regularisation fit their multiplicative structure better.
DEFAULT_PARAMS: dict[str, dict[str, Any]] = {
    "xgb": {
        "n_estimators": 700,
        "learning_rate": 0.05,
        "max_depth": 4,
        "min_child_weight": 15.0,
        "reg_lambda": 4.0,
        "subsample": 0.8,
        "colsample_bynode": 0.7,
    },
    "lgb": {
        "n_estimators": 700,
        "learning_rate": 0.05,
        "num_leaves": 16,
        "min_child_weight": 15.0,
        "reg_lambda": 4.0,
        "subsample": 0.8,
        "colsample_bynode": 0.7,
    },
    "rf": {"n_estimators": 100, "max_depth": 16, "max_features": 0.4},
    "esvr": {"C": 10.0, "epsilon": 0.003},
    "nusvr": {"C": 10.0, "nu": 0.5},
    "gp": {"noise": 3e-2},
}

DEVICE_PARAMS: dict[str, dict[str, Any]] = {
    "xgb": {
        "n_estimators": 700,
        "learning_rate": 0.07,
        "max_depth": 6,
        "min_child_weight": 2.0,
        "reg_lambda": 1.0,
        "subsample": 0.9,
        "colsample_bynode": 0.9,
    },
    "lgb": {
        "n_estimators": 700,
        "learning_rate": 0.07,
        "num_leaves": 48,
        "min_child_weight": 2.0,
        "reg_lambda": 1.0,
        "subsample": 0.9,
        "colsample_bynode": 0.9,
    },
    "rf": {"n_estimators": 100, "max_depth": 18, "max_features": 0.5},
    "esvr": {"C": 30.0, "epsilon": 0.002},
    "nusvr": {"C": 30.0, "nu": 0.6},
    "gp": {"noise": 1e-3},
}

# The pure-numpy kernel solver is O(n^2) in memory and time; SVR variants are
# trained on a capped subsample (documented substitution for libsvm).
SVR_MAX_SAMPLES = 1500


@dataclass
class FitReport:
    """Test-set quality of one fitted surrogate (one row of Table 1/2).

    Attributes:
        dataset: Dataset name.
        family: Surrogate family key.
        r2: Coefficient of determination on the test split.
        kendall: Kendall tau on the test split.
        mae: Mean absolute error on the test split.
        params: Hyperparameters used for the final fit.
        model: The fitted surrogate.
    """

    dataset: str
    family: str
    r2: float
    kendall: float
    mae: float
    params: dict[str, Any]
    model: Regressor

    def row(self) -> str:
        """Paper-style table row."""
        return (
            f"{self.family:>6s}  R2={self.r2:6.3f}  KT tau={self.kendall:6.3f}  "
            f"MAE={self.mae:.2e}"
        )


class SurrogateFitter:
    """Fit and evaluate surrogates on a benchmark dataset.

    Args:
        encoder: Feature encoding for architectures.
        split_seed: Seed of the 0.8/0.1/0.1 split.
        hpo_budget: SMAC evaluations for hyperparameter tuning (0 = use the
            hand-tuned defaults).
        hpo_seed: SMAC seed.
        n_jobs: Tree-fitting workers forwarded to ``rf`` (byte-identical
            ensembles for any value).  It never enters the fitted
            parameter surface, so saved artifacts are byte-stable across
            worker counts.

    Targets are always standardised before fitting, and throughput/latency
    targets are additionally log-transformed (their structure is
    multiplicative: time sums per layer, rate is its reciprocal).  Fitted
    models are returned wrapped so ``predict`` yields original units.
    """

    def __init__(
        self,
        encoder: FeatureEncoder | None = None,
        split_seed: int = 0,
        hpo_budget: int = 0,
        hpo_seed: int = 0,
        n_jobs: int | None = 1,
    ) -> None:
        self.encoder = encoder if encoder is not None else FeatureEncoder("onehot+global")
        self.split_seed = split_seed
        self.hpo_budget = hpo_budget
        self.hpo_seed = hpo_seed
        self.n_jobs = n_jobs

    def _build(self, family: str, params: dict[str, Any]) -> Regressor:
        if family in ("esvr", "nusvr", "gp"):
            params = {**params, "max_samples": SVR_MAX_SAMPLES}
        elif family == "rf":
            params = {**params, "n_jobs": self.n_jobs}
        return make_surrogate(family, **params)

    def _tune(
        self,
        family: str,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_val: np.ndarray,
        y_val: np.ndarray,
    ) -> dict[str, Any]:
        space = DEFAULT_SPACES[family]

        def objective(config: dict[str, Any]) -> float:
            model = self._build(family, config)
            model.fit(X_train, y_train)
            pred = model.predict(X_val)
            return float(np.mean((pred - y_val) ** 2))

        smac = SmacOptimizer(space, seed=self.hpo_seed)
        result = smac.optimize(objective, budget=self.hpo_budget)
        return result.best_config

    def fit(
        self,
        dataset: BenchmarkDataset,
        family: str,
        features: np.ndarray | None = None,
    ) -> FitReport:
        """Run the full split/tune/fit/evaluate pipeline for one family.

        Args:
            dataset: The collected dataset to fit on.
            family: Surrogate family key (``xgb``, ``lgb``, ``rf``...).
            features: Optional precomputed ``encoder.encode(dataset.archs)``
                matrix.  The paper's build fits many surrogates on the *same*
                architecture sample, so callers encode once and share the
                matrix across every fit instead of re-encoding per target.
        """
        active = obs.telemetry_active()
        fit_start = obs.monotonic() if active else 0.0
        if features is not None:
            if len(features) != len(dataset):
                raise ValueError(
                    f"features has {len(features)} rows for {len(dataset)} archs"
                )
            X = np.asarray(features, dtype=np.float64)
        else:
            X = self.encoder.encode(dataset.archs)
        y_raw = dataset.values.copy()
        use_log = dataset.metric in ("throughput", "latency")
        y, mu, sigma = TransformedTargetRegressor.transform_target(y_raw, log=use_log)
        idx_train, idx_val, idx_test = train_val_test_split(
            len(dataset), seed=self.split_seed
        )
        X_train, y_train = X[idx_train], y[idx_train]
        X_val, y_val = X[idx_val], y[idx_val]
        X_test = X[idx_test]

        if self.hpo_budget > 0:
            params = self._tune(family, X_train, y_train, X_val, y_val)
        elif dataset.metric == "accuracy":
            params = dict(DEFAULT_PARAMS[family])
        else:
            params = dict(DEVICE_PARAMS[family])

        inner = self._build(family, params)
        # Final fit on train+val (standard practice after tuning).
        with obs.span("surrogate.fit", dataset=dataset.name, family=family):
            inner.fit(
                np.concatenate([X_train, X_val]), np.concatenate([y_train, y_val])
            )
        model = TransformedTargetRegressor(inner, mu=mu, sigma=sigma, log=use_log)
        y_test_raw = y_raw[idx_test]
        pred_raw = model.predict(X_test)
        if active:
            elapsed = obs.monotonic() - fit_start
            obs.metrics().observe("surrogate.fit_seconds", elapsed)
            obs.get_logger("repro.core.surrogate_fit").info(
                "surrogate.fit_done",
                dataset=dataset.name,
                family=family,
                seconds=round(elapsed, 4),
                n=len(dataset),
            )
        return FitReport(
            dataset=dataset.name,
            family=family,
            r2=r2_score(y_test_raw, pred_raw),
            kendall=kendall_tau(y_test_raw, pred_raw),
            mae=mae(y_test_raw, pred_raw),
            params=params,
            model=model,
        )

    def fit_families(
        self, dataset: BenchmarkDataset, families: tuple[str, ...]
    ) -> list[FitReport]:
        """Fit several families on the same dataset (Table 1 protocol).

        The dataset is encoded once and the feature matrix shared by every
        family's fit.
        """
        X = self.encoder.encode(dataset.archs)
        return [self.fit(dataset, family, features=X) for family in families]
