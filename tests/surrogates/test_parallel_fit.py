"""Deterministic parallel ensemble fitting: any worker count, same bytes.

Forest trees draw their bootstrap rows and per-node feature subsets from
independent streams derived via ``SeedSequence(seed).spawn(n_estimators)``,
so fitting order and worker count cannot leak into the model.  These pins
hold the contract: a serial fit, every ``n_jobs`` fit, and the fitting-order
independence that underlies them all produce byte-identical ensembles.
"""

import numpy as np
import pytest

from repro.core.surrogate_fit import SurrogateFitter
from repro.surrogates import make_surrogate
from repro.surrogates.forest import RandomForestRegressor


@pytest.fixture(scope="module")
def data(xy_small):
    return xy_small


def _tree_bytes(model: RandomForestRegressor) -> list[bytes]:
    """Canonical byte rendering of every fitted tree."""
    out = []
    for tree in model.trees_:
        out.append(
            b"".join(
                np.ascontiguousarray(arr).tobytes()
                for arr in (
                    tree.feature,
                    tree.threshold,
                    tree.left,
                    tree.right,
                    tree.value,
                )
            )
        )
    return out


class TestNJobsSweep:
    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_trees_byte_identical_for_every_worker_count(
        self, data, bootstrap
    ):
        X, y = data
        fits = {
            n_jobs: RandomForestRegressor(
                n_estimators=12,
                max_depth=10,
                bootstrap=bootstrap,
                seed=5,
                n_jobs=n_jobs,
            ).fit(X, y)
            for n_jobs in (1, 2, 4, None)
        }
        serial = _tree_bytes(fits[1])
        for n_jobs, model in fits.items():
            assert _tree_bytes(model) == serial, f"n_jobs={n_jobs} diverged"
            assert np.array_equal(model.predict(X), fits[1].predict(X))

    def test_predict_std_identical_across_workers(self, data):
        X, y = data
        serial = RandomForestRegressor(n_estimators=10, seed=2, n_jobs=1)
        threaded = RandomForestRegressor(n_estimators=10, seed=2, n_jobs=3)
        assert np.array_equal(
            serial.fit(X, y).predict_std(X), threaded.fit(X, y).predict_std(X)
        )

    def test_n_jobs_not_in_artifact_surface(self):
        """The saved parameter surface must not record wall-clock knobs."""
        assert "n_jobs" not in RandomForestRegressor._PARAM_NAMES
        with pytest.raises(TypeError, match="engine"):
            make_surrogate("xgb", engine="legacy")


class TestFitterParallelism:
    def test_fitter_rf_reports_identical_across_n_jobs(
        self, small_acc_dataset
    ):
        reports = [
            SurrogateFitter(n_jobs=n_jobs).fit(small_acc_dataset, "rf")
            for n_jobs in (1, 3)
        ]
        assert reports[0].r2 == reports[1].r2
        assert reports[0].kendall == reports[1].kendall
        assert reports[0].mae == reports[1].mae
