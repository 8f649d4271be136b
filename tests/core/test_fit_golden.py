"""Golden R2 / Kendall-tau / MAE pins for the Table-1/2 fit protocol.

Exact-equality pins (the pipeline is deterministic end to end) of
``SurrogateFitter`` on a 400-arch sample, one accuracy target (Table 1) and
one device target (Table 2), for every tree family.

The xgb/lgb pins are carried over unchanged from the pre-partition-engine
build: the fused histogram-native engine is bit-identical to the per-node
engine it replaced, so these numbers must never move.  ``TREE_DIGESTS``
pins the fitted trees themselves: the sha256 of each ensemble's
``TreeEnsemblePredictor.as_arrays()`` (arrays in sorted key order, raw
bytes), recorded while the per-node engine still shipped beside the
partition engine, and identical under both.  The rf pins were
re-captured once when per-tree seeding moved from sequential
``default_rng(seed + i)`` streams to ``SeedSequence(seed).spawn(n)`` — the
derivation that makes parallel fitting order-independent — which redraws
every bootstrap/feature sample (acc R2 0.83470 -> 0.83370, dev R2 0.95351
-> 0.95616; same quality band).  They are exact pins of the new streams and
must be just as stable.
"""

import hashlib

import pytest

from repro.core.dataset import (
    collect_accuracy_dataset,
    collect_device_dataset,
    sample_dataset_archs,
)
from repro.core.surrogate_fit import SurrogateFitter
from repro.surrogates.tree import TreeEnsemblePredictor
from repro.trainsim.schemes import P_STAR

GOLDEN = {
    ("acc", "xgb"): (0.9109961855571463, 0.7871794871794872, 0.00432854152628028),
    ("acc", "lgb"): (0.8973175540840689, 0.7692307692307693, 0.00467496487871504),
    ("acc", "rf"): (0.8336991160506038, 0.6846153846153846, 0.0059902785223482444),
    ("dev", "xgb"): (0.981008403826966, 0.9051282051282051, 299.4472506742752),
    ("dev", "lgb"): (0.9813901138367453, 0.8974358974358975, 295.3279074657823),
    ("dev", "rf"): (0.9561628741757437, 0.8897435897435897, 401.27516034742035),
}

TREE_DIGESTS = {
    ("acc", "xgb"): "f15d2f8bbe57816cbd4bb18a644abaa15b14aaa90ae004367cb4fdf0167e6891",
    ("acc", "lgb"): "232ce935eb476a4a3740deb8f8ffbdb6a9ef13cdb347fcca70d37f4d55dbb618",
    ("acc", "rf"): "f9e74c95610e4bf5adbeebe503e95891a8534783bd8d08c0cfa26f1fac647925",
    ("dev", "xgb"): "95dff9728e552ee847886e9878862eb130c437b772088ee43e256a2d2fe2f448",
    ("dev", "lgb"): "3d38dc9fc0e7906ee71b208dad74c3ff1f3f03900573f7b1382caa67faad70d8",
    ("dev", "rf"): "4bcbd5801fe4b8cabdfb88c036a88f80a5c55db6b25ef82de9bd5757d811d78a",
}

PARAMS = pytest.mark.parametrize(
    "target,family", sorted(GOLDEN), ids=[f"{t}-{f}" for t, f in sorted(GOLDEN)]
)


@pytest.fixture(scope="module")
def golden_datasets():
    archs = sample_dataset_archs(400, seed=5)
    return {
        "acc": collect_accuracy_dataset(archs, P_STAR),
        "dev": collect_device_dataset(archs, "a100", metric="throughput"),
    }


@pytest.fixture(scope="module")
def golden_reports(golden_datasets):
    """One fit per (target, family), shared by the metric and tree pins."""
    cache = {}

    def fit(target, family):
        if (target, family) not in cache:
            cache[target, family] = SurrogateFitter().fit(
                golden_datasets[target], family
            )
        return cache[target, family]

    return fit


@PARAMS
def test_fit_metrics_match_golden_exactly(golden_reports, target, family):
    report = golden_reports(target, family)
    r2, tau, mae = GOLDEN[(target, family)]
    assert report.r2 == r2
    assert report.kendall == tau
    assert report.mae == mae


@PARAMS
def test_fit_trees_match_golden_digest(golden_reports, target, family):
    model = golden_reports(target, family).model.base
    arrays = TreeEnsemblePredictor(list(model._trees)).as_arrays()
    digest = hashlib.sha256()
    for key in sorted(arrays):
        digest.update(arrays[key].tobytes())
    assert digest.hexdigest() == TREE_DIGESTS[(target, family)]
