"""Bench: end-to-end tree-surrogate fits on the one tree engine.

Times ``SurrogateFitter.fit`` for every tree family with the paper's
hand-tuned Table-1 (accuracy) and Table-2 (device) configs, fits each one
twice and asserts the two fits agree exactly (R2 / Kendall tau / MAE and
every prediction), and records a fit/predict trajectory point to
``results/BENCH_fit.json``.

The history in that file up to the last point with ``*_legacy_s`` keys
compares the retired per-node engine with the partition engine; later
points time the partition engine alone.  No wall-clock floor is asserted
here: perfbench's ``build`` workload is the fit-speed gate.
"""

import numpy as np

import repro.obs as obs
from repro.core.surrogate_fit import SurrogateFitter

from conftest import BENCH_ARCHS, emit, record_trajectory

FAMILIES = ("xgb", "lgb", "rf")


def _timed_fit(fitter, dataset, family, features):
    with obs.timer() as t:
        report = fitter.fit(dataset, family, features=features)
    return report, t.seconds


def test_fit_deterministic_and_timed(ctx):
    datasets = [
        ("acc", ctx.accuracy_dataset()),
        ("a100-tput", ctx.device_dataset("a100", "throughput")),
    ]
    fitter = SurrogateFitter()

    lines = [
        f"Surrogate fit: partition engine, best of 2 "
        f"({BENCH_ARCHS} archs, Table-1/2 configs)"
    ]
    point = {"num_archs": BENCH_ARCHS}
    for tag, dataset in datasets:
        X = fitter.encoder.encode(dataset.archs)
        for family in FAMILIES:
            first, first_s = _timed_fit(fitter, dataset, family, X)
            second, second_s = _timed_fit(fitter, dataset, family, X)
            assert second.r2 == first.r2
            assert second.kendall == first.kendall
            assert second.mae == first.mae

            with obs.timer() as t:
                pred = first.model.predict(X)
            assert np.array_equal(pred, second.model.predict(X))

            fit_s = min(first_s, second_s)
            key = f"{tag}_{family}"
            point[f"{key}_fit_s"] = fit_s
            point[f"{key}_predict_s"] = t.seconds
            point[f"{key}_r2"] = first.r2
            point[f"{key}_kendall"] = first.kendall
            lines.append(
                f"  {tag:>9s} {family:>3s}: fit={fit_s:6.2f}s "
                f"predict={t.seconds * 1e3:6.1f}ms "
                f"R2={first.r2:.3f} tau={first.kendall:.3f}"
            )

    point["fit_total_s"] = sum(
        v for k, v in point.items() if k.endswith("_fit_s")
    )
    lines.append(f"  total fit: {point['fit_total_s']:.2f}s")
    emit("bench_fit", "\n".join(lines))
    record_trajectory("fit", point)
