"""Persistence codecs for fitted surrogates (the released benchmark artefact).

The public Accel-NASBench artefact is a set of *fitted* surrogates; users
query them without retraining.  This module provides two codecs:

* :func:`regressor_to_dict` / :func:`regressor_from_dict` — the JSON
  envelope codec (every array ``.tolist()``-ed into the payload).
* :func:`regressor_to_arrays` / :func:`regressor_from_arrays` — the
  columnar codec used by :mod:`repro.core.store`: a pure-JSON *spec*
  (kind, params, scalars, optional target-transform wrapper) plus named
  contiguous numpy arrays.  Tree ensembles are stored in
  :class:`~repro.surrogates.tree.TreeEnsemblePredictor` layout, so loading
  builds the predictor directly from the stored flat arrays — no per-tree
  ``from_dict`` reconstruction — and works zero-copy off read-only memmaps.
"""

from __future__ import annotations

import numpy as np

from repro.surrogates.base import Regressor
from repro.surrogates.forest import RandomForestRegressor
from repro.surrogates.gbdt import XGBRegressor
from repro.surrogates.lgb import LGBRegressor
from repro.surrogates.gp import GPRegressor
from repro.surrogates.svr import EpsilonSVR, NuSVR
from repro.surrogates.transform import TransformedTargetRegressor
from repro.surrogates.tree import (
    DecisionTreeRegressor,
    FittedTree,
    FlatTreeSequence,
    TreeEnsemblePredictor,
)

#: Canonical on-disk dtype per columnar array role (validated by the store).
ARRAY_DTYPES = {
    "roots": "int64",
    "feature": "int32",
    "threshold": "float64",
    "left": "int64",
    "right": "int64",
    "value": "float64",
    "beta": "float64",
    "X": "float64",
    "alpha": "float64",
    "x_mean": "float64",
    "x_scale": "float64",
}

_CLASSES: dict[str, type[Regressor]] = {
    "DecisionTreeRegressor": DecisionTreeRegressor,
    "RandomForestRegressor": RandomForestRegressor,
    "XGBRegressor": XGBRegressor,
    "LGBRegressor": LGBRegressor,
    "EpsilonSVR": EpsilonSVR,
    "NuSVR": NuSVR,
    "GPRegressor": GPRegressor,
}


def regressor_to_dict(model: Regressor) -> dict:
    """Serialise a fitted surrogate to a JSON-compatible dict."""
    if isinstance(model, TransformedTargetRegressor):
        return {
            "kind": "TransformedTargetRegressor",
            "params": _jsonify(model.get_params()),
            "base": regressor_to_dict(model.base),
        }
    kind = type(model).__name__
    if kind not in _CLASSES:
        raise TypeError(f"cannot serialise {kind}")
    payload: dict = {"kind": kind, "params": _jsonify(model.get_params())}
    if isinstance(model, DecisionTreeRegressor):
        payload["tree"] = model.tree_.to_dict()
    elif isinstance(model, (RandomForestRegressor,)):
        payload["trees"] = [t.to_dict() for t in model.trees_]
    elif isinstance(model, XGBRegressor):  # covers LGBRegressor
        payload["trees"] = [t.to_dict() for t in model._trees]
        payload["base_score"] = model._base_score
    elif isinstance(model, EpsilonSVR):  # covers NuSVR
        if model._beta is None or model._X is None:
            raise RuntimeError("cannot serialise an unfitted SVR")
        payload["svr"] = {
            "beta": model._beta.tolist(),
            "X": model._X.tolist(),
            "bias": model._bias,
            "gamma_value": model._gamma_value,
            "x_mean": model._x_mean.tolist(),
            "x_scale": model._x_scale.tolist(),
        }
    elif isinstance(model, GPRegressor):
        if model._alpha is None or model._X is None:
            raise RuntimeError("cannot serialise an unfitted GP")
        payload["gp"] = {
            "X": model._X.tolist(),
            "alpha": model._alpha.tolist(),
            "y_mean": model._y_mean,
            "gamma": model._gamma,
            "x_mean": model._x_mean.tolist(),
            "x_scale": model._x_scale.tolist(),
        }
    return payload


def regressor_from_dict(data: dict) -> Regressor:
    """Reconstruct a fitted surrogate from :func:`regressor_to_dict` output.

    Tree models build their predictor here, so malformed node arrays raise
    ``ValueError`` (:func:`~repro.surrogates.tree._check_structure`) at
    load instead of at the first query.
    """
    kind = data["kind"]
    if kind == "TransformedTargetRegressor":
        return TransformedTargetRegressor(
            base=regressor_from_dict(data["base"]), **data["params"]
        )
    if kind not in _CLASSES:
        raise TypeError(f"unknown regressor kind {kind!r}")
    model = _CLASSES[kind](**data["params"])
    if isinstance(model, DecisionTreeRegressor):
        model._tree = FittedTree.from_dict(data["tree"])
        TreeEnsemblePredictor([model._tree])  # structure check only
    elif isinstance(model, (RandomForestRegressor, XGBRegressor)):
        model._trees = [FittedTree.from_dict(t) for t in data["trees"]]
        model._predictor = TreeEnsemblePredictor(model._trees)
        if isinstance(model, XGBRegressor):
            model._base_score = data["base_score"]
    elif isinstance(model, EpsilonSVR):
        svr = data["svr"]
        model._beta = np.asarray(svr["beta"])
        model._X = np.asarray(svr["X"])
        model._bias = svr["bias"]
        model._gamma_value = svr["gamma_value"]
        model._x_mean = np.asarray(svr["x_mean"])
        model._x_scale = np.asarray(svr["x_scale"])
    elif isinstance(model, GPRegressor):
        gp = data["gp"]
        model._X = np.asarray(gp["X"])
        model._alpha = np.asarray(gp["alpha"])
        model._y_mean = gp["y_mean"]
        model._gamma = gp["gamma"]
        model._x_mean = np.asarray(gp["x_mean"])
        model._x_scale = np.asarray(gp["x_scale"])
        # Cholesky is reconstructed lazily only if predict_std is needed.
        from scipy.linalg import cho_factor

        from repro.surrogates.svr import rbf_kernel

        K = rbf_kernel(model._X, model._X, model._gamma)
        K[np.diag_indices_from(K)] += model.noise
        model._chol = cho_factor(K, lower=True)
    return model


def _ensemble_predictor(model: XGBRegressor | RandomForestRegressor):
    """The model's flat-array predictor (reusing a cached one if current)."""
    if not model._trees:
        raise RuntimeError(f"cannot serialise an unfitted {type(model).__name__}")
    predictor = model._predictor
    if predictor is None or predictor.num_trees != len(model._trees):
        predictor = TreeEnsemblePredictor(list(model._trees))
    return predictor


def regressor_to_arrays(model: Regressor) -> tuple[dict, dict[str, np.ndarray]]:
    """Serialise a fitted surrogate to ``(spec, arrays)`` — the columnar codec.

    ``spec`` is pure JSON (kind, constructor params, float scalars and the
    optional :class:`TransformedTargetRegressor` wrapper params); ``arrays``
    maps role names (see :data:`ARRAY_DTYPES`) to contiguous numpy arrays.
    Tree ensembles serialise in predictor layout
    (:meth:`TreeEnsemblePredictor.as_arrays`): concatenated
    feature/threshold/left/right/value node arrays plus per-tree root
    offsets.
    """
    if isinstance(model, TransformedTargetRegressor):
        spec, arrays = regressor_to_arrays(model.base)
        return dict(spec, wrapper=_jsonify(model.get_params())), arrays
    kind = type(model).__name__
    if kind not in _CLASSES:
        raise TypeError(f"cannot serialise {kind}")
    spec: dict = {"kind": kind, "params": _jsonify(model.get_params())}
    scalars: dict = {}
    if isinstance(model, DecisionTreeRegressor):
        arrays = TreeEnsemblePredictor([model.tree_]).as_arrays()
    elif isinstance(model, (RandomForestRegressor,)):
        arrays = _ensemble_predictor(model).as_arrays()
    elif isinstance(model, XGBRegressor):  # covers LGBRegressor
        arrays = _ensemble_predictor(model).as_arrays()
        scalars["base_score"] = model._base_score
    elif isinstance(model, EpsilonSVR):  # covers NuSVR
        if model._beta is None or model._X is None:
            raise RuntimeError("cannot serialise an unfitted SVR")
        arrays = {
            "beta": model._beta,
            "X": model._X,
            "x_mean": model._x_mean,
            "x_scale": model._x_scale,
        }
        scalars["bias"] = model._bias
        scalars["gamma_value"] = model._gamma_value
    elif isinstance(model, GPRegressor):
        if model._alpha is None or model._X is None:
            raise RuntimeError("cannot serialise an unfitted GP")
        arrays = {
            "X": model._X,
            "alpha": model._alpha,
            "x_mean": model._x_mean,
            "x_scale": model._x_scale,
        }
        scalars["y_mean"] = model._y_mean
        scalars["gamma"] = model._gamma
    if scalars:
        spec["scalars"] = scalars
    return spec, {
        role: np.ascontiguousarray(
            np.asarray(array, dtype=ARRAY_DTYPES[role])
        )
        for role, array in arrays.items()
    }


def regressor_from_arrays(
    spec: dict, arrays: dict[str, np.ndarray]
) -> Regressor:
    """Reconstruct a surrogate from :func:`regressor_to_arrays` output.

    The arrays are adopted as-is (read-only memmaps stay memmaps): tree
    ensembles get a :class:`TreeEnsemblePredictor` built directly from the
    flat arrays plus a lazy :class:`FlatTreeSequence` standing in for the
    fitted tree list, so cold start touches no tree data until the first
    query faults the mapped pages in.
    """
    kind = spec["kind"]
    if kind not in _CLASSES:
        raise TypeError(f"unknown regressor kind {kind!r}")
    model: Regressor = _CLASSES[kind](**spec["params"])
    scalars = spec.get("scalars", {})
    if isinstance(model, DecisionTreeRegressor):
        TreeEnsemblePredictor.from_arrays(**arrays)  # structure check only
        model._tree = FlatTreeSequence(**arrays)[0]
    elif isinstance(model, RandomForestRegressor):
        model._predictor = TreeEnsemblePredictor.from_arrays(**arrays)
        model._trees = FlatTreeSequence(**arrays)
    elif isinstance(model, XGBRegressor):
        model._predictor = TreeEnsemblePredictor.from_arrays(**arrays)
        model._trees = FlatTreeSequence(**arrays)
        model._base_score = scalars["base_score"]
    elif isinstance(model, EpsilonSVR):
        model._beta = np.asarray(arrays["beta"], dtype=np.float64)
        model._X = np.asarray(arrays["X"], dtype=np.float64)
        model._x_mean = np.asarray(arrays["x_mean"], dtype=np.float64)
        model._x_scale = np.asarray(arrays["x_scale"], dtype=np.float64)
        model._bias = scalars["bias"]
        model._gamma_value = scalars["gamma_value"]
    elif isinstance(model, GPRegressor):
        model._X = np.asarray(arrays["X"], dtype=np.float64)
        model._alpha = np.asarray(arrays["alpha"], dtype=np.float64)
        model._x_mean = np.asarray(arrays["x_mean"], dtype=np.float64)
        model._x_scale = np.asarray(arrays["x_scale"], dtype=np.float64)
        model._y_mean = scalars["y_mean"]
        model._gamma = scalars["gamma"]
        from scipy.linalg import cho_factor

        from repro.surrogates.svr import rbf_kernel

        K = rbf_kernel(model._X, model._X, model._gamma)
        K[np.diag_indices_from(K)] += model.noise
        model._chol = cho_factor(K, lower=True)
    wrapper = spec.get("wrapper")
    if wrapper is not None:
        model = TransformedTargetRegressor(base=model, **wrapper)
    return model


def _jsonify(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, (np.integer,)):
            value = int(value)
        elif isinstance(value, (np.floating,)):
            value = float(value)
        out[key] = value
    return out
