"""The four classifier kinds: build one, fit it by grid search, fingerprint it.

train_with_grid returns the fitted model itself; every kind scores rows
with predict_score. A fit's fingerprint is the sha256 of a canonical JSON
of its kind, grid point, training columns, seed and document(model), and
the leakage and determinism checks tell fits apart by it.
"""

import hashlib
import json

import numpy as np

from ..errors import ConfigError
from ..rng import derive_seed
from ..selection import Standardizer
from .boosting import GradientBoostedTrees
from .forest import RandomForest
from .grid import HyperGrid, grid_search_cv
from .mlp import Mlp
from .svm import LinearSvm
from .tree import Tree

MODEL_KINDS = ("random_forest", "gbt", "linear_svm", "mlp")

_CLASSES = {
    "random_forest": RandomForest,
    "gbt": GradientBoostedTrees,
    "linear_svm": LinearSvm,
    "mlp": Mlp,
}

def build_model(kind: str, params: dict):
    if kind not in _CLASSES:
        raise ConfigError(f"unknown model kind {kind!r}, expected one of {MODEL_KINDS}")
    return _CLASSES[kind](**params)


def document(obj) -> dict:
    """What a fingerprint hashes of a model or tree: its public attributes
    by name, each float as its exact repr, and a Standardizer's to_dict.
    Attributes named with a leading _ are fit-time state that predictions
    do not read."""
    doc = {}
    for name, value in vars(obj).items():
        if name.startswith("_"):
            continue
        if isinstance(value, Standardizer):
            doc.update(value.to_dict())
        else:
            doc[name] = _encode(value)
    return doc


def _encode(value):
    """A list's or array's first item decides how all of them are encoded."""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, list) and value:
        if isinstance(value[0], Tree):
            return [document(tree) for tree in value]
        if isinstance(value[0], float):
            return [repr(float(v)) for v in value]
        return list(value)
    return value


def fingerprint(kind: str, hyperparams: dict, feature_names, seed: int, model) -> str:
    """The sha256 of a fit's canonical JSON: its kind, grid point, training
    columns, seed and document(model)."""
    doc = {
        "kind": kind,
        "hyperparams": hyperparams,
        "feature_names": list(feature_names),
        "seed": seed,
        "parameters": document(model),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def train_with_grid(kind: str, x: np.ndarray, y: np.ndarray, seed: int,
                    grid: HyperGrid, k: int = 5):
    """Grid search + refit on all rows. Returns (fitted model, best, scores)."""
    best, scores = grid_search_cv(
        lambda params, x, y, seed: build_model(kind, params).fit(x, y, seed),
        x, y, grid, k=k, seed=seed, nested=getattr(_CLASSES.get(kind), "nested", ()))
    model = build_model(kind, best).fit(x, y, derive_seed(seed, "final-fit"))
    return model, best, scores
