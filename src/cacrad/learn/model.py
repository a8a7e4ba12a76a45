"""Uniform wrapper over the four classifier kinds.

A TrainedModel knows its feature schema and training provenance and can
round-trip through a self-describing JSON document. The fingerprint is a
sha256 over that canonical document, used by leakage and determinism
checks.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, NonFiniteFeature, SchemaMismatch
from ..rng import derive_seed
from .boosting import GradientBoostedTrees
from .forest import RandomForest
from .grid import DEFAULT_GRIDS, HyperGrid, grid_search_cv
from .mlp import Mlp
from .svm import LinearSvm

MODEL_KINDS = ("random_forest", "gbt", "linear_svm", "mlp")

_CLASSES = {
    "random_forest": RandomForest,
    "gbt": GradientBoostedTrees,
    "linear_svm": LinearSvm,
    "mlp": Mlp,
}

# Kinds whose fits nest in one parameter: a gbt fit's first n trees are
# the n-round fit, so a grid search fits each fold once per other params.
_NESTED = {"gbt": "n_rounds"}


def build_model(kind: str, params: dict):
    if kind not in _CLASSES:
        raise ConfigError(f"unknown model kind {kind!r}, expected one of {MODEL_KINDS}")
    return _CLASSES[kind](**params)


def fit_kind(kind: str):
    def fit_fn(params, x, y, seed):
        return build_model(kind, params).fit(x, y, seed)
    return fit_fn


@dataclass(frozen=True)
class TrainedModel:
    kind: str
    hyperparams: dict
    inner: object
    feature_names: tuple
    seed: int

    def predict(self, x: np.ndarray, feature_names=None):
        """Per-row (label, score); label NonZero=1 iff score >= 0.5."""
        if feature_names is not None and tuple(feature_names) != self.feature_names:
            raise SchemaMismatch(
                f"model trained on {len(self.feature_names)} columns "
                f"{self.feature_names[:3]}..., got {tuple(feature_names)[:3]}...")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != len(self.feature_names):
            raise SchemaMismatch(
                f"expected (n, {len(self.feature_names)}) matrix, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise NonFiniteFeature("prediction input contains non-finite values")
        score = self.inner.predict_score(x)
        return (score >= 0.5).astype(np.int64), score

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "hyperparams": {k: v for k, v in sorted(self.hyperparams.items())},
            "feature_names": list(self.feature_names),
            "seed": self.seed,
            "parameters": self.inner.to_dict(),
        }
        return json.dumps(doc, sort_keys=True)

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "TrainedModel":
        doc = json.loads(text)
        kind = doc["kind"]
        if kind not in _CLASSES:
            raise SchemaMismatch(f"unknown model kind in document: {kind!r}")
        inner = _CLASSES[kind].from_dict(doc["parameters"])
        return cls(kind=kind, hyperparams=doc["hyperparams"], inner=inner,
                   feature_names=tuple(doc["feature_names"]), seed=doc["seed"])


def train_with_grid(kind: str, x: np.ndarray, y: np.ndarray, feature_names,
                    seed: int, grid: HyperGrid = None, k: int = 5):
    """Grid search + refit on all rows. Returns (TrainedModel, best, scores)."""
    if grid is None:
        grid = DEFAULT_GRIDS[kind]
    best, scores = grid_search_cv(fit_kind(kind), x, y, grid, k=k, seed=seed,
                                  nested=_NESTED.get(kind))
    final = build_model(kind, best).fit(x, y, derive_seed(seed, "final-fit"))
    model = TrainedModel(kind=kind, hyperparams=best, inner=final,
                         feature_names=tuple(feature_names), seed=seed)
    return model, best, scores
