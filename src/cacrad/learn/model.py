"""Uniform wrapper over the four classifier kinds.

A TrainedModel knows its feature schema and training provenance. Its
canonical JSON document holds those and the fitted model's document; its
fingerprint, a sha256 over it, is used by leakage and determinism checks.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, NonFiniteValue, SchemaMismatch
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
            raise NonFiniteValue("prediction input contains non-finite values")
        score = self.inner.predict_score(x)
        return (score >= 0.5).astype(np.int64), score

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "hyperparams": {k: v for k, v in sorted(self.hyperparams.items())},
            "feature_names": list(self.feature_names),
            "seed": self.seed,
            "parameters": document(self.inner),
        }
        return json.dumps(doc, sort_keys=True)

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def train_with_grid(kind: str, x: np.ndarray, y: np.ndarray, feature_names,
                    seed: int, grid: HyperGrid, k: int = 5):
    """Grid search + refit on all rows. Returns (TrainedModel, best, scores)."""
    best, scores = grid_search_cv(
        lambda params, x, y, seed: build_model(kind, params).fit(x, y, seed),
        x, y, grid, k=k, seed=seed, nested=getattr(_CLASSES.get(kind), "nested", ()))
    final = build_model(kind, best).fit(x, y, derive_seed(seed, "final-fit"))
    model = TrainedModel(kind=kind, hyperparams=best, inner=final,
                         feature_names=tuple(feature_names), seed=seed)
    return model, best, scores
