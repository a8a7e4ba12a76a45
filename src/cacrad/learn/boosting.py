"""Gradient-boosted regression trees on logistic loss.

Plain Friedman boosting with Newton leaf values: round t fits a
least-squares tree to residuals y - p and steps F by the shrunken leaf
value sum(residual)/sum(hessian). Training is fully deterministic (no
subsampling), so the seed parameter only keeps the fit signature uniform.
"""

import math

import numpy as np

from ..errors import SingleClass
from .tree import Tree, grow_regression_tree


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class GradientBoostedTrees:
    def __init__(self, n_rounds: int = 100, learning_rate: float = 0.1,
                 max_depth: int = 3):
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
        self.n_rounds = int(n_rounds)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.f0 = 0.0
        self.trees: list = []

    def fit(self, x: np.ndarray, y: np.ndarray, seed: int = 0) -> "GradientBoostedTrees":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        pbar = float(y.mean())
        if pbar == 0.0 or pbar == 1.0:
            raise SingleClass("boosting needs both classes in the training set")
        self.f0 = math.log(pbar / (1.0 - pbar))
        f = np.full(len(y), self.f0)
        fitted = np.empty(len(y))
        self.trees = []
        for _ in range(self.n_rounds):
            p = _sigmoid(f)
            tree = grow_regression_tree(x, y - p, p * (1.0 - p), self.max_depth, fitted)
            f += self.learning_rate * fitted
            self.trees.append(tree)
        return self

    def prefix(self, n_rounds: int) -> "GradientBoostedTrees":
        """The model a fit with n_rounds <= self.n_rounds returns. Rounds
        are deterministic and never look ahead, so it is this model cut
        to its first n_rounds trees, bit for bit."""
        model = GradientBoostedTrees(n_rounds, self.learning_rate, self.max_depth)
        if model.n_rounds > self.n_rounds:
            raise ValueError(f"prefix of {model.n_rounds} rounds from a "
                             f"{self.n_rounds}-round model")
        model.f0 = self.f0
        model.trees = self.trees[:model.n_rounds]
        return model

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        f = np.full(len(x), self.f0)
        for tree in self.trees:
            f += self.learning_rate * tree.predict(np.asarray(x, dtype=np.float64))
        return f

    def predict_score(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(x))

    def to_dict(self) -> dict:
        return {
            "n_rounds": self.n_rounds,
            "learning_rate": repr(self.learning_rate),
            "max_depth": self.max_depth,
            "f0": repr(self.f0),
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GradientBoostedTrees":
        model = cls(n_rounds=d["n_rounds"], learning_rate=float(d["learning_rate"]),
                    max_depth=d["max_depth"])
        model.f0 = float(d["f0"])
        model.trees = [Tree.from_dict(t) for t in d["trees"]]
        return model
