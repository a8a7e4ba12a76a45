"""Gradient-boosted regression trees on logistic loss.

Plain Friedman boosting with Newton leaf values: round t fits a
least-squares tree to residuals y - p and steps F by the shrunken leaf
value sum(residual)/sum(hessian). Training is fully deterministic (no
subsampling), so the seed parameter only keeps the fit signature uniform.
"""

import math

import numpy as np

from ..errors import SingleClass
from .grid import count_param, positive_param
from .tree import RowSetCache, grow_regression_tree


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows
    p = e / (1 + e)
    np.divide(1, 1 + e, out=p, where=z >= 0)
    return p


class GradientBoostedTrees:
    nested = ("n_rounds",)  # the parameter prefix takes

    def __init__(self, n_rounds: int = 100, learning_rate: float = 0.1,
                 max_depth: int = 3):
        self.n_rounds = count_param("n_rounds", n_rounds)
        self.learning_rate = positive_param("learning_rate", learning_rate)
        self.max_depth = count_param("max_depth", max_depth)
        self.f0 = 0.0
        self.trees: list = []

    def fit(self, x: np.ndarray, y: np.ndarray, seed: int = 0) -> "GradientBoostedTrees":
        x = np.ascontiguousarray(x, dtype=np.float64)  # each tree gathers its rows
        y = np.asarray(y, dtype=np.float64)
        pbar = float(y.mean())
        if pbar == 0.0 or pbar == 1.0:
            raise SingleClass("boosting needs both classes in the training set")
        self.f0 = math.log(pbar / (1.0 - pbar))
        f = np.full(len(y), self.f0)
        fitted = np.empty(len(y))
        cache = RowSetCache()
        self.trees = []
        for _ in range(self.n_rounds):
            p = _sigmoid(f)
            tree = grow_regression_tree(x, y - p, p * (1.0 - p), self.max_depth, fitted,
                                        cache)
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
        x = np.asarray(x, dtype=np.float64)
        f = np.full(len(x), self.f0)
        for tree in self.trees:
            f += self.learning_rate * tree.predict(x)
        return f

    def predict_score(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(x))

