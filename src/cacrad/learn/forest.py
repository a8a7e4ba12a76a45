"""Bagged Gini trees with vote-fraction scoring.

fit grows all trees in lockstep through grow_classification_forest;
grow_classification_tree stays exported as the one-tree entry point.
"""

import math
from typing import Optional

import numpy as np

from ..rng import stream
from .tree import Tree, grow_classification_forest, grow_classification_tree  # noqa: F401


class RandomForest:
    def __init__(self, n_trees: int = 100, max_depth: Optional[int] = None,
                 bootstrap: bool = True):
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = int(n_trees)
        self.max_depth = max_depth
        self.bootstrap = bool(bootstrap)
        self.trees: list = []

    def fit(self, x: np.ndarray, y: np.ndarray, seed: int) -> "RandomForest":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n, m = x.shape
        max_features = max(1, int(math.sqrt(m)))
        rngs = [stream(seed, "tree", t) for t in range(self.n_trees)]
        samples = [rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
                   for rng in rngs]
        self.trees = grow_classification_forest(x, y, samples, self.max_depth,
                                                max_features, rngs)
        return self

    def predict_score(self, x: np.ndarray) -> np.ndarray:
        votes = np.zeros(len(x), dtype=np.float64)
        for tree in self.trees:
            votes += tree.predict(x) >= 0.5
        return votes / len(self.trees)

    def to_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "bootstrap": self.bootstrap,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RandomForest":
        model = cls(n_trees=d["n_trees"], max_depth=d["max_depth"],
                    bootstrap=d["bootstrap"])
        model.trees = [Tree.from_dict(t) for t in d["trees"]]
        return model
