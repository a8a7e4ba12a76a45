"""Bagged Gini trees with vote-fraction scoring.

fit grows all trees in lockstep through grow_classification_forest;
grow_classification_tree is no entry point: no path of the program
calls it, and it stays only because perfbench/spans.py wraps it until
that wrap moves to grow_classification_forest (ROADMAP item 9).
Every forest with fewer or shallower trees is a prefix of a fit
(prefix), so a grid search grows each fold once.
"""

import math
from typing import Optional

import numpy as np

from ..rng import stream
from .grid import count_param
from .tree import grow_classification_forest, grow_classification_tree  # noqa: F401


class RandomForest:
    nested = ("n_trees", "max_depth")  # the parameters prefix takes

    def __init__(self, n_trees: int = 100, max_depth: Optional[int] = None,
                 bootstrap: bool = True):
        self.n_trees = count_param("n_trees", n_trees)
        self.max_depth = None if max_depth is None else count_param("max_depth", max_depth)
        if not isinstance(bootstrap, bool):
            raise ValueError(f"bootstrap must be true or false, got {bootstrap!r}")
        self.bootstrap = bootstrap
        self.trees: list = []

    def fit(self, x: np.ndarray, y: np.ndarray, seed: int) -> "RandomForest":
        """Tree t draws from stream(seed, "tree", t): its bootstrap first,
        then its nodes' candidate columns."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        max_features = max(1, int(math.sqrt(x.shape[1])))
        rngs = [stream(seed, "tree", t) for t in range(self.n_trees)]
        samples = [rng.integers(0, len(x), size=len(x)) if self.bootstrap
                   else np.arange(len(x)) for rng in rngs]
        self.trees = grow_classification_forest(x, y, samples, self.max_depth,
                                                max_features, rngs)
        return self

    def prefix(self, n_trees: int, max_depth: Optional[int]) -> "RandomForest":
        """The forest a fit with n_trees <= self.n_trees and max_depth no
        deeper than self.max_depth (None is deepest) returns, bit for bit:
        tree t draws only from its own stream, and a tree grown to a depth
        is the deeper tree truncated there."""
        model = RandomForest(n_trees, max_depth, self.bootstrap)
        if model.n_trees > self.n_trees or self.max_depth is not None and (
                max_depth is None or max_depth > self.max_depth):
            raise ValueError(f"prefix of {model.n_trees} trees of depth {max_depth} from "
                             f"{self.n_trees} trees of depth {self.max_depth}")
        model.trees = self.trees[:model.n_trees]
        if max_depth is not None:
            model.trees = [tree.truncated(max_depth) for tree in model.trees]
        return model

    def predict_score(self, x: np.ndarray) -> np.ndarray:
        votes = np.zeros(len(x), dtype=np.float64)
        for tree in self.trees:
            votes += tree.predict(x) >= 0.5
        return votes / len(self.trees)

