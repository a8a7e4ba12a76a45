"""Hyperparameter grids and cross-validated search.

Grid points enumerate in canonical order (parameter insertion order,
values left to right), and ties in CV score resolve to the earliest
point, so the winner never depends on evaluation schedule.
"""

import numbers
import sys
from dataclasses import dataclass
from itertools import product

import numpy as np

from ..errors import ConfigError
from ..eval import confusion_from_predictions, metrics
from ..rng import derive_seed
from .split import stratified_kfold


# Largest count a hyperparameter may take. Past it a forest draws one random
# stream per tree and an mlp holds (features, hidden) weight matrices before
# any training, so a typo such as 10^12 trees would exhaust memory. An svm
# keeps its weights and training margins after every epoch, 8 * epochs *
# (features + 1 + rows) bytes, 164 MB per fit for 10 000 epochs of 2048
# features; a grid search keeps a group's fold fits only until its last point.
MAX_COUNT = 10_000


def count_param(name: str, value) -> int:
    """A hyperparameter that counts something (trees, rounds, epochs, units,
    levels): an integer from 1 to MAX_COUNT, never truncated from a fraction."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not 1 <= value <= MAX_COUNT):
        raise ValueError(f"{name} must be an integer from 1 to {MAX_COUNT}, got {value!r}")
    return int(value)


def positive_param(name: str, value) -> float:
    """A hyperparameter that scales something (regularization, step size):
    a finite real > 0, never a flag, a string or nan."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 < value <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class HyperGrid:
    params: tuple  # ((name, (values...)), ...) in canonical order

    def __post_init__(self):
        if not self.params or any(len(values) == 0 for _, values in self.params):
            raise ConfigError("grid must list at least one value per parameter")

    @classmethod
    def of(cls, **named_lists) -> "HyperGrid":
        return cls(params=tuple((k, tuple(v)) for k, v in named_lists.items()))

    def points(self):
        names = [name for name, _ in self.params]
        for combo in product(*(values for _, values in self.params)):
            yield dict(zip(names, combo))


# Small by construction so a full 4-model search stays desk-scale.
DEFAULT_GRIDS = {
    "random_forest": HyperGrid.of(n_trees=(100, 300), max_depth=(4, 8, None)),
    "gbt": HyperGrid.of(n_rounds=(100, 200), learning_rate=(0.1, 0.3), max_depth=(2, 3)),
    "linear_svm": HyperGrid.of(lam=(1e-4, 1e-3, 1e-2, 1e-1), epochs=(10, 30)),
    "mlp": HyperGrid.of(hidden_size=(8, 16), learning_rate=(0.1, 0.3), epochs=(300,)),
}


def grid_search_cv(fit, x: np.ndarray, y: np.ndarray, grid: HyperGrid,
                   k: int = 5, seed: int = 0, nested: tuple = ()):
    """Mean balanced accuracy over k stratified folds for every grid point.

    fit(params, x, y, seed) -> fitted model with predict_score, called on
    each fold's training rows. Returns (best_params, scores): scores[i]
    aligns with the i-th canonical grid point, and best_params is the first
    point with the highest score. Folds are shared across grid points;
    per-(point, fold) training seeds derive from the master seed.

    Points are searched one group at a time, and a group's fits are dropped
    before the next group is fitted. nested names parameters whose smaller
    values give prefixes of a fit at their largest values (None, no bound,
    counts as largest), whatever the seed: model.prefix(**values) of nested
    names must return the model a fit at those values would. When the grid
    lists every nested name, a group is the points that differ only in
    them, fitted once per fold at the grid's largest nested values with the
    fold seeds of its first point; otherwise each point is its own group.
    """
    folds = [np.array(fold, dtype=np.int64)
             for fold in stratified_kfold(y, k, derive_seed(seed, "cv-folds"))]
    all_rows = np.arange(len(y))
    trains = [np.setdiff1d(all_rows, val) for val in folds]
    points = list(grid.points())
    values = dict(grid.params)
    if not all(name in values for name in nested):
        nested = ()
    top = {name: None if None in values[name] else max(values[name]) for name in nested}
    groups = {}
    for gi, params in enumerate(points):
        key = tuple(v for name, v in params.items() if name not in top) if top else gi
        groups.setdefault(key, []).append(gi)
    scores = [0.0] * len(points)
    for members in groups.values():
        first = members[0]
        seeds = [derive_seed(seed, "grid", first, "fold", fi) for fi in range(len(folds))]
        fits = [fit({**points[first], **top}, x[rows], y[rows], s)
                for rows, s in zip(trains, seeds)]
        for gi in members:
            at = {name: points[gi][name] for name in top}
            scores[gi] = _cv_score([f if at == top else f.prefix(**at) for f in fits],
                                   x, y, folds)
        del fits
    return points[max(range(len(points)), key=scores.__getitem__)], scores


def _cv_score(models, x, y, folds) -> float:
    """Mean balanced accuracy of each fold's model on that fold's rows."""
    fold_scores = []
    for model, val in zip(models, folds):
        pred = (model.predict_score(x[val]) >= 0.5).astype(np.int64)
        fold_scores.append(metrics(confusion_from_predictions(y[val], pred)).balanced_accuracy)
    return float(np.mean(fold_scores))
