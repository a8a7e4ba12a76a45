"""Hyperparameter grids and cross-validated search.

Grid points enumerate in canonical order (parameter insertion order,
values left to right), and ties in CV score resolve to the earliest
point, so the winner never depends on evaluation schedule.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from ..errors import ConfigError
from ..eval import confusion_from_predictions, metrics
from ..rng import derive_seed
from .split import stratified_kfold


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

    def n_points(self) -> int:
        n = 1
        for _, values in self.params:
            n *= len(values)
        return n


# Small by construction so a full 4-model search stays desk-scale.
# "gbt" and "gbt_alt" are two named presets over the one boosted-trees
# implementation; pick via config key grid.gbt.preset.
DEFAULT_GRIDS = {
    "random_forest": HyperGrid.of(n_trees=(100, 300), max_depth=(4, 8, None)),
    "gbt": HyperGrid.of(n_rounds=(100, 200), learning_rate=(0.1, 0.3), max_depth=(2, 3)),
    "gbt_alt": HyperGrid.of(n_rounds=(100, 200), learning_rate=(0.05, 0.1), max_depth=(3, 4)),
    "linear_svm": HyperGrid.of(lam=(1e-4, 1e-3, 1e-2, 1e-1), epochs=(10, 30)),
    "mlp": HyperGrid.of(hidden_size=(8, 16), learning_rate=(0.1, 0.3), epochs=(300,)),
}


def grid_search_cv(fit_fn, x: np.ndarray, y: np.ndarray, grid: HyperGrid,
                   k: int = 5, seed: int = 0, nested: str = None):
    """Mean balanced accuracy over k stratified folds for every grid point.

    fit_fn(params, x, y, seed) -> fitted model with predict_score.
    Returns (best_params, scores) where scores[i] aligns with the i-th
    canonical grid point. Fold membership is shared across grid points;
    per-(point, fold) training seeds derive from the master seed.

    nested names a parameter whose smaller values are prefixes of a fit
    at its largest value, whatever the seed: model.prefix(value) must
    return the model fit_fn would. Grid points that differ only in that
    parameter then share one fit per fold, at the grid's largest value.
    """
    folds = stratified_kfold(y, k, derive_seed(seed, "cv-folds"))
    all_rows = np.arange(len(y))
    values = dict(grid.params).get(nested)
    shared = {}
    scores = []
    best = None
    for gi, params in enumerate(grid.points()):
        fold_scores = []
        for fi, fold in enumerate(folds):
            val = np.array(fold, dtype=np.int64)
            train = np.setdiff1d(all_rows, val)
            fit_seed = derive_seed(seed, "grid", gi, "fold", fi)
            if values is None:
                model = fit_fn(params, x[train], y[train], fit_seed)
            else:
                key = (tuple(v for name, v in params.items() if name != nested), fi)
                if key not in shared:
                    shared[key] = fit_fn({**params, nested: max(values)},
                                         x[train], y[train], fit_seed)
                model = shared[key].prefix(params[nested])
            pred = (model.predict_score(x[val]) >= 0.5).astype(np.int64)
            rep = metrics(confusion_from_predictions(y[val], pred))
            fold_scores.append(rep.balanced_accuracy)
        mean_score = float(np.mean(fold_scores))
        scores.append(mean_score)
        if best is None or mean_score > best[0]:
            best = (mean_score, params)
    return best[1], scores
