"""Classifiers, splitting, and cross-validated grid search."""

from .boosting import GradientBoostedTrees
from .forest import RandomForest
from .grid import DEFAULT_GRIDS, HyperGrid, grid_search_cv
from .mlp import Mlp, loss_and_grad
from .model import MODEL_KINDS, TrainedModel, build_model, train_with_grid
from .split import stratified_kfold, stratified_split
from .svm import LinearSvm

__all__ = [
    "RandomForest", "GradientBoostedTrees", "LinearSvm", "Mlp",
    "loss_and_grad",
    "HyperGrid", "DEFAULT_GRIDS", "grid_search_cv",
    "MODEL_KINDS", "TrainedModel", "build_model", "train_with_grid",
    "stratified_split", "stratified_kfold",
]
