"""Flat key=value run configuration.

The format is deliberately primitive: one ``key = value`` per line, ``#``
comments, no sections. A report's ``config_text`` is the config file's
text, verbatim, or "" when there is none: flags and defaults are not in
it, so only a run that sets everything in its file can be read back from
its report (ROADMAP item 4). A flag's text is parsed as its key's line.
Grid overrides use dotted keys: ``grid.random_forest.n_trees = 100,300``.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigError
from .features import ExtractionConfig
from .files import read_text
from .learn.grid import DEFAULT_GRIDS, MAX_COUNT, HyperGrid
from .learn.model import MODEL_KINDS, build_model
from .rng import MAX_SEED

MODES = ("radiomics", "embeddings")
COMPOSITIONS = ("mixed", "noncontrast")


@dataclass(frozen=True)
class RunConfig(ExtractionConfig):
    """Every run setting; the extraction settings are ExtractionConfig's own
    fields and defaults, so extract_all takes a RunConfig as it is."""

    manifest: Optional[str] = None
    mode: str = "radiomics"
    train_composition: str = "mixed"
    test_fraction: float = 0.2
    selection_threshold: float = 0.90
    models: tuple = MODEL_KINDS
    seed: int = 0
    out: str = "run_out"
    features_csv: Optional[str] = None
    embeddings_csv: Optional[str] = None
    n_seeds: int = 1
    label_shuffle: bool = False
    kfold: int = 5
    filter_embeddings: bool = False
    grid_overrides: tuple = ()  # ((model, ((param, values), ...)), ...)
    raw_text: str = field(default="", compare=False)
    config_path: Optional[str] = field(default=None, compare=False)  # the file load_config read

    def __post_init__(self):
        """Every way of making a RunConfig (a config file, flags, replace or
        a direct call) checks the whole of it here, once."""
        for key in ("manifest", "out", "features_csv", "embeddings_csv"):
            path = getattr(self, key)
            if path is not None and (not path or "\0" in path):
                raise ConfigError(f"{key} must be a path, got {path!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.train_composition not in COMPOSITIONS:
            raise ConfigError(
                f"train_composition must be one of {COMPOSITIONS}, got {self.train_composition!r}")
        if not (0.0 < self.test_fraction < 1.0):
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if not (0.0 < self.selection_threshold <= 1.0):
            raise ConfigError(
                f"selection_threshold must be in (0, 1], got {self.selection_threshold}")
        if not 0 < self.bin_width < math.inf:
            raise ConfigError(f"bin_width must be a finite number > 0, got {self.bin_width}")
        if self.resample_spacing is not None and (
                len(self.resample_spacing) != 3
                or not all(0 < s < math.inf for s in self.resample_spacing)):
            raise ConfigError("resample_spacing must be none or three finite numbers > 0, "
                              f"got {self.resample_spacing}")
        if self.glcm_distance < 1:
            raise ConfigError(f"glcm_distance must be >= 1, got {self.glcm_distance}")
        if self.gldm_alpha < 0:
            raise ConfigError(f"gldm_alpha must be >= 0, got {self.gldm_alpha}")
        if self.n_bins is not None and self.n_bins < 1:
            raise ConfigError(f"n_bins must be >= 1, got {self.n_bins}")
        if not 2 <= self.kfold <= MAX_COUNT:
            raise ConfigError(f"kfold must be from 2 to {MAX_COUNT}, got {self.kfold}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must be from 0 to {MAX_SEED}, got {self.seed}")
        if not 1 <= self.n_seeds <= MAX_COUNT:
            raise ConfigError(f"n_seeds must be from 1 to {MAX_COUNT}, got {self.n_seeds}")
        bad = [m for m in self.models if m not in MODEL_KINDS]
        if bad or not self.models or len(set(self.models)) < len(self.models):
            raise ConfigError(
                f"models must name some of {MODEL_KINDS}, each once, got {list(self.models)}")
        for model, params in self.grid_overrides:
            if model not in MODEL_KINDS:
                raise ConfigError(f"grid override for unknown model {model!r}")
            _check_grid(model, params)

    def grid_for(self, kind: str) -> HyperGrid:
        for model, params in self.grid_overrides:
            if model == kind:
                return HyperGrid(params=params)
        return DEFAULT_GRIDS[kind]


def _check_grid(model: str, params: tuple) -> None:
    """Every grid point builds a model, so a bad override fails before any
    work; the model constructors check each value's kind and range."""
    try:
        for point in HyperGrid(params=params).points():
            build_model(model, point)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid.{model}: {exc}") from exc


def _parse_scalar(token: str):
    token = token.strip()
    low = token.lower()
    if low in ("none", ""):
        return None
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _parse_tuple(token: str) -> tuple:
    return tuple(_parse_scalar(t) for t in token.split(","))


def _parse_models(token: str) -> tuple:
    models = tuple(t.strip() for t in token.split(",") if t.strip())
    if len(set(models)) < len(models):
        raise ValueError("a model is listed twice")
    return models


_FIELD_PARSERS = {
    "manifest": str,
    "mode": str,
    "train_composition": str,
    "test_fraction": float,
    "selection_threshold": float,
    "bin_width": float,
    "n_bins": lambda v: None if v.strip().lower() == "none" else int(v),
    "resample_spacing": lambda v: (None if v.strip().lower() == "none"
                                   else tuple(float(t) for t in v.split(","))),
    "glcm_distance": int,
    "gldm_alpha": int,
    "models": _parse_models,
    "seed": int,
    "out": str,
    "features_csv": lambda v: None if v.strip().lower() == "none" else v.strip(),
    "embeddings_csv": lambda v: None if v.strip().lower() == "none" else v.strip(),
    "n_seeds": int,
    "label_shuffle": lambda v: {"true": True, "false": False}[v.strip().lower()],
    "kfold": int,
    "filter_embeddings": lambda v: {"true": True, "false": False}[v.strip().lower()],
}


def parse_config_text(text: str) -> RunConfig:
    values = {}
    grid: dict = {}
    seen = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {rawline!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: {key} is already set on line {seen[key]}")
        seen[key] = lineno
        if key.startswith("grid."):
            parts = key.split(".")
            if len(parts) != 3 or not parts[1] or not parts[2]:
                raise ConfigError(f"line {lineno}: grid keys look like grid.<model>.<param>")
            grid.setdefault(parts[1], []).append((parts[2], _parse_tuple(value)))
            continue
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _FIELD_PARSERS[key](value)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    overrides = tuple((model, tuple(params)) for model, params in sorted(grid.items()))
    return RunConfig(raw_text=text, grid_overrides=overrides, **values)


def load_config(path) -> RunConfig:
    """The RunConfig of a config file; ConfigError when it cannot be read."""
    return replace(parse_config_text(read_text(path, "config file", ConfigError)),
                   config_path=str(path))

