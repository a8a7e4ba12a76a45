"""Flat key=value run configuration.

The format is deliberately primitive: one ``key = value`` per line, ``#``
comments, no sections. A flag's text is parsed as its key's line. Grid
overrides use dotted keys: ``grid.random_forest.n_trees = 100,300``.
``RunConfig.text`` renders a config back as such lines, every key and
every model's grid, defaults included, and a report stores it as its
``config_text``: ``parse_config_text(cfg.text()) == cfg``, so a report's
config file reruns its run.
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
    # ((model, ((param, values), ...)), ...); __post_init__ adds the default
    # grid of each model not listed and sorts them by model
    grid_overrides: tuple = ()
    config_path: Optional[str] = field(default=None, compare=False)  # the file load_config read

    def __post_init__(self):
        """Every way of making a RunConfig (a config file, flags, replace or
        a direct call) checks the whole of it here, once. A path must be
        one a config line can hold: text() writes it as its value."""
        for key in ("manifest", "out", "features_csv", "embeddings_csv"):
            path = getattr(self, key)
            if path is not None and (path.splitlines() != [path] or path != path.strip()
                                     or "#" in path or "\0" in path
                                     or path.lower() == "none"):
                raise ConfigError(f"{key} must be a path a config line can hold, got {path!r}")
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
        grids = dict(self.grid_overrides)
        if len(grids) < len(self.grid_overrides):
            raise ConfigError("a model has two grid overrides")
        for model, params in grids.items():
            if model not in MODEL_KINDS:
                raise ConfigError(f"grid override for unknown model {model!r}")
            _check_grid(model, params)
        defaults = {kind: grid.params for kind, grid in DEFAULT_GRIDS.items()}
        object.__setattr__(self, "grid_overrides", tuple(sorted({**defaults, **grids}.items())))

    def grid_for(self, kind: str) -> HyperGrid:
        return HyperGrid(params=dict(self.grid_overrides)[kind])

    def text(self) -> str:
        """Config lines of every key, sorted, then of every model's grid,
        each model's parameters in grid order; parse_config_text reads this
        RunConfig back from them."""
        lines = [f"{key} = {_render(getattr(self, key))}" for key in sorted(_FIELD_PARSERS)]
        lines += [f"grid.{model}.{param} = {_render(values)}"
                  for model, params in self.grid_overrides for param, values in params]
        return "\n".join(lines) + "\n"


def _render(value) -> str:
    """A value as its config line writes it."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, tuple):
        return ", ".join(map(_render, value))
    return str(value)


def _check_grid(model: str, params: tuple) -> None:
    """Every grid point builds a model, so a bad override fails before any
    work; the model constructors check each value's kind and range."""
    if len({name for name, _ in params}) < len(params):
        raise ConfigError(f"grid.{model}: a parameter is listed twice")
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


def _optional(parse):
    """parse, or None for the value none."""
    return lambda v: None if v.strip().lower() == "none" else parse(v)


def _parse_floats(token: str) -> tuple:
    return tuple(float(t) for t in token.split(","))


def _parse_bool(token: str) -> bool:
    return {"true": True, "false": False}[token.strip().lower()]


_FIELD_PARSERS = {
    "manifest": _optional(str),
    "mode": str,
    "train_composition": str,
    "test_fraction": float,
    "selection_threshold": float,
    "bin_width": float,
    "n_bins": _optional(int),
    "resample_spacing": _optional(_parse_floats),
    "glcm_distance": int,
    "gldm_alpha": int,
    "models": _parse_models,
    "seed": int,
    "out": str,
    "features_csv": _optional(str),
    "embeddings_csv": _optional(str),
    "n_seeds": int,
    "label_shuffle": _parse_bool,
    "kfold": int,
    "filter_embeddings": _parse_bool,
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
    return RunConfig(grid_overrides=tuple((m, tuple(p)) for m, p in grid.items()), **values)


def load_config(path) -> RunConfig:
    """The RunConfig of a config file; ConfigError when it cannot be read."""
    return replace(parse_config_text(read_text(path, "config file", ConfigError)),
                   config_path=str(path))

