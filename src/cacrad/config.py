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
from typing import Callable, NamedTuple, Optional

from .errors import ConfigError
from .features import ExtractionConfig
from .files import read_text
from .learn.grid import DEFAULT_GRIDS, MAX_COUNT, HyperGrid
from .learn.model import MODEL_KINDS, build_model
from .nifti import MAX_VOXELS
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
        a direct call) checks the whole of it here, once. Each value must be
        one its own config line holds: the line text() writes for it reads
        back, as parse_config_text reads it, as the same value, and that
        value is stored (bin_width = 5 as 5.0)."""
        for key, rule in _FIELD_PARSERS.items():
            value = getattr(self, key)
            try:
                [(_, _, text)] = _settings(f"{key} = {_render(value)}")
                back = rule.read(text)
                if rule.ok(back) and back == value:
                    object.__setattr__(self, key, back)
                    continue
            except (ValueError, KeyError, ConfigError):
                pass
            raise ConfigError(f"{key} must {rule.must}, got {value!r}")
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
    if low in ("true", "false"):
        return low == "true"
    for kind in (int, float):
        try:
            return kind(token)
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


class _Rule(NamedTuple):
    """What a key holds: read parses its line's text (ValueError or KeyError
    when not of the key's kind), ok tests the range, must says what ok asks."""
    read: Callable
    must: str
    ok: Callable


def _integer(lo: int, hi: int) -> _Rule:
    return _Rule(int, f"be from {lo} to {hi}", lambda v: lo <= v <= hi)


def _names(names: tuple) -> _Rule:
    return _Rule(str, f"be one of {names}", lambda v: v in names)


def _optional(rule: _Rule) -> _Rule:
    """rule, or None for the value none."""
    return _Rule(lambda t: None if t.strip().lower() == "none" else rule.read(t), rule.must,
                 lambda v: v is None or rule.ok(v))


# A line holding "#", a line break or surrounding spaces reads back as
# another path, so only the empty path, NUL and the word none need a test.
_PATH = _Rule(str, "be a path a config line can hold",
              lambda p: p != "" and "\0" not in p and p.lower() != "none")
_BOOL = _Rule(lambda t: {"true": True, "false": False}[t.strip().lower()],
              "be true or false", lambda v: True)

_FIELD_PARSERS = {
    "manifest": _optional(_PATH),
    "mode": _names(MODES),
    "train_composition": _names(COMPOSITIONS),
    "test_fraction": _Rule(float, "be in (0, 1)", lambda v: 0 < v < 1),
    "selection_threshold": _Rule(float, "be in (0, 1]", lambda v: 0 < v <= 1),
    "bin_width": _Rule(float, "be a finite number > 0", lambda v: 0 < v < math.inf),
    # the level count fixed-width bins stop at too, since the level grid is int32
    "n_bins": _optional(_integer(1, 2 ** 31 - 2)),
    "resample_spacing": _optional(_Rule(
        lambda t: tuple(map(float, t.split(","))), "be none or three finite numbers > 0",
        lambda s: len(s) == 3 and all(0 < x < math.inf for x in s))),
    # no grid axis is longer, and a longer distance pairs no voxels either
    "glcm_distance": _integer(1, MAX_VOXELS),
    "gldm_alpha": _Rule(int, "be >= 0", lambda v: v >= 0),
    "models": _Rule(_parse_models, f"name some of {MODEL_KINDS}, each once",
                    lambda ms: ms and all(m in MODEL_KINDS for m in ms)),
    "seed": _integer(0, MAX_SEED),
    "out": _PATH,
    "features_csv": _optional(_PATH),
    "embeddings_csv": _optional(_PATH),
    "n_seeds": _integer(1, MAX_COUNT),
    "label_shuffle": _BOOL,
    "kfold": _integer(2, MAX_COUNT),
    "filter_embeddings": _BOOL,
}


def _settings(text: str):
    """(line number, key, value text) of each setting of config text: the
    comment cut, spaces stripped, blank lines skipped."""
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {rawline!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, key, value


def parse_config_text(text: str) -> RunConfig:
    values = {}
    grid: dict = {}
    seen = {}
    for lineno, key, value in _settings(text):
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
            values[key] = _FIELD_PARSERS[key].read(value)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return RunConfig(grid_overrides=tuple((m, tuple(p)) for m, p in grid.items()), **values)


def load_config(path) -> RunConfig:
    """The RunConfig of a config file; ConfigError when it cannot be read."""
    return replace(parse_config_text(read_text(path, "config file", ConfigError)),
                   config_path=str(path))

