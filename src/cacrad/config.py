"""Flat key=value run configuration.

The format is deliberately primitive: one ``key = value`` per line, ``#``
comments, no sections. The raw text is echoed verbatim into run reports
so a report always carries the exact configuration that produced it.
Grid overrides use dotted keys: ``grid.random_forest.n_trees = 100,300``.
"""

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .learn.grid import DEFAULT_GRIDS, HyperGrid
from .learn.model import MODEL_KINDS

MODES = ("radiomics", "embeddings")
COMPOSITIONS = ("mixed", "noncontrast")
GBT_PRESETS = ("default", "alt")


@dataclass(frozen=True)
class RunConfig:
    manifest: Optional[str] = None
    mode: str = "radiomics"
    train_composition: str = "mixed"
    test_fraction: float = 0.2
    selection_threshold: float = 0.90
    bin_width: float = 25.0
    n_bins: Optional[int] = None
    resample_spacing: Optional[tuple] = None
    glcm_distance: int = 1
    gldm_alpha: int = 0
    models: tuple = MODEL_KINDS
    seed: int = 0
    out: str = "run_out"
    features_csv: Optional[str] = None
    embeddings_csv: Optional[str] = None
    n_seeds: int = 1
    label_shuffle: bool = False
    kfold: int = 5
    filter_embeddings: bool = False
    gbt_preset: str = "default"
    grid_overrides: tuple = ()  # ((model, ((param, values), ...)), ...)
    raw_text: str = field(default="", compare=False)

    def validate(self) -> "RunConfig":
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
        if self.bin_width <= 0:
            raise ConfigError(f"bin_width must be > 0, got {self.bin_width}")
        if self.n_bins is not None and self.n_bins < 1:
            raise ConfigError(f"n_bins must be >= 1, got {self.n_bins}")
        if self.kfold < 2:
            raise ConfigError(f"kfold must be >= 2, got {self.kfold}")
        if self.n_seeds < 1:
            raise ConfigError(f"n_seeds must be >= 1, got {self.n_seeds}")
        if self.gbt_preset not in GBT_PRESETS:
            raise ConfigError(f"gbt_preset must be one of {GBT_PRESETS}, got {self.gbt_preset!r}")
        bad = [m for m in self.models if m not in MODEL_KINDS]
        if bad:
            raise ConfigError(f"unknown models {bad}, expected from {MODEL_KINDS}")
        for model, _params in self.grid_overrides:
            if model not in MODEL_KINDS:
                raise ConfigError(f"grid override for unknown model {model!r}")
        return self

    def grid_for(self, kind: str) -> HyperGrid:
        for model, params in self.grid_overrides:
            if model == kind:
                return HyperGrid(params=params)
        if kind == "gbt" and self.gbt_preset == "alt":
            return DEFAULT_GRIDS["gbt_alt"]
        return DEFAULT_GRIDS[kind]


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
    "models": lambda v: tuple(t.strip() for t in v.split(",") if t.strip()),
    "seed": int,
    "out": str,
    "features_csv": lambda v: None if v.strip().lower() == "none" else v.strip(),
    "embeddings_csv": lambda v: None if v.strip().lower() == "none" else v.strip(),
    "n_seeds": int,
    "label_shuffle": lambda v: {"true": True, "false": False}[v.strip().lower()],
    "kfold": int,
    "filter_embeddings": lambda v: {"true": True, "false": False}[v.strip().lower()],
    "gbt_preset": str,
}


def parse_config_text(text: str) -> RunConfig:
    values = {}
    grid: dict = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {rawline!r}")
        key, value = (part.strip() for part in line.split("=", 1))
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
    return RunConfig(raw_text=text, grid_overrides=overrides, **values).validate()


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def apply_overrides(cfg: RunConfig, **overrides) -> RunConfig:
    """CLI flags win over file values; None means not given."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    if not changes:
        return cfg
    return replace(cfg, **changes).validate()
