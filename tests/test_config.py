import pytest

from cacrad.config import (
    RunConfig,
    apply_overrides,
    load_config,
    parse_config_text,
)
from cacrad.errors import ConfigError
from cacrad.learn.grid import DEFAULT_GRIDS


def test_defaults_validate():
    cfg = RunConfig()
    cfg.validate()
    assert cfg.mode == "radiomics"
    assert cfg.selection_threshold == 0.90
    assert cfg.bin_width == 25.0
    assert cfg.kfold == 5
    assert cfg.models == ("random_forest", "gbt", "linear_svm", "mlp")


def test_parse_full_text():
    text = """
# run settings
mode = radiomics
train_composition = noncontrast
test_fraction = 0.25
selection_threshold = 0.8
bin_width = 10.0
n_bins = none
seed = 42
out = results
models = random_forest, gbt
n_seeds = 10
label_shuffle = true
kfold = 3
"""
    cfg = parse_config_text(text)
    assert cfg.train_composition == "noncontrast"
    assert cfg.test_fraction == 0.25
    assert cfg.selection_threshold == 0.8
    assert cfg.seed == 42
    assert cfg.out == "results"
    assert cfg.models == ("random_forest", "gbt")
    assert cfg.n_seeds == 10
    assert cfg.label_shuffle is True
    assert cfg.kfold == 3
    assert cfg.raw_text == text


def test_parse_grid_overrides():
    cfg = parse_config_text("grid.mlp.hidden_size = 4, 8\ngrid.mlp.epochs = 100\n")
    g = cfg.grid_for("mlp")
    assert g.params == (("hidden_size", (4, 8)), ("epochs", (100,)))
    # untouched models keep their default grids
    assert cfg.grid_for("random_forest") == DEFAULT_GRIDS["random_forest"]


def test_gbt_preset_switch():
    assert RunConfig().grid_for("gbt") == DEFAULT_GRIDS["gbt"]
    alt = parse_config_text("gbt_preset = alt\n")
    assert alt.grid_for("gbt") == DEFAULT_GRIDS["gbt_alt"]
    with pytest.raises(ConfigError):
        parse_config_text("gbt_preset = fancy\n").validate()


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("mode = radiomics\nwat = 7\n")
    assert "2" in str(exc.value)
    assert "wat" in str(exc.value)


def test_malformed_lines():
    with pytest.raises(ConfigError):
        parse_config_text("mode radiomics\n")
    with pytest.raises(ConfigError):
        parse_config_text("grid.mlp = 3\n")  # needs model and parameter parts
    with pytest.raises(ConfigError):
        parse_config_text("grid.nope.alpha = 1\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("\n# comment only\n  \nseed = 3\n")
    assert cfg.seed == 3


def test_validation_errors():
    bad = [
        {"mode": "quantum"},
        {"train_composition": "venous"},
        {"test_fraction": 1.0},
        {"test_fraction": -0.1},
        {"selection_threshold": 0.0},
        {"selection_threshold": 1.5},
        {"bin_width": 0.0},
        {"kfold": 1},
        {"n_seeds": 0},
        {"models": ("random_forest", "adaboost")},
    ]
    for kw in bad:
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), **kw)


def test_zero_test_fraction_rejected():
    # zero test rows would fail only after the whole grid search
    with pytest.raises(ConfigError, match="test_fraction"):
        apply_overrides(RunConfig(), test_fraction=0.0)
    with pytest.raises(ConfigError, match="test_fraction"):
        parse_config_text("test_fraction = 0\n")


def test_apply_overrides_skips_none():
    base = RunConfig(seed=5)
    out = apply_overrides(base, seed=None, out="elsewhere")
    assert out.seed == 5
    assert out.out == "elsewhere"


def test_load_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("seed = 17\nbin_width = 5\n")
    cfg = load_config(p)
    assert cfg.seed == 17
    assert cfg.bin_width == 5.0
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def test_scalar_parsing_variants():
    cfg = parse_config_text(
        "resample_spacing = 1.5, 1.5, 3.0\nlabel_shuffle = false\nn_bins = 16\n")
    assert cfg.resample_spacing == (1.5, 1.5, 3.0)
    assert cfg.label_shuffle is False
    assert cfg.n_bins == 16
