import math
import re
from dataclasses import replace

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacrad.config import RunConfig, load_config, parse_config_text
from cacrad.errors import ConfigError
from cacrad.learn.grid import DEFAULT_GRIDS, MAX_COUNT, HyperGrid
from cacrad.learn.model import MODEL_KINDS, build_model
from cacrad.nifti import MAX_VOXELS
from cacrad.rng import MAX_SEED


def test_defaults_validate():
    cfg = RunConfig()
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
    assert parse_config_text(cfg.text()) == cfg


def test_parse_grid_overrides():
    cfg = parse_config_text("grid.mlp.hidden_size = 4, 8\ngrid.mlp.epochs = 100\n"
                            "grid.linear_svm.epochs = 10\n")
    g = cfg.grid_for("mlp")
    assert g.params == (("hidden_size", (4, 8)), ("epochs", (100,)))
    # one parameter name under two models is not a repeated key
    assert cfg.grid_for("linear_svm").params == (("epochs", (10,)),)
    # untouched models keep their default grids
    assert cfg.grid_for("random_forest") == DEFAULT_GRIDS["random_forest"]


def test_old_gbt_alt_grid_is_an_override():
    # the gbt_preset key is gone; three grid.gbt lines give its alt grid
    assert RunConfig().grid_for("gbt") == DEFAULT_GRIDS["gbt"]
    with pytest.raises(ConfigError, match="gbt_preset"):
        parse_config_text("gbt_preset = alt\n")
    cfg = parse_config_text("grid.gbt.n_rounds = 100, 200\n"
                            "grid.gbt.learning_rate = 0.05, 0.1\n"
                            "grid.gbt.max_depth = 3, 4\n")
    assert cfg.grid_for("gbt") == HyperGrid.of(
        n_rounds=(100, 200), learning_rate=(0.05, 0.1), max_depth=(3, 4))


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("mode = radiomics\nwat = 7\n")
    assert "2" in str(exc.value)
    assert "wat" in str(exc.value)


@pytest.mark.parametrize("text, key", [
    ("seed = 1\nmode = radiomics\nseed = 2\n", "seed"),
    ("grid.gbt.n_rounds = 100\n# a comment\ngrid.gbt.n_rounds = 200\n", "grid.gbt.n_rounds"),
], ids=["plain", "grid"])
def test_repeated_key_reports_both_lines(text, key):
    # the last value used to win without a word
    with pytest.raises(ConfigError, match=f"line 3: {key} is already set on line 1"):
        parse_config_text(text)


def test_repeated_model_is_rejected():
    # models = gbt,gbt trained gbt twice and wrote each of its rows twice
    with pytest.raises(ConfigError, match="line 2: bad value for models"):
        parse_config_text("seed = 1\nmodels = gbt, random_forest,gbt\n")
    with pytest.raises(ConfigError, match="each once"):
        replace(RunConfig(), models=("gbt", "gbt"))


def test_malformed_lines():
    with pytest.raises(ConfigError):
        parse_config_text("mode radiomics\n")
    with pytest.raises(ConfigError):
        parse_config_text("grid.mlp = 3\n")  # needs model and parameter parts
    with pytest.raises(ConfigError):
        parse_config_text("grid.nope.alpha = 1\n")


@pytest.mark.parametrize("line", [
    "grid.gbt.bogus = 1", "grid.gbt.n_rounds = abc", "grid.gbt.n_rounds =",
    "grid.gbt.n_rounds = -1", "grid.random_forest.n_trees = 0",
    "grid.linear_svm.lam = nan", "grid.mlp.learning_rate = inf", "grid.mlp.epochs = 1,,2",
    # fractions of counts: int() truncated these (0.5 epochs trained nothing)
    "grid.mlp.epochs = 0.5", "grid.linear_svm.epochs = 0.4",
    "grid.random_forest.max_depth = 0.5", "grid.mlp.hidden_size = 1.9",
    "grid.random_forest.n_trees = 2.7", "grid.gbt.max_depth = 2.5",
    "grid.gbt.n_rounds = 100, 150.5", "grid.mlp.epochs = true",
    # wrong kinds: bool(0.5) and float(true) trained something else
    "grid.random_forest.bootstrap = 0.5", "grid.random_forest.bootstrap = 1",
    "grid.linear_svm.lam = true", "grid.mlp.learning_rate = true",
    "grid.gbt.learning_rate = false", "grid.gbt.learning_rate = nan",
    "grid.random_forest.bootstrap = none", "grid.linear_svm.lam = 0",
    "grid.linear_svm.lam = 1" + "0" * 400, "grid.mlp.learning_rate = fast",
    "grid.gbt.learning_rate = -0.1", "grid.gbt.learning_rate = none",
    # counts past MAX_COUNT: accepted, then memory ran out before training
    "grid.random_forest.n_trees = 1000000000000", "grid.mlp.hidden_size = 100000000",
    "grid.gbt.n_rounds = 10001", "grid.linear_svm.epochs = 100, 10001"])
def test_bad_grid_overrides_rejected(line):
    # each of these used to pass validation and crash in the middle of
    # training, or train a model other than the one reported
    with pytest.raises(ConfigError, match="grid."):
        parse_config_text(line + "\n")
    assert parse_config_text("grid.random_forest.max_depth = 4, none\n")


def test_counts_accept_up_to_max_count():
    cfg = parse_config_text(f"grid.random_forest.n_trees = 1, {MAX_COUNT}\n")
    assert cfg.grid_for("random_forest").params[0] == ("n_trees", (1, MAX_COUNT))


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
        {"models": ()},
        {"bin_width": float("nan")},
        {"bin_width": float("inf")},
        {"resample_spacing": (1.0, 1.0)},
        {"resample_spacing": (float("nan"), 1.0, 1.0)},
        {"resample_spacing": (-1.0, 1.0, 1.0)},
        {"glcm_distance": 0},
        {"gldm_alpha": -1},
    ]
    for kw in bad:
        with pytest.raises(ConfigError):
            replace(RunConfig(), **kw)
        with pytest.raises(ConfigError):
            RunConfig(**kw)


@pytest.mark.parametrize("key, value", [
    ("seed", 1.5), ("kfold", 2.5), ("bin_width", True), ("n_bins", True),
    ("glcm_distance", True), ("gldm_alpha", False), ("n_seeds", True), ("label_shuffle", 1),
    ("filter_embeddings", 0), ("models", ["gbt"]), ("resample_spacing", [1.0, 1.0, 1.0])])
def test_a_value_its_config_line_cannot_hold_is_refused(key, value):
    # each was accepted, and parse_config_text then refused the text() of it
    with pytest.raises(ConfigError, match=f"^{key} must .*, got {re.escape(repr(value))}$"):
        RunConfig(**{key: value})
    with pytest.raises(ConfigError, match=f"^{key} must"):
        replace(RunConfig(), **{key: value})


def test_a_value_is_stored_as_its_config_line_reads_it():
    cfg = RunConfig(bin_width=5, seed=np.int64(5), n_bins=np.int32(8),
                    resample_spacing=(1, 2, 3))
    assert (cfg.bin_width, cfg.seed, cfg.n_bins, cfg.resample_spacing) == (
        5.0, 5, 8, (1.0, 2.0, 3.0))
    assert [type(v) for v in (cfg.bin_width, cfg.seed, cfg.n_bins, *cfg.resample_spacing)] == [
        float, int, int, float, float, float]
    assert parse_config_text(cfg.text()) == cfg


def test_run_counts_are_bounded():
    # n_seeds = 10^11 derived seed after seed and never returned, and
    # kfold = 10^9 allocated a billion fold lists before any class check
    for key, low, bad in (("n_seeds", 1, 100_000_000_000), ("kfold", 2, 1_000_000_000)):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"{key} = {bad}\n")
        with pytest.raises(ConfigError, match=key):
            replace(RunConfig(), **{key: MAX_COUNT + 1})
        for ok in (low, MAX_COUNT):
            assert getattr(parse_config_text(f"{key} = {ok}\n"), key) == ok


def test_seed_is_a_64_bit_count():
    # streams keep a master seed's low 64 bits: seed -5 ran every stream of
    # seed 2^64 - 5 while the report recorded -5
    for bad in (-1, -5, MAX_SEED + 1):
        with pytest.raises(ConfigError, match=f"seed must be from 0 to {MAX_SEED}, got {bad}"):
            parse_config_text(f"seed = {bad}\n")
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(seed=bad)
        with pytest.raises(ConfigError, match="seed"):
            replace(RunConfig(), seed=bad)
    for ok in (0, MAX_SEED):
        assert parse_config_text(f"seed = {ok}\n").seed == ok


def test_zero_test_fraction_rejected():
    # zero test rows would fail only after the whole grid search
    with pytest.raises(ConfigError, match="test_fraction"):
        replace(RunConfig(), test_fraction=0.0)
    with pytest.raises(ConfigError, match="test_fraction"):
        parse_config_text("test_fraction = 0\n")


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


_KEYS = ["manifest", "mode", "train_composition", "test_fraction", "selection_threshold",
         "bin_width", "n_bins", "resample_spacing", "glcm_distance", "gldm_alpha", "models",
         "seed", "out", "features_csv", "embeddings_csv", "n_seeds", "label_shuffle",
         "kfold", "filter_embeddings"]
_VALUES = ["", "none", "true", "False", "0", "1", "-1", "2", "7", "0.5", "1e400", "-0.0",
           "nan", "inf", "-inf", "NaN", "0x10", "1_000", "1,2", "1,,2", "(1, 2)", "1;2",
           "1, 2, 3", "nan,1,1", "1,1,-1", "inf,inf,inf", "radiomics", "embeddings",
           "mixed", "noncontrast", "alt", "default", "gbt", "random_forest,mlp", ",",
           "é", "１２", "٣", "Ω,β", " ", "x" * 50, "1" * 5000,
           "1" + "0" * 400]
_COUNTS = ["n_trees", "max_depth", "n_rounds", "epochs", "hidden_size"]
_PARAMS = ["n_trees", "max_depth", "n_rounds", "learning_rate", "lam", "epochs",
           "hidden_size", "bootstrap", "", "bogus", "ß"]


@st.composite
def _config_line(draw):
    kind = draw(st.integers(0, 4))
    value = draw(st.sampled_from(_VALUES) | st.text(max_size=12))
    if kind == 0:
        key = draw(st.sampled_from(_KEYS))
    elif kind == 1:
        model = draw(st.sampled_from(list(MODEL_KINDS) + ["", "svm", "gbt_alt", "ü"]))
        key = f"grid.{model}.{draw(st.sampled_from(_PARAMS))}"
    elif kind == 2:
        key = draw(st.sampled_from(["grid", "grid.gbt", "grid.gbt.n_rounds.x", "grid..x",
                                    "unknown", "Mode", "seed seed", ""]) | st.text(max_size=8))
    elif kind == 3:
        return draw(st.sampled_from(["# comment", "", "   ", "no equals sign", "=", "==",
                                     "seed = 1 # trailing", "﻿seed = 1"]))
    else:
        return draw(st.text(max_size=30))
    return f"{key} {draw(st.sampled_from(['=', ' = ', '=='])) } {value}"


@hypothesis.seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(lines=st.lists(_config_line(), max_size=8))
@hypothesis.example(lines=["grid.random_forest.bootstrap = 0.5"])
@hypothesis.example(lines=["grid.linear_svm.lam = true"])
@hypothesis.example(lines=["grid.mlp.learning_rate = true"])
@hypothesis.example(lines=["grid.gbt.learning_rate = false"])
@hypothesis.example(lines=["grid.random_forest.n_trees = 1000000000000"])
@hypothesis.example(lines=["grid.mlp.hidden_size = 100000000"])
def test_parse_config_fuzz_raises_only_config_errors(lines):
    try:
        cfg = parse_config_text("\n".join(lines))
    except ConfigError:
        return
    # an accepted config is usable as it stands: nothing it holds fails later
    assert math.isfinite(cfg.bin_width) and cfg.bin_width > 0
    assert cfg.resample_spacing is None or (
        len(cfg.resample_spacing) == 3
        and all(math.isfinite(s) and s > 0 for s in cfg.resample_spacing))
    assert cfg.glcm_distance >= 1 and cfg.gldm_alpha >= 0 and cfg.models
    assert 1 <= cfg.n_seeds <= MAX_COUNT and 2 <= cfg.kfold <= MAX_COUNT
    for kind in cfg.models:
        for point in cfg.grid_for(kind).points():
            assert all(v is None or isinstance(v, bool) or 0 < v < math.inf
                       for v in point.values())
            assert all(point[name] is None or point[name] <= MAX_COUNT
                       for name in _COUNTS if name in point)
            model = build_model(kind, point)
            # trained as given: a count never truncated from a fraction, a
            # flag never taken from a number, a number never from a flag
            for name, v in point.items():
                got = getattr(model, name)
                assert got == v and isinstance(got, bool) == isinstance(v, bool)


# --- text(): a config rendered as config lines ------------------------------

_PATH = st.text(min_size=1, max_size=12).filter(
    lambda p: p.splitlines() == [p] and p == p.strip() and "#" not in p
    and "\0" not in p and p.lower() != "none")
_COUNT = st.integers(1, MAX_COUNT)
_POSITIVE = st.floats(0, 1e6, exclude_min=True) | st.integers(1, 100)
_GRID_VALUES = {
    "random_forest": {"n_trees": _COUNT, "max_depth": _COUNT | st.none(),
                      "bootstrap": st.booleans()},
    "gbt": {"n_rounds": _COUNT, "learning_rate": _POSITIVE, "max_depth": _COUNT},
    "linear_svm": {"lam": _POSITIVE, "epochs": _COUNT},
    "mlp": {"hidden_size": _COUNT, "learning_rate": _POSITIVE, "epochs": _COUNT},
}


@st.composite
def _grid(draw, model):
    """(model, params): some of its parameters in any order, 1-3 values each."""
    names = draw(st.permutations(list(_GRID_VALUES[model])))[:draw(st.integers(1, 3))]
    return model, tuple(
        (name, tuple(draw(st.lists(_GRID_VALUES[model][name], min_size=1, max_size=3))))
        for name in names)


_FINITE = st.floats(0, exclude_min=True, allow_infinity=False)
_CONFIGS = st.builds(
    RunConfig,
    manifest=st.none() | _PATH, out=_PATH, features_csv=st.none() | _PATH,
    embeddings_csv=st.none() | _PATH,
    mode=st.sampled_from(["radiomics", "embeddings"]),
    train_composition=st.sampled_from(["mixed", "noncontrast"]),
    test_fraction=st.floats(0, 1, exclude_min=True, exclude_max=True),
    selection_threshold=st.floats(0, 1, exclude_min=True),
    bin_width=_FINITE, n_bins=st.none() | st.integers(1, 2**31 - 2),
    resample_spacing=st.none() | st.tuples(_FINITE, _FINITE, _FINITE),
    glcm_distance=st.integers(1, MAX_VOXELS), gldm_alpha=st.integers(0, 2**40),
    models=st.lists(st.sampled_from(MODEL_KINDS), min_size=1, unique=True).map(tuple),
    seed=st.integers(0, MAX_SEED), n_seeds=st.integers(1, MAX_COUNT),
    label_shuffle=st.booleans(), kfold=st.integers(2, MAX_COUNT),
    filter_embeddings=st.booleans(),
    grid_overrides=st.lists(st.sampled_from(MODEL_KINDS), unique=True).flatmap(
        lambda models: st.tuples(*(_grid(m) for m in models))))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(cfg=_CONFIGS)
@hypothesis.example(cfg=RunConfig())
@hypothesis.example(cfg=RunConfig(seed=MAX_SEED, test_fraction=0.1 + 0.2, bin_width=1e-300,
                                  grid_overrides=(("mlp", (("epochs", (5, 1)),
                                                           ("learning_rate", (1e20,)))),)))
def test_text_parses_back_to_the_same_config(cfg):
    assert parse_config_text(cfg.text()) == cfg


def test_text_writes_every_key_and_every_default_grid():
    text = RunConfig().text()
    keys = [line.split(" = ")[0] for line in text.splitlines()]
    assert keys[:3] == ["bin_width", "embeddings_csv", "features_csv"]
    assert "manifest = none" in text.splitlines()
    assert keys[-1] == "grid.random_forest.max_depth"
    assert "grid.random_forest.max_depth = 4, 8, none" in text.splitlines()
    assert "grid.linear_svm.lam = 0.0001, 0.001, 0.01, 0.1" in text.splitlines()
    for kind, grid in DEFAULT_GRIDS.items():
        assert [k.split(".")[2] for k in keys if k.startswith(f"grid.{kind}.")] == [
            name for name, _ in grid.params]


def test_an_override_keeps_its_parameter_order_and_the_other_grids_are_defaults():
    cfg = RunConfig(grid_overrides=(("mlp", (("epochs", (5,)), ("hidden_size", (2, 1)))),))
    assert cfg.grid_for("mlp") == HyperGrid(params=(("epochs", (5,)), ("hidden_size", (2, 1))))
    assert [kind for kind, _ in cfg.grid_overrides] == sorted(MODEL_KINDS)
    assert cfg == RunConfig(grid_overrides=cfg.grid_overrides)
    assert cfg == parse_config_text("grid.mlp.epochs = 5\ngrid.mlp.hidden_size = 2, 1\n")
    with pytest.raises(ConfigError, match="two grid overrides"):
        RunConfig(grid_overrides=(("gbt", (("n_rounds", (5,)),)),
                                  ("gbt", (("n_rounds", (6,)),))))
    with pytest.raises(ConfigError, match="listed twice"):
        RunConfig(grid_overrides=(("gbt", (("n_rounds", (5,)), ("n_rounds", (6,)))),))


@pytest.mark.parametrize("key", ["manifest", "features_csv", "embeddings_csv"])
def test_none_unsets_every_optional_path(key):
    # manifest = none named a file called none
    for text in ("none", "None", " NONE "):
        assert getattr(parse_config_text(f"{key} = {text}\n"), key) is None
    assert getattr(parse_config_text(f"{key} = nonesuch\n"), key) == "nonesuch"

