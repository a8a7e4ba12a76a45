"""Config lines from the edges of each key's domain reach extract and
train-eval through cli.main and end in exit 0, 2, 3 or 4, never in a
traceback; an exit 2 leaves every earlier file as it was.

Each example writes one or two drawn lines over a small base config:
extract reads a 4-subject phantom cohort, train-eval a fixed features.csv
of 24 subjects with one tiny grid point per model.
"""

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cacrad.cli import main
from cacrad.config import _FIELD_PARSERS
from cacrad.embeddings import write_embeddings
from cacrad.learn.grid import MAX_COUNT
from cacrad.manifest import load_manifest
from cacrad.nifti import MAX_VOXELS
from cacrad.phantom import generate_cohort
from cacrad.rng import MAX_SEED

# 0, 1, each bound and its neighbours, and the int64 and uint64 edges
INTS = [0, 1, 2, -1, MAX_COUNT - 1, MAX_COUNT, MAX_COUNT + 1, 2 ** 31 - 3, 2 ** 31 - 2,
        2 ** 31 - 1, MAX_VOXELS - 1, MAX_VOXELS, MAX_VOXELS + 1, 2 ** 63 - 1, 2 ** 63,
        MAX_SEED, 2 ** 64, -2 ** 63 - 1]
# the least subnormal and normal, the largest finite, and what is not finite
FLOATS = ["5e-324", "2.2250738585072014e-308", "1e-300", "0.5", "1.0", "1e308",
          "1.7976931348623157e+308", "-0.0", "inf", "nan", "1e400"]
WORDS = ["", "none", "NONE", "true", "false", "radiomics", "embeddings", "noncontrast",
         "mixed", "gbt", "mlp, gbt", "gbt, gbt", "a#b", "x y"]
EDGES = [str(v) for v in INTS] + FLOATS + WORDS
GRID_PARAMS = {"random_forest": ("n_trees", "max_depth", "bootstrap"),
               "gbt": ("n_rounds", "learning_rate", "max_depth"),
               "linear_svm": ("lam", "epochs"),
               "mlp": ("hidden_size", "learning_rate", "epochs")}
KEYS = sorted(_FIELD_PARSERS) + [f"grid.{model}.{param}"
                                 for model, params in GRID_PARAMS.items() for param in params]
# one small point per model; a drawn grid line replaces or joins these
TINY_GRIDS = {"grid.random_forest.n_trees": "3", "grid.random_forest.max_depth": "2",
              "grid.gbt.n_rounds": "3", "grid.gbt.max_depth": "2",
              "grid.linear_svm.epochs": "5", "grid.mlp.hidden_size": "2",
              "grid.mlp.epochs": "5"}
OUTPUTS = {"extracted": ("features.csv", "extract_report.json"),
           "trained": ("run_report.json", "metrics.csv")}


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """(base extract lines, base train-eval lines) over a 24-subject
    cohort, its first 4 subjects' manifest, features.csv and an 8-column
    embeddings.csv."""
    root = tmp_path_factory.mktemp("edges")
    manifest = generate_cohort(root, 24, 0.5, seed=11, dims=(16, 16, 8))
    four = root / "four.csv"
    four.write_text("".join(manifest.read_text().splitlines(keepends=True)[:5]))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["extract", "--manifest", str(manifest), "--out", str(root)]) == 0
    ids = [e.subject_id for e in load_manifest(manifest)]
    write_embeddings(root / "embeddings.csv", ids,
                     np.random.default_rng(11).normal(size=(len(ids), 8)))
    extract = {"manifest": str(four), "out": "extracted"}
    train = {"manifest": str(manifest), "features_csv": str(root / "features.csv"),
             "embeddings_csv": str(root / "embeddings.csv"), "out": "trained",
             "kfold": "2", "test_fraction": "0.5", **TINY_GRIDS}
    return root, extract, train


def _files(top: Path) -> dict:
    return {p: p.read_bytes() for p in sorted(top.rglob("*")) if p.is_file()}


def _run_each(root, extract, train, lines):
    """Each command's exit code and stderr, with lines written over its
    base config, run in a fresh directory holding an earlier run's outputs."""
    work = Path(tempfile.mkdtemp(dir=root))
    here = os.getcwd()
    try:
        os.chdir(work)
        for out, names in OUTPUTS.items():
            Path(out).mkdir()
            for name in names:
                (Path(out) / name).write_text("earlier\n")
        results = []
        for command, base in (("extract", extract), ("train-eval", train)):
            cfg = Path(f"{command}.cfg")
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**base, **lines}.items()))
            before = _files(work)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main([command, "--config", str(cfg)])
            if rc == 2:
                assert _files(work) == before, (command, lines)
            results.append((rc, err.getvalue()))
        return results
    finally:
        os.chdir(here)
        shutil.rmtree(work)


@st.composite
def edge_lines(draw):
    """One or two config lines, each a key with an edge of some domain."""
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=2, unique=True))
    lines = {}
    for key in keys:
        values = st.sampled_from(EDGES)
        if key.startswith("grid."):
            values = values | st.sampled_from(["1, 2", "0.5, 1e308", "none, 1"])
        lines[key] = draw(values)
    # 10 000 seeds is a valid run of some minutes; its bound is tested alone
    if lines.get("n_seeds") in (str(MAX_COUNT - 1), str(MAX_COUNT)):
        lines["n_seeds"] = str(MAX_COUNT + 1)
    return lines


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(lines=edge_lines())
# each ended extract in a traceback, exit 1: an OverflowError past int64,
# or an int64 overflow in the fixed-count levels
@example(lines={"glcm_distance": str(2 ** 63)})
@example(lines={"n_bins": str(2 ** 63)})
@example(lines={"n_bins": str(2 ** 63 - 1)})
def test_an_edge_config_line_runs_or_exits_2_to_4(cohort, lines):
    root, extract, train = cohort
    for rc, err in _run_each(root, extract, train, lines):
        assert rc in (0, 2, 3, 4) and "Traceback" not in err, (lines, rc, err)


@pytest.mark.parametrize("key, value", [("glcm_distance", 2 ** 63), ("n_bins", 2 ** 63),
                                        ("n_bins", 2 ** 63 - 1)])
def test_a_count_past_its_bound_exits_2(cohort, key, value):
    root, extract, train = cohort
    [(rc, err), _] = _run_each(root, extract, train, {key: str(value)})
    assert rc == 2 and f"{key} must be from 1 to " in err


def test_the_bounds_themselves_extract(cohort):
    root, extract, train = cohort
    for key, value in (("glcm_distance", MAX_VOXELS), ("n_bins", 2 ** 31 - 2)):
        [(rc, err), _] = _run_each(root, extract, train, {key: str(value)})
        assert rc in (0, 4), err


def _finite(text: str):
    """Every number of a JSON text, refusing NaN and infinities."""
    def refuse(name):
        raise AssertionError(f"{name} in a report")
    return json.loads(text, parse_constant=refuse)


def test_a_diverging_fit_exits_0_with_finite_reports(cohort):
    # whether a fit diverges depends on the data, not on the value alone:
    # such a run is not a config error, and its reports hold no NaN or inf
    root, extract, train = cohort
    lines = {"models": "mlp, linear_svm", "grid.mlp.learning_rate": "1e308",
             "grid.linear_svm.lam": "5e-324"}
    work = Path(tempfile.mkdtemp(dir=root))
    try:
        cfg = work / "train.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in
                               {**train, **lines, "out": str(work)}.items()))
        with contextlib.redirect_stdout(io.StringIO()), pytest.warns(RuntimeWarning):
            assert main(["train-eval", "--config", str(cfg)]) == 0
        _finite((work / "run_report.json").read_text())
        rows = (work / "metrics.csv").read_text().splitlines()[1:]
        assert rows
        for row in rows:
            for cell in row.split(","):
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(cell)), row
    finally:
        shutil.rmtree(work)
