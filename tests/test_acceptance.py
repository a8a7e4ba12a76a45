"""Acceptance gate: one test per release criterion.

Each test records a [PASS]/[FAIL] line that the terminal summary prints,
so a run of this module doubles as the sign-off checklist. Criteria that
need an end-to-end cohort share module-scoped fixtures.
"""

import functools
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import triangulate_mask
from conftest import (
    disc_from_grid,
    random_level_grid,
    record_acceptance,
)

from cacrad.cli import main as cli_main
from cacrad.eval import ConfusionCounts, metrics, paired_t_test
from cacrad.features import ExtractionConfig, extract_all
from cacrad.features.catalog import FEATURE_NAMES
from cacrad.learn.mlp import Mlp, loss_and_grad
from cacrad.manifest import load_manifest
from cacrad.nifti import Volume3D, read_nifti, write_nifti
from cacrad.preprocess import apply_mask, discretize_fixed_width
from cacrad.selection import Standardizer, correlation_filter
from cacrad.table import attach_cohort, read_features_csv
from cacrad.texmat import (
    DIRECTIONS_13,
    compute_glcm,
    compute_gldm,
    compute_glrlm,
    compute_glszm,
    compute_ngtdm,
)

MESH_FEATURES = {"shape_MeshVolume", "shape_SurfaceArea",
                 "shape_Sphericity", "shape_SurfaceVolumeRatio"}


def criterion(index: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_acceptance(index, label, False)
                raise
            record_acceptance(index, label, True)
        return wrapper
    return deco


def rel_close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


@criterion(1, "texture matrices match exhaustive oracles on 200+ ROIs")
def test_texture_matrix_oracle_suite():
    t0 = time.monotonic()
    for trial in range(210):
        rng = np.random.default_rng(50_000 + trial)
        grid = random_level_grid(rng, max_dims=(6, 6, 4), ng_max=5)
        disc = disc_from_grid(grid)
        ng = disc.ng

        m = compute_glcm(disc)
        assert oracles.same_counts(
            m.counts, oracles.glcm_counts(grid, ng, list(DIRECTIONS_13)))

        r = compute_glrlm(disc)
        assert oracles.same_counts(
            r.counts, oracles.glrlm_counts(grid, ng, list(DIRECTIONS_13)))

        z = compute_glszm(disc)
        assert oracles.same_counts(z.counts, oracles.glszm_counts(grid, ng))

        d = compute_gldm(disc, alpha=0)
        assert oracles.same_counts(d.counts,
                                   oracles.gldm_counts(grid, ng, alpha=0))

        t = compute_ngtdm(disc)
        n_o, s_o, valid_o = oracles.ngtdm_tables(grid, ng)
        assert np.array_equal(t.n, n_o)
        assert t.valid_count == valid_o
        assert np.allclose(t.s, s_o, rtol=0, atol=1e-12)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"matrix oracle suite took {elapsed:.1f}s"


def _feature_oracle(vol, mask):
    """All 107 values from literal formulas, keyed by catalog name."""
    roi = apply_mask(vol, mask)
    disc = discretize_fixed_width(roi, 25.0)
    dense = disc.grid
    ng = disc.ng

    out = {}
    fo = oracles.firstorder_oracle(roi.values, disc.levels, ng, vol.spacing)
    out.update({f"firstorder_{k}": v for k, v in fo.items()})
    sh = oracles.shape_oracle(mask, vol.spacing,
                              triangulate_mask(mask, vol.spacing))
    out.update({f"shape_{k}": v for k, v in sh.items()})

    dirs = list(oracles.folded_directions())
    gl = oracles.glcm_oracle(oracles.glcm_counts(dense, ng, dirs))
    if gl is not None:
        out.update({f"glcm_{k}": v for k, v in gl.items()})
    out.update({f"glrlm_{k}": v for k, v in
                oracles.glrlm_oracle(
                    oracles.glrlm_counts(dense, ng, dirs)).items()})
    out.update({f"glszm_{k}": v for k, v in
                oracles.glszm_oracle(oracles.glszm_counts(dense, ng)).items()})
    out.update({f"gldm_{k}": v for k, v in
                oracles.gldm_oracle(
                    oracles.gldm_counts(dense, ng, alpha=0)).items()})
    n_o, s_o, valid_o = oracles.ngtdm_tables(dense, ng)
    out.update({f"ngtdm_{k}": v for k, v in
                oracles.ngtdm_oracle(n_o, s_o, valid_o).items()})
    return out, gl is None


@criterion(2, "all 107 feature formulas match literal oracles")
def test_feature_formula_oracle_suite():
    t0 = time.monotonic()
    for trial in range(50):
        rng = np.random.default_rng(60_000 + trial)
        grid = random_level_grid(rng, max_dims=(6, 6, 4), ng_max=5)
        mask = grid > 0
        values = rng.normal(0.0, 80.0, size=grid.shape)
        spacing = tuple(float(s) for s in rng.uniform(0.4, 2.0, size=3))
        vol = Volume3D(dims=grid.shape, spacing=spacing, intensities=values)

        vec = dict(zip(FEATURE_NAMES, extract_all(vol, mask)))
        want, glcm_empty = _feature_oracle(vol, mask)

        for name in FEATURE_NAMES:
            if name.startswith("glcm_") and glcm_empty:
                continue  # pair-free ROI, substitutions checked below
            rtol = 1e-6 if name in MESH_FEATURES else 1e-9
            assert rel_close(vec[name], want[name], rtol), \
                f"trial {trial} {name}: {vec[name]!r} vs {want[name]!r}"
        if glcm_empty:
            assert vec["glcm_Correlation"] == 1.0
            assert vec["glcm_MCC"] == 1.0
            assert vec["glcm_Contrast"] == 0.0

    # degenerate flat region: every value finite, fixed substitutions
    dims = (3, 3, 2)
    vol = Volume3D(dims=dims, spacing=(1.0, 1.0, 1.0),
                   intensities=np.full(dims, 50.0))
    vec = dict(zip(FEATURE_NAMES, extract_all(vol, np.ones(dims, bool))))
    assert all(np.isfinite(v) for v in vec.values())
    assert vec["firstorder_Variance"] == 0.0
    assert vec["firstorder_Skewness"] == 0.0
    assert vec["firstorder_Kurtosis"] == 0.0
    assert vec["firstorder_Entropy"] == 0.0
    assert vec["firstorder_Uniformity"] == 1.0
    assert vec["glcm_Correlation"] == 1.0
    assert vec["glcm_MCC"] == 1.0
    assert vec["glcm_Contrast"] == 0.0
    assert vec["ngtdm_Coarseness"] == 1e6
    assert vec["ngtdm_Contrast"] == 0.0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"feature oracle suite took {elapsed:.1f}s"


@criterion(3, "confusion panel reproduces the reference row")
def test_metrics_reference_row():
    rep = metrics(ConfusionCounts(tp=19, fn=1, fp=5, tn=13))
    row = rep.as_row()
    for key, want in (("accuracy", 0.84), ("sensitivity", 0.95),
                      ("specificity", 0.72), ("ppv", 0.79),
                      ("f1", 0.86), ("npv", 0.93)):
        assert abs(row[key] - want) <= 0.005, (key, row[key])


@criterion(4, "paired t-test matches the Student-t oracle")
def test_paired_t_oracle():
    res = paired_t_test(np.array([0.1, 0.05, 0.15, 0.1, 0.1]), np.zeros(5))
    assert res.df == 4
    assert abs(res.t - 6.3246) <= 1e-3
    assert abs(res.p - 0.0032) <= 2e-4
    sym = paired_t_test(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
    assert sym.t == 0.0
    assert sym.p == 1.0


@criterion(5, "analytic MLP gradient agrees with finite differences")
def test_mlp_gradient_check():
    eps = 1e-6
    worst = 0.0
    for draw in range(20):
        rng = np.random.default_rng(70_000 + draw)
        n, d, hidden = 10, 4, 5
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        theta = Mlp.init_params(d, hidden, rng)
        _, grad = loss_and_grad(theta, x, y, hidden)
        fd = np.zeros_like(theta)
        for k in range(theta.size):
            tp = theta.copy(); tp[k] += eps
            tm = theta.copy(); tm[k] -= eps
            lp, _ = loss_and_grad(tp, x, y, hidden)
            lm, _ = loss_and_grad(tm, x, y, hidden)
            fd[k] = (lp - lm) / (2.0 * eps)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4, worst


@pytest.fixture(scope="module")
def phantom_experiment(tmp_path_factory):
    """Full cohort run: generate, extract, real and shuffled arms, stats."""
    root = tmp_path_factory.mktemp("e2e")
    t0 = time.monotonic()
    assert cli_main(["phantom", "--n", "100", "--balance", "0.5",
                     "--seed", "0", "--out", str(root / "cohort")]) == 0
    assert cli_main(["extract",
                     "--manifest", str(root / "cohort" / "manifest.csv"),
                     "--out", str(root / "run")]) == 0

    cfg = root / "exp.cfg"
    cfg.write_text(
        "train_composition = noncontrast\n"
        "models = random_forest, gbt\n"
        "n_seeds = 10\n")
    common = ["--config", str(cfg),
              "--manifest", str(root / "cohort" / "manifest.csv"),
              "--features-csv", str(root / "run" / "features.csv"),
              "--seed", "0"]
    assert cli_main(["train-eval", *common, "--out", str(root / "real")]) == 0
    assert cli_main(["train-eval", *common, "--label-shuffle",
                     "--out", str(root / "null")]) == 0
    assert cli_main(["stats", str(root / "real" / "run_report.json"),
                     str(root / "null" / "run_report.json"),
                     "--out", str(root / "stats")]) == 0
    elapsed = time.monotonic() - t0
    real = json.loads((root / "real" / "run_report.json").read_text())
    stats = json.loads((root / "stats" / "stats.json").read_text())
    return {"root": root, "elapsed": elapsed, "real": real, "stats": stats}


@criterion(6, "phantom experiment separates classes and beats the null")
def test_end_to_end_phantom_experiment(phantom_experiment):
    exp = phantom_experiment
    for kind in ("random_forest", "gbt"):
        bals = [run["models"][kind]["metrics"]["balanced_accuracy"]
                for run in exp["real"]["runs"]]
        assert all(b is not None for b in bals)
        assert float(np.mean(bals)) >= 0.95, (kind, bals)
        for metric in ("accuracy", "f1"):
            block = exp["stats"]["results"][kind][metric]
            assert not block["zero_variance"]
            assert block["p"] < 0.05, (kind, metric, block)
    assert exp["elapsed"] < 300.0, f"end-to-end run took {exp['elapsed']:.0f}s"


def _strip_timing(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("timing", None)
    return doc


@criterion(7, "same master seed reproduces every artifact byte for byte")
def test_pipeline_determinism(tmp_path, monkeypatch):
    # two runs on two CPUs, one on one CPU: the same artifacts
    outputs = []
    for arm, cpus in (("first", 2), ("second", 2), ("one-cpu", 1)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        work = tmp_path / arm
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli_main(["phantom", "--n", "16", "--balance", "0.5",
                         "--seed", "11", "--out", "cohort"]) == 0
        assert cli_main(["extract", "--manifest", "cohort/manifest.csv",
                         "--out", "run"]) == 0
        assert cli_main(["train-eval", "--manifest", "cohort/manifest.csv",
                         "--features-csv", "run/features.csv",
                         "--models", "random_forest", "--n-seeds", "2",
                         "--seed", "5", "--out", "out"]) == 0
        outputs.append({
            "features": (work / "run" / "features.csv").read_bytes(),
            "metrics": (work / "out" / "metrics.csv").read_bytes(),
            "extract_report": _strip_timing(json.loads(
                (work / "run" / "extract_report.json").read_text())),
            "run_report": _strip_timing(json.loads(
                (work / "out" / "run_report.json").read_text())),
        })
    a = outputs[0]
    for b in outputs[1:]:
        assert a["features"] == b["features"]
        assert a["metrics"] == b["metrics"]
        assert a["extract_report"] == b["extract_report"]
        assert a["run_report"] == b["run_report"]


@criterion(8, "test-row perturbation leaves every fitted artifact unchanged")
def test_leakage_guard(tmp_path):
    from cacrad.config import RunConfig
    from cacrad.learn.split import stratified_split
    from cacrad.manifest import ContrastGroup
    from cacrad.pipeline import run_extract, run_train_eval

    manifest = Path(__import__("cacrad.phantom", fromlist=["generate_cohort"])
                    .generate_cohort(tmp_path / "cohort", 12, 0.5, seed=7,
                                     dims=(24, 24, 12)))
    run_extract(RunConfig(manifest=str(manifest), out=str(tmp_path / "run")))
    features = tmp_path / "run" / "features.csv"

    overrides = dict(
        models=("random_forest", "linear_svm", "mlp"),
        grid_overrides=(
            ("random_forest", (("n_trees", (20,)), ("max_depth", (4,)))),
            ("linear_svm", (("lam", (0.001,)), ("epochs", (10,)))),
            ("mlp", (("hidden_size", (4,)), ("learning_rate", (0.3,)), ("epochs", (50,)))),
        ),
        kfold=2, test_fraction=0.25, seed=3,
    )
    base = run_train_eval(RunConfig(manifest=str(manifest),
                                    features_csv=str(features),
                                    out=str(tmp_path / "base"), **overrides))
    test_subjects = set(base["runs"][0]["test_subjects"])
    assert test_subjects

    # rewrite the CSV with the held-out rows badly corrupted
    lines = features.read_text().splitlines()
    perturbed = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        if cells[0] in test_subjects:
            cells[1:] = [repr(float(v) * 3.7 + 123.0) for v in cells[1:]]
        perturbed.append(",".join(cells))
    features2 = tmp_path / "features_perturbed.csv"
    features2.write_text("\n".join(perturbed) + "\n")

    redo = run_train_eval(RunConfig(manifest=str(manifest),
                                    features_csv=str(features2),
                                    out=str(tmp_path / "redo"), **overrides))
    run_a, run_b = base["runs"][0], redo["runs"][0]
    assert run_a["test_subjects"] == run_b["test_subjects"]
    assert run_a["kept_features"] == run_b["kept_features"]
    for kind in overrides["models"]:
        assert (run_a["models"][kind]["fingerprint"]
                == run_b["models"][kind]["fingerprint"]), kind
        assert (run_a["models"][kind]["hyperparams"]
                == run_b["models"][kind]["hyperparams"])

    # the standardizer fitted on training rows is equally untouched
    cohort = load_manifest(manifest)
    fitted = []
    for path in (features, features2):
        ids, names, matrix = read_features_csv(path)
        table = attach_cohort(ids, names, matrix, cohort)
        train_rows, _ = stratified_split(table, 0.25, 3,
                                         test_group=ContrastGroup.NONCONTRAST)
        train_tbl = table.take_rows(train_rows)
        kept = correlation_filter(train_tbl, 0.90)
        assert kept
        fitted.append(Standardizer.fit(train_tbl.select_columns(kept).matrix))
    assert fitted[0].means.tobytes() == fitted[1].means.tobytes()
    assert fitted[0].sds.tobytes() == fitted[1].sds.tobytes()


@criterion(9, "volume io round-trips and parses identically across endianness")
def test_volume_io_invariants(tmp_path):
    rng = np.random.default_rng(90)
    vol = Volume3D(dims=(7, 5, 4), spacing=(0.7, 0.7, 1.3),
                   intensities=rng.normal(0.0, 300.0, size=(7, 5, 4)))
    for suffix in (".nii", ".nii.gz"):
        little = tmp_path / f"little{suffix}"
        big = tmp_path / f"big{suffix}"
        write_nifti(vol, little, dtype="float64", byteorder="<")
        write_nifti(vol, big, dtype="float64", byteorder=">")
        got_l = read_nifti(little)
        got_b = read_nifti(big)
        for got in (got_l, got_b):
            assert got.dims == vol.dims
            assert got.spacing == vol.spacing
            assert got.intensities.tobytes() == vol.intensities.tobytes()
        assert got_l.intensities.tobytes() == got_b.intensities.tobytes()
        assert got_l.spacing == got_b.spacing
