import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cacrad
from cacrad.config import RunConfig, parse_config_text
from cacrad.errors import (
    ConfigError,
    IoFailure,
    LengthMismatch,
    SchemaMismatch,
    TooFewPairs,
    TooFewRows,
)
from cacrad.embeddings import write_embeddings
from cacrad.features import ExtractionConfig, extract_all
from cacrad.manifest import load_manifest
from cacrad.nifti import Volume3D, read_mask, read_nifti, write_nifti
from cacrad.phantom import DEFAULT_SPACING, generate_cohort
from cacrad.pipeline import run_extract, run_stats, run_train_eval
from cacrad.table import read_features_csv

SMALL_DIMS = (24, 24, 12)

SVM_ONLY = dict(
    models=("linear_svm",),
    grid_overrides=(("linear_svm", (("lam", (0.001,)), ("epochs", (10,)))),),
    kfold=2,
)


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    manifest = generate_cohort(root, 12, 0.5, seed=21, dims=SMALL_DIMS)
    return root, manifest


@pytest.fixture(scope="module")
def extracted(cohort):
    root, manifest = cohort
    out = root / "run"
    cfg = RunConfig(manifest=str(manifest), out=str(out))
    report = run_extract(cfg)
    return root, manifest, out, report


def test_extract_writes_features_and_report(extracted):
    root, manifest, out, report = extracted
    assert report["n_subjects"] == 12
    assert report["n_extracted"] == 12
    assert report["n_features"] == 107
    assert report["excluded"] == []
    lines = (out / "features.csv").read_text().splitlines()
    assert len(lines) == 13
    assert lines[0].startswith("subject_id,firstorder_10Percentile,")
    assert json.loads((out / "extract_report.json").read_text())["command"] == "extract"


def test_extract_skips_bad_subject_and_logs(cohort, tmp_path):
    root, manifest = cohort
    # copy the manifest with absolute paths, pointing one subject at a
    # corrupt volume
    lines = Path(manifest).read_text().splitlines()
    bad = tmp_path / "bad.nii"
    bad.write_bytes(b"not a nifti header")
    for k in range(1, len(lines)):
        cells = lines[k].split(",")
        cells[1] = str(root / cells[1])
        cells[2] = str(root / cells[2])
        lines[k] = ",".join(cells)
    cells = lines[1].split(",")
    victim = cells[0]
    cells[1] = str(bad)
    lines[1] = ",".join(cells)
    m2 = tmp_path / "manifest.csv"
    m2.write_text("\n".join(lines) + "\n")

    report = run_extract(RunConfig(manifest=str(m2), out=str(tmp_path / "out")))
    assert report["n_extracted"] == 11
    assert len(report["excluded"]) == 1
    assert report["excluded"][0]["subject_id"] == victim
    assert report["excluded"][0]["error"] in ("BadMagic", "TruncatedFile")


def _first_volume_edited(cohort, tmp_path, edit, dtype="float32"):
    """A copy of the cohort's manifest, with absolute paths, whose first
    subject's volume is replaced by one, stored as dtype, where
    edit(hu, roi_index) changed the intensities; and that subject's id."""
    root, manifest = cohort
    lines = Path(manifest).read_text().splitlines()
    for k in range(1, len(lines)):
        cells = lines[k].split(",")
        cells[1] = str(root / cells[1])
        cells[2] = str(root / cells[2])
        lines[k] = ",".join(cells)
    cells = lines[1].split(",")
    vol = read_nifti(cells[1])
    hu = vol.intensities.astype(np.float64)
    edit(hu, [tuple(p) for p in np.argwhere(read_nifti(cells[2]).intensities != 0)])
    edited = tmp_path / "edited.nii"
    write_nifti(Volume3D(dims=vol.dims, spacing=vol.spacing, intensities=hu), edited, dtype)
    cells[1] = str(edited)
    lines[1] = ",".join(cells)
    m2 = tmp_path / "manifest.csv"
    m2.write_text("\n".join(lines) + "\n")
    return m2, cells[0]


def test_extract_excludes_subject_with_too_many_gray_levels(cohort, tmp_path):
    def widen(hu, roi):
        # a 60000 HU spread at bin_width 25 gives 2401 levels: a 0.6 GiB GLCM
        hu[roi[0]], hu[roi[1]] = -30000.0, 30000.0
    m2, victim = _first_volume_edited(cohort, tmp_path, widen)

    out = tmp_path / "out"
    report = run_extract(RunConfig(manifest=str(m2), out=str(out)))
    assert report["n_extracted"] == 11
    assert [e["subject_id"] for e in report["excluded"]] == [victim]
    assert report["excluded"][0]["error"] == "TooManyGrayLevels"
    assert "2401 gray levels" in report["excluded"][0]["message"]
    assert sorted(p.name for p in out.iterdir()) == ["extract_report.json", "features.csv"]


@pytest.mark.parametrize("value, error", [(np.nan, "NonFiniteValue"), (np.inf, "NonFiniteValue"),
                                          (1e300, "TooManyGrayLevels")])
def test_extract_excludes_subject_whose_roi_intensities_have_no_usable_range(
        cohort, tmp_path, value, error):
    def spoil(hu, roi):
        hu[roi[0]] = value
    # float32 would store 1e300 as infinity
    m2, victim = _first_volume_edited(cohort, tmp_path, spoil, dtype="float64")
    report = run_extract(RunConfig(manifest=str(m2), out=str(tmp_path / "out")))
    assert report["n_extracted"] == 11
    assert [(e["subject_id"], e["error"]) for e in report["excluded"]] == [(victim, error)]


def test_a_fault_in_a_kernel_stops_extract_instead_of_excluding_subjects(
        cohort, tmp_path, monkeypatch):
    import cacrad.features

    def faulty(disc):
        raise ValueError("'list' argument must have no negative elements")

    root, manifest = cohort
    monkeypatch.setattr(cacrad.features, "compute_glszm", faulty)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="no negative elements"):
        run_extract(RunConfig(manifest=str(manifest), out=str(out)))
    assert not (out / "features.csv").exists()


def test_a_non_finite_feature_is_still_an_exclusion(cohort, tmp_path, monkeypatch):
    import cacrad.features

    root, manifest = cohort
    monkeypatch.setattr(cacrad.features, "glszm_features",
                        lambda m, real=cacrad.features.glszm_features: dict.fromkeys(
                            real(m), float("nan")))
    out = tmp_path / "out"
    with pytest.raises(TooFewRows, match="NonFiniteValue: non-finite feature values"):
        run_extract(RunConfig(manifest=str(manifest), out=str(out)))
    report = json.loads((out / "extract_report.json").read_text())
    assert [e["error"] for e in report["excluded"]] == ["NonFiniteValue"] * 12
    assert not (out / "features.csv").exists()


def test_extract_writes_utf8_in_an_ascii_locale(tmp_path):
    # the outputs were written in the locale's encoding, and stdout's lines
    # printed with it: a subject id that ASCII cannot hold ended extract in
    # a UnicodeEncodeError
    manifest = generate_cohort(tmp_path / "c", 4, 0.5, seed=5, dims=SMALL_DIMS)
    text = manifest.read_text(encoding="utf-8")
    for old, new in (("phantom_000", "phantöm_000"), ("phantom_001", "phantöm_001")):
        text = text.replace(f"\n{old},", f"\n{new},")
    manifest.write_text(text, encoding="utf-8")
    empty = Volume3D(dims=SMALL_DIMS, spacing=DEFAULT_SPACING, intensities=np.zeros(SMALL_DIMS))
    write_nifti(empty, manifest.parent / "masks" / "phantom_001_mask.nii.gz", dtype="int16")
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONIO"))}
    env.update(LC_ALL="POSIX", PYTHONUTF8="0", PYTHONPATH=str(Path(cacrad.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "cacrad.cli", "extract",
                           "--manifest", str(manifest), "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert read_features_csv(tmp_path / "o" / "features.csv")[0] == (
        "phantom_002", "phantom_003", "phantöm_000")
    assert proc.stdout.decode("ascii").splitlines()[1:] == [
        "excluded phant\\xf6m_001: EmptyMask: mask selects no voxels"]


def _fail_writing(monkeypatch, name):
    """Make cacrad.pipeline's atomic writes of the file called name fail."""
    import cacrad.pipeline
    write = cacrad.pipeline.write_atomic

    def failing(path, data):
        if Path(path).name == name:
            raise IoFailure(f"cannot write {path}: disk full")
        write(path, data)
    monkeypatch.setattr(cacrad.pipeline, "write_atomic", failing)


def test_extract_leaves_no_earlier_report_beside_a_new_table(extracted, tmp_path, monkeypatch):
    root, manifest, first, _ = extracted
    out = tmp_path / "out"
    shutil.copytree(first, out)
    cfg = RunConfig(manifest=str(manifest), out=str(out), bin_width=50.0)
    _fail_writing(monkeypatch, "extract_report.json")
    with pytest.raises(IoFailure):
        run_extract(cfg)
    assert not (out / "extract_report.json").exists()
    assert (out / "features.csv").read_bytes() != (first / "features.csv").read_bytes()


def test_a_bad_setting_made_in_code_is_a_config_error_before_any_output_is_cleared(
        extracted, tmp_path):
    # a RunConfig built in code went unchecked: bin_width = 0 cleared the
    # outputs, excluded every subject as NonPositiveWidth and raised TooFewRows
    root, manifest, first, _ = extracted
    out = tmp_path / "out"
    shutil.copytree(first, out)
    with pytest.raises(ConfigError, match="bin_width"):
        run_extract(RunConfig(manifest=str(manifest), out=str(out), bin_width=0))
    for name in ("features.csv", "extract_report.json"):
        assert (out / name).read_bytes() == (first / name).read_bytes()


def test_train_eval_leaves_no_earlier_metrics_beside_a_new_report(extracted, tmp_path,
                                                                  monkeypatch):
    root, manifest, features, _ = extracted
    out = tmp_path / "out"
    cfg = dict(manifest=str(manifest), out=str(out),
               features_csv=str(features / "features.csv"), **SVM_ONLY)
    run_train_eval(RunConfig(seed=1, **cfg))
    first = (out / "run_report.json").read_text()
    _fail_writing(monkeypatch, "metrics.csv")
    with pytest.raises(IoFailure):
        run_train_eval(RunConfig(seed=2, **cfg))
    assert not (out / "metrics.csv").exists()
    assert (out / "run_report.json").read_text() != first


def test_extract_all_failed_is_fatal(tmp_path):
    bad = tmp_path / "bad.nii"
    bad.write_bytes(b"junk")
    m = tmp_path / "manifest.csv"
    m.write_text("subject_id,volume,mask,contrast,cac_score\n"
                 f"s1,{bad},{bad},contrast,0\n")
    with pytest.raises(TooFewRows):
        run_extract(RunConfig(manifest=str(m), out=str(tmp_path / "out")))


def test_extract_excludes_a_mask_on_another_grid_also_when_resampling(tmp_path):
    # at 4 mm both the 10^3 and the 9^3 grid of 1 mm voxels round to 2^3,
    # so a dims check after resampling would let the mask through
    rng = np.random.default_rng(22)
    rows = []
    for sid, mask_dims in (("same", (10, 10, 10)), ("other", (9, 9, 9))):
        vol, mask = tmp_path / f"{sid}_vol.nii", tmp_path / f"{sid}_mask.nii"
        write_nifti(Volume3D(dims=(10, 10, 10), spacing=(1.0, 1.0, 1.0),
                             intensities=rng.normal(40.0, 60.0, (10, 10, 10))), vol)
        write_nifti(Volume3D(dims=mask_dims, spacing=(1.0, 1.0, 1.0),
                             intensities=np.ones(mask_dims)), mask)
        rows.append(f"{sid},{vol},{mask},contrast,0\n")
    m = tmp_path / "manifest.csv"
    m.write_text("subject_id,volume,mask,contrast,cac_score\n" + "".join(rows))
    report = run_extract(RunConfig(manifest=str(m), out=str(tmp_path / "out"),
                                   resample_spacing=(4.0, 4.0, 4.0)))
    assert report["n_extracted"] == 1
    [exclusion] = report["excluded"]
    assert exclusion["subject_id"] == "other" and exclusion["error"] == "DimMismatch"


@pytest.mark.parametrize("n_bins", [6, None])
def test_extract_passes_every_extraction_setting(cohort, tmp_path, n_bins):
    root, manifest = cohort
    # n_bins, when set, makes bin_width unused, so the None case checks bin_width
    want = ExtractionConfig(bin_width=10.0, n_bins=n_bins, resample_spacing=(0.6, 0.6, 1.2),
                            glcm_distance=2, gldm_alpha=1)
    for f in fields(ExtractionConfig):
        assert getattr(RunConfig(), f.name) == f.default
    cfg = parse_config_text(f"manifest = {manifest}\nout = {tmp_path}\nbin_width = 10\n"
                            f"n_bins = {n_bins}\nresample_spacing = 0.6, 0.6, 1.2\n"
                            "glcm_distance = 2\ngldm_alpha = 1\n")
    report = run_extract(cfg)
    assert report["n_extracted"] == 12
    ids, _, matrix = read_features_csv(tmp_path / "features.csv")
    entries = {e.subject_id: e for e in load_manifest(manifest)}
    for sid, row in zip(ids, matrix):
        vol, mask = read_nifti(entries[sid].volume_path), read_mask(entries[sid].mask_path)
        assert row.tobytes() == extract_all(vol, mask, want).tobytes()


def test_extract_requires_manifest(tmp_path):
    with pytest.raises(ConfigError):
        run_extract(RunConfig(out=str(tmp_path)))


def test_train_eval_report_and_metrics_csv(extracted):
    root, manifest, out, _ = extracted
    cfg = RunConfig(manifest=str(manifest), out=str(out), seed=3,
                    test_fraction=0.25, **SVM_ONLY)
    report = run_train_eval(cfg)
    assert report["command"] == "train-eval"
    assert report["seeds"] == [3]
    run = report["runs"][0]
    assert run["n_train"] + run["n_test"] == 12
    block = run["models"]["linear_svm"]
    assert set(block) == {"hyperparams", "cv_mean_scores", "confusion",
                          "metrics", "fingerprint"}
    assert len(block["fingerprint"]) == 64
    assert run["n_features_kept"] == len(run["kept_features"]) > 0
    # every kept feature exists in the catalog ordering
    assert all(k.split("_")[0] in
               ("firstorder", "shape", "glcm", "glrlm", "glszm", "gldm", "ngtdm")
               for k in run["kept_features"])

    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == ("model,seed,accuracy,balanced_accuracy,sensitivity,"
                        "specificity,ppv,f1,npv")
    assert len(lines) == 2
    assert lines[1].startswith("linear_svm,3,")


def test_train_eval_multi_seed_rows(extracted, tmp_path):
    root, manifest, out, _ = extracted
    cfg = RunConfig(manifest=str(manifest), out=str(tmp_path / "ms"),
                    features_csv=str(out / "features.csv"),
                    seed=5, n_seeds=3, test_fraction=0.25, **SVM_ONLY)
    report = run_train_eval(cfg)
    assert len(report["seeds"]) == 3
    assert len(set(report["seeds"])) == 3
    lines = (tmp_path / "ms" / "metrics.csv").read_text().splitlines()
    assert len(lines) == 4


def test_train_eval_noncontrast_composition_drops_contrast_rows(extracted, tmp_path):
    root, manifest, out, _ = extracted
    base = dict(manifest=str(manifest), features_csv=str(out / "features.csv"),
                seed=2, test_fraction=0.25, **SVM_ONLY)
    mixed = run_train_eval(RunConfig(out=str(tmp_path / "mixed"), **base))
    nc = run_train_eval(RunConfig(out=str(tmp_path / "nc"),
                                  train_composition="noncontrast", **base))
    run_m, run_n = mixed["runs"][0], nc["runs"][0]
    # 6 of 12 subjects are contrast-tagged and leave the training pool
    assert run_n["n_train"] == run_m["n_train"] - 6
    # the held-out subjects are the same noncontrast draw in both arms
    assert run_m["test_subjects"] == run_n["test_subjects"]


def test_train_eval_label_shuffle_flag(extracted, tmp_path):
    root, manifest, out, _ = extracted
    base = dict(manifest=str(manifest), features_csv=str(out / "features.csv"),
                seed=4, n_seeds=4, test_fraction=0.5, **SVM_ONLY)
    real = run_train_eval(RunConfig(out=str(tmp_path / "real"), **base))
    null = run_train_eval(RunConfig(out=str(tmp_path / "null"),
                                    label_shuffle=True, **base))
    assert real["label_shuffle"] is False
    assert null["label_shuffle"] is True
    assert real["seeds"] == null["seeds"]
    fp_real = real["runs"][0]["models"]["linear_svm"]["fingerprint"]
    fp_null = null["runs"][0]["models"]["linear_svm"]["fingerprint"]
    assert fp_real != fp_null

    # the two arms feed straight into the paired test
    stats = run_stats(tmp_path / "real" / "run_report.json",
                      tmp_path / "null" / "run_report.json",
                      out_dir=tmp_path / "stats")
    block = stats["results"]["linear_svm"]
    assert set(block) == {"accuracy", "f1"}
    for metric in block.values():
        assert metric["n_pairs"] >= 2
        assert metric["df"] == metric["n_pairs"] - 1
        if not metric["zero_variance"]:
            assert 0.0 <= metric["p"] <= 1.0
    assert stats["lines"][0].startswith("linear_svm: accuracy: p")
    assert (tmp_path / "stats" / "stats.json").exists()


def test_stats_seed_mismatch(extracted, tmp_path):
    root, manifest, out, _ = extracted
    base = dict(manifest=str(manifest), features_csv=str(out / "features.csv"),
                test_fraction=0.25, n_seeds=2, **SVM_ONLY)
    run_train_eval(RunConfig(out=str(tmp_path / "a"), seed=1, **base))
    run_train_eval(RunConfig(out=str(tmp_path / "b"), seed=2, **base))
    with pytest.raises(LengthMismatch):
        run_stats(tmp_path / "a" / "run_report.json",
                  tmp_path / "b" / "run_report.json")


def test_stats_single_pair_rejected(extracted, tmp_path):
    root, manifest, out, _ = extracted
    base = dict(manifest=str(manifest), features_csv=str(out / "features.csv"),
                test_fraction=0.25, seed=6, **SVM_ONLY)
    run_train_eval(RunConfig(out=str(tmp_path / "a"), **base))
    run_train_eval(RunConfig(out=str(tmp_path / "b"), label_shuffle=True, **base))
    with pytest.raises(TooFewPairs):
        run_stats(tmp_path / "a" / "run_report.json",
                  tmp_path / "b" / "run_report.json")


def test_stats_schema_errors(extracted, tmp_path):
    root, manifest, out, _ = extracted
    with pytest.raises(SchemaMismatch):
        run_stats(tmp_path / "missing.json", tmp_path / "missing.json")

    notjson = tmp_path / "x.json"
    notjson.write_text("{broken")
    with pytest.raises(SchemaMismatch):
        run_stats(notjson, notjson)

    wrong = tmp_path / "w.json"
    wrong.write_text(json.dumps({"command": "extract"}))
    with pytest.raises(SchemaMismatch):
        run_stats(wrong, wrong)

    # two valid reports with disjoint model sets share nothing to compare
    base = dict(manifest=str(manifest), features_csv=str(out / "features.csv"),
                test_fraction=0.25, seed=8, n_seeds=2, **SVM_ONLY)
    run_train_eval(RunConfig(out=str(tmp_path / "a"), **base))
    doc = json.loads((tmp_path / "a" / "run_report.json").read_text())
    doc["models"] = ["mlp"]
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    with pytest.raises(SchemaMismatch):
        run_stats(tmp_path / "a" / "run_report.json", other)


def test_embeddings_mode(cohort, tmp_path):
    root, manifest = cohort
    entries = load_manifest(manifest)
    ids = [e.subject_id for e in entries]
    rng = np.random.default_rng(0)
    # informative coordinates plus a ghost row absent from the manifest
    from cacrad.manifest import CacLabel

    y = np.array([1.0 if e.cac_label is CacLabel.NONZERO else 0.0 for e in entries])
    mat = rng.normal(size=(len(ids), 4))
    mat[:, 0] += 3.0 * y
    emb_path = tmp_path / "deep_pool.csv"
    write_embeddings(emb_path, list(ids) + ["ghost"],
                     np.vstack([mat, rng.normal(size=(1, 4))]))

    cfg = RunConfig(manifest=str(manifest), out=str(tmp_path / "emb_out"),
                    mode="embeddings", embeddings_csv=str(emb_path),
                    seed=1, test_fraction=0.25, **SVM_ONLY)
    report = run_train_eval(cfg)
    assert report["provenance"] == "deep_pool-4"
    assert report["coverage"]["n_used"] == 12
    assert report["coverage"]["n_embedding_rows"] == 13
    # default embeddings path keeps every dimension
    assert report["runs"][0]["kept_features"] == ["e0", "e1", "e2", "e3"]

    with pytest.raises(ConfigError):
        run_train_eval(RunConfig(manifest=str(manifest), mode="embeddings",
                                 out=str(tmp_path / "x"), **SVM_ONLY))


def test_embeddings_mode_filter_drops_near_duplicate_columns(cohort, tmp_path):
    root, manifest = cohort
    ids = [e.subject_id for e in load_manifest(manifest)]
    rng = np.random.default_rng(3)
    base = rng.normal(size=(len(ids), 2))
    noise = 1e-3 * rng.normal(size=(len(ids), 2))
    # e1 nearly doubles e0 and e3 nearly negates e2: |r| > 0.99 on any split
    mat = np.column_stack([base[:, 0], 2.0 * base[:, 0] + noise[:, 0],
                           base[:, 1], -base[:, 1] + noise[:, 1]])
    emb_path = tmp_path / "deep_pool.csv"
    write_embeddings(emb_path, list(ids), mat)

    models = ("linear_svm", "random_forest")
    cfg = RunConfig(manifest=str(manifest), out=str(tmp_path / "emb_out"),
                    mode="embeddings", embeddings_csv=str(emb_path),
                    filter_embeddings=True, seed=1, n_seeds=2, test_fraction=0.25,
                    models=models, kfold=2,
                    grid_overrides=SVM_ONLY["grid_overrides"] + (
                        ("random_forest", (("n_trees", (5,)), ("max_depth", (2,)))),))
    report = run_train_eval(cfg)
    assert len(report["runs"]) == 2
    for run in report["runs"]:
        assert run["kept_features"] == ["e0", "e2"]
        assert run["n_features_kept"] == 2
        assert sorted(run["models"]) == sorted(models)
    lines = (tmp_path / "emb_out" / "metrics.csv").read_text().splitlines()
    assert sorted(line.split(",")[:2] for line in lines[1:]) == sorted(
        [kind, str(seed)] for seed in report["seeds"] for kind in models)


def test_embeddings_rows_follow_the_manifest(cohort, tmp_path):
    root, manifest = cohort
    ids = [e.subject_id for e in load_manifest(manifest)] + ["ghost0", "ghost1"]
    mat = np.random.default_rng(4).normal(size=(len(ids), 3))
    shuffled = np.random.default_rng(5).permutation(len(ids))
    assert list(shuffled[shuffled < 12]) != list(range(12))
    runs = []
    # both orders at the same paths, so the reports' config texts match too
    emb_path, out = tmp_path / "emb.csv", tmp_path / "out"
    for order in (np.arange(len(ids)), shuffled):
        write_embeddings(emb_path, [ids[k] for k in order], mat[order])
        run_train_eval(RunConfig(manifest=str(manifest), out=str(out), mode="embeddings",
                                 embeddings_csv=str(emb_path), seed=2, n_seeds=2,
                                 test_fraction=0.25, **SVM_ONLY))
        runs.append(((out / "metrics.csv").read_bytes(),
                     json.dumps(_strip_timing(out / "run_report.json"), sort_keys=True)))
    assert runs[0] == runs[1]
    assert '"n_embedding_rows": 14' in runs[0][1] and '"provenance": "emb-3"' in runs[0][1]


def _strip_timing(path):
    doc = json.loads(Path(path).read_text())
    doc.pop("timing")
    return doc


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_extract_is_byte_identical_on_one_and_two_cpus(cohort, tmp_path, monkeypatch):
    root, manifest = cohort
    lines = Path(manifest).read_text().splitlines()
    rows = sorted((line.split(",") for line in lines[1:]), key=lambda cells: cells[0])
    for cells in rows:
        cells[1], cells[2] = str(root / cells[1]), str(root / cells[2])
    (tmp_path / "bad.nii").write_bytes(b"not a nifti header")
    rows[1][2] = str(tmp_path / "bad.nii")  # excluded in the second stripe of two
    m2 = tmp_path / "manifest.csv"
    m2.write_text("\n".join([lines[0]] + [",".join(c) for c in rows]) + "\n")

    out, runs = tmp_path / "out", []
    for n in (1, 2):
        _cpus(monkeypatch, n)
        shutil.rmtree(out, ignore_errors=True)
        report = run_extract(RunConfig(manifest=str(m2), out=str(out)))
        runs.append(((out / "features.csv").read_bytes(),
                     _strip_timing(out / "extract_report.json")))
    assert runs[0] == runs[1]
    assert [e["subject_id"] for e in report["excluded"]] == [rows[1][0]]
    assert report["n_extracted"] == 11


def test_train_eval_is_byte_identical_on_one_and_two_cpus(extracted, tmp_path, monkeypatch):
    root, manifest, features, _ = extracted
    out, runs = tmp_path / "out", []
    for n in (1, 2):
        _cpus(monkeypatch, n)
        shutil.rmtree(out, ignore_errors=True)
        run_train_eval(RunConfig(
            manifest=str(manifest), out=str(out), features_csv=str(features / "features.csv"),
            seed=5, n_seeds=3, test_fraction=0.25, models=("linear_svm", "random_forest"),
            grid_overrides=SVM_ONLY["grid_overrides"] + (
                ("random_forest", (("n_trees", (5,)), ("max_depth", (2,)))),),
            kfold=2))
        runs.append(((out / "metrics.csv").read_bytes(),
                     _strip_timing(out / "run_report.json")))
    assert runs[0] == runs[1]
    assert len(runs[0][1]["runs"]) == 3


def test_degenerate_seed_in_second_stripe_exits_4_with_the_same_message(
        extracted, tmp_path, monkeypatch, capsys):
    import cacrad.pipeline
    from cacrad.cli import main as cli_main
    from cacrad.errors import TooFewPerClass
    from cacrad.rng import derive_seed

    root, manifest, features, _ = extracted
    split = cacrad.pipeline.stratified_split

    def degenerate_second_seed(table, fraction, seed, **kw):
        if seed == derive_seed(5, "run", 1):
            raise TooFewPerClass(f"seed {seed}: class 1 has 1 row, need at least 2")
        return split(table, fraction, seed, **kw)

    monkeypatch.setattr(cacrad.pipeline, "stratified_split", degenerate_second_seed)
    cfg = tmp_path / "svm.cfg"
    cfg.write_text("kfold = 2\ngrid.linear_svm.lam = 0.001\ngrid.linear_svm.epochs = 10\n")
    errors = []
    for n in (1, 2):
        _cpus(monkeypatch, n)
        rc = cli_main(["train-eval", "--config", str(cfg), "--manifest", str(manifest),
                       "--features-csv", str(features / "features.csv"),
                       "--models", "linear_svm", "--seed", "5", "--n-seeds", "3",
                       "--out", str(tmp_path / "out")])
        errors.append((rc, capsys.readouterr().err))
    assert errors[0] == errors[1]
    assert errors[0][0] == 4 and "class 1 has 1 row" in errors[0][1]
    # the output paths are checked, and so the directory made, before any seed
    assert list((tmp_path / "out").iterdir()) == []
