import argparse
import contextlib
import csv
import io
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cacrad import phantom, pipeline
from cacrad.cli import _build_parser, _config_from_args, main
from cacrad.config import _FIELD_PARSERS, parse_config_text
from cacrad.errors import ConfigError
from cacrad.embeddings import write_embeddings
from cacrad.features.catalog import FEATURE_NAMES
from cacrad.learn.grid import MAX_COUNT
from cacrad.nifti import read_nifti, write_nifti
from cacrad.rng import MAX_SEED
from cacrad.table import read_features_csv, write_features_csv

SMALL_ARGS = None  # phantom subcommand uses default full-size volumes


@pytest.fixture(scope="module")
def cli_cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_cohort")
    rc = main(["phantom", "--n", "12", "--balance", "0.5",
               "--seed", "3", "--out", str(root)])
    assert rc == 0
    return root


def test_phantom_and_extract_roundtrip(cli_cohort, capsys):
    out = cli_cohort / "run"
    rc = main(["extract", "--manifest", str(cli_cohort / "manifest.csv"),
               "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "extracted 12/12 subjects" in stdout
    lines = (out / "features.csv").read_text().splitlines()
    assert len(lines) == 13
    assert lines[0] == "subject_id," + ",".join(FEATURE_NAMES)


def test_train_eval_and_stats_flow(cli_cohort, tmp_path, capsys):
    features = str(cli_cohort / "run" / "features.csv")
    if not (cli_cohort / "run" / "features.csv").exists():
        assert main(["extract", "--manifest", str(cli_cohort / "manifest.csv"),
                     "--out", str(cli_cohort / "run")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "models = linear_svm\n"
        "kfold = 2\n"
        "test_fraction = 0.5\n"
        "n_seeds = 3\n"
        "grid.linear_svm.lam = 0.001\n"
        "grid.linear_svm.epochs = 10\n")

    rc = main(["train-eval", "--config", str(cfg),
               "--manifest", str(cli_cohort / "manifest.csv"),
               "--features-csv", features,
               "--seed", "7", "--out", str(tmp_path / "real")])
    assert rc == 0
    rc = main(["train-eval", "--config", str(cfg),
               "--manifest", str(cli_cohort / "manifest.csv"),
               "--features-csv", features,
               "--seed", "7", "--label-shuffle",
               "--out", str(tmp_path / "null")])
    assert rc == 0
    capsys.readouterr()

    rc = main(["stats", str(tmp_path / "real" / "run_report.json"),
               str(tmp_path / "null" / "run_report.json"),
               "--out", str(tmp_path / "stats")])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("linear_svm: accuracy: p")
    assert (tmp_path / "stats" / "stats.json").exists()

    doc = json.loads((tmp_path / "real" / "run_report.json").read_text())
    assert doc["models"] == ["linear_svm"]
    assert len(doc["seeds"]) == 3


def test_stats_requires_the_same_test_subjects(cli_cohort, tmp_path, capsys):
    # a manifest out of id order: embeddings rows follow it, radiomics rows
    # follow subject ids, so the two reports list their test subjects in
    # different orders
    features = cli_cohort / "run" / "features.csv"
    if not features.exists():
        assert main(["extract", "--manifest", str(cli_cohort / "manifest.csv"),
                     "--out", str(cli_cohort / "run")]) == 0
    lines = (cli_cohort / "manifest.csv").read_text().splitlines()
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
    ids = [line.split(",")[0] for line in lines[:0:-1]]
    feature_ids, _, matrix = read_features_csv(features)
    write_embeddings(tmp_path / "emb.csv", ids, matrix[[feature_ids.index(s) for s in ids]])
    common = ("models = linear_svm\nkfold = 2\ntest_fraction = 0.5\nn_seeds = 2\n"
              "grid.linear_svm.lam = 0.001\ngrid.linear_svm.epochs = 10\n")
    for arm, text in (("rad", f"features_csv = {features}\n"),
                      ("emb", f"mode = embeddings\nembeddings_csv = {tmp_path / 'emb.csv'}\n")):
        (tmp_path / f"{arm}.cfg").write_text(common + text)
        assert main(["train-eval", "--config", str(tmp_path / f"{arm}.cfg"),
                     "--manifest", str(manifest), "--seed", "5",
                     "--out", str(tmp_path / arm)]) == 0
    rad, emb = (tmp_path / arm / "run_report.json" for arm in ("rad", "emb"))
    run_a, run_b = (json.loads(path.read_text())["runs"][1] for path in (rad, emb))
    assert run_a["test_subjects"] != run_b["test_subjects"]
    assert sorted(run_a["test_subjects"]) == sorted(run_b["test_subjects"])
    assert main(["stats", str(rad), str(emb)]) == 0

    # one test subject of one run replaced: the runs are no longer paired
    doc = json.loads(rad.read_text())
    tested = doc["runs"][1]["test_subjects"]
    tested[0] = next(s for s in ids if s not in tested)
    unpaired = tmp_path / "unpaired.json"
    unpaired.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["stats", str(unpaired), str(emb)]) == 3
    assert "tested different subjects" in capsys.readouterr().err


def test_stats_refuses_a_report_without_a_key_it_reads(cli_cohort, tmp_path, capsys):
    features = cli_cohort / "run" / "features.csv"
    if not features.exists():
        assert main(["extract", "--manifest", str(cli_cohort / "manifest.csv"),
                     "--out", str(cli_cohort / "run")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("models = gbt\nkfold = 2\ntest_fraction = 0.5\nn_seeds = 2\n"
                   "grid.gbt.n_rounds = 3\n")
    assert main(["train-eval", "--config", str(cfg),
                 "--manifest", str(cli_cohort / "manifest.csv"),
                 "--features-csv", str(features), "--seed", "4",
                 "--out", str(tmp_path / "run")]) == 0
    report = tmp_path / "run" / "run_report.json"
    capsys.readouterr()
    no_metrics = json.loads(report.read_text())
    del no_metrics["runs"][1]["models"]["gbt"]["metrics"]
    no_subjects = json.loads(report.read_text())
    for run in no_subjects["runs"]:
        del run["test_subjects"]
    for name, broken, key in (("no_metrics", no_metrics, "'metrics'"),
                              ("no_subjects", no_subjects, "'test_subjects'")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(broken))
        for pair in ((path, report), (report, path)):
            assert main(["stats", *map(str, pair), "--out", str(tmp_path / name)]) == 3
            err = capsys.readouterr().err
            assert str(path) in err and key in err
        assert not (tmp_path / name / "stats.json").exists()
    assert main(["stats", str(report), str(report), "--out", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / "stats.json").exists()


def test_stats_refuses_a_report_whose_values_it_cannot_use(cli_cohort, tmp_path, capsys):
    # such reports used to yield a p-value, or a degenerate cohort of 1 pair
    features = cli_cohort / "run" / "features.csv"
    if not features.exists():
        assert main(["extract", "--manifest", str(cli_cohort / "manifest.csv"),
                     "--out", str(cli_cohort / "run")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("models = gbt\nkfold = 2\ntest_fraction = 0.5\nn_seeds = 2\n"
                   "grid.gbt.n_rounds = 3\n")
    assert main(["train-eval", "--config", str(cfg),
                 "--manifest", str(cli_cohort / "manifest.csv"),
                 "--features-csv", str(features), "--seed", "4",
                 "--out", str(tmp_path / "run")]) == 0
    report = tmp_path / "run" / "run_report.json"
    capsys.readouterr()

    def broken(edit):
        doc = json.loads(report.read_text())
        edit(doc)
        return doc

    def metric(value):
        return lambda doc: doc["runs"][1]["models"]["gbt"]["metrics"].update(accuracy=value)

    cases = {
        "string": (metric("0.9"), "runs[1].models.gbt.metrics.accuracy is '0.9'"),
        "bool": (metric(True), "runs[1].models.gbt.metrics.accuracy is True"),
        "nan": (metric(float("nan")), "runs[1].models.gbt.metrics.accuracy is nan"),
        "dropped": (lambda doc: doc["runs"].pop(), "runs has 1 entries for 2 seeds"),
        "swapped": (lambda doc: doc["runs"].reverse(), "runs[0].seed is not seeds[0]"),
        # these three used to end in a TypeError traceback
        "models": (lambda doc: doc.update(models=5), "models is 5, not a list of"),
        "subjects": (lambda doc: doc["runs"][0].update(test_subjects=5),
                     "runs[0].test_subjects is not a list of subject ids"),
        "mixed ids": (lambda doc: doc["runs"][1].update(test_subjects=[1, "a"]),
                      "runs[1].test_subjects is not a list of subject ids"),
    }
    for name, (edit, where) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(broken(edit)))
        for pair in ((path, report), (report, path)):
            assert main(["stats", *map(str, pair)]) == 3, name
            err = capsys.readouterr().err
            assert f"data error: {path}: {where}" in err, (name, err)
    # a null metric is a pair the paired test skips, not a malformed report
    path = tmp_path / "null.json"
    path.write_text(json.dumps(broken(metric(None))))
    assert main(["stats", str(path), str(report)]) == 4
    assert "gbt/accuracy: 1 usable pairs" in capsys.readouterr().err


def test_an_empty_test_split_or_training_pool_exits_4_before_any_model_trains(
        cli_cohort, tmp_path, capsys, monkeypatch):
    # these used to end in a numpy traceback, or in a data error after training
    features = cli_cohort / "run" / "features.csv"
    if not features.exists():
        assert main(["extract", "--manifest", str(cli_cohort / "manifest.csv"),
                     "--out", str(cli_cohort / "run")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(pipeline, "train_with_grid", no_work)
    # every subject contrast-tagged: the non-contrast pool tests and, for a
    # non-contrast composition, trains no subject
    lines = (cli_cohort / "manifest.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    column = lines[0].split(",").index("contrast")
    for row in rows:
        row[column] = "contrast"
    contrast_only = tmp_path / "manifest.csv"
    contrast_only.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    # 5 % of each class of the normal cohort's non-contrast pool rounds to no subject
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text("test_fraction = 0.05\n")
    for manifest, args, message in (
            (contrast_only, ["--train-composition", "noncontrast"], "training pool is empty"),
            (contrast_only, ["--train-composition", "mixed"], "0 Zero and 0 NonZero"),
            (cli_cohort / "manifest.csv", ["--config", str(tiny)], "test_fraction = 0.05")):
        out = tmp_path / "out"
        assert main(["train-eval", "--manifest", str(manifest), "--features-csv",
                     str(features), "--out", str(out), *args]) == 4, message
        err = capsys.readouterr().err
        assert "degenerate cohort" in err and message in err, err
        assert not (out / "run_report.json").exists()


def test_extract_makes_the_features_csv_directory(cli_cohort, tmp_path, capsys):
    table = tmp_path / "tables" / "new" / "features.csv"
    assert main(["extract", "--manifest", str(cli_cohort / "manifest.csv"),
                 "--out", str(tmp_path / "run"), "--features-csv", str(table)]) == 0
    assert f"-> {table}" in capsys.readouterr().out
    assert len(read_features_csv(table)[0]) == 12
    report = json.loads((tmp_path / "run" / "extract_report.json").read_text())
    assert report["features_csv"] == str(table)


def test_extract_to_an_unwritable_table_exits_3_before_any_work(cli_cohort, tmp_path,
                                                                capsys, monkeypatch):
    # extraction used to run to its end and then fail in a traceback
    def extraction_started(*args):
        raise AssertionError("extraction started")

    monkeypatch.setattr(pipeline, "map_ordered", extraction_started)
    (tmp_path / "file").write_text("x")
    (tmp_path / "dir").mkdir()
    for table in (tmp_path / "file" / "features.csv", tmp_path / "dir"):
        assert main(["extract", "--manifest", str(cli_cohort / "manifest.csv"),
                     "--out", str(tmp_path / "run"), "--features-csv", str(table)]) == 3
        assert f"data error: cannot write {table}" in capsys.readouterr().err
    assert not (tmp_path / "run" / "extract_report.json").exists()


def no_work(*args):
    raise AssertionError("work started")


def test_phantom_under_a_regular_file_exits_3_before_any_subject(tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.setattr(phantom, "map_ordered", no_work)
    (tmp_path / "file").write_text("x")
    out = tmp_path / "file" / "x"
    assert main(["phantom", "--n", "3", "--out", str(out)]) == 3
    assert f"data error: cannot write {out / 'manifest.csv'}" in capsys.readouterr().err


def test_train_eval_under_a_regular_file_exits_3_before_any_seed(cli_cohort, tmp_path,
                                                                 capsys, monkeypatch):
    # every seed used to be trained before the report's directory was made
    features = cli_cohort / "run" / "features.csv"
    if not features.exists():
        assert main(["extract", "--manifest", str(cli_cohort / "manifest.csv"),
                     "--out", str(cli_cohort / "run")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(pipeline, "map_ordered", no_work)
    (tmp_path / "file").write_text("x")
    out = tmp_path / "file" / "x"
    assert main(["train-eval", "--manifest", str(cli_cohort / "manifest.csv"),
                 "--features-csv", str(features), "--out", str(out)]) == 3
    assert f"data error: cannot write {out / 'run_report.json'}" in capsys.readouterr().err


def test_stats_under_a_regular_file_exits_3_before_reading_a_report(tmp_path, capsys,
                                                                    monkeypatch):
    monkeypatch.setattr(pipeline, "_load_report", no_work)
    (tmp_path / "file").write_text("x")
    out = tmp_path / "file" / "s"
    report = str(tmp_path / "run_report.json")
    assert main(["stats", report, report, "--out", str(out)]) == 3
    assert f"data error: cannot write {out / 'stats.json'}" in capsys.readouterr().err


def test_catalog_lists_all_features(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in FEATURE_NAMES:
        assert name in out


def test_exit_code_config_error(tmp_path, capsys):
    # missing config file
    assert main(["extract", "--config", str(tmp_path / "nope.cfg")]) == 2
    # no manifest given at all
    assert main(["extract", "--out", str(tmp_path)]) == 2
    # unknown key in the config file
    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate = 1\n")
    assert main(["extract", "--config", str(bad)]) == 2
    # unknown model kind via the flag
    assert main(["train-eval", "--manifest", "x.csv",
                 "--models", "xgboost"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_absurd_run_counts_exit_2_before_any_work(tmp_path, capsys):
    # --n-seeds 10^11 used to derive seeds forever; kfold 10^9 to allocate
    # a billion fold lists
    assert main(["train-eval", "--manifest", "x.csv", "--n-seeds", "100000000000",
                 "--out", str(tmp_path / "seeds")]) == 2
    assert "n_seeds" in capsys.readouterr().err
    cfg = tmp_path / "kfold.cfg"
    cfg.write_text("kfold = 1000000000\n")
    assert main(["train-eval", "--config", str(cfg), "--manifest", "x.csv",
                 "--out", str(tmp_path / "kfold")]) == 2
    assert "kfold" in capsys.readouterr().err
    assert not (tmp_path / "seeds").exists() and not (tmp_path / "kfold").exists()
    # phantom --n 10^9 used to build a billion path pairs before any bound
    assert main(["phantom", "--n", str(MAX_COUNT + 1), "--out", str(tmp_path / "cohort")]) == 2
    assert "subjects" in capsys.readouterr().err
    assert not (tmp_path / "cohort").exists()


def test_repeated_config_entries_exit_2_before_any_work(tmp_path, capsys):
    # each used to let the last value win, and gbt,gbt wrote every gbt row twice
    assert main(["train-eval", "--manifest", "x.csv", "--models", "gbt,gbt",
                 "--out", str(tmp_path / "flag")]) == 2
    assert "models" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    for text, said in (("models = gbt,gbt\n", "line 1: bad value for models"),
                       ("seed = 1\nseed = 2\n", "line 2: seed is already set on line 1"),
                       ("grid.gbt.max_depth = 2\ngrid.gbt.max_depth = 3\n",
                        "line 2: grid.gbt.max_depth is already set on line 1")):
        cfg.write_text(text)
        assert main(["train-eval", "--config", str(cfg), "--manifest", "x.csv",
                     "--out", str(tmp_path / "file")]) == 2
        assert said in capsys.readouterr().err
    assert not (tmp_path / "flag").exists() and not (tmp_path / "file").exists()


def test_zero_test_fraction_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("test_fraction = 0\n")
    assert main(["train-eval", "--config", str(cfg), "--manifest", "x.csv",
                 "--out", str(tmp_path / "out")]) == 2
    assert "test_fraction" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", [
    "grid.random_forest.bootstrap = 0.5", "grid.linear_svm.lam = true",
    "grid.mlp.learning_rate = true", "grid.gbt.learning_rate = false",
    "grid.linear_svm.lam = nan", "grid.mlp.learning_rate = nan",
    "grid.gbt.learning_rate = nan", "grid.random_forest.bootstrap = nan"])
def test_wrong_kind_hyperparameter_is_a_config_error(tmp_path, capsys, line):
    # a wrong kind used to train a model other than the one reported
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(line + "\n")
    assert main(["train-eval", "--config", str(cfg), "--manifest", "x.csv",
                 "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_code_data_error(tmp_path, capsys):
    assert main(["extract", "--manifest", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path)]) == 3
    assert "data error" in capsys.readouterr().err
    assert main(["stats", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 3


def test_exit_code_degenerate_cohort(tmp_path, capsys):
    # single-class cohort cannot be split
    root = tmp_path / "allzero"
    assert main(["phantom", "--n", "4", "--balance", "0.0",
                 "--seed", "0", "--out", str(root)]) == 0
    assert main(["extract", "--manifest", str(root / "manifest.csv"),
                 "--out", str(root / "run")]) == 0
    capsys.readouterr()
    rc = main(["train-eval", "--manifest", str(root / "manifest.csv"),
               "--features-csv", str(root / "run" / "features.csv"),
               "--models", "linear_svm",
               "--out", str(root / "run")])
    assert rc == 4
    assert "degenerate cohort" in capsys.readouterr().err


def test_oversized_resample_spacing_excludes_the_subject(tmp_path, capsys):
    root = tmp_path / "cohort"
    assert main(["phantom", "--n", "4", "--balance", "0.5",
                 "--seed", "0", "--out", str(root)]) == 0
    # one volume spans 100 times the others' extent: resampled to their
    # spacing it would hold 54G voxels
    with open(root / "manifest.csv", newline="") as fh:
        big = next(csv.DictReader(fh))
    vol = read_nifti(root / big["volume"])
    write_nifti(replace(vol, spacing=tuple(100 * s for s in vol.spacing)),
                root / big["volume"], dtype="int16")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("resample_spacing = 0.49, 0.49, 1.41\n")
    capsys.readouterr()
    assert main(["extract", "--config", str(cfg), "--manifest", str(root / "manifest.csv"),
                 "--out", str(tmp_path / "run")]) == 0
    assert f"excluded {big['subject_id']}: BadSpacing" in capsys.readouterr().out
    report = json.loads((tmp_path / "run" / "extract_report.json").read_text())
    assert report["n_extracted"] == 3
    [exclusion] = report["excluded"]
    assert exclusion["subject_id"] == big["subject_id"]
    assert exclusion["error"] == "BadSpacing" and "voxels" in exclusion["message"]
    # with every subject refused, extract ends as a degenerate cohort (exit
    # 4) and names the first reason; an earlier run's table in the same
    # --out is removed, so no later train-eval reads it
    assert main(["extract", "--manifest", str(root / "manifest.csv"),
                 "--out", str(tmp_path / "fine")]) == 0
    assert (tmp_path / "fine" / "features.csv").exists()
    cfg.write_text("resample_spacing = 0.01, 0.01, 0.01\n")
    assert main(["extract", "--config", str(cfg), "--manifest", str(root / "manifest.csv"),
                 "--out", str(tmp_path / "fine")]) == 4
    err = capsys.readouterr().err
    assert "degenerate cohort" in err and "BadSpacing" in err
    # the report still lists every reason, and no features.csv is written
    report = json.loads((tmp_path / "fine" / "extract_report.json").read_text())
    assert report["n_extracted"] == 0 and report["features_csv"] is None
    assert [e["error"] for e in report["excluded"]] == ["BadSpacing"] * 4
    assert not (tmp_path / "fine" / "features.csv").exists()


def test_a_glcm_distance_past_every_roi_extracts_the_no_pair_glcm_values(
        cli_cohort, tmp_path, capsys):
    """A distance longer than every ROI's box pairs no voxels: no padding
    of that width is built, and each GLCM column takes its value for a
    matrix without pairs."""
    cfg = tmp_path / "far.cfg"
    cfg.write_text("glcm_distance = 1000000\n")
    assert main(["extract", "--config", str(cfg), "--manifest", str(cli_cohort / "manifest.csv"),
                 "--out", str(tmp_path / "run")]) == 0
    assert "extracted 12/12 subjects" in capsys.readouterr().out
    _, names, values = read_features_csv(tmp_path / "run" / "features.csv")
    glcm = [(name, values[:, k]) for k, name in enumerate(names) if name.startswith("glcm_")]
    assert len(glcm) == 24
    for name, column in glcm:
        want = 1.0 if name in ("glcm_Correlation", "glcm_MCC") else 0.0
        assert (column == want).all(), name


def test_phantom_bad_balance(tmp_path, capsys):
    assert main(["phantom", "--n", "4", "--balance", "2.0",
                 "--out", str(tmp_path / "x")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(MAX_SEED + 1)])
def test_a_seed_outside_64_bits_exits_2_before_any_output_is_cleared(
        cli_cohort, finished, tmp_path, capsys, seed):
    # a seed kept only its low 64 bits: --seed -1 wrote the cohort of
    # --seed 2^64 - 1, and --seed 2^64 that of --seed 0
    cohort, out = tmp_path / "cohort", tmp_path / "run"
    assert main(["phantom", "--n", "2", "--seed", "0", "--out", str(cohort)]) == 0
    out.mkdir()
    for name in ("features.csv", "extract_report.json"):
        shutil.copy(finished / name, out / name)
    before = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    capsys.readouterr()
    assert main(["phantom", "--n", "2", "--seed", seed, "--out", str(cohort)]) == 2
    assert main(["extract", "--manifest", str(cli_cohort / "manifest.csv"),
                 "--seed", seed, "--out", str(out)]) == 2
    assert capsys.readouterr().err.count(f"seed must be from 0 to {MAX_SEED}, got {seed}") == 2
    assert {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()} == before


def test_both_ends_of_the_seed_range_run(tmp_path):
    for seed in ("0", str(MAX_SEED)):
        assert main(["phantom", "--n", "2", "--seed", seed, "--out", str(tmp_path / seed)]) == 0
        assert _from_flags(["extract", "--seed", seed]).seed == int(seed)
    assert (tmp_path / "0" / "volumes" / "phantom_000_vol.nii.gz").read_bytes() != (
        tmp_path / str(MAX_SEED) / "volumes" / "phantom_000_vol.nii.gz").read_bytes()


FAST_SVM = ("models = linear_svm\nkfold = 2\ntest_fraction = 0.5\nn_seeds = 2\n"
            "grid.linear_svm.lam = 0.001\ngrid.linear_svm.epochs = 10\n")


def _features(cli_cohort):
    features = cli_cohort / "run" / "features.csv"
    if not features.exists():
        assert main(["extract", "--manifest", str(cli_cohort / "manifest.csv"),
                     "--out", str(cli_cohort / "run")]) == 0
    return features


@pytest.fixture(scope="module")
def finished(cli_cohort, tmp_path_factory):
    """A directory with an earlier successful run of each command in it:
    features.csv and extract_report.json, the real/ and null/ train-eval
    arms, and the stats.json between them."""
    root = tmp_path_factory.mktemp("finished")
    _features(cli_cohort)
    shutil.copytree(cli_cohort / "run", root, dirs_exist_ok=True)
    cfg = root / "fast.cfg"
    cfg.write_text(FAST_SVM)
    for arm, flags in (("real", []), ("null", ["--label-shuffle"])):
        assert main(["train-eval", "--config", str(cfg),
                     "--manifest", str(cli_cohort / "manifest.csv"),
                     "--features-csv", str(root / "features.csv"),
                     "--out", str(root / arm), *flags]) == 0
    assert main(["stats", str(root / "real" / "run_report.json"),
                 str(root / "null" / "run_report.json"), "--out", str(root)]) == 0
    return root


def test_a_failed_train_eval_leaves_no_earlier_report_for_stats(cli_cohort, finished,
                                                               tmp_path, capsys):
    # the earlier run's report and metrics.csv used to stay, and stats read them
    out = tmp_path / "real"
    shutil.copytree(finished / "real", out)
    with open(cli_cohort / "manifest.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    one_class = tmp_path / "manifest.csv"
    with open(one_class, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows({**row, "cac_score": "0"} for row in rows)
    assert main(["train-eval", "--config", str(finished / "fast.cfg"),
                 "--manifest", str(one_class), "--features-csv",
                 str(finished / "features.csv"), "--out", str(out)]) == 4
    assert not (out / "run_report.json").exists()
    assert not (out / "metrics.csv").exists()
    capsys.readouterr()
    assert main(["stats", str(out / "run_report.json"),
                 str(finished / "null" / "run_report.json")]) == 3
    assert "report not found" in capsys.readouterr().err


def test_a_failed_extract_leaves_no_earlier_table(cli_cohort, finished, tmp_path, capsys):
    # the earlier run's features.csv used to stay, and train-eval read it
    out = tmp_path / "run"
    out.mkdir()
    for name in ("features.csv", "extract_report.json"):
        shutil.copy(finished / name, out / name)
    # the manifest's relative volume paths name no file beside this copy
    manifest = tmp_path / "manifest.csv"
    shutil.copy(cli_cohort / "manifest.csv", manifest)
    assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 3
    assert "does not exist" in capsys.readouterr().err
    assert not (out / "features.csv").exists()
    assert not (out / "extract_report.json").exists()


def test_a_failed_stats_leaves_no_earlier_stats_json(finished, tmp_path, capsys):
    shutil.copy(finished / "stats.json", tmp_path / "stats.json")
    malformed = tmp_path / "run_report.json"
    malformed.write_text("{")
    assert main(["stats", str(malformed), str(finished / "null" / "run_report.json"),
                 "--out", str(tmp_path)]) == 3
    assert "not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "stats.json").exists()


@pytest.mark.parametrize("kind", ["random_forest", "gbt", "linear_svm", "mlp"])
def test_no_feature_column_to_train_on_exits_4(cli_cohort, tmp_path, capsys, kind):
    # random_forest and gbt used to end in a numpy traceback, linear_svm and
    # mlp to fit and score bias-only models
    manifest = str(cli_cohort / "manifest.csv")
    with open(manifest, newline="") as fh:
        ids = [row["subject_id"] for row in csv.DictReader(fh)]
    constant = tmp_path / "constant.csv"
    write_features_csv(constant, ids, ["c"], np.ones((len(ids), 1)))
    bare = tmp_path / "bare.csv"
    bare.write_text("subject_id\n" + "".join(f"{s}\n" for s in ids))
    for table in (["--features-csv", str(constant)], ["--features-csv", str(bare)],
                  ["--mode", "embeddings", "--embeddings-csv", str(bare)]):
        out = tmp_path / "out"
        assert main(["train-eval", "--manifest", manifest, "--models", kind,
                     "--out", str(out), *table]) == 4, table
        assert "degenerate cohort: seed 0: no feature column" in capsys.readouterr().err
        assert not (out / "run_report.json").exists()


def test_flags_parse_as_their_config_lines(cli_cohort, finished, tmp_path, capsys):
    # --features-csv none and --embeddings-csv none used to read a file
    # named none, and --models "" to train all four kinds
    manifest = str(cli_cohort / "manifest.csv")
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(finished / "features.csv", out / "features.csv")
    runs = []
    for text, flags in (
            (FAST_SVM + "features_csv = none\n", []),
            (FAST_SVM, ["--features-csv", "none"]),
            # the flag wins over the file, and unsets its path
            (FAST_SVM + f"features_csv = {tmp_path / 'missing.csv'}\n",
             ["--features-csv", "none"])):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["train-eval", "--config", str(cfg), "--manifest", manifest,
                     "--out", str(out), *flags]) == 0, flags
        runs.append((out / "metrics.csv").read_bytes())
    assert runs[0] == runs[1] == runs[2]
    capsys.readouterr()

    for line, flags, said in (
            ("embeddings_csv = none\n", ["--embeddings-csv", "none"],
             "mode = embeddings needs embeddings_csv"),
            ("models =\n", ["--models", ""], "models must name some of")):
        cfg = tmp_path / "line.cfg"
        cfg.write_text(line)
        for argv in (["--config", str(cfg)], flags):
            assert main(["train-eval", "--manifest", manifest, "--mode", "embeddings",
                         "--out", str(tmp_path / "refused"), *argv]) == 2, argv
            assert said in capsys.readouterr().err
    assert main(["train-eval", "--manifest", manifest, "--seed", "x",
                 "--out", str(tmp_path / "refused")]) == 2
    assert "config error: bad value for --seed: 'x'" in capsys.readouterr().err


def test_a_path_that_is_an_input_and_an_output_exits_2_before_any_removal(
        cli_cohort, finished, tmp_path, capsys, monkeypatch):
    # the manifest used to be deleted (exit 3), the report to overwrite the
    # table (exit 0), and the train-eval input to be deleted (exit 3)
    monkeypatch.setattr(pipeline, "map_ordered", no_work)
    monkeypatch.setattr(pipeline, "_load_report", no_work)
    c, o = tmp_path / "c", tmp_path / "o"
    c.mkdir()
    shutil.copytree(finished, o)
    shutil.copy(cli_cohort / "manifest.csv", c / "manifest.csv")
    manifest = str(c / "manifest.csv")
    for argv, kept, flags in (
            (["extract", "--manifest", manifest, "--features-csv", manifest,
              "--out", str(o)], c / "manifest.csv", "--features-csv and --manifest"),
            (["extract", "--manifest", manifest, "--features-csv",
              str(o / "extract_report.json"), "--out", str(o)],
             o / "extract_report.json", "--out and --features-csv"),
            (["train-eval", "--manifest", manifest, "--features-csv",
              str(o / "real" / "run_report.json"), "--out", str(o / "real")],
             o / "real" / "run_report.json", "--out and --features-csv"),
            (["train-eval", "--manifest", str(o / "real" / "metrics.csv"),
              "--out", str(o / "real")], o / "real" / "metrics.csv", "--out and --manifest"),
            (["stats", str(o / "stats.json"), str(o / "null" / "run_report.json"),
              "--out", str(o)], o / "stats.json", "--out and report_a")):
        before = {p: p.read_bytes() for p in (c / "manifest.csv", *o.rglob("*.*"))}
        assert kept in before
        assert main(argv) == 2, argv
        assert f"config error: {flags} name the same file: {kept}" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in (c / "manifest.csv", *o.rglob("*.*"))} == before


def assert_refused_before_any_removal(root, capsys, cases):
    """Each (argv, kept, flags) exits 2 naming both flags and kept, and
    every file under root stays as it was."""
    for argv, kept, flags in cases:
        before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        assert kept in before
        assert main(argv) == 2, argv
        assert f"config error: {flags} name the same file: {kept}" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before


def test_an_output_that_is_a_listed_volume_or_mask_exits_2(
        cli_cohort, tmp_path, capsys, monkeypatch):
    # the volume and the mask used to be deleted (exit 3)
    monkeypatch.setattr(pipeline, "map_ordered", no_work)
    shutil.copy(cli_cohort / "manifest.csv", tmp_path / "manifest.csv")
    for folder in ("volumes", "masks"):
        shutil.copytree(cli_cohort / folder, tmp_path / folder)
    manifest = str(tmp_path / "manifest.csv")
    vol = tmp_path / "volumes" / "phantom_000_vol.nii.gz"
    mask = tmp_path / "masks" / "phantom_003_mask.nii.gz"
    assert_refused_before_any_removal(tmp_path, capsys, (
        (["extract", "--manifest", manifest, "--features-csv", str(vol),
          "--out", str(tmp_path / "o")],
         vol, "--features-csv and the volume of phantom_000 in --manifest"),
        (["extract", "--manifest", manifest, "--out", str(mask.parent),
          "--features-csv", str(mask)],
         mask, "--features-csv and the mask of phantom_003 in --manifest")))


def test_an_output_that_is_the_config_file_exits_2(cli_cohort, tmp_path, capsys, monkeypatch):
    # the config file used to be deleted (exit 3)
    monkeypatch.setattr(pipeline, "map_ordered", no_work)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\n")
    (tmp_path / "t").mkdir()
    shutil.copy(cfg, tmp_path / "t" / "metrics.csv")
    assert_refused_before_any_removal(tmp_path, capsys, (
        (["extract", "--config", str(cfg), "--manifest", str(tmp_path / "missing.csv"),
          "--features-csv", str(cfg), "--out", str(tmp_path / "o2")],
         cfg, "--features-csv and --config"),
        (["train-eval", "--config", str(tmp_path / "t" / "metrics.csv"),
          "--manifest", str(cli_cohort / "manifest.csv"), "--out", str(tmp_path / "t")],
         tmp_path / "t" / "metrics.csv", "--out and --config")))


def test_an_extract_whose_manifest_cannot_be_read_leaves_no_earlier_table(
        finished, tmp_path, capsys):
    out = tmp_path / "run"
    unparsable = tmp_path / "manifest.csv"
    unparsable.write_text("subject,volume\n")
    for manifest, said in ((unparsable, "expected header"),
                           (tmp_path / "missing.csv", "No such file")):
        out.mkdir(exist_ok=True)
        for name in ("features.csv", "extract_report.json"):
            shutil.copy(finished / name, out / name)
        assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 3
        assert said in capsys.readouterr().err
        assert not (out / "features.csv").exists()
        assert not (out / "extract_report.json").exists()


def _from_flags(argv):
    return _config_from_args(_build_parser().parse_args(argv))


def _run_options():
    """(command, flag, dest, action) of each option of extract and
    train-eval but --help and --config."""
    [sub] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [(command, a.option_strings[-1], a.dest, a)
            for command in ("extract", "train-eval") for a in sub.choices[command]._actions
            if a.dest not in ("help", "config")]


_TEXT_OPTIONS = [option for option in _run_options() if option[3].nargs != 0]


def test_every_run_flag_is_a_config_key():
    assert {command for command, _, _, _ in _run_options()} == {"extract", "train-eval"}
    for command, flag, dest, _ in _run_options():
        assert dest in _FIELD_PARSERS, (command, flag)
    assert _from_flags(["train-eval", "--label-shuffle"]) == parse_config_text(
        "label_shuffle = true\n")


def _result(make):
    """What make returns, or the message of the ConfigError it raises."""
    try:
        return make()
    except ConfigError as exc:
        return str(exc)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(option=st.sampled_from(_TEXT_OPTIONS),
       text=(st.sampled_from(["", " ", "none", "None", "0", "1", "-1", " 7 ", "1e3", "x",
                              "radiomics", " embeddings", "noncontrast", "gbt", "gbt,gbt",
                              " random_forest , mlp ", "1" * 5000, "a = b"])
             | st.text(max_size=12)).filter(
                 lambda t: "#" not in t and "".join(t.splitlines()) == t))
@example(option=next(o for o in _TEXT_OPTIONS if o[2] == "out"), text=" elsewhere ")
@example(option=next(o for o in _TEXT_OPTIONS if o[2] == "n_seeds"), text="0")
def test_a_flag_gives_what_its_config_line_gives(option, text):
    command, flag, dest, action = option
    line = _result(lambda: parse_config_text(f"{dest} = {text}\n"))
    argv = [command, f"{flag}={text}"]
    if action.choices is not None and text not in action.choices:
        with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv)
        assert exc.value.code == 2
        return
    got = _result(lambda: _from_flags(argv))
    if isinstance(line, str) and line.startswith(f"line 1: bad value for {dest}: "):
        assert got == f"bad value for {flag}: {text!r}"
    else:
        assert got == line


def test_a_flag_leaves_the_other_config_lines_as_they_are(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\n")
    got = _from_flags(["train-eval", "--config", str(cfg), "--out", "elsewhere"])
    assert got.seed == 5
    assert got.out == "elsewhere"
    assert parse_config_text(got.text()) == got
    assert {"seed = 5", "out = elsewhere"} <= set(got.text().splitlines())


def test_the_report_says_the_seed_a_flag_gave(cli_cohort, finished, tmp_path):
    # the report's config text was the file's, seed = 0, for a run of seed 5
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_SVM + "seed = 0\n")
    assert main(["train-eval", "--config", str(cfg), "--seed", "5",
                 "--manifest", str(cli_cohort / "manifest.csv"),
                 "--features-csv", str(finished / "features.csv"),
                 "--out", str(tmp_path / "out")]) == 0
    lines = json.loads((tmp_path / "out" / "run_report.json").read_text())[
        "config_text"].splitlines()
    assert "seed = 5" in lines and "seed = 0" not in lines


def _artifacts(root):
    """Every file under root, a JSON report without its timing."""
    return {str(p.relative_to(root)): (json.loads(p.read_text()) | {"timing": None}
                                       if p.suffix == ".json" else p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_each_report_reruns_its_run_from_its_config_text(tmp_path):
    # the benchmark's cohort chain, its settings given as flags: each
    # report's config_text, as the only setting, rewrites every artifact
    cohort, run = tmp_path / "cohort", tmp_path / "run"
    phantom.generate_cohort(cohort, 16, 0.5, seed=9, dims=(24, 24, 12))
    grid = tmp_path / "grid.cfg"
    grid.write_text("seed = 0\nkfold = 2\n"
                    "grid.random_forest.n_trees = 5, 10\n"
                    "grid.random_forest.max_depth = 4, none\n"
                    "grid.gbt.n_rounds = 5, 10\ngrid.gbt.max_depth = 2\n")
    train = ["train-eval", "--config", str(grid), "--manifest", str(cohort / "manifest.csv"),
             "--features-csv", str(run / "features.csv"), "--seed", "7",
             "--train-composition", "noncontrast", "--n-seeds", "2",
             "--models", "random_forest,gbt"]
    stages = [("extract_report.json", ["extract", "--manifest", str(cohort / "manifest.csv"),
                                       "--out", str(run)]),
              ("real/run_report.json", train + ["--out", str(run / "real")]),
              ("null/run_report.json", train + ["--out", str(run / "null"),
                                                "--label-shuffle"])]
    for k, (report, argv) in enumerate(stages):
        assert main(argv) == 0, argv
        first = _artifacts(run)
        config = tmp_path / f"rerun{k}.cfg"
        config.write_text(json.loads((run / report).read_text())["config_text"])
        assert main([argv[0], "--config", str(config)]) == 0, argv
        assert _artifacts(run) == first, argv
    assert sorted(first) == ["extract_report.json", "features.csv", "null/metrics.csv",
                             "null/run_report.json", "real/metrics.csv", "real/run_report.json"]

