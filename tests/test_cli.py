import json

import pytest

from cacrad.cli import main
from cacrad.features.catalog import FEATURE_NAMES

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


def test_zero_test_fraction_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("test_fraction = 0\n")
    assert main(["train-eval", "--config", str(cfg), "--manifest", "x.csv",
                 "--out", str(tmp_path / "out")]) == 2
    assert "test_fraction" in capsys.readouterr().err
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


def test_phantom_bad_balance(tmp_path, capsys):
    assert main(["phantom", "--n", "4", "--balance", "2.0",
                 "--out", str(tmp_path / "x")]) == 2
    assert "config error" in capsys.readouterr().err
