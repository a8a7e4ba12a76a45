"""scripts/sweep.py's seed parser and its summary, on hand-made reports;
the sweep itself runs outside the suite."""

import importlib
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def sweep(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module("sweep")


def test_seeds_are_ranges_and_single_seeds_each_once(sweep):
    assert sweep.parse_seeds("1..3,127,2,1816510650") == [1, 2, 3, 127, 1816510650]
    assert sweep.parse_seeds("5") == [5]
    assert sweep.parse_seeds("4..4, 0") == [4, 0]


@pytest.mark.parametrize("text", ["", "3..1", "-1", "1..", "a", "1-3", "1..2..3"])
def test_malformed_seeds_are_refused(sweep, text):
    with pytest.raises(ValueError):
        sweep.parse_seeds(text)
    with pytest.raises(SystemExit) as exc:
        sweep.main(["--seeds", text, "--out", "unused.json"])
    assert exc.value.code == 2


def real_report(bal):
    """A run_report.json of runs whose balanced accuracies bal lists per model."""
    n_runs = len(next(iter(bal.values())))
    return {"models": list(bal),
            "runs": [{"models": {m: {"metrics": {"balanced_accuracy": b[i], "f1": 0.5}}
                                 for m, b in bal.items()}} for i in range(n_runs)]}


def stats(ps):
    return {"results": {m: {"accuracy": {"p": pa}, "f1": {"p": pf}}
                        for m, (pa, pf) in ps.items()}}


def test_cohort_record_takes_the_real_arm_mean_and_both_p(sweep):
    rec = sweep.cohort_record(real_report({"gbt": [1.0, 0.9, 0.95], "rf": [1.0, None, 1.0]}),
                              stats({"gbt": (0.001, 0.02), "rf": (None, 0.5)}))
    assert rec == {
        "gbt": {"balanced_accuracy": (1.0 + 0.9 + 0.95) / 3, "p_accuracy": 0.001,
                "p_f1": 0.02},
        "rf": {"balanced_accuracy": None, "p_accuracy": None, "p_f1": 0.5}}


def test_summary_counts_seeds_below_the_floor_and_where_sides_differ(sweep):
    def rec(bal, pa=0.001, pf=0.001):
        return {"balanced_accuracy": bal, "p_accuracy": pa, "p_f1": pf}

    parent = {1: {"gbt": rec(0.94), "rf": rec(1.0)},
              27: {"gbt": rec(0.94), "rf": rec(0.98)},
              3: {"gbt": rec(1.0, pf=0.05), "rf": rec(None)}}
    change = {1: {"gbt": rec(1.0), "rf": rec(1.0)},
              27: {"gbt": rec(0.95), "rf": rec(0.98)},
              3: {"gbt": rec(1.0, pa=None), "rf": rec(None)}}
    got = sweep.summarize({"parent": parent, "change": change})
    assert got["parent"]["gbt"] == {"below_0.95": [1, 27], "n_below_0.95": 2,
                                    "p_not_below_0.05": [3]}
    assert got["change"]["gbt"] == {"below_0.95": [], "n_below_0.95": 0,
                                    "p_not_below_0.05": [3]}
    for side in ("parent", "change"):
        assert got[side]["rf"] == {"below_0.95": [3], "n_below_0.95": 1,
                                   "p_not_below_0.05": []}
    assert got["differing_seeds"] == {"gbt": [1, 27, 3], "rf": []}
