"""The parent-against-change scripts: the seed parser, argument checks
and side runner that scripts/bench.py shares with the others, sweep.py's
summary on hand-made reports, and one small roi_memory.py run; the
benchmark and the sweep themselves run outside the suite."""

import importlib
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def sweep(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module("sweep")


@pytest.fixture
def bench(monkeypatch):
    """scripts/bench.py, with export failing the test if anything calls it."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    module = importlib.import_module("bench")

    def export(rev, dest):
        pytest.fail(f"exported {rev} to {dest}")

    monkeypatch.setattr(module, "export", export)
    return module


def test_seeds_are_ranges_and_single_seeds_each_once(sweep):
    assert sweep.parse_seeds("1..3,127,2,1816510650") == [1, 2, 3, 127, 1816510650]
    assert sweep.parse_seeds("5") == [5]
    assert sweep.parse_seeds("4..4, 0") == [4, 0]


@pytest.mark.parametrize("text", ["", "3..1", "-1", "1..", "a", "1-3", "1..2..3"])
def test_malformed_seeds_are_refused(sweep, bench, text):
    with pytest.raises(ValueError):
        sweep.parse_seeds(text)
    with pytest.raises(SystemExit) as exc:
        sweep.main(["--seeds", text, "--out", "unused.json"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        bench.main(["--number", "x", "--seeds", f"cohort-experiment={text}"])
    assert exc.value.code == 2


@pytest.mark.parametrize("extra", [
    ["--seeds", "cohort-experiment=3..4"],
    ["--claim", "embeddings-wide:total_s"],
    ["--claim", "cohort-experiment:stage.extract_s"],
], ids=["seeds-twice", "claim-without-seeds", "claim-per-layer-metric"])
def test_bench_refuses_arguments_it_would_drop(bench, extra):
    with pytest.raises(SystemExit) as exc:
        bench.main(["--number", "x", "--seeds", "cohort-experiment=1..2", *extra])
    assert exc.value.code == 2


def test_run_in_returns_stdout_and_raises_with_the_stderr_tail(bench, tmp_path):
    assert bench.run_in(tmp_path, [sys.executable, "-c", "import os; print(os.getcwd())"]) \
        == f"{tmp_path}\n"
    with pytest.raises(RuntimeError, match="exited with 1:\nboom"):
        bench.run_in(tmp_path, [sys.executable, "-c", "import sys; sys.exit('boom')"])


def test_roi_memory_measures_the_parent_and_the_working_tree(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    roi_memory = importlib.import_module("roi_memory")
    assert roi_memory.main(["--n", "12", "--repeat", "1", "--parent", "HEAD"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for texture in roi_memory.TEXTURES:
        start = next(i for i, line in enumerate(lines) if f"{texture} levels" in line)
        block = lines[start + 1:start + 1 + len(roi_memory.KERNELS)]
        assert [line.split()[0] for line in block] == list(roi_memory.KERNELS)
        assert all("parent HEAD:" in line and "working tree:" in line for line in block)


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
