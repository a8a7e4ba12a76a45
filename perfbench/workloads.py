"""The three workloads: the CLI calls each repeat makes, and the output
checks each repeat must pass.

A repeat issues the same argv a user would type, in-process, through
``cacrad.cli.main``, and times each call. Every call, subject, trained
(seed, model) block and output check is one operation; a nonzero exit
code, an excluded subject, a missing block or a failed check is one
failure. Outcomes of the experiment that do not make an output wrong,
such as criterion 6 missing its thresholds on a cohort, are reported
beside the result and not counted as failures.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import sys
import time
import traceback
from pathlib import Path

COHORT_SEEDS = 10
COHORT_MODELS = ("random_forest", "gbt")
EMB_SEEDS = 2
EMB_MODELS = ("linear_svm", "mlp", "random_forest")
N_FEATURES = 107
SEPARATION_FLOOR = 0.80  # see check_cohort
METRIC_COLUMNS = ("accuracy", "balanced_accuracy", "sensitivity", "specificity",
                  "ppv", "f1", "npv")


class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.outcomes = []  # (what, met) of experiment outcomes, per repeat

    def count(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(what)

    def op(self, ok, what):
        self.count(1, 0 if ok else 1, what)
        return ok

    def outcome(self, met, what):
        self.outcomes.append((what, met))


def call(argv, tally, calibrate=None):
    """Run one cacrad command in-process.

    Returns (wall seconds, seconds at reference speed or None, exit code);
    the second needs a calibrate module.
    """
    from cacrad.cli import main

    def run():
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this call; the benchmark goes on
            traceback.print_exc(file=sys.stderr)
            return 1

    if calibrate:
        seconds, reference, rc = calibrate.timed(run)
    else:
        start = time.perf_counter()
        rc = run()
        seconds, reference = time.perf_counter() - start, None
    tally.op(rc == 0, f"cacrad {argv[0]} exited with {rc}")
    return seconds, reference, rc


# -- chains ---------------------------------------------------------------

def cohort_stages(inputs, run, seed):
    manifest = str(inputs / "manifest.csv")
    train = ["train-eval", "--config", str(inputs / "grid.cfg"), "--manifest", manifest,
             "--features-csv", str(run / "features.csv"), "--seed", str(seed),
             "--train-composition", "noncontrast", "--n-seeds", str(COHORT_SEEDS),
             "--models", ",".join(COHORT_MODELS)]
    return [
        ("extract_s", ["extract", "--manifest", manifest, "--out", str(run)]),
        ("train_real_s", train + ["--out", str(run / "real")]),
        ("train_null_s", train + ["--out", str(run / "null"), "--label-shuffle"]),
        ("stats_s", ["stats", str(run / "real" / "run_report.json"),
                     str(run / "null" / "run_report.json"), "--out", str(run / "stats")]),
    ]


def large_stages(inputs, run, seed):
    return [("extract_s", ["extract", "--manifest", str(inputs / "manifest.csv"),
                           "--out", str(run)])]


def embeddings_stages(inputs, run, seed):
    return [("train_eval_s", [
        "train-eval", "--config", str(inputs / "train.cfg"),
        "--manifest", str(inputs / "manifest.csv"), "--mode", "embeddings",
        "--embeddings-csv", str(inputs / "embeddings.csv"), "--seed", str(seed),
        "--train-composition", "mixed", "--n-seeds", str(EMB_SEEDS),
        "--models", ",".join(EMB_MODELS), "--out", str(run / "emb")])]


# -- checks ---------------------------------------------------------------

def _load(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def _check_extract(run, tally):
    report = _load(run / "extract_report.json")
    if report is None:
        tally.op(False, "extract_report.json missing")
        return
    n = report["n_subjects"]
    tally.count(n, len(report["excluded"]), f"excluded subjects: {report['excluded']}")
    with open(run / "features.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    values = [r[1:] for r in rows[1:]]
    ok = (len(values) == n and all(len(v) == N_FEATURES for v in values)
          and all(math.isfinite(float(x)) for v in values for x in v))
    tally.op(ok, f"features.csv is not {n} rows of {N_FEATURES} finite values")


def _check_blocks(report_path, metrics_path, n_seeds, models, tally):
    """Every (seed, model) block in the report and row in metrics.csv."""
    report = _load(report_path)
    runs = report["runs"] if report else []
    present = sum(1 for r in runs for m in models if m in r.get("models", {}))
    want = n_seeds * len(models)
    tally.count(want, want - min(present, want),
                f"{report_path}: {present}/{want} (seed, model) blocks")
    rows = {}
    if Path(metrics_path).exists():
        with open(metrics_path, newline="") as fh:
            rows = {(r["model"], r["seed"]): r for r in csv.DictReader(fh)}
    for seed in (report["seeds"] if report else []):
        for model in models:
            tally.op((model, str(seed)) in rows, f"metrics.csv lacks {model}/{seed}")
    return report, rows


def _ratio(num, den):
    return num / den if den else None


def expected_metrics(c):
    """The metric panel of confusion counts c, recomputed from its definitions."""
    tp, fn, fp, tn = c["tp"], c["fn"], c["fp"], c["tn"]
    sens, spec = _ratio(tp, tp + fn), _ratio(tn, tn + fp)
    ppv, npv = _ratio(tp, tp + fp), _ratio(tn, tn + fn)
    f1 = (2 * ppv * sens / (ppv + sens)
          if ppv is not None and sens is not None and ppv + sens > 0 else None)
    return {"accuracy": (tp + tn) / (tp + fn + fp + tn),
            "balanced_accuracy": ((sens + spec) / 2
                                  if sens is not None and spec is not None else None),
            "sensitivity": sens, "specificity": spec, "ppv": ppv, "f1": f1, "npv": npv}


def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def _check_scores(report, rows, labels, models, tally):
    """Each block's confusion counts add up to its test subjects' labels, and
    its metrics, in the report and in metrics.csv, follow from the counts."""
    for run in (report or {}).get("runs", []):
        positives = sum(labels[s] for s in run["test_subjects"])
        for model in models:
            block = run["models"].get(model)
            if block is None:
                continue  # counted as missing by _check_blocks
            c = block["confusion"]
            tally.op(c["tp"] + c["fn"] == positives
                     and c["fp"] + c["tn"] == len(run["test_subjects"]) - positives,
                     f"{model}/{run['seed']}: confusion {c} does not match the test labels")
            want = expected_metrics(c)
            row = rows.get((model, str(run["seed"])), {})
            cells = {k: (None if row.get(k) in (None, "-") else float(row[k]))
                     for k in METRIC_COLUMNS}
            tally.op(all(_same(block["metrics"][k], want[k]) and _same(cells[k], want[k])
                         for k in METRIC_COLUMNS),
                     f"{model}/{run['seed']}: metrics do not follow from {c}")


def t_two_sided_p(t, df):
    """P(|T| >= |t|) for Student-t, by Gauss-Legendre quadrature of the
    incomplete beta integral I_x(df/2, 1/2), x = df / (df + t^2); an oracle
    independent of the program's continued fraction."""
    import numpy as np
    a, x = df / 2.0, df / (df + t * t)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    w, weights = (nodes + 1.0) / 2.0, weights / 2.0  # onto [0, 1]
    beta = math.exp(math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5))
    # u = x w^2 (or u = y w^2) removes the endpoint singularity of u^(a-1)
    if x <= 0.5:
        return x ** a * 2.0 * float(weights @ (w ** (df - 1) / np.sqrt(1.0 - x * w * w))) / beta
    y = 1.0 - x
    return 1.0 - y ** 0.5 * 2.0 * float(weights @ (1.0 - y * w * w) ** (a - 1.0)) / beta


def _check_stats(stats, real, null, models, tally):
    """Each t-test of stats.json is the paired t-test of the two arms."""
    for model in models:
        for metric in ("accuracy", "f1"):
            pairs = [(a["models"][model]["metrics"][metric],
                      b["models"][model]["metrics"][metric])
                     for a, b in zip((real or {}).get("runs", []),
                                     (null or {}).get("runs", []))
                     if model in a["models"] and model in b["models"]]
            diffs = [a - b for a, b in pairs if a is not None and b is not None]
            got = stats.get("results", {}).get(model, {}).get(metric)
            if got is None or len(diffs) < 2:
                tally.op(False, f"stats.json lacks {model}/{metric}")
                continue
            n = len(diffs)
            mean = sum(diffs) / n
            sd = math.sqrt(sum((d - mean) ** 2 for d in diffs) / (n - 1))
            if got["zero_variance"]:
                ok = len(set(diffs)) == 1 and got["p"] is None
            else:
                t = mean / (sd / math.sqrt(n))
                ok = (got["n_pairs"] == n and got["df"] == n - 1
                      and math.isclose(got["t"], t, rel_tol=1e-9)
                      and math.isclose(got["p"], t_two_sided_p(t, n - 1), rel_tol=1e-9))
            tally.op(ok, f"stats.json {model}/{metric} {got} is not the paired t-test")


def _labels(inputs):
    with open(inputs / "manifest.csv", newline="") as fh:
        return {r["subject_id"]: int(float(r["cac_score"]) != 0)
                for r in csv.DictReader(fh)}


def check_cohort(inputs, run, tally):
    _check_extract(run, tally)
    labels = _labels(inputs)
    arms = {}
    for arm in ("real", "null"):
        report, rows = _check_blocks(run / arm / "run_report.json",
                                     run / arm / "metrics.csv", COHORT_SEEDS,
                                     COHORT_MODELS, tally)
        _check_scores(report, rows, labels, COHORT_MODELS, tally)
        arms[arm] = report
    stats = _load(run / "stats" / "stats.json") or {}
    _check_stats(stats, arms["real"], arms["null"], COHORT_MODELS, tally)
    # Criterion 6 asks the real arm for a mean balanced accuracy >= 0.95
    # per model and p < 0.05 against the null arm. The p-values and a floor
    # on the mean are counted checks; whether the mean reaches 0.95 is
    # reported as an outcome, because correct code misses it on some
    # cohorts: gbt's lowest-index tie-break can split on firstorder_Energy,
    # which separates the 40 training rows by chance, and its mean falls
    # to 0.94. Over 72 cohorts no model's mean fell below 0.94, while
    # learning that has broken scores about 0.5; SEPARATION_FLOOR lies
    # between the two.
    for model in COHORT_MODELS:
        bal = [r["models"][model]["metrics"]["balanced_accuracy"]
               for r in (arms["real"] or {}).get("runs", []) if model in r["models"]]
        mean = sum(bal) / len(bal) if bal and None not in bal else float("nan")
        tally.op(mean >= SEPARATION_FLOOR,
                 f"{model} mean balanced accuracy {mean:.3f} < {SEPARATION_FLOOR}")
        ps = {metric: stats.get("results", {}).get(model, {}).get(metric, {}).get("p")
              for metric in ("accuracy", "f1")}
        for metric, p in ps.items():
            tally.op(p is not None and p < 0.05, f"{model} {metric} p = {p} vs null")
        if None in ps.values():
            tally.outcome(False, f"criterion 6: {model} lacks p-values")
            continue
        tally.outcome(mean >= 0.95 and max(ps.values()) < 0.05,
                      f"criterion 6: {model} mean balanced accuracy {mean:.3f} (>= 0.95), "
                      f"p = {ps['accuracy']:.3g} for accuracy and {ps['f1']:.3g} for F1 "
                      "(< 0.05)")


def check_large(inputs, run, tally):
    _check_extract(run, tally)


def check_embeddings(inputs, run, tally):
    report, rows = _check_blocks(run / "emb" / "run_report.json",
                                 run / "emb" / "metrics.csv", EMB_SEEDS, EMB_MODELS, tally)
    _check_scores(report, rows, _labels(inputs), EMB_MODELS, tally)


STAGES = ("extract_s", "train_real_s", "train_null_s", "stats_s", "train_eval_s")

WORKLOADS = {
    "cohort-experiment": (cohort_stages, check_cohort),
    "extract-large-roi": (large_stages, check_large),
    "embeddings-wide": (embeddings_stages, check_embeddings),
}


def digest_tree(root):
    """sha256 per file under root; JSON reports lose their top-level timing key."""
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.suffix == ".json":
            doc = json.loads(data)
            doc.pop("timing", None)
            data = json.dumps(doc, sort_keys=True).encode()
        out[str(path.relative_to(root))] = hashlib.sha256(data).hexdigest()
    return out


def run_repeat(workload, inputs, run, seed, tally, calibrate=None):
    """One repeat: fresh output directory, timed CLI calls, checks.

    Returns ({stage: wall seconds}, {stage: seconds at reference speed} or
    None, digest of every artifact written); the second needs a calibrate
    module.
    """
    stages, check = WORKLOADS[workload]
    shutil.rmtree(run, ignore_errors=True)
    run.mkdir(parents=True)
    times, scaled = {}, {} if calibrate else None
    for stage, argv in stages(inputs, run, seed):
        seconds, reference, rc = call(argv, tally, calibrate)
        times[stage] = times.get(stage, 0.0) + seconds
        if calibrate:
            scaled[stage] = scaled.get(stage, 0.0) + reference
        if rc != 0:
            break
    else:
        check(inputs, run, tally)
    return times, scaled, digest_tree(run)
