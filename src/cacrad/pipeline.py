"""End-to-end runs: extraction, train/eval, and paired statistics.

Each entry point takes a RunConfig, writes its artifacts under the
configured output directory, and returns the report dictionary it wrote.
Reports embed the run's RunConfig as ``config_text``, rendered by
``RunConfig.text``: every setting, defaults and default grids included,
however it was given, so that text as a config file reruns the run.
Wall-clock timing lives in a single top-level "timing" key; everything
else in a report is a pure function of (inputs, config, seed).
Subjects and seeds are independent items that ``map_ordered`` spreads
over the CPUs and gathers in order, so no artifact depends on how many
CPUs the run had.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import (
    CacradError,
    ConfigError,
    DegenerateCohortError,
    LengthMismatch,
    SchemaMismatch,
    TooFewPairs,
    TooFewRows,
)
from .eval import METRIC_COLUMNS, confusion_from_predictions, metric_cell, metrics, paired_t_test
from .features import extract_all
from .features.catalog import FEATURE_NAMES
from .files import read_text
from .learn.model import MODEL_KINDS, train_with_grid
from .learn.split import stratified_split
from .manifest import ContrastGroup, load_manifest, require_files
from .nifti import read_mask, read_nifti
from .parallel import map_ordered
from .rng import derive_seed, stream
from .selection import correlation_filter
from .table import attach_cohort, read_features_csv, writable_path, write_features_csv, write_atomic
from .embeddings import load_embeddings


def _write_json(path: Path, doc: dict) -> None:
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _clear_outputs(outputs, inputs) -> list:
    """writable_path of each (flag, path) output, in order; first a
    ConfigError naming both flags when two outputs, or an output and an
    input, resolve to the same file, since clearing it would delete the
    input or one output would overwrite the other."""
    named = {}
    for k, (flag, path) in enumerate([*outputs, *inputs]):
        if path is None:
            continue
        key = Path(path).resolve()
        if key in named:
            raise ConfigError(f"{named[key]} and {flag} name the same file: {key}")
        if k < len(outputs):
            named[key] = flag
    return [writable_path(path) for _, path in outputs]


def run_extract(cfg: RunConfig) -> dict:
    """Extract features for every manifest subject; skip-and-log failures.

    Writes features.csv and extract_report.json under cfg.out. A subject
    whose data fails (unreadable file, empty mask, shape mismatch: a
    CacradError) is excluded with a reason; any other exception is a fault
    in the program and stops the run. An empty result table is fatal too,
    and then the report, with every reason, is written and no features.csv.
    """
    if cfg.manifest is None:
        raise ConfigError("extract needs manifest = <path> in the config")
    t0 = time.monotonic()
    out = Path(cfg.out)
    outputs = [("--out", out / "extract_report.json"),
               ("--features-csv", cfg.features_csv or out / "features.csv")]
    inputs = [("--manifest", cfg.manifest), ("--config", cfg.config_path)]
    try:
        manifest = load_manifest(cfg.manifest)
    except CacradError:  # clear, so no earlier table outlives a failed run
        _clear_outputs(outputs, inputs)
        raise
    entries = sorted(manifest, key=lambda e: e.subject_id)
    listed = [(f"{kind} of {e.subject_id} in --manifest", path) for e in entries
              for kind, path in (("the volume", e.volume_path), ("the mask", e.mask_path))]
    report_path, features_path = _clear_outputs(outputs, inputs + listed)
    require_files(manifest)

    def extract_one(entry):
        """(feature values, None), or (None, exclusion record)."""
        try:
            vol = read_nifti(entry.volume_path)
            mask = read_mask(entry.mask_path)
            return extract_all(vol, mask, cfg), None
        except CacradError as exc:
            return None, {
                "subject_id": entry.subject_id,
                "error": type(exc).__name__,
                "message": str(exc),
            }

    ids, rows, excluded = [], [], []
    for entry, (values, exclusion) in zip(entries, map_ordered(extract_one, entries)):
        if exclusion is not None:
            excluded.append(exclusion)
        else:
            ids.append(entry.subject_id)
            rows.append(values)

    if ids:
        write_features_csv(features_path, ids, FEATURE_NAMES, np.array(rows))

    report = {
        "command": "extract",
        "config_text": cfg.text(),
        "n_subjects": len(entries),
        "n_extracted": len(ids),
        "n_features": len(FEATURE_NAMES),
        "excluded": excluded,
        "features_csv": str(features_path) if ids else None,
        "timing": {"seconds": round(time.monotonic() - t0, 3)},
    }
    _write_json(report_path, report)
    if not ids:
        first = (f" (first: {excluded[0]['subject_id']}: {excluded[0]['error']}: "
                 f"{excluded[0]['message']})" if excluded else "")
        raise TooFewRows("every subject failed extraction; no features.csv written" + first)
    return report


def _load_table(cfg: RunConfig, manifest):
    """Feature table + provenance string + coverage notes for the report."""
    if cfg.mode == "embeddings":
        if cfg.embeddings_csv is None:
            raise ConfigError("mode = embeddings needs embeddings_csv = <path>")
        ids, names, matrix = load_embeddings(cfg.embeddings_csv)
        # the manifest's subjects, in its order; other rows are ignored
        pos = {s: k for k, s in enumerate(ids)}
        covered = [e.subject_id for e in manifest if e.subject_id in pos]
        if not covered:
            raise SchemaMismatch("no overlap between embedding rows and manifest subjects")
        table = attach_cohort(covered, names, matrix[[pos[s] for s in covered]], manifest)
        provenance = f"{Path(cfg.embeddings_csv).name.removesuffix('.csv')}-{len(names)}"
        notes = {
            "provenance": provenance,
            "n_embedding_rows": len(ids),
            "n_manifest": len(manifest),
            "n_used": len(covered),
        }
        return table, provenance, notes
    features_path = cfg.features_csv or str(Path(cfg.out) / "features.csv")
    ids, names, matrix = read_features_csv(features_path)
    table = attach_cohort(ids, names, matrix, manifest)
    notes = {"features_csv": str(features_path), "n_used": len(ids)}
    return table, f"radiomics-{len(names)}", notes


def run_train_eval(cfg: RunConfig) -> dict:
    """Split, select, grid-search, fit, and score each configured model.

    One run block per seed; metrics.csv gets one row per (model, seed).
    The test split is always drawn from the non-contrast pool, so mixed
    and non-contrast training compositions score the same subjects.
    """
    if cfg.manifest is None:
        raise ConfigError("train-eval needs manifest = <path> in the config")
    t0 = time.monotonic()
    out = Path(cfg.out)
    table_input = (("--embeddings-csv", cfg.embeddings_csv) if cfg.mode == "embeddings"
                   else ("--features-csv", cfg.features_csv))
    report_path, metrics_path = _clear_outputs(
        [("--out", out / "run_report.json"), ("--out", out / "metrics.csv")],
        [("--manifest", cfg.manifest), table_input, ("--config", cfg.config_path)])
    manifest = load_manifest(cfg.manifest)
    table, provenance, coverage = _load_table(cfg, manifest)

    if cfg.train_composition == "noncontrast":
        table = table.take_rows(table.rows_in_group(ContrastGroup.NONCONTRAST))

    if cfg.n_seeds == 1:
        seeds = [cfg.seed]
    else:
        seeds = [derive_seed(cfg.seed, "run", i) for i in range(cfg.n_seeds)]

    def run_one(run_seed):
        train_rows, test_rows = stratified_split(
            table, cfg.test_fraction, run_seed, test_group=ContrastGroup.NONCONTRAST)
        train_tbl = table.take_rows(train_rows)
        test_tbl = table.take_rows(test_rows)

        if cfg.mode == "radiomics" or cfg.filter_embeddings:
            kept = correlation_filter(train_tbl, cfg.selection_threshold)
        else:
            kept = list(table.feature_names)
        if not kept:
            raise DegenerateCohortError(
                f"seed {run_seed}: no feature column to train on (the table has none, "
                "or each is constant on the training rows)")
        x_train = train_tbl.select_columns(kept).matrix
        y_train = train_tbl.label_array()
        x_test = test_tbl.select_columns(kept).matrix
        y_test = test_tbl.label_array()

        if cfg.label_shuffle:
            # Null-hypothesis control: break the feature-label pairing, keep
            # class counts and everything downstream of the labels identical.
            order = stream(run_seed, "label-shuffle").permutation(len(y_train))
            y_train = y_train[order]

        model_blocks = {}
        for kind in cfg.models:
            model, best, cv_scores = train_with_grid(
                kind, x_train, y_train, kept,
                derive_seed(run_seed, "model", kind),
                grid=cfg.grid_for(kind), k=cfg.kfold)
            y_pred, _score = model.predict(x_test, kept)
            conf = confusion_from_predictions(y_test, y_pred)
            rep = metrics(conf)
            model_blocks[kind] = {
                "hyperparams": best,
                "cv_mean_scores": [float(s) for s in cv_scores],
                "confusion": {"tp": conf.tp, "fn": conf.fn, "fp": conf.fp, "tn": conf.tn},
                "metrics": rep.as_row(),
                "fingerprint": model.fingerprint,
            }
        return {
            "seed": run_seed,
            "n_train": len(train_rows),
            "n_test": len(test_rows),
            "test_subjects": list(test_tbl.subject_ids),
            "n_features_kept": len(kept),
            "kept_features": list(kept),
            "models": model_blocks,
        }

    runs = map_ordered(run_one, seeds)

    report = {
        "command": "train-eval",
        "config_text": cfg.text(),
        "mode": cfg.mode,
        "provenance": provenance,
        "coverage": coverage,
        "train_composition": cfg.train_composition,
        "label_shuffle": cfg.label_shuffle,
        "models": list(cfg.models),
        "seeds": seeds,
        "runs": runs,
        "timing": {"seconds": round(time.monotonic() - t0, 3)},
    }
    _write_json(report_path, report)

    lines = ["model,seed," + ",".join(METRIC_COLUMNS)]
    for run in runs:
        for kind in cfg.models:
            row = run["models"][kind]["metrics"]
            cells = [kind, str(run["seed"])]
            cells += [metric_cell(row[c]) for c in METRIC_COLUMNS]
            lines.append(",".join(cells))
    write_atomic(metrics_path, "\n".join(lines) + "\n")
    return report


# metric -> how stats prints it
_STATS_METRICS = {"accuracy": "accuracy", "f1": "F1-score"}


def _load_report(path) -> dict:
    """A train-eval report with every key and value run_stats reads checked;
    SchemaMismatch when it cannot be read, parsed or used."""
    text = read_text(path, "report", SchemaMismatch)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, a long int or deep nesting
        raise SchemaMismatch(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list) \
            or not isinstance(doc.get("seeds"), list):
        raise SchemaMismatch(f"{path} is not a train-eval report")
    seeds = doc["seeds"]
    if len(doc["runs"]) != len(seeds):
        raise SchemaMismatch(f"{path}: runs has {len(doc['runs'])} entries for {len(seeds)} seeds")

    def field(obj, key, where):
        if not isinstance(obj, dict) or key not in obj:
            raise SchemaMismatch(f"{path}: {where} has no {key!r}")
        return obj[key]

    # every key and value run_stats reads, so a bad report fails before any test
    kinds = field(doc, "models", "the report")
    if not isinstance(kinds, list) or not all(k in MODEL_KINDS for k in kinds):
        raise SchemaMismatch(f"{path}: models is {kinds!r}, not a list of {list(MODEL_KINDS)}")
    for i, run in enumerate(doc["runs"]):
        if field(run, "seed", f"runs[{i}]") != seeds[i]:
            raise SchemaMismatch(f"{path}: runs[{i}].seed is not seeds[{i}]")
        subjects = field(run, "test_subjects", f"runs[{i}]")
        if not isinstance(subjects, list) or not all(isinstance(s, str) for s in subjects):
            raise SchemaMismatch(f"{path}: runs[{i}].test_subjects is not a list of subject ids")
        models = field(run, "models", f"runs[{i}]")
        for kind in kinds:
            where = f"runs[{i}].models.{kind}.metrics"
            row = field(field(models, kind, f"runs[{i}].models"), "metrics",
                        f"runs[{i}].models.{kind}")
            for metric in _STATS_METRICS:
                value = field(row, metric, where)
                if value is not None and not (type(value) in (int, float) and math.isfinite(value)):
                    raise SchemaMismatch(f"{path}: {where}.{metric} is {value!r}, "
                                         "not a finite number or null")
    return doc


def run_stats(report_path_a, report_path_b, out_dir=None) -> dict:
    """Paired t-tests between two train-eval reports, matched by seed.

    Pairs runs positionally and requires identical seed lists and, run by
    run, the same test subjects, so both arms scored the same splits. The
    subjects are compared sorted: a radiomics report lists them in id
    order, an embeddings report in manifest order. Tests accuracy and F1
    per common model.
    """
    stats_path = None if out_dir is None else _clear_outputs(
        [("--out", Path(out_dir) / "stats.json")],
        [("report_a", report_path_a), ("report_b", report_path_b)])[0]
    doc_a = _load_report(report_path_a)
    doc_b = _load_report(report_path_b)
    if doc_a["seeds"] != doc_b["seeds"]:
        raise LengthMismatch(
            f"seed lists differ: {doc_a['seeds']} vs {doc_b['seeds']}")
    for ra, rb in zip(doc_a["runs"], doc_b["runs"]):
        if sorted(ra["test_subjects"]) != sorted(rb["test_subjects"]):
            raise LengthMismatch(f"seed {ra['seed']}: the reports tested different subjects")
    common = [k for k in MODEL_KINDS
              if k in doc_a["models"] and k in doc_b["models"]]
    if not common:
        raise SchemaMismatch("reports share no model kinds")

    results = {}
    lines = []
    for kind in common:
        per_metric = {}
        texts = []
        for metric, shown in _STATS_METRICS.items():
            a_vals, b_vals = [], []
            for ra, rb in zip(doc_a["runs"], doc_b["runs"]):
                va = ra["models"][kind]["metrics"][metric]
                vb = rb["models"][kind]["metrics"][metric]
                if va is None or vb is None:
                    continue
                a_vals.append(va)
                b_vals.append(vb)
            if len(a_vals) < 2:
                raise TooFewPairs(
                    f"{kind}/{metric}: {len(a_vals)} usable pairs, need >= 2")
            res = paired_t_test(a_vals, b_vals)
            per_metric[metric] = {
                "t": res.t, "p": res.p, "df": res.df,
                "zero_variance": res.zero_variance, "n_pairs": len(a_vals),
            }
            if res.zero_variance:
                texts.append(f"{shown}: p undefined (zero variance)")
            else:
                texts.append(f"{shown}: p = {res.p:.6g}")
        results[kind] = per_metric
        lines.append(f"{kind}: " + "; ".join(texts))

    doc = {
        "command": "stats",
        "report_a": str(report_path_a),
        "report_b": str(report_path_b),
        "seeds": doc_a["seeds"],
        "results": results,
        "lines": lines,
    }
    if stats_path is not None:
        _write_json(stats_path, doc)
    return doc
