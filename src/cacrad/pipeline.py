"""End-to-end runs: extraction, train/eval, and paired statistics.

Each entry point takes a RunConfig, writes its artifacts under the
configured output directory, and returns the report dictionary it wrote.
Reports embed the raw config text so every artifact is self-describing.
Wall-clock timing lives in a single top-level "timing" key; everything
else in a report is a pure function of (inputs, config, seed).
"""

import json
import time
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import (
    CacradError,
    ConfigError,
    LengthMismatch,
    SchemaMismatch,
    TooFewPairs,
    TooFewRows,
)
from .eval import MetricsReport, confusion_from_predictions, metrics, paired_t_test
from .features import ExtractionConfig, extract_all
from .features.catalog import FEATURE_NAMES
from .learn.model import MODEL_KINDS, train_with_grid
from .learn.split import stratified_split
from .manifest import ContrastGroup, load_manifest
from .nifti import MaskVolume, read_nifti
from .rng import derive_seed, stream
from .selection import correlation_filter
from .table import attach_cohort, read_features_csv, write_features_csv
from .embeddings import load_embeddings


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _extraction_config(cfg: RunConfig) -> ExtractionConfig:
    return ExtractionConfig(
        bin_width=cfg.bin_width,
        n_bins=cfg.n_bins,
        resample_spacing=cfg.resample_spacing,
        glcm_distance=cfg.glcm_distance,
        gldm_alpha=cfg.gldm_alpha,
    )


def run_extract(cfg: RunConfig) -> dict:
    """Extract features for every manifest subject; skip-and-log failures.

    Writes features.csv and extract_report.json under cfg.out. A subject
    that fails (unreadable file, empty mask, shape mismatch) is excluded
    with a reason; only an empty result table is fatal.
    """
    if cfg.manifest is None:
        raise ConfigError("extract needs manifest = <path> in the config")
    t0 = time.monotonic()
    manifest = load_manifest(cfg.manifest)
    entries = sorted(manifest.entries, key=lambda e: e.subject_id)
    ext_cfg = _extraction_config(cfg)

    ids, rows, excluded = [], [], []
    for entry in entries:
        try:
            vol = read_nifti(entry.volume_path)
            mask = MaskVolume.from_volume(read_nifti(entry.mask_path))
            vec = extract_all(vol, mask, ext_cfg)
        except (CacradError, ValueError) as exc:
            excluded.append({
                "subject_id": entry.subject_id,
                "error": type(exc).__name__,
                "message": str(exc),
            })
            continue
        ids.append(entry.subject_id)
        rows.append(vec.values)
    if not ids:
        raise TooFewRows("every subject failed extraction; nothing to write")

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    features_path = Path(cfg.features_csv) if cfg.features_csv else out / "features.csv"
    write_features_csv(features_path, ids, FEATURE_NAMES, np.array(rows))

    report = {
        "command": "extract",
        "config_text": cfg.raw_text,
        "n_subjects": len(entries),
        "n_extracted": len(ids),
        "n_features": len(FEATURE_NAMES),
        "excluded": excluded,
        "features_csv": str(features_path),
        "timing": {"seconds": round(time.monotonic() - t0, 3)},
    }
    _write_json(out / "extract_report.json", report)
    return report


def _load_table(cfg: RunConfig, manifest):
    """Feature table + provenance string + coverage notes for the report."""
    if cfg.mode == "embeddings":
        if cfg.embeddings_csv is None:
            raise ConfigError("mode = embeddings needs embeddings_csv = <path>")
        emb = load_embeddings(cfg.embeddings_csv)
        covered = emb.coverage(manifest.subject_ids())
        if not covered:
            raise SchemaMismatch("no overlap between embedding rows and manifest subjects")
        pos = {s: k for k, s in enumerate(emb.subject_ids)}
        take = [pos[s] for s in covered]
        names = tuple(f"e{j}" for j in range(emb.dimension))
        table = attach_cohort(covered, names, emb.matrix[take, :], manifest)
        notes = {
            "provenance": emb.provenance,
            "n_embedding_rows": len(emb.subject_ids),
            "n_manifest": len(manifest),
            "n_used": len(covered),
        }
        return table, emb.provenance, notes
    features_path = cfg.features_csv or str(Path(cfg.out) / "features.csv")
    ids, names, matrix = read_features_csv(features_path)
    table = attach_cohort(ids, names, matrix, manifest)
    notes = {"features_csv": str(features_path), "n_used": len(ids)}
    return table, f"radiomics-{len(names)}", notes


def _metric_csv_cell(value) -> str:
    return "-" if value is None else repr(float(value))


def run_train_eval(cfg: RunConfig) -> dict:
    """Split, select, grid-search, fit, and score each configured model.

    One run block per seed; metrics.csv gets one row per (model, seed).
    The test split is always drawn from the non-contrast pool, so mixed
    and non-contrast training compositions score the same subjects.
    """
    if cfg.manifest is None:
        raise ConfigError("train-eval needs manifest = <path> in the config")
    t0 = time.monotonic()
    manifest = load_manifest(cfg.manifest, check_paths=False)
    table, provenance, coverage = _load_table(cfg, manifest)

    if cfg.train_composition == "noncontrast":
        table = table.take_rows(table.rows_in_group(ContrastGroup.NONCONTRAST))

    if cfg.n_seeds == 1:
        seeds = [cfg.seed]
    else:
        seeds = [derive_seed(cfg.seed, "run", i) for i in range(cfg.n_seeds)]

    runs = []
    for run_seed in seeds:
        train_rows, test_rows = stratified_split(
            table, cfg.test_fraction, run_seed, test_group=ContrastGroup.NONCONTRAST)
        train_tbl = table.take_rows(train_rows)
        test_tbl = table.take_rows(test_rows)

        if cfg.mode == "radiomics" or cfg.filter_embeddings:
            kept = correlation_filter(train_tbl, cfg.selection_threshold)
        else:
            kept = list(table.feature_names)
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
        runs.append({
            "seed": run_seed,
            "n_train": len(train_rows),
            "n_test": len(test_rows),
            "test_subjects": list(test_tbl.subject_ids),
            "n_features_kept": len(kept),
            "kept_features": list(kept),
            "models": model_blocks,
        })

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "command": "train-eval",
        "config_text": cfg.raw_text,
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
    _write_json(out / "run_report.json", report)

    lines = ["model,seed," + ",".join(MetricsReport.CSV_COLUMNS)]
    for run in runs:
        for kind in cfg.models:
            row = run["models"][kind]["metrics"]
            cells = [kind, str(run["seed"])]
            cells += [_metric_csv_cell(row[c]) for c in MetricsReport.CSV_COLUMNS]
            lines.append(",".join(cells))
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")
    return report


def _load_report(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise SchemaMismatch(f"report not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"{path} is not valid JSON: {exc}") from exc
    if "runs" not in doc or "seeds" not in doc:
        raise SchemaMismatch(f"{path} is not a train-eval report")
    return doc


def run_stats(report_path_a, report_path_b, out_dir=None) -> dict:
    """Paired t-tests between two train-eval reports, matched by seed.

    Pairs runs positionally and requires identical seed lists, so both
    arms saw the same splits. Tests accuracy and F1 per common model.
    """
    doc_a = _load_report(report_path_a)
    doc_b = _load_report(report_path_b)
    if doc_a["seeds"] != doc_b["seeds"]:
        raise LengthMismatch(
            f"seed lists differ: {doc_a['seeds']} vs {doc_b['seeds']}")
    common = [k for k in MODEL_KINDS
              if k in doc_a["models"] and k in doc_b["models"]]
    if not common:
        raise SchemaMismatch("reports share no model kinds")

    results = {}
    lines = []
    for kind in common:
        per_metric = {}
        texts = []
        for metric, shown in (("accuracy", "accuracy"), ("f1", "F1-score")):
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
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "stats.json", doc)
    return doc
