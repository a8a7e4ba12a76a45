"""Rectangular feature tables and their CSV round-trip.

Floats are written with repr() so a write/read cycle is bitwise exact.
Labels and contrast groups never live in the feature CSV; they are joined
back in from the cohort manifest by subject id.
"""

import csv
import io
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DuplicateSubject,
    IoFailure,
    LengthMismatch,
    MissingFile,
    NonFiniteValue,
    RaggedRow,
    SchemaMismatch,
    UnknownColumn,
)
from .files import csv_rows
from .manifest import CacLabel, ContrastGroup


@dataclass(frozen=True)
class FeatureTable:
    subject_ids: tuple
    feature_names: tuple
    matrix: np.ndarray  # (n_subjects, n_features) float64
    labels: tuple       # CacLabel per row
    groups: tuple       # ContrastGroup per row

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2:
            raise LengthMismatch(f"matrix must be 2-D, got shape {m.shape}")
        n = len(self.subject_ids)
        if m.shape != (n, len(self.feature_names)):
            raise LengthMismatch(
                f"matrix {m.shape} does not match {n} ids x {len(self.feature_names)} columns")
        if len(self.labels) != n or len(self.groups) != n:
            raise LengthMismatch("labels/groups length must equal row count")
        if len(set(self.subject_ids)) != n:
            raise DuplicateSubject("subject ids must be unique")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise SchemaMismatch("feature names must be unique")
        object.__setattr__(self, "matrix", m)

    @property
    def n_rows(self) -> int:
        return len(self.subject_ids)

    def column_index(self, names: Sequence[str]) -> np.ndarray:
        pos = {c: k for k, c in enumerate(self.feature_names)}
        missing = [c for c in names if c not in pos]
        if missing:
            raise UnknownColumn(f"columns not in table: {missing}")
        return np.array([pos[c] for c in names], dtype=np.int64)

    def select_columns(self, names: Sequence[str]) -> "FeatureTable":
        idx = self.column_index(names)
        return FeatureTable(self.subject_ids, tuple(names), self.matrix[:, idx],
                            self.labels, self.groups)

    def take_rows(self, rows: Sequence[int]) -> "FeatureTable":
        rows = list(rows)
        return FeatureTable(
            tuple(self.subject_ids[r] for r in rows),
            self.feature_names,
            self.matrix[rows, :],
            tuple(self.labels[r] for r in rows),
            tuple(self.groups[r] for r in rows),
        )

    def rows_in_group(self, group: ContrastGroup):
        return [k for k, g in enumerate(self.groups) if g == group]

    def label_array(self) -> np.ndarray:
        """Labels as 0/1 with NonZero = 1."""
        return np.array([1 if la == CacLabel.NONZERO else 0 for la in self.labels],
                        dtype=np.int64)


def writable_path(path) -> Path:
    """path, cleared for a new file: its directory made and an earlier
    file there removed. IoFailure when write_atomic could not write
    there. Every command calls it on each of its outputs before an input
    can fail it, so a run refuses a bad path before any work, and a run that
    fails leaves no earlier run's output beside its own."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.is_dir():
            raise IoFailure(f"cannot write {path}: it is a directory")
        if not os.access(path.parent, os.W_OK):
            raise IoFailure(f"cannot write {path}: its directory is not writable")
        path.unlink(missing_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc.strerror or exc}") from exc
    return path


def write_atomic(path, data) -> None:
    """Write data, a str as UTF-8 or bytes as given, beside path and move
    it into place, so an interrupted run leaves the old file or the whole
    new one, never a partial one. The one writer of every output."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        try:
            with open(tmp, "wb") as fh:
                fh.write(data.encode("utf-8") if isinstance(data, str) else data)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_features_csv(path, subject_ids, feature_names, matrix) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["subject_id", *feature_names])
    for sid, row in zip(subject_ids, matrix):
        w.writerow([sid, *[repr(float(v)) for v in row]])
    write_atomic(path, buf.getvalue())


def read_features_csv(path):
    """Returns (subject_ids, feature_names, matrix) of a subject_id x column
    CSV. Each row is parsed to float64 as it is read; a row of the wrong
    width, with a non-number or non-finite cell or a repeated subject id
    names its path:line, and MissingFile says the file cannot be read."""
    rows = csv_rows(path, "feature csv", MissingFile)
    header = next(rows, (0, None))[1]
    if not header or header[0] != "subject_id":
        raise SchemaMismatch(f"feature csv must start with a subject_id header: {path}")
    names = tuple(header[1:])
    if len(set(names)) != len(names):
        raise SchemaMismatch("duplicate feature columns")
    ids = {}  # the subject ids, in file order
    data = []
    for line, row in rows:
        if len(row) != len(names) + 1:
            raise RaggedRow(f"{path}:{line}: expected {len(names) + 1} cells, got {len(row)}")
        if row[0] in ids:
            raise DuplicateSubject(f"{path}:{line}: subject {row[0]!r} repeated")
        try:
            vals = np.array([float(v) for v in row[1:]], dtype=np.float64)
        except ValueError as exc:
            raise NonFiniteValue(f"{path}:{line}: {exc}") from exc
        if not np.isfinite(vals).all():
            raise NonFiniteValue(f"{path}:{line}: non-finite value")
        ids[row[0]] = None
        data.append(vals)
    return tuple(ids), names, np.array(data, dtype=np.float64).reshape(len(ids), len(names))


def attach_cohort(subject_ids, feature_names, matrix, manifest: tuple) -> FeatureTable:
    """Join labels and contrast groups from the manifest onto feature rows."""
    by_id = {e.subject_id: e for e in manifest}
    missing = [s for s in subject_ids if s not in by_id]
    if missing:
        raise SchemaMismatch(f"feature rows without manifest entries: {missing[:5]}")
    labels = tuple(by_id[s].cac_label for s in subject_ids)
    groups = tuple(by_id[s].contrast for s in subject_ids)
    return FeatureTable(tuple(subject_ids), tuple(feature_names),
                        np.asarray(matrix, dtype=np.float64), labels, groups)
