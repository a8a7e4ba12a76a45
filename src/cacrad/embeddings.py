"""Precomputed deep-feature embeddings as a validated CSV contract.

The networks that produce these vectors stay out of scope; any extractor
can plug in by writing ``subject_id,e0,...,e{D-1}`` rows. The provenance
tag (file stem and dimension) follows the table into run reports.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateSubject,
    MissingFile,
    NonFiniteValue,
    RaggedRow,
    SchemaMismatch,
)
from .table import write_features_csv


@dataclass(frozen=True)
class EmbeddingTable:
    subject_ids: tuple
    matrix: np.ndarray  # (n, D) float64
    provenance: str

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def coverage(self, manifest_ids) -> tuple:
        """Subject ids present in both this table and the manifest."""
        have = set(self.subject_ids)
        return tuple(s for s in manifest_ids if s in have)


def load_embeddings(path) -> EmbeddingTable:
    path = Path(path)
    if not path.exists():
        raise MissingFile(f"embedding csv not found: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0] != "subject_id":
        raise SchemaMismatch(f"embedding csv must start with a subject_id header: {path}")
    header = rows[0]
    dim = len(header) - 1
    expected = [f"e{k}" for k in range(dim)]
    if header[1:] != expected:
        raise SchemaMismatch(
            f"embedding columns must be e0..e{dim - 1}, got {header[1:5]}...")
    ids = []
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != dim + 1:
            raise RaggedRow(f"{path}:{lineno}: expected {dim} values, got {len(row) - 1}")
        ids.append(row[0])
        try:
            vals = np.array([float(v) for v in row[1:]], dtype=np.float64)
        except ValueError as exc:
            raise NonFiniteValue(f"{path}:{lineno}: {exc}") from exc
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValue(f"{path}:{lineno}: non-finite embedding value")
        data.append(vals)
    if len(set(ids)) != len(ids):
        raise DuplicateSubject(f"duplicate subject ids in {path}")
    matrix = np.array(data, dtype=np.float64).reshape(len(ids), dim)
    return EmbeddingTable(subject_ids=tuple(ids), matrix=matrix,
                          provenance=f"{path.name.removesuffix('.csv')}-{dim}")


def write_embeddings(path, subject_ids, matrix) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    write_features_csv(path, subject_ids, [f"e{k}" for k in range(matrix.shape[1])], matrix)
