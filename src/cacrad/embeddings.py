"""Precomputed deep-feature embeddings as a validated CSV contract.

The networks that produce these vectors stay out of scope; any extractor
can plug in by writing ``subject_id,e0,...,e{D-1}`` rows. The provenance
tag (file stem and dimension) follows the table into run reports.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SchemaMismatch
from .table import read_features_csv, write_features_csv


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
    """A feature CSV read by read_features_csv, whose columns must be e0..e{D-1}."""
    ids, names, matrix = read_features_csv(path)
    dim = len(names)
    if names != tuple(f"e{k}" for k in range(dim)):
        raise SchemaMismatch(
            f"embedding columns must be e0..e{dim - 1}, got {list(names[:4])}...")
    return EmbeddingTable(subject_ids=ids, matrix=matrix,
                          provenance=f"{Path(path).name.removesuffix('.csv')}-{dim}")


def write_embeddings(path, subject_ids, matrix) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    write_features_csv(path, subject_ids, [f"e{k}" for k in range(matrix.shape[1])], matrix)
