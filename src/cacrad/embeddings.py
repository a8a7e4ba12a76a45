"""Precomputed deep-feature embeddings as a validated CSV contract.

The networks that produce these vectors stay out of scope; any extractor
can plug in by writing ``subject_id,e0,...,e{D-1}`` rows.
"""

import numpy as np

from .errors import SchemaMismatch
from .table import read_features_csv, write_features_csv


def load_embeddings(path) -> tuple:
    """read_features_csv's (ids, names, matrix), whose names must be e0..e{D-1}."""
    ids, names, matrix = read_features_csv(path)
    dim = len(names)
    if names != tuple(f"e{k}" for k in range(dim)):
        raise SchemaMismatch(
            f"embedding columns must be e0..e{dim - 1}, got {list(names[:4])}...")
    return ids, names, matrix


def write_embeddings(path, subject_ids, matrix) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    write_features_csv(path, subject_ids, [f"e{k}" for k in range(matrix.shape[1])], matrix)
