"""Stratified train/test splitting and k-fold partitioning.

Test rows are drawn per class from the test-group pool by a seeded
shuffle of id-sorted members, so the chosen test subjects depend only on
(seed, pool membership) and stay identical when the training composition
around them changes.
"""

import numpy as np

from ..errors import SingleClass, TooFewPerClass, TooFewRows
from ..manifest import ContrastGroup
from ..rng import stream
from ..table import FeatureTable


def stratified_split(table: FeatureTable, test_fraction: float, seed: int,
                     test_group: ContrastGroup = None):
    """Returns (train_rows, test_rows) index lists.

    Per class, round(fraction * pool class count) rows become test rows,
    drawn only from ``test_group`` when given; all remaining table rows
    train. Class proportions hold within one subject per class. An empty
    table, or a split with no test or no training row, is refused.
    """
    if table.n_rows == 0:
        raise TooFewRows("no rows to split: the training pool is empty")
    labels = table.label_array()
    if labels.min() == labels.max():
        raise SingleClass("both classes required for a stratified split")
    if test_group is None:
        pool = list(range(table.n_rows))
    else:
        pool = table.rows_in_group(test_group)
    test_rows, pool_counts = [], []
    for cls in (0, 1):
        members = [r for r in pool if labels[r] == cls]
        pool_counts.append(len(members))
        members.sort(key=lambda r: table.subject_ids[r])
        n_test = int(test_fraction * len(members) + 0.5)
        rng = stream(seed, "split", "test", cls)
        order = rng.permutation(len(members))
        test_rows.extend(members[k] for k in order[:n_test])
    test_set = set(test_rows)
    train_rows = [r for r in range(table.n_rows) if r not in test_set]
    if not test_rows or not train_rows:
        raise TooFewRows(
            f"split has no {'test' if not test_rows else 'training'} rows: the test "
            f"pool has {pool_counts[0]} Zero and {pool_counts[1]} NonZero "
            f"subjects, test_fraction = {test_fraction}")
    return train_rows, sorted(test_rows)


def stratified_kfold(labels: np.ndarray, k: int, seed: int):
    """k disjoint folds covering all rows; per-fold class counts within
    one of the even split. Fold contents depend only on (labels, k, seed)."""
    labels = np.asarray(labels)
    classes, counts = np.unique(labels, return_counts=True)
    for cls, count in zip(classes, counts):
        if count < k:
            raise TooFewPerClass(
                f"class {cls} has {count} rows, need at least {k} for {k}-fold")
    folds = [[] for _ in range(k)]
    for cls in classes:
        members = np.flatnonzero(labels == cls)
        rng = stream(seed, "fold", int(cls))
        members = members[rng.permutation(len(members))]
        for j in range(k):
            folds[j].extend(int(r) for r in members[j::k])
    return [sorted(f) for f in folds]
