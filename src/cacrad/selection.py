"""Train-split feature filtering and standardization.

Both are fitted on training rows only; the fitted artifacts are applied
unchanged to test rows, which the leakage tests rely on.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadRange, TooFewRows
from .table import FeatureTable


@dataclass(frozen=True)
class Standardizer:
    """Per-column z-scores: training-row mean and population sd. A constant
    column (max == min on the training rows; its computed sd can be a
    rounding residue such as 1.4e-17) gets its value as the mean and sd 1,
    so it maps to 0; a zero sd is also taken as 1."""
    means: np.ndarray
    sds: np.ndarray

    @classmethod
    def fit(cls, x) -> "Standardizer":
        x = np.asarray(x, dtype=np.float64)
        const = x.max(axis=0) == x.min(axis=0)
        sds = x.std(axis=0)
        return cls(means=np.where(const, x[0], x.mean(axis=0)),
                   sds=np.where(~const & (sds > 0.0), sds, 1.0))

    def apply(self, x) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.means) / self.sds

    def to_dict(self) -> dict:
        return {"mean": [repr(float(v)) for v in self.means],
                "sd": [repr(float(v)) for v in self.sds]}


def correlation_filter(table: FeatureTable, threshold: float = 0.90) -> list:
    """Greedy keep-first-in-canonical-order filtering on |Pearson r|.

    Constant columns (max == min on these rows) are dropped up front: a
    column of equal values can have a tiny nonzero computed sd. A column
    is kept iff its absolute correlation with every already-kept column
    is strictly below the threshold. Output order follows the table's
    column order.
    """
    if not (0.0 < threshold <= 1.0):
        raise BadRange(f"threshold must be in (0, 1], got {threshold}")
    if table.n_rows < 2:
        raise TooFewRows("correlation needs at least 2 rows")
    x = np.asarray(table.matrix, dtype=np.float64)
    live = np.flatnonzero(x.max(axis=0) > x.min(axis=0))
    if live.size == 0:
        return []
    z = Standardizer.fit(x).apply(x)[:, live]
    corr = np.clip(z.T @ z / table.n_rows, -1.0, 1.0)
    kept, blocked = [], np.zeros(live.size, dtype=bool)
    for k in range(live.size):
        if not blocked[k]:
            kept.append(k)
            blocked |= ~(np.abs(corr[:, k]) < threshold)  # NaN blocks too
    return [table.feature_names[live[k]] for k in kept]
