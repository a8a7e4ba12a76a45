"""Confusion metrics and paired significance testing.

Undefined metrics (zero denominators) are explicit None flags that print
as an em-free "-" in tables; they never propagate as NaN. The Student-t
tail is computed from scratch via the regularized incomplete beta
continued fraction so the whole panel stays dependency-free.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyCounts, LengthMismatch, TooFewPairs

UNDEFINED = "-"  # table rendering of a flagged metric


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fn", "fp", "tn"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise EmptyCounts(f"{name} must be a non-negative integer, got {v!r}")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class MetricsReport:
    plain_accuracy: float
    balanced_accuracy: Optional[float]
    sensitivity: Optional[float]
    specificity: Optional[float]
    ppv: Optional[float]
    f1: Optional[float]
    npv: Optional[float]

    CSV_COLUMNS = ("accuracy", "balanced_accuracy", "sensitivity",
                   "specificity", "ppv", "f1", "npv")

    def as_row(self) -> dict:
        return {
            "accuracy": self.plain_accuracy,
            "balanced_accuracy": self.balanced_accuracy,
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "ppv": self.ppv,
            "f1": self.f1,
            "npv": self.npv,
        }

    def formatted_row(self) -> dict:
        return {k: (UNDEFINED if v is None else repr(float(v)))
                for k, v in self.as_row().items()}


def _ratio(num: int, den: int) -> Optional[float]:
    return num / den if den > 0 else None


def metrics(c: ConfusionCounts) -> MetricsReport:
    if c.total == 0:
        raise EmptyCounts("confusion counts are all zero")
    sens = _ratio(c.tp, c.tp + c.fn)
    spec = _ratio(c.tn, c.tn + c.fp)
    ppv = _ratio(c.tp, c.tp + c.fp)
    npv = _ratio(c.tn, c.tn + c.fn)
    if sens is not None and spec is not None:
        balanced = (sens + spec) / 2.0
    else:
        balanced = None
    if ppv is not None and sens is not None and (ppv + sens) > 0:
        f1 = 2.0 * ppv * sens / (ppv + sens)
    else:
        f1 = None
    return MetricsReport(
        plain_accuracy=(c.tp + c.tn) / c.total,
        balanced_accuracy=balanced,
        sensitivity=sens,
        specificity=spec,
        ppv=ppv,
        f1=f1,
        npv=npv,
    )


def confusion_from_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionCounts:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise LengthMismatch("prediction/label length mismatch")
    return ConfusionCounts(
        tp=int(np.sum((y_true == 1) & (y_pred == 1))),
        fn=int(np.sum((y_true == 1) & (y_pred == 0))),
        fp=int(np.sum((y_true == 0) & (y_pred == 1))),
        tn=int(np.sum((y_true == 0) & (y_pred == 0))),
    )


# --- Student-t tail via regularized incomplete beta (continued fraction) ---

def _betacf(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the standard continued fraction
    max_iter = 300
    eps = 3e-16
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def betainc_regularized(a: float, b: float, x: float) -> float:
    """I_x(a, b), accurate to ~1e-14 on the t-test parameter range."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student-t with df degrees of freedom."""
    if df < 1:
        raise TooFewPairs("t distribution needs df >= 1")
    x = df / (df + t * t)
    return betainc_regularized(df / 2.0, 0.5, x)


@dataclass(frozen=True)
class TTestResult:
    t: Optional[float]
    p: Optional[float]
    df: int
    zero_variance: bool


def paired_t_test(a, b) -> TTestResult:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatch(f"paired samples must be equal-length 1-D, got {a.shape} vs {b.shape}")
    n = a.size
    if n < 2:
        raise TooFewPairs("paired t-test needs at least 2 pairs")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        return TTestResult(t=None, p=None, df=n - 1, zero_variance=True)
    t = float(d.mean()) / (sd / math.sqrt(n))
    return TTestResult(t=t, p=t_sf_two_sided(t, n - 1), df=n - 1, zero_variance=False)
