"""Linear SVM via epoch-based stochastic subgradient descent.

Features are standardized internally (fitted on the training rows given
to fit), so raw-feature rescaling cannot change predictions. The margin
is mapped to a probability with a logistic link calibrated on the
training margins by damped Newton iterations. A fit keeps its weights and
training margins after every epoch, so every shorter fit is a prefix of
it (prefix), and a grid search fits each fold once per lam.
"""

import math

import numpy as np

from ..errors import SingleClass
from ..rng import stream
from ..selection import Standardizer
from .grid import count_param, positive_param
from .mlp import _sigmoid, _with_ones


def _platt_fit(margins: np.ndarray, y01: np.ndarray):
    """Fit P(y=1|m) = sigmoid(-(A*m + B)) on training margins.

    Newton with backtracking on the cross-entropy; targets use the
    standard smoothed prior counts so saturated margins stay stable.
    """
    n_pos = int(y01.sum())
    n_neg = len(y01) - n_pos
    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    target = np.where(y01 == 1, hi, lo)
    a, b = 0.0, math.log((n_neg + 1.0) / (n_pos + 1.0))

    def loss(a_, b_):
        z = a_ * margins + b_
        # cross-entropy of sigmoid(-z) against target, numerically stable
        return float(np.mean(target * z + np.logaddexp(0.0, -z)))

    cur = loss(a, b)
    for _ in range(100):
        z = a * margins + b
        p = _sigmoid(-z)  # current P(y=1)
        g = target - p  # d loss / d z
        ga = float(np.mean(g * margins))
        gb = float(np.mean(g))
        w = p * (1.0 - p)
        haa = float(np.mean(w * margins * margins)) + 1e-12
        hab = float(np.mean(w * margins))
        hbb = float(np.mean(w)) + 1e-12
        det = haa * hbb - hab * hab
        if abs(det) < 1e-18:
            break
        da = -(hbb * ga - hab * gb) / det
        db = -(haa * gb - hab * ga) / det
        step = 1.0
        improved = False
        for _bt in range(30):
            cand = loss(a + step * da, b + step * db)
            if cand < cur - 1e-15:
                a += step * da
                b += step * db
                cur = cand
                improved = True
                break
            step /= 2.0
        if not improved or (abs(da) + abs(db)) * step < 1e-12:
            break
    return a, b


class LinearSvm:
    nested = ("epochs",)  # the parameter prefix takes

    def __init__(self, lam: float = 1e-2, epochs: int = 20):
        self.lam = positive_param("lam", lam)
        self.epochs = count_param("epochs", epochs)
        self.w = None       # includes bias as last component
        self.standardizer = None
        self.platt_a = 0.0
        self.platt_b = 0.0
        # w and the training margins z @ w after each epoch, and the labels
        # they were fitted to: what prefix needs
        self._ws = self._margins = ()
        self._y01 = None

    def fit(self, x: np.ndarray, y: np.ndarray, seed: int) -> "LinearSvm":
        x = np.asarray(x, dtype=np.float64)
        y01 = np.asarray(y, dtype=np.int64)
        if y01.min() == y01.max():
            raise SingleClass("svm needs both classes in the training set")
        self.standardizer = Standardizer.fit(x)
        z = _with_ones(self.standardizer.apply(x))
        ypm = np.where(y01 == 1, 1.0, -1.0)

        n, m = z.shape
        w = np.zeros(m)
        step = np.empty(m)
        # Python lists, ndarray.dot and out= calls skip numpy's per-call
        # overhead; every float operation is the textbook Pegasos step's
        rows = list(z)
        signs = ypm.tolist()
        lam = self.lam
        multiply = np.multiply
        rng = stream(seed, "svm")
        ws = np.empty((self.epochs, m))
        margins = np.empty((self.epochs, n))
        t = 0
        for epoch in range(self.epochs):
            for i in rng.permutation(n).tolist():
                t += 1
                eta = 1.0 / (lam * t)
                zi, sign = rows[i], signs[i]
                margin = sign * float(zi.dot(w))
                multiply(w, 1.0 - eta * lam, out=w)
                if margin < 1.0:
                    w += multiply(zi, eta * sign, out=step)
            ws[epoch] = w
            margins[epoch] = z @ w
        self._ws, self._margins, self._y01 = ws, margins, y01
        self._calibrate()
        return self

    def prefix(self, epochs: int) -> "LinearSvm":
        """The model a fit with epochs <= self.epochs and the same seed
        returns, bit for bit. Epoch e draws the e-th permutation of the
        seed's stream and never looks ahead, so the shorter fit's weights
        are this fit's after that epoch; Platt scaling is fitted on that
        epoch's training margins."""
        model = LinearSvm(self.lam, epochs)
        if model.epochs > len(self._ws):
            raise ValueError(f"prefix of {model.epochs} epochs from a model that "
                             f"kept {len(self._ws)}")
        model.standardizer = self.standardizer
        model._ws, model._margins = self._ws[:epochs], self._margins[:epochs]
        model._y01 = self._y01
        model._calibrate()
        return model

    def _calibrate(self):
        """w and the Platt link from the last kept epoch."""
        self.w = self._ws[-1]
        self.platt_a, self.platt_b = _platt_fit(self._margins[-1], self._y01)

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        return _with_ones(self.standardizer.apply(x)) @ self.w

    def predict_score(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(-(self.platt_a * self.decision_function(x) + self.platt_b))

