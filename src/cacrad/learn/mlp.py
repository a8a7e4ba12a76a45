"""One-hidden-layer perceptron trained by full-batch gradient descent.

Parameters are stored as one flat vector, so loss_and_grad's analytic
gradient can be checked against central finite differences. Its first
(n_in + 1) * hidden entries are w1 and then b1, that is the block
[w1; b1], so the first layer is one product of the inputs with a column
of ones appended. The gradient is laid out as theta, so an epoch of fit
is one step of the whole vector. Standardization is internal, fitted on
the training rows.
"""

import numpy as np

from ..errors import SingleClass
from ..rng import stream
from ..selection import Standardizer
from .grid import count_param, positive_param


def _with_ones(x: np.ndarray) -> np.ndarray:
    return np.hstack([x, np.ones((len(x), 1))])


def _layers(theta: np.ndarray, n_in: int, hidden: int):
    """Views of theta as [w1; b1] (n_in + 1, hidden), w2 (hidden, 1), b2 (1,)."""
    k = (n_in + 1) * hidden
    return (theta[:k].reshape(n_in + 1, hidden), theta[k:k + hidden].reshape(hidden, 1),
            theta[k + hidden:])


def _forward(w1b, w2, b2, x1):
    """Pre-activations, hidden units and logits for the inputs x1 = [x, 1]."""
    a = x1 @ w1b
    h = np.maximum(a, 0.0)
    return a, h, (h @ w2).ravel() + b2[0]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -500.0), 500.0)))


def _grads(theta, x1, y, hidden):
    """Gradient of loss_and_grad's loss, laid out as theta, and the logits
    z that the loss is computed from."""
    w1b, w2, b2 = _layers(theta, x1.shape[1] - 1, hidden)
    a, h, z = _forward(w1b, w2, b2, x1)
    dz = (_sigmoid(z) - y) / len(y)      # (n,)
    da = dz[:, None] * w2.T
    da *= a > 0.0
    return np.concatenate([(x1.T @ da).ravel(), (h.T @ dz[:, None]).ravel(),
                           dz.sum(keepdims=True)]), z


def loss_and_grad(theta: np.ndarray, x: np.ndarray, y: np.ndarray, hidden: int):
    """Mean cross-entropy of sigmoid(w2.relu(x w1 + b1) + b2) and its gradient."""
    grad, z = _grads(theta, _with_ones(x), y, hidden)
    # stable softplus cross-entropy: mean(softplus(z) - y*z)
    return float(np.mean(np.logaddexp(0.0, z) - y * z)), grad


class Mlp:
    nested = ()  # no prefix: each epoch count is its own fit

    def __init__(self, hidden_size: int = 16, learning_rate: float = 0.1,
                 epochs: int = 300):
        self.hidden_size = count_param("hidden_size", hidden_size)
        self.learning_rate = positive_param("learning_rate", learning_rate)
        self.epochs = count_param("epochs", epochs)
        self.theta = None
        self.standardizer = None

    @staticmethod
    def init_params(n_in: int, hidden: int, rng: np.random.Generator) -> np.ndarray:
        """w1, b1, w2, b2 flattened: uniform Glorot weights, zero biases."""
        parts = []
        for fan_in, fan_out in ((n_in, hidden), (hidden, 1)):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            parts += [rng.uniform(-limit, limit, size=(fan_in, fan_out)).ravel(),
                      np.zeros(fan_out)]
        return np.concatenate(parts)

    def fit(self, x: np.ndarray, y: np.ndarray, seed: int) -> "Mlp":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if y.min() == y.max():
            raise SingleClass("mlp needs both classes in the training set")
        self.standardizer = Standardizer.fit(x)
        z = self.standardizer.apply(x)
        x1 = _with_ones(z)
        theta = self.init_params(z.shape[1], self.hidden_size, stream(seed, "mlp"))
        for _ in range(self.epochs):
            theta -= self.learning_rate * _grads(theta, x1, y, self.hidden_size)[0]
        self.theta = theta
        return self

    def predict_score(self, x: np.ndarray) -> np.ndarray:
        z = self.standardizer.apply(x)
        layers = _layers(self.theta, z.shape[1], self.hidden_size)
        return _sigmoid(_forward(*layers, _with_ones(z))[2])

