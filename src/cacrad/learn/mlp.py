"""One-hidden-layer perceptron trained by full-batch gradient descent.

Parameters are stored as one flat vector, so loss_and_grad's analytic
gradient can be checked against central finite differences; fit steps
the four parameter arrays directly, with the same float operations.
Standardization is internal, fitted on the training rows.
"""

import numpy as np

from ..errors import SingleClass
from ..rng import stream
from ..selection import Standardizer
from .grid import count_param, positive_param


def _param_shapes(n_in: int, hidden: int):
    return ((n_in, hidden), (hidden,), (hidden, 1), (1,))


def pack_params(w1, b1, w2, b2) -> np.ndarray:
    return np.concatenate([w1.ravel(), b1.ravel(), w2.ravel(), b2.ravel()])


def unpack_params(theta: np.ndarray, n_in: int, hidden: int):
    shapes = _param_shapes(n_in, hidden)
    out = []
    pos = 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append(theta[pos:pos + size].reshape(shape))
        pos += size
    return out


def _grads(w1, b1, w2, b2, x, y):
    """Gradient of loss_and_grad's loss as (gw1, gb1, gw2, gb2), and the
    logits z that the loss is computed from."""
    a = x @ w1 + b1          # (n, h) pre-activation
    h = np.maximum(a, 0.0)   # relu
    z = (h @ w2).ravel() + b2[0]
    p = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
    dz = (p - y) / len(y)                # (n,)
    gw2 = h.T @ dz[:, None]              # (h, 1)
    gb2 = np.array([dz.sum()])
    dh = dz[:, None] * w2.ravel()[None, :]
    da = dh * (a > 0.0)
    gw1 = x.T @ da
    gb1 = da.sum(axis=0)
    return (gw1, gb1, gw2, gb2), z


def loss_and_grad(theta: np.ndarray, x: np.ndarray, y: np.ndarray, hidden: int):
    """Mean cross-entropy of sigmoid(w2.relu(x w1 + b1) + b2) and its gradient."""
    grads, z = _grads(*unpack_params(theta, x.shape[1], hidden), x, y)
    # stable softplus cross-entropy: mean(softplus(z) - y*z)
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return loss, pack_params(*grads)


class Mlp:
    def __init__(self, hidden_size: int = 16, learning_rate: float = 0.1,
                 epochs: int = 300):
        self.hidden_size = count_param("hidden_size", hidden_size)
        self.learning_rate = positive_param("learning_rate", learning_rate)
        self.epochs = count_param("epochs", epochs)
        self.theta = None
        self.standardizer = None

    @staticmethod
    def init_params(n_in: int, hidden: int, rng: np.random.Generator) -> np.ndarray:
        parts = []
        for shape in _param_shapes(n_in, hidden):
            if len(shape) == 2:
                fan_in, fan_out = shape
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                parts.append(rng.uniform(-limit, limit, size=shape).ravel())
            else:
                parts.append(np.zeros(shape))
        return np.concatenate(parts)

    def fit(self, x: np.ndarray, y: np.ndarray, seed: int) -> "Mlp":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if y.min() == y.max():
            raise SingleClass("mlp needs both classes in the training set")
        self.standardizer = Standardizer.fit(x)
        z = self.standardizer.apply(x)
        theta = self.init_params(z.shape[1], self.hidden_size, stream(seed, "mlp"))
        # theta - learning_rate * grad, part by part in place
        params = unpack_params(theta, z.shape[1], self.hidden_size)
        for _ in range(self.epochs):
            grads, _ = _grads(*params, z, y)
            for param, grad in zip(params, grads):
                param -= self.learning_rate * grad
        self.theta = pack_params(*params)
        return self

    def predict_score(self, x: np.ndarray) -> np.ndarray:
        z = self.standardizer.apply(x)
        w1, b1, w2, b2 = unpack_params(self.theta, z.shape[1], self.hidden_size)
        h = np.maximum(z @ w1 + b1, 0.0)
        logits = (h @ w2).ravel() + b2[0]
        return 1.0 / (1.0 + np.exp(-np.clip(logits, -500, 500)))

    def to_dict(self) -> dict:
        return {
            "hidden_size": self.hidden_size,
            "learning_rate": repr(self.learning_rate),
            "epochs": self.epochs,
            "theta": [repr(float(v)) for v in self.theta],
            **self.standardizer.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Mlp":
        model = cls(hidden_size=d["hidden_size"],
                    learning_rate=float(d["learning_rate"]), epochs=d["epochs"])
        model.theta = np.array([float(v) for v in d["theta"]])
        model.standardizer = Standardizer.from_dict(d)
        return model
