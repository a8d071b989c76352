"""Reference implementations the tests compare the library against.

Per-example forms (``forward``, ``cross_entropy``, ``one_hot``) and the
out-of-place batch forms of the forward pass and the mean gradient, each
written as one expression per step with no in-place updates.  The library
computes the same IEEE operations, so the batch forms must match it
bitwise.  ``objective_grad`` is the closed-form gradient of a constructed
quadratic, which the per-example gradients must average to.
"""

from typing import Tuple

import numpy as np

from dashssl.models import (SOFTMAX_LINEAR, Model, _check_targets,
                            log_softmax)
from dashssl.theory import PLProblem


def _weights(model: Model):
    """The weight blocks, sliced from the flat parameters by their own shapes."""
    d, k, h = model.input_dim, model.num_classes, model.hidden
    if model.arch == SOFTMAX_LINEAR:
        W, b = np.split(model.params, [k * d])
        return W.reshape(k, d), b
    W1, b1, W2, b2 = np.split(model.params, np.cumsum([h * d, h, k * h]))
    return W1.reshape(h, d), b1, W2.reshape(k, h), b2


def forward_batch(model: Model, X: np.ndarray) -> np.ndarray:
    """Logits for a batch, out of place."""
    if model.arch == SOFTMAX_LINEAR:
        W, b = _weights(model)
        return X @ W.T + b
    W1, b1, W2, b2 = _weights(model)
    return np.tanh(X @ W1.T + b1) @ W2.T + b2


def loss_and_grad(model: Model, X: np.ndarray, T: np.ndarray
                  ) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy and its flat gradient, out of place."""
    n = X.shape[0]
    if model.arch == SOFTMAX_LINEAR:
        W, b = _weights(model)
        LS = log_softmax(X @ W.T + b)
        D = (np.exp(LS) - T) / n
        return (float(-np.sum(T * LS) / n),
                np.concatenate([(D.T @ X).ravel(), D.sum(axis=0)]))
    W1, b1, W2, b2 = _weights(model)
    H = np.tanh(X @ W1.T + b1)
    LS = log_softmax(H @ W2.T + b2)
    D = (np.exp(LS) - T) / n
    DH = (D @ W2) * (1.0 - H * H)
    return (float(-np.sum(T * LS) / n),
            np.concatenate([(DH.T @ X).ravel(), DH.sum(axis=0),
                            (D.T @ H).ravel(), D.sum(axis=0)]))


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Logits of one example."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.input_dim:
        raise ValueError(
            f"input dimension mismatch: expected ({model.input_dim},), got {x.shape}")
    return forward_batch(model, x[None, :])[0]


def cross_entropy(target: np.ndarray, logits: np.ndarray) -> float:
    """H(target, softmax(logits)) with max-shifted log-sum-exp."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError("logits must be a vector")
    t = _check_targets(np.asarray(target)[None], z.shape[0])[0]
    return float(-np.sum(t * log_softmax(z)))


def one_hot(index: int, num_classes: int) -> np.ndarray:
    if not 0 <= index < num_classes:
        raise ValueError(f"class index {index} out of range [0, {num_classes})")
    t = np.zeros(num_classes)
    t[index] = 1.0
    return t


def objective_grad(problem: PLProblem, w: np.ndarray) -> np.ndarray:
    """Gradient of problem.objective at w."""
    return problem.eigenvalues * (w - problem.w_star)
