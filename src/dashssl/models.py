"""Small dense softmax classifiers on one flat float64 parameter array.

Two architectures are supported: a linear softmax classifier and a
one-hidden-layer tanh network.  A model's parameters are one flat
float64 array holding the blocks of ``_blocks`` end to end, in that
order, so optimizers and checkpoints treat a model as a plain array;
``Model.views`` holds each block as a reshaped view.  Gradients are
flat arrays in the same layout.  The kernels take float64 batches as
they are and check nothing: data is validated once, where it enters the
program (``DatasetBundle.validate`` and the config boundary).
"""

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

SOFTMAX_LINEAR = "softmax-linear"
MLP_1HIDDEN = "mlp-1hidden"
ARCHITECTURES = (SOFTMAX_LINEAR, MLP_1HIDDEN)


@dataclass
class Model:
    """A classifier on one flat ``params`` array.  Its block ``views`` are
    bound to that array once, when built, and anew in every copy, so
    ``params`` must be updated in place, never rebound."""

    arch: str
    input_dim: int
    num_classes: int
    hidden: int
    params: np.ndarray  # flat float64, the blocks of _blocks end to end
    views: Dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.views, pos = {}, 0
        for name, shape, _ in _blocks(self.arch, self.input_dim, self.num_classes,
                                      self.hidden):
            n = math.prod(shape)
            self.views[name] = self.params[pos:pos + n].reshape(shape)
            pos += n

    def copy(self) -> "Model":
        return replace(self, params=self.params.copy())

    def __reduce__(self):  # so that deepcopy and pickle bind the views anew too
        return Model, (self.arch, self.input_dim, self.num_classes, self.hidden,
                       self.params)


def _blocks(arch: str, d: int, k: int, h: int) -> List[Tuple[str, Tuple[int, ...], int]]:
    """(name, shape, fan_in) for each parameter block, in storage order."""
    if arch == SOFTMAX_LINEAR:
        return [("W", (k, d), d), ("b", (k,), d)]
    return [("W1", (h, d), d), ("b1", (h,), d), ("W2", (k, h), h), ("b2", (k,), h)]


def init_model(arch: str, input_dim: int, num_classes: int, hidden: int = 0,
               seed: int = 0) -> Model:
    """Build a model with uniform [-s, s] init, s = 1/sqrt(fan_in)."""
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}; expected one of {ARCHITECTURES}")
    if input_dim < 1 or num_classes < 2:
        raise ValueError("need input_dim >= 1 and num_classes >= 2")
    if arch == MLP_1HIDDEN and hidden < 1:
        raise ValueError("mlp-1hidden requires hidden >= 1")
    if arch == SOFTMAX_LINEAR:
        hidden = 0
    rng = np.random.default_rng(seed)
    chunks = []
    for _, shape, fan_in in _blocks(arch, input_dim, num_classes, hidden):
        s = 1.0 / math.sqrt(fan_in)
        chunks.append(rng.uniform(-s, s, size=math.prod(shape)))
    return Model(arch, input_dim, num_classes, hidden, np.concatenate(chunks))


def _forward(model: Model, X: np.ndarray) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Hidden activations (None for softmax-linear) and logits of a batch.

    Biases and tanh are applied in place into each matmul output: the same
    IEEE operations as ``tanh(X @ W1.T + b1) @ W2.T + b2``, without its
    temporaries.
    """
    v = model.views
    if model.arch == SOFTMAX_LINEAR:
        Z = X @ v["W"].T
        Z += v["b"]
        return None, Z
    H = X @ v["W1"].T
    H += v["b1"]
    np.tanh(H, out=H)
    Z = H @ v["W2"].T
    Z += v["b2"]
    return H, Z


def forward_batch(model: Model, X: np.ndarray) -> np.ndarray:
    """Logits for a batch; X has shape (n, input_dim)."""
    return _forward(model, X)[1]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted log-softmax over the last axis of a float64 array."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def batch_losses(model: Model, X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Per-example cross-entropy losses."""
    return -(T * log_softmax(forward_batch(model, X))).sum(axis=1)


def mean_loss(model: Model, X: np.ndarray, T: np.ndarray) -> float:
    """Mean cross-entropy of the rows of X against the target rows of T."""
    return float(batch_losses(model, X, T).mean())


def loss_and_grad(model: Model, X: np.ndarray, T: np.ndarray
                  ) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy of the rows of X against T, and its flat gradient."""
    n = X.shape[0]
    H, Z = _forward(model, X)
    LS = log_softmax(Z)
    loss = float(-(T * LS).sum() / n)
    D = (np.exp(LS) - T) / n
    if H is None:
        return loss, np.concatenate([(D.T @ X).ravel(), D.sum(axis=0)])
    DH = (D @ model.views["W2"]) * (1.0 - H * H)
    return loss, np.concatenate([(DH.T @ X).ravel(), DH.sum(axis=0),
                                 (D.T @ H).ravel(), D.sum(axis=0)])


def error_rate(model: Model, X: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose argmax class (ties to the lowest) is not the label."""
    if len(labels) == 0:
        return float("nan")
    return np.count_nonzero(forward_batch(model, X).argmax(axis=1) != labels) / len(labels)
