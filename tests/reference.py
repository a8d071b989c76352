"""Reference implementations the tests compare the library against.

Per-example forms (``forward``, ``cross_entropy``, ``one_hot``) and the
out-of-place batch forms of the forward pass and the mean gradient, each
written as one expression per step with no in-place updates.  The library
computes the same IEEE operations, so the batch forms must match it
bitwise.  ``load_checkpoint`` reads the checkpoint format back; the
package itself only writes it.  ``objective_grad`` is the closed-form gradient of a constructed
quadratic, which the per-example gradients must average to.

The theory forms keep the selection stage's plainest arithmetic: the Q
rows of a mixture taken by a boolean gather and scattered back, per-example
losses and gradients out of place, and a step's gradient sum as a Python
loop over the selected rows.  ``selection_stage`` runs the whole stage
with them, one unchunked draw per step, and must give the library's
records bit for bit.
"""

import math
import struct
from typing import List, Optional, Tuple

import numpy as np

from dashssl import dash
from dashssl.models import SOFTMAX_LINEAR, Model, log_softmax
from dashssl.theory import (Q_SHIFTED, PLProblem, QDistribution, TheoryConstants,
                            theory_batch_size)


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
    t = np.asarray(target, dtype=np.float64)
    if t.shape != z.shape:
        raise ValueError(f"target shape {t.shape} does not match {z.shape[0]} classes")
    if (t < 0).any():
        raise ValueError("target distribution has negative entries")
    if not abs(t.sum() - 1.0) <= 1e-9:
        raise ValueError(f"target distribution sums to {t.sum()!r}, not 1")
    return float(-np.sum(t * log_softmax(z)))


def one_hot(index: int, num_classes: int) -> np.ndarray:
    if not 0 <= index < num_classes:
        raise ValueError(f"class index {index} out of range [0, {num_classes})")
    t = np.zeros(num_classes)
    t[index] = 1.0
    return t


def load_checkpoint(path: str) -> np.ndarray:
    """The parameters of a dash.save_checkpoint file: a 16-byte header
    (magic + little-endian uint64 size), then the float64 payload."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:8] != dash.CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a model checkpoint (bad magic)")
    (size,) = struct.unpack("<Q", blob[8:16])
    if len(blob) != 16 + 8 * size:
        raise ValueError(f"{path}: truncated checkpoint (expected {size} parameters)")
    return np.frombuffer(blob[16:], dtype="<f8").astype(np.float64)


def objective_grad(problem: PLProblem, w: np.ndarray) -> np.ndarray:
    """Gradient of problem.objective at w."""
    return problem.eigenvalues * (w - problem.w_star)


def sample_mixture(problem: PLProblem, qdist: Optional[QDistribution],
                   is_p: np.ndarray, rng: np.random.Generator, n: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """theory.sample_mixture by a boolean gather and scatter of the Q rows."""
    centers, scales = problem.sample_p(rng, n)
    if qdist is not None and not is_p.all():
        qc, qs = centers[~is_p], scales[~is_p]
        if qdist.kind == Q_SHIFTED:
            qc = qc + qdist.offset
        else:
            qs = qs * qdist.factor
        centers[~is_p] = qc
        scales[~is_p] = qs
    return centers, scales


def example_losses(problem: PLProblem, diff: np.ndarray, scales: np.ndarray
                   ) -> np.ndarray:
    return 0.5 * scales * np.einsum("ij,j,ij->i", diff, problem.eigenvalues, diff)


def example_grads(problem: PLProblem, diff: np.ndarray, scales: np.ndarray
                  ) -> np.ndarray:
    return problem.eigenvalues * diff * scales[:, None]


def row_sum(rows: np.ndarray) -> np.ndarray:
    """The rows added one at a time onto +0.0."""
    total = np.zeros(rows.shape[1])
    for row in rows:
        total += row
    return total


def selection_stage(problem: PLProblem, qdist: Optional[QDistribution],
                    constants: TheoryConstants, T: int, seed: int
                    ) -> Tuple[List[int], List[int], List[float]]:
    """(A_rho, B_rho, F) of a thresholded theory.run_selection_stage."""
    rng = np.random.default_rng(seed)
    gamma = constants.gamma_theory
    u = rng.standard_normal(problem.dim)
    w = problem.w_star + u / np.linalg.norm(u) * problem.radius
    t0_steps = int(math.ceil(constants.T0)) if constants.T0 > 0 else 0
    for _ in range(t0_steps):
        centers, scales = problem.sample_p(rng, max(1, int(math.ceil(constants.m0))))
        g = example_grads(problem, w - centers, scales).mean(axis=0)
        w = problem.project(w - constants.eta0 * g)
    schedule = dash.ThresholdSchedule(C=constants.C, gamma=gamma,
                                      rho_hat=constants.rho_hat)
    a_rho, b_rho, f_vals = [], [], []
    for t in range(1, T + 1):
        n_t = theory_batch_size(constants.m, gamma, t)
        is_p = (rng.random(n_t) < constants.q if qdist is not None
                else np.ones(n_t, dtype=bool))
        centers, scales = sample_mixture(problem, qdist, is_p, rng, n_t)
        diff = w - centers
        mask = example_losses(problem, diff, scales) <= dash.threshold(t, schedule)
        n_sel = int(mask.sum())
        if n_sel:
            total = row_sum(example_grads(problem, diff[mask], scales[mask]))
            w = problem.project(w - constants.eta * (total / n_sel))
        a_rho.append(int((mask & is_p).sum()))
        b_rho.append(n_sel - a_rho[-1])
        f_vals.append(problem.objective(w))
    return a_rho, b_rho, f_vals
