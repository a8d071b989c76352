"""Dynamic-threshold semi-supervised training.

The trainer runs a supervised warm-up stage followed by a selection
stage in which unlabeled examples whose pseudo-label loss falls below a
geometrically decaying threshold contribute to a truncated gradient.
Fixed-confidence-threshold baselines share the same loop skeleton so
runs are directly comparable.
"""

import math
import struct
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import augment as aug
from . import models
from .data import PROV_UNLABELED_Q, DatasetBundle, Examples
from .errors import DivergenceError
from .models import Model

GRAD_UNLABELED_ONLY = "unlabeled-only"
GRAD_WITH_LABELED = "with-labeled"
GRADIENT_FORMS = (GRAD_UNLABELED_ONLY, GRAD_WITH_LABELED)

LR_CONSTANT = "constant"
LR_COSINE = "cosine"
LR_SCHEDULES = (LR_CONSTANT, LR_COSINE)

ALGO_DASH = "dash"
ALGO_FIXMATCH = "fixmatch"
ALGO_PL = "pl"
ALGO_DASH_PL = "dash-pl"
# algorithm -> (augmented view, decaying-loss rule).  An augmented algorithm
# pseudo-labels a weak view and takes its loss on a strong view; the others
# use the raw view for both.  The decaying-loss rule selects rows whose loss
# is under the threshold schedule; the others keep rows whose confidence
# reaches tau.
ALGORITHMS = {
    ALGO_DASH: (True, True),
    ALGO_FIXMATCH: (True, False),
    ALGO_PL: (False, False),
    ALGO_DASH_PL: (False, True),
}


@dataclass
class ThresholdSchedule:
    """Geometric threshold decay rho_t = max(C * gamma^-k * rho_hat, floor).

    Before activation_epoch the threshold is infinite.  The decay count k
    is the number of completed decay periods after activation: one per
    step when decay_every_epochs is None, otherwise one per that many
    epochs.
    """

    C: float
    gamma: float
    rho_hat: Optional[float] = None
    floor: float = 0.0
    activation_epoch: int = 0
    decay_every_epochs: Optional[int] = None
    steps_per_epoch: int = 1

    def __post_init__(self):
        if not self.C > 1.0:
            raise ValueError("C must be > 1")
        if not self.gamma > 1.0:
            raise ValueError("gamma must be > 1")
        if self.rho_hat is not None and not self.rho_hat > 0.0:
            raise ValueError("rho_hat must be > 0 when given")
        if self.floor < 0.0:
            raise ValueError("floor must be >= 0")
        if self.activation_epoch < 0:
            raise ValueError("activation_epoch must be >= 0")
        if self.decay_every_epochs is not None and self.decay_every_epochs < 1:
            raise ValueError("decay_every_epochs must be >= 1 when given")


def threshold(t: int, schedule: ThresholdSchedule) -> float:
    """Threshold at 1-based step t; after activation it needs rho_hat."""
    epoch = (t - 1) // schedule.steps_per_epoch
    if epoch < schedule.activation_epoch:
        return math.inf
    if schedule.decay_every_epochs is None:
        k = (t - 1) - schedule.activation_epoch * schedule.steps_per_epoch
    else:
        k = (epoch - schedule.activation_epoch) // schedule.decay_every_epochs
    return max(schedule.C * schedule.gamma ** (-k) * schedule.rho_hat,
               schedule.floor)


def select(losses: np.ndarray, rho: float) -> np.ndarray:
    """Boolean selection mask; the boundary loss == rho is included."""
    return losses <= rho


def truncated_gradient(model: Model, X: np.ndarray, T: np.ndarray,
                       mask: np.ndarray, forward: Optional[models.Forward] = None,
                       labeled: Optional[Tuple[np.ndarray, int]] = None
                       ) -> np.ndarray:
    """Mean gradient over the rows of (X, T) that mask keeps.

    forward is X's, if already taken.  It serves when mask keeps every row,
    as X[mask] is then X bit for bit; a strict subset is forwarded anew,
    since (X @ W.T)[mask] and X[mask] @ W.T differ in the last bits.  With
    labeled = (g_l, N_l), the mean gradient of N_l labeled rows is pooled
    in: the numerator sums gradients over the kept rows and all labeled
    rows, the denominator is N_l + (number kept).  With nothing to average
    over, the gradient is the zero vector.
    """
    n_sel = int(np.count_nonzero(mask))
    if not n_sel:
        g_u = np.zeros(model.params.size)
    elif n_sel == len(X):
        g_u = models.gradient(model, X, T, forward)
    else:
        g_u = models.gradient(model, X[mask], T[mask])
    if labeled is None:
        return g_u
    g_l, n_l = labeled
    total = np.zeros(model.params.size)  # +0.0 first: it decides the sign of a zero sum
    total += g_u * n_sel
    total += g_l * n_l
    return total / (n_l + n_sel)


@dataclass
class DashConfig:
    algorithm: str = ALGO_DASH
    schedule: ThresholdSchedule = field(
        default_factory=lambda: ThresholdSchedule(C=3.0, gamma=1.27, floor=0.05,
                                                  activation_epoch=10,
                                                  decay_every_epochs=9))
    # warm-up stage
    T0: int = 0
    m0: int = 64
    eta0: float = 0.2
    # selection stage
    T: int = 0
    m: int = 64
    eta: float = 0.2
    lambda_u: float = 1.0
    gradient_form: str = GRAD_UNLABELED_ONLY
    sharpen_temperature: float = 0.5
    lr_schedule: str = LR_COSINE
    weight_decay: float = 0.0
    momentum: float = 0.9
    tau: float = 0.95
    seed: int = 0
    augment: aug.AugmentPolicy = field(
        default_factory=lambda: aug.AugmentPolicy(weak_noise=0.05, strong_noise=0.15,
                                                  strong_mask_prob=0.05))

    def __post_init__(self):
        if self.gradient_form not in GRADIENT_FORMS:
            raise ValueError(f"unknown gradient_form {self.gradient_form!r}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.T0 < 0 or self.T < 0:
            raise ValueError("T0 and T must be >= 0")
        if self.m0 < 1 or self.m < 1:
            raise ValueError("m0 and m must be >= 1")
        if self.eta0 <= 0 or self.eta <= 0:
            raise ValueError("learning rates must be > 0")
        if self.lambda_u < 0:
            raise ValueError("lambda_u must be >= 0")
        if self.sharpen_temperature <= 0:
            raise ValueError("sharpen_temperature must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")


# the metrics.csv columns, in order, each with the type of its values
METRICS_COLUMNS = {
    "step": int, "epoch": int, "rho_t": float, "n_sampled": int, "n_selected": int,
    "n_sel_correct": int, "n_sel_wrong": int, "n_sel_P": int, "n_sel_Q": int,
    "labeled_loss": float, "unlabeled_loss": float, "test_error": float, "lr": float,
}


def metrics_table(rows: Sequence[Sequence]) -> Dict[str, np.ndarray]:
    """Rows in METRICS_COLUMNS order as one int64 or float64 array per column."""
    columns = list(zip(*rows)) or [()] * len(METRICS_COLUMNS)
    return {name: np.array(column, dtype=np.int64 if kind is int else np.float64)
            for (name, kind), column in zip(METRICS_COLUMNS.items(), columns)}


def epoch_table(metrics: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Per-epoch columns of a metrics table of at least one row: the epoch, its
    summed n_sel_correct and n_sel_wrong, its first step's rho_t, its last's test_error."""
    order = np.lexsort((metrics["step"], metrics["epoch"]))
    epoch = metrics["epoch"][order]
    starts = np.flatnonzero(np.r_[True, epoch[1:] != epoch[:-1]])
    sums = {name: np.add.reduceat(metrics[name][order], starts)
            for name in ("n_sel_correct", "n_sel_wrong")}
    return {"epoch": epoch[starts], **sums, "rho_t": metrics["rho_t"][order[starts]],
            "test_error": metrics["test_error"][order[np.r_[starts[1:], epoch.size] - 1]]}


def labeled_arrays(labeled: Examples, num_classes: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Features and one-hot targets of a labeled split."""
    return labeled.X, np.eye(num_classes)[labeled.y]


def warmup(model: Model, Xl: np.ndarray, Tl: np.ndarray, config: DashConfig,
           rng: np.random.Generator) -> Model:
    """Supervised SGD for T0 steps with batch size m0 and rate eta0.

    Draws weakly augmented minibatches from the labeled arrays (Xl, Tl).
    The input model is not mutated.
    """
    model = model.copy()
    for step in range(1, config.T0 + 1):
        idx = rng.integers(0, Xl.shape[0], size=config.m0)
        Xb = aug.weak_augment_batch(Xl[idx], config.augment, rng)
        loss, grad = models.loss_and_grad(model, Xb, Tl[idx])
        if not math.isfinite(loss):
            raise DivergenceError(step, "non-finite warm-up loss", metrics_table(()))
        model.params -= config.eta0 * grad
        if not np.isfinite(model.params).all():
            raise DivergenceError(step, "non-finite parameters during warm-up",
                                  metrics_table(()))
    return model


def _learning_rate(config: DashConfig, t: int) -> float:
    if config.lr_schedule == LR_CONSTANT:
        return config.eta
    total = max(config.T, 1)
    return config.eta * math.cos(7.0 * math.pi * (t - 1) / (16.0 * total))


def steps_per_epoch(n_unlabeled: int, m: int) -> int:
    """Steps of m draws per pass over the unlabeled pool, at least one."""
    return max(1, math.ceil(n_unlabeled / m))


def dash_train(bundle: DatasetBundle, config: DashConfig, model: Model
               ) -> Tuple[Model, Dict[str, np.ndarray], Dict[str, float]]:
    """Run warm-up plus T selection-stage steps; returns (model, metrics, log).

    metrics is the metrics.csv table (see metrics_table); log holds the
    rho_hat the threshold decays from (nan if none) and the steps per epoch.

    RNG draws per step happen in a fixed order (unlabeled indices, weak
    noise, strong noise and mask, labeled indices) so reruns with the
    same config are bit-identical.  The bundle, config and model are
    trusted as the boundary built them, so the only error raised is a
    DivergenceError, which carries the metrics of the steps finished before it.
    """
    rng = np.random.default_rng(config.seed)
    augmented, dynamic = ALGORITHMS[config.algorithm]
    pooled = dynamic and config.gradient_form == GRAD_WITH_LABELED

    Xu, yu = bundle.unlabeled.X, bundle.unlabeled.y
    is_q = bundle.unlabeled.provenance == PROV_UNLABELED_Q
    Xl, Tl = labeled_arrays(bundle.labeled, model.num_classes)
    Xt, yt = bundle.test.X, bundle.test.y
    n_l = len(Xl)
    one_hot = np.eye(model.num_classes)

    epoch_steps = steps_per_epoch(len(bundle.unlabeled), config.m)
    schedule = replace(config.schedule, steps_per_epoch=epoch_steps)

    model = warmup(model, Xl, Tl, config, rng)
    # When g_s takes every labeled row, the forward that gives labeled_loss
    # (or rho_hat) also gives the next step's g_s: the parameters do not
    # change between the two, and no draw is taken.
    whole_labeled = pooled or n_l <= config.m
    labeled_forward = models.log_probs(model, Xl) if whole_labeled else None
    if dynamic and schedule.rho_hat is None:
        schedule = replace(schedule,
                           rho_hat=models.mean_loss(model, Xl, Tl, labeled_forward))

    fixed_level = -math.log(config.tau)
    velocity = np.zeros(model.params.size)
    rows = []

    for t in range(1, config.T + 1):
        lr = _learning_rate(config, t)
        if whole_labeled:
            g_s = models.gradient(model, Xl, Tl, labeled_forward)
        idx = rng.integers(0, Xu.shape[0], size=config.m)
        Xb, yb, qb = Xu[idx], yu[idx], is_q[idx]

        if augmented:
            weak = aug.weak_augment_batch(Xb, config.augment, rng)
            loss_view = aug.strong_augment_batch(Xb, config.augment, rng)
        else:
            weak = loss_view = Xb

        forward = models.log_probs(model, weak)
        P = np.exp(forward[1])
        hard = P.argmax(axis=1)

        rho_t = threshold(t, schedule) if dynamic else fixed_level
        soft = augmented and dynamic and rho_t > schedule.floor
        if soft:
            targets = aug.sharpen(P, config.sharpen_temperature)
            if not np.isfinite(targets).all():
                raise DivergenceError(
                    t, "non-finite sharpened pseudo-labels (sharpen_temperature="
                       f"{config.sharpen_temperature!r} underflows)",
                    metrics_table(rows))
        else:
            targets = one_hot[hard]

        if augmented:
            forward = models.log_probs(model, loss_view)
        losses = models.batch_losses(model, loss_view, targets, forward)
        mask = select(losses, rho_t) if dynamic else P.max(axis=1) >= config.tau
        grad = truncated_gradient(model, loss_view, targets, mask, forward,
                                  (g_s, n_l) if pooled else None)
        n_sel = np.count_nonzero(mask)

        if pooled:
            g = grad
        else:
            if not whole_labeled:
                lidx = rng.choice(n_l, size=config.m, replace=False)
                g_s = models.gradient(model, Xl[lidx], Tl[lidx])
            g = g_s + config.lambda_u * grad
        if config.weight_decay:
            g = g + config.weight_decay * model.params
        velocity *= config.momentum
        velocity += g
        model.params -= lr * velocity

        if not np.isfinite(model.params).all():
            raise DivergenceError(t, "non-finite parameters", metrics_table(rows))
        if not math.isinf(rho_t) and not np.isfinite(losses).all():
            raise DivergenceError(t, "non-finite unlabeled loss", metrics_table(rows))

        if whole_labeled:
            labeled_forward = models.log_probs(model, Xl)
        labeled_loss = models.mean_loss(model, Xl, Tl, labeled_forward)
        if not math.isfinite(labeled_loss):
            raise DivergenceError(t, "non-finite labeled loss", metrics_table(rows))
        unlabeled_loss = float(losses[mask].mean()) if n_sel else 0.0
        test_error = models.error_rate(model, Xt, yt)  # nan without a test split
        correct = np.count_nonzero(mask & (hard == yb))
        n_sel_Q = np.count_nonzero(mask & qb)
        # one metrics.csv row, in METRICS_COLUMNS order
        rows.append((t, (t - 1) // epoch_steps, rho_t, config.m, n_sel,
                     correct, n_sel - correct, n_sel - n_sel_Q, n_sel_Q,
                     labeled_loss, unlabeled_loss, test_error, lr))

    log = {
        "rho_hat": float(schedule.rho_hat) if schedule.rho_hat is not None else float("nan"),
        "steps_per_epoch": int(epoch_steps),
    }
    return model, metrics_table(rows), log


# ---------------------------------------------------------------------------
# metrics CSV

def write_metrics_csv(metrics: Dict[str, np.ndarray], path: str) -> None:
    """One line per step; repr of a Python int or float reads back exactly."""
    rows = zip(*(metrics[name].tolist() for name in METRICS_COLUMNS))
    lines = [",".join(METRICS_COLUMNS)] + [",".join(map(repr, row)) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_metrics_csv(path: str) -> Dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != list(METRICS_COLUMNS):
            raise ValueError(f"{path}: unexpected metrics header {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    for r in rows:
        if len(r) != len(METRICS_COLUMNS):
            raise ValueError(f"{path}: metrics row with {len(r)} fields, "
                             f"expected {len(METRICS_COLUMNS)}")
    return metrics_table(rows)


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_MAGIC = b"DASHMODL"


def save_checkpoint(params: np.ndarray, path: str) -> None:
    """16-byte header (magic + little-endian uint64 size) + float64 payload."""
    values = np.asarray(params, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", values.size))
        fh.write(values.tobytes())
