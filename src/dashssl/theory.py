"""Convergence-bound verification on constructed quadratic problems.

Builds diagonal quadratics satisfying the gradient-dominance (PL)
inequality, mixes an out-of-distribution component into the per-example
loss stream, derives the constants used by the convergence statement,
and empirically checks the loss envelope and selection-set-size bounds
over seeded runs of the selection-stage loop.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import dash
from .errors import InfeasibleConstantsError

Q_SHIFTED = "shifted-minimizer"
Q_SCALED = "scaled-loss"
Q_KINDS = (Q_SHIFTED, Q_SCALED)

# rows of a selection step's draw held at once: a step's memory is
# O(CHUNK * d) however large its draw
CHUNK = 16_384


# ---------------------------------------------------------------------------
# constant formulas

def batch_parameter(q: float, delta: float, C: float) -> int:
    """Base batch size: ceiling of the three-term square-root max."""
    l2d = math.log(2.0 / delta)
    terms = (math.sqrt(l2d / q ** 2),
             math.sqrt(l2d / (1.0 - q) ** 2),
             math.sqrt(l2d / (q * (1.0 - 1.0 / C) ** 2)))
    return int(math.ceil(max(terms)))


def concentration_beta(q: float, delta: float, m: int) -> float:
    l2d = math.log(2.0 / delta)
    return max(math.sqrt(l2d / (2.0 * q ** 2 * m)),
               math.sqrt(l2d / (2.0 * (1.0 - q) ** 2 * m)))


def concentration_alpha(q: float, delta: float, m: int, C: float) -> float:
    l2d = math.log(2.0 / delta)
    return math.sqrt(l2d / (q * m * (1.0 - 1.0 / C) ** 2))


def warmup_steps(F0: float, a: float, eta0: float, mu: float) -> float:
    """Steps of supervised SGD needed to halve the loss target."""
    if not 0.0 < eta0 * mu < 1.0:
        raise ValueError("need 0 < eta0 * mu < 1")
    return max(0.0, math.log(2.0 * F0 / a) / math.log(1.0 / (1.0 - eta0 * mu)))


def warmup_batch(G: float, delta: float, mu: float, a: float) -> float:
    return 4.0 * G ** 2 / (delta * mu * a)


def contraction_factor(eta: float, mu: float) -> float:
    """Per-step geometric improvement factor 1 / (1 - eta*mu/2)."""
    return 1.0 / (1.0 - eta * mu / 2.0)


def rho_hat_theoretical(a: float, G: float, delta: float, mu: float,
                        m: int, a0: float, b0: float) -> float:
    """Target loss level max(a, 4G^2 (1 + delta*b0*m) / (delta*mu*a0*m))."""
    return max(a, 4.0 * G * G * (1.0 + delta * b0 * m) / (delta * mu * a0 * m))


@dataclass
class TheoryConstants:
    # inputs
    G: float
    L: float
    mu: float
    a: float
    b: float
    theta: float
    delta: float
    q: float
    C: float
    eta0: float
    eta: float
    F0: float
    # derived
    m: int
    beta: float
    alpha: float
    a0: float
    b0: float
    b1: float
    rho_hat: float
    T0: float
    m0: float
    gamma_theory: float


def derive_constants(G: float, L: float, mu: float, a: float = 0.5, b: float = 1e-4,
                     theta: float = 1.0, delta: float = 0.1, q: float = 0.8,
                     C: float = 2.0, eta0: float = 0.5, eta: float = 0.5,
                     F0: float = 1.0) -> TheoryConstants:
    """Instantiate every constant of the convergence statement.

    The defaults are the ``theory-verify`` ``constants`` section's.

    The threshold scale rho_hat and the selection-noise constant b0
    depend on each other, so they are resolved by fixed-point iteration
    starting from rho_hat = a (tolerance 1e-10, at most 1000 rounds).
    The inputs are checked here, once; the formulas above trust them.
    """
    if mu <= 0 or L < mu or G <= 0:
        raise ValueError("need 0 < mu <= L and G > 0")
    if a <= 0 or b < 0 or theta <= 0 or F0 <= 0:
        raise ValueError("need a > 0, b >= 0, theta > 0, F0 > 0")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not C > 1.0:
        raise ValueError("C must be > 1")
    if eta0 <= 0 or eta <= 0 or eta0 * L > 1.0 or eta * L > 1.0:
        raise ValueError("need 0 < eta0, eta with eta0 * L <= 1 and eta * L <= 1")

    m = batch_parameter(q, delta, C)
    beta = concentration_beta(q, delta, m)
    alpha = concentration_alpha(q, delta, m, C)
    a0 = (1.0 - 1.0 / C) * (1.0 - beta) * (1.0 - alpha) * q
    if a0 <= 0.0:
        bad = [name for name, v in (("beta", beta), ("alpha", alpha)) if v >= 1.0]
        raise InfeasibleConstantsError(
            f"a0 = {a0:.6g} <= 0; offending concentration terms >= 1: "
            f"{', '.join(bad) if bad else 'none'} (beta={beta:.6g}, alpha={alpha:.6g})")

    def b0_at(rho: float) -> float:
        return 2.0 * ((1.0 - q) * (1.0 + beta) * b * rho ** theta
                      + math.log(1.0 / delta))

    rho = a
    for _ in range(1000):
        new = rho_hat_theoretical(a, G, delta, mu, m, a0, b0_at(rho))
        if not math.isfinite(new):
            raise InfeasibleConstantsError(
                "rho_hat fixed point diverged to a non-finite value")
        if abs(new - rho) <= 1e-10 * max(1.0, abs(rho)):
            rho = new
            break
        rho = new
    else:
        raise InfeasibleConstantsError(
            "rho_hat fixed point did not converge within 1000 iterations")
    b0 = b0_at(rho)

    return TheoryConstants(
        G=G, L=L, mu=mu, a=a, b=b, theta=theta, delta=delta, q=q, C=C,
        eta0=eta0, eta=eta, F0=F0,
        m=m, beta=beta, alpha=alpha, a0=a0, b0=b0, b1=b0 / a0, rho_hat=rho,
        T0=warmup_steps(F0, a, eta0, mu), m0=warmup_batch(G, delta, mu, a),
        gamma_theory=contraction_factor(eta, mu))


# ---------------------------------------------------------------------------
# constructed problems

@dataclass
class PLProblem:
    """Diagonal quadratic with uniform per-example center jitter.

    F(w) = 0.5 (w - w_star)' A (w - w_star) with spectrum in [mu, L], so
    2*mu*(F(w) - F(w_star)) <= |grad F(w)|^2 everywhere.  Per-example
    losses shift the center by a bounded vector z, keeping them
    nonnegative, with E[grad f] = grad F exactly.  Iterates are meant to
    stay in the ball of radius `radius` around w_star, which bounds
    per-example gradients by 2 * L * radius.

    A batch of examples is (centers, scales); per-example losses and
    gradients are functions of the displacement diff = w - centers, which
    the selection stage computes once per chunk and shares between them.
    example_grads scales diff in place and returns it.  A scale of 1 (every
    P draw, every shifted-minimizer Q draw) multiplies nothing, so when all
    scales are 1 neither method multiplies by them.
    """

    eigenvalues: np.ndarray
    w_star: np.ndarray
    radius: float
    noise_half_width: float

    @property
    def dim(self) -> int:
        return int(self.w_star.shape[0])

    @property
    def mu(self) -> float:
        return float(self.eigenvalues.min())

    @property
    def smoothness(self) -> float:
        return float(self.eigenvalues.max())

    @property
    def grad_bound(self) -> float:
        return 2.0 * self.smoothness * self.radius

    def objective(self, w: np.ndarray) -> float:
        v = w - self.w_star
        return 0.5 * float(v @ (self.eigenvalues * v))

    def project(self, w: np.ndarray) -> np.ndarray:
        v = w - self.w_star
        norm = float(np.linalg.norm(v))
        if norm <= self.radius:
            return w
        return self.w_star + v * (self.radius / norm)

    def sample_p(self, rng: np.random.Generator, n: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """In-distribution example batch as (centers, scales)."""
        z = rng.uniform(-self.noise_half_width, self.noise_half_width,
                        size=(n, self.dim))
        z += self.w_star
        return z, np.ones(n)

    def example_losses(self, diff: np.ndarray, scales: np.ndarray) -> np.ndarray:
        """Per-example losses at displacements diff = w - centers."""
        losses = np.einsum("ij,j,ij->i", diff, self.eigenvalues, diff)
        losses *= 0.5 if _all_unit(scales) else 0.5 * scales
        return losses

    def example_grads(self, diff: np.ndarray, scales: np.ndarray) -> np.ndarray:
        """Per-example gradients at displacements diff = w - centers.

        The gradients are written over diff, which is returned.
        """
        diff *= self.eigenvalues
        if not _all_unit(scales):
            diff *= scales[:, None]
        return diff


def _all_unit(scales: np.ndarray) -> bool:
    """Whether multiplying by scales would leave every value as it is."""
    return not (scales != 1.0).any()


def make_pl_problem(d: int = 10, mu: float = 0.5, L: float = 2.0, R: float = 1.0,
                    seed: int = 0, noise_scale: float = 0.1) -> PLProblem:
    """Log-spaced spectrum in [mu, L]; per-example jitter |z| <= noise_scale*R.

    The defaults are the ``theory-verify`` ``problem`` section's.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0.0 < mu <= L:
        raise ValueError("need 0 < mu <= L")
    if R <= 0:
        raise ValueError("R must be > 0")
    if not 0.0 <= noise_scale <= 1.0:
        raise ValueError("noise_scale must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    eigs = np.geomspace(mu, L, d)
    w_star = rng.standard_normal(d)
    return PLProblem(eigs, w_star, float(R),
                     noise_scale * R / math.sqrt(d))


@dataclass
class QDistribution:
    """Out-of-distribution per-example loss component."""

    kind: str
    offset: np.ndarray
    factor: float

    def transform(self, centers: np.ndarray, scales: np.ndarray,
                  rows: np.ndarray) -> None:
        """Turn the rows (integer indices) of an in-distribution batch into
        Q draws, in place."""
        if self.kind == Q_SHIFTED:
            centers[rows] += self.offset
        else:
            scales[rows] *= self.factor


def make_q_distribution(problem: PLProblem, kind: str = Q_SHIFTED,
                        offset: Union[float, List[float], None] = 2.0,
                        factor: Optional[float] = 100.0
                        ) -> QDistribution:
    """The defaults are the ``theory-verify`` ``q_dist`` section's."""
    if kind not in Q_KINDS:
        raise ValueError(f"unknown Q kind {kind!r}; expected one of {Q_KINDS}")
    d = problem.dim
    if kind == Q_SHIFTED:
        if offset is None:
            raise ValueError("shifted-minimizer requires an offset")
        off = np.asarray(offset, dtype=np.float64)
        if off.ndim == 0:
            off = float(off) * np.ones(d) / math.sqrt(d)
        if off.shape != (d,):
            raise ValueError("offset dimension mismatch")
        return QDistribution(kind, off, 1.0)
    if factor is None or factor <= 0:
        raise ValueError("scaled-loss requires factor > 0")
    return QDistribution(kind, np.zeros(d), float(factor))


def sample_mixture(problem: PLProblem, qdist: Optional[QDistribution],
                   is_p: np.ndarray, rng: np.random.Generator, n: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """n live draws as (centers, scales), freshly allocated.

    The draws are in-distribution where is_p is true and Q draws where it
    is false; the jitter is drawn for every row first, so the stream
    consumed does not depend on is_p.  Without a Q component every draw is
    in-distribution and is_p is not read.
    """
    centers, scales = problem.sample_p(rng, n)
    if qdist is not None:
        qdist.transform(centers, scales, np.flatnonzero(~is_p))
    return centers, scales


# ---------------------------------------------------------------------------
# bound verification runs

# the most draws one selection step may take
DEFAULT_N_CAP = 2 ** 20


def theory_batch_size(m: int, gamma: float, t: int) -> int:
    """Draw size floor(m * gamma^(t-1)) of the selection stage at 1-based step t."""
    return max(1, int(math.floor(m * gamma ** (t - 1) + 1e-9)))


def check_sample_cap(constants: TheoryConstants, T: int) -> None:
    """A ValueError naming the first of steps 1..T that draws over DEFAULT_N_CAP.

    The steps are checked in order, so no power past the cap is taken; a
    draw past every float is over the cap too.
    """
    for t in range(1, T + 1):
        try:
            n_t = theory_batch_size(constants.m, constants.gamma_theory, t)
        except OverflowError:
            n_t = math.inf
        if n_t > DEFAULT_N_CAP:
            raise ValueError(f"batch size {n_t} at step t={t} exceeds the cap "
                             f"{DEFAULT_N_CAP}")


@dataclass
class TheoryRunRecord:
    seed: int
    steps: List[int]
    A_rho: List[int]
    B_rho: List[int]
    F: List[float]
    envelope: List[float]
    pass_envelope: bool
    pass_A: bool
    pass_B: bool
    samples_warmup: int
    samples_selection: int
    sample_bound: float
    F_start: float

    def schema_dict(self) -> Dict:
        return {"seed": self.seed, "steps": self.steps, "A_rho": self.A_rho,
                "B_rho": self.B_rho, "F": self.F, "envelope": self.envelope,
                "pass_envelope": self.pass_envelope, "pass_A": self.pass_A,
                "pass_B": self.pass_B}


@dataclass
class BoundReport:
    runs: List[TheoryRunRecord]
    pass_envelope: float
    pass_A: float
    pass_B: float

    def schema_dict(self) -> Dict:
        return {"runs": [r.schema_dict() for r in self.runs],
                "pass_envelope": self.pass_envelope,
                "pass_A": self.pass_A, "pass_B": self.pass_B}


def run_selection_stage(problem: PLProblem, qdist: Optional[QDistribution],
                        constants: TheoryConstants, T: int, seed: int,
                        thresholded: bool = True) -> TheoryRunRecord:
    """One seeded warm-up + selection-stage run on a constructed problem.

    With thresholded=False every sampled example is used (plain
    projected SGD on the same draw sequence).
    """
    rng = np.random.default_rng(seed)
    gamma = constants.gamma_theory
    d = problem.dim

    u = rng.standard_normal(d)
    w = problem.w_star + u / np.linalg.norm(u) * problem.radius

    t0_steps = int(math.ceil(constants.T0)) if constants.T0 > 0 else 0
    m0_batch = max(1, int(math.ceil(constants.m0)))
    for _ in range(t0_steps):
        centers, scales = problem.sample_p(rng, m0_batch)
        g = problem.example_grads(w - centers, scales).mean(axis=0)
        w = problem.project(w - constants.eta0 * g)
    f_start = problem.objective(w)

    schedule = (dash.ThresholdSchedule(C=constants.C, gamma=gamma,
                                       rho_hat=constants.rho_hat)
                if thresholded else None)
    steps, a_rho, b_rho, f_vals, env = [], [], [], [], []
    samples = 0
    for t in range(1, T + 1):
        n_t = theory_batch_size(constants.m, gamma, t)
        samples += n_t
        rho_t = dash.threshold(t, schedule) if thresholded else math.inf
        # the P/Q indicators of the whole step come first in the stream, then
        # the jitter; both are drawn CHUNK rows at a time, which consumes the
        # stream single draws of n_t rows would, so a step holds n_t bools
        # and at most two (CHUNK, d) float arrays
        is_p = np.ones(n_t, dtype=bool)
        if qdist is not None:
            for lo in range(0, n_t, CHUNK):
                part = is_p[lo:lo + CHUNK]
                np.less(rng.random(len(part)), constants.q, out=part)
        acc, n_sel, n_sel_p = None, 0, 0
        for lo in range(0, n_t, CHUNK):
            chunk_p = is_p[lo:lo + CHUNK]
            diff, scales = sample_mixture(problem, qdist, chunk_p, rng, len(chunk_p))
            np.subtract(w, diff, out=diff)
            mask = dash.select(problem.example_losses(diff, scales), rho_t)
            keep = np.flatnonzero(mask)
            if not len(keep):
                continue
            n_sel += len(keep)
            n_sel_p += int(np.count_nonzero(mask & chunk_p))
            # rebinding frees the full chunk; the gradient then scales the
            # selected rows in place
            diff = np.take(diff, keep, axis=0)
            acc = _fold_rows(acc, problem.example_grads(diff, np.take(scales, keep)))
            # free this chunk's rows before the next chunk is drawn
            del diff
        if n_sel:
            w = problem.project(w - constants.eta * (acc / n_sel))
        steps.append(t)
        a_rho.append(n_sel_p)
        b_rho.append(n_sel - n_sel_p)
        f_vals.append(problem.objective(w))
        env.append(constants.rho_hat * gamma ** (-t))

    lower = [constants.a0 * constants.m * gamma ** (t - 1) for t in steps]
    upper = constants.b0 * constants.m
    record = TheoryRunRecord(
        seed=seed, steps=steps, A_rho=a_rho, B_rho=b_rho, F=f_vals, envelope=env,
        pass_envelope=bool(all(f <= e for f, e in zip(f_vals, env))),
        pass_A=bool(all(n >= lo for n, lo in zip(a_rho, lower))),
        pass_B=bool(all(n <= upper for n in b_rho)),
        samples_warmup=t0_steps * m0_batch, samples_selection=samples,
        sample_bound=t0_steps * m0_batch + constants.m * gamma ** T / (gamma - 1.0),
        F_start=f_start)
    return record


def _fold_rows(acc: Optional[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """acc plus the sum of the rows of a (k >= 1, d) array, in row order.

    The rows are added one at a time onto +0.0, as a Python loop over
    them would; folding acc into the first row keeps that order across
    chunks, so a step's sum does not depend on CHUNK.  Writes over rows.
    """
    if acc is not None:
        rows[0] += acc
    if rows.shape[1] == 1:
        # einsum would sum one contiguous column pairwise; the last running
        # sum is in row order, and adding it to +0.0 gives -0.0 the sign
        # the loop gives it
        return 0.0 + np.add.accumulate(rows[:, 0])[-1:]
    # einsum adds a C-contiguous (k, d > 1) array into each column one row at a time
    return np.einsum("ij->j", rows)


def verify_run(problem: PLProblem, qdist: Optional[QDistribution],
               constants: TheoryConstants, T: int, seeds: Sequence[int],
               thresholded: bool = True) -> BoundReport:
    """Selection-stage runs over seeds with envelope and set-size checks."""
    runs = [run_selection_stage(problem, qdist, constants, T, s, thresholded)
            for s in seeds]
    n = len(runs)
    return BoundReport(
        runs=runs,
        pass_envelope=sum(r.pass_envelope for r in runs) / n,
        pass_A=sum(r.pass_A for r in runs) / n,
        pass_B=sum(r.pass_B for r in runs) / n)
