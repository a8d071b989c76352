"""End-to-end acceptance checks.

Each test covers one numbered criterion and reports a one-line
PASS/FAIL summary through the conftest terminal hook, independent of
the unit tests elsewhere in the suite.
"""
import json
import math
import time

import numpy as np
import pytest
from conftest import record_criterion

from dashssl import cli, dash, models, theory

ALGOS = ("dash", "fixmatch", "pl", "dash-pl")
ACTIVATION = 10
N_SEEDS = 10


# ---------------------------------------------------------------------------
# shared fixtures

@pytest.fixture(scope="session")
def comparison_runs(tmp_path_factory):
    """Default-config training runs for all algorithms over shared seeds, per epoch."""
    out = tmp_path_factory.mktemp("compare") / "grid"
    t0 = time.perf_counter()
    assert cli.main(["compare", "--out", str(out),
                     "--set", f"seeds={list(range(N_SEEDS))}"]) == 0
    runs = {"elapsed": time.perf_counter() - t0}
    tables = {}  # (algorithm, seed) -> per-epoch table, read off each run's files
    for run in (out / "runs").iterdir():
        cfg = json.loads((run / "resolved-config.json").read_text())
        tables[cfg["algorithm"], cfg["seed"]] = dash.epoch_table(
            dash.read_metrics_csv(str(run / "metrics.csv")))
    for algo in ALGOS:
        by_seed = [tables[algo, seed] for seed in range(N_SEEDS)]
        runs[algo] = {"wrong": np.array([e["n_sel_wrong"] for e in by_seed]),
                      "correct": np.array([e["n_sel_correct"] for e in by_seed]),
                      "err": np.array([e["test_error"][-1] for e in by_seed])}
    return runs


@pytest.fixture(scope="session")
def envelope_runs():
    """Thresholded selection-stage runs on the constructed mixture problem."""
    t0 = time.perf_counter()
    constants = theory.derive_constants(G=4.0, L=2.0, mu=0.5, a=0.5, b=1e-4,
                                        theta=1.0, delta=0.1, q=0.8, C=2.0,
                                        eta0=0.5, eta=0.5, F0=1.0)
    problem = theory.make_pl_problem(d=10, mu=0.5, L=2.0, R=1.0, seed=0)
    qdist = theory.make_q_distribution(problem, "shifted-minimizer", offset=2.0)
    report = theory.verify_run(problem, qdist, constants, T=15,
                               seeds=range(20))
    return constants, report, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients match central finite differences

def _finite_diff(model, X, T, step=1e-5):
    vals = model.params
    g = np.zeros_like(vals)
    for i in range(vals.size):
        orig = vals[i]
        vals[i] = orig + step
        up = models.mean_loss(model, X, T)
        vals[i] = orig - step
        down = models.mean_loss(model, X, T)
        vals[i] = orig
        g[i] = (up - down) / (2.0 * step)
    return g


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for arch in (models.SOFTMAX_LINEAR, models.MLP_1HIDDEN):
        for trial in range(100):
            model = models.init_model(arch, 3, 3, hidden=8,
                                      seed=int(rng.integers(1 << 30)))
            rows = [(rng.standard_normal(3), rng.dirichlet(np.ones(3)))
                    for _ in range(4)]
            X = np.stack([x for x, _ in rows])
            T = np.stack([t for _, t in rows])
            _, grad = models.loss_and_grad(model, X, T)
            fd = _finite_diff(model, X, T)
            rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
            worst = max(worst, float(rel))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    record_criterion(1, ok, f"max rel err {worst:.2e} in {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 2: threshold schedule exactness

def test_criterion_02_threshold_schedule():
    worst = 0.0
    for gamma in (1.1, 1.27, 2.0):
        sched = dash.ThresholdSchedule(C=2.5, gamma=gamma, rho_hat=0.8)
        running = 2.5 * 0.8  # independent oracle by repeated division
        for t in range(1, 101):
            got = dash.threshold(t, sched)
            closed = (2.5 * 0.8) * gamma ** (1 - t)
            worst = max(worst,
                        abs(got - closed) / closed,
                        abs(got - running) / running)
            running /= gamma
    fig = dash.ThresholdSchedule(C=1.0001, gamma=1.27, rho_hat=1.0)
    first_ok = dash.threshold(1, fig) == 1.0001
    floored = dash.ThresholdSchedule(C=1.0001, gamma=1.27, rho_hat=1.0,
                                     floor=0.05)
    floor_ok = dash.threshold(60, floored) == 0.05
    ok = worst <= 1e-12 and first_ok and floor_ok
    record_criterion(2, ok, f"max rel dev {worst:.2e}, first rho "
                            f"{dash.threshold(1, fig)!r}, floor ok={floor_ok}")
    assert worst <= 1e-12
    assert first_ok and floor_ok


# ---------------------------------------------------------------------------
# criterion 3: confidence mask equals negative-log-confidence mask

def test_criterion_03_indicator_equivalence():
    rng = np.random.default_rng(7)
    tau = 0.95
    probs = rng.dirichlet(np.ones(10) * 0.3, size=10_000)
    boundary = np.full((64, 10), 0.05 / 9.0)
    boundary[:, 0] = tau  # exact ties must land on the selected side
    probs = np.vstack([probs, boundary])
    conf = probs.max(axis=1)
    by_confidence = conf >= tau
    by_loss = dash.select(-np.log(conf), -math.log(tau))
    same = np.array_equal(by_confidence, by_loss)
    record_criterion(3, same,
                     f"{probs.shape[0]} vectors, {by_confidence.sum()} "
                     f"selected, masks equal={same}")
    assert same
    assert by_loss[-64:].all()


# ---------------------------------------------------------------------------
# criterion 4: loss envelope on the constructed problem

def test_criterion_04_loss_envelope(envelope_runs):
    _, report, elapsed = envelope_runs
    frac = report.pass_envelope
    ok = frac >= 0.9 and elapsed < 300.0
    record_criterion(4, ok, f"envelope held in {frac:.0%} of "
                            f"{len(report.runs)} seeds, {elapsed:.1f}s")
    assert frac >= 0.9
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 5: selected-set size bounds

def test_criterion_05_set_size_bounds(envelope_runs):
    constants, report, _ = envelope_runs
    ceiling = 2.0 * constants.b0 * constants.m
    grows = all(r.A_rho[-1] > r.A_rho[0] for r in report.runs)
    max_b = max(max(r.B_rho) for r in report.runs)
    ok = (report.pass_A >= 0.9 and report.pass_B >= 0.9 and grows
          and max_b < ceiling)
    record_criterion(5, ok, f"lower {report.pass_A:.0%}, upper "
                            f"{report.pass_B:.0%}, max |B| {max_b} < "
                            f"{ceiling:.1f}, growth={grows}")
    assert report.pass_A >= 0.9
    assert report.pass_B >= 0.9
    assert grows
    assert max_b < ceiling


# ---------------------------------------------------------------------------
# criterion 6: wrong selections collapse after activation, correct ones lead

def test_criterion_06_selection_dynamics(comparison_runs):
    wrong = comparison_runs["dash"]["wrong"]
    window = slice(ACTIVATION, ACTIVATION + 30)
    dips = sum(bool((wrong[s, window] < wrong[s, :ACTIVATION].max()).any())
               for s in range(N_SEEDS))
    d_corr = comparison_runs["dash"]["correct"][:, -20:].mean()
    f_corr = comparison_runs["fixmatch"]["correct"][:, -20:].mean()
    ok = dips >= 8 and d_corr > f_corr
    record_criterion(6, ok, f"wrong-count dip in {dips}/{N_SEEDS} seeds; "
                            f"correct/epoch {d_corr:.0f} vs fixed-threshold "
                            f"{f_corr:.0f}")
    assert dips >= 8
    assert d_corr > f_corr


# ---------------------------------------------------------------------------
# criterion 7: mean test error ordering against the baselines

def test_criterion_07_error_ordering(comparison_runs):
    err = {a: comparison_runs[a]["err"] for a in ALGOS}
    tol_f = max(0.005, 0.5 * float(err["fixmatch"].std()))
    tol_p = max(0.005, 0.5 * float(err["pl"].std()))
    d, f = float(err["dash"].mean()), float(err["fixmatch"].mean())
    dp, p = float(err["dash-pl"].mean()), float(err["pl"].mean())
    elapsed = comparison_runs["elapsed"]
    ok = d <= f + tol_f and dp <= p + tol_p and elapsed < 600.0
    record_criterion(7, ok, f"{d:.4f} vs {f:.4f} (+{tol_f:.4f}); "
                            f"{dp:.4f} vs {p:.4f} (+{tol_p:.4f}); "
                            f"{elapsed:.0f}s for all runs")
    assert d <= f + tol_f
    assert dp <= p + tol_p
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# criterion 8: with no noise component the method tracks plain SGD

def test_criterion_08_degenerate_mixture():
    nan = float("nan")
    constants = theory.TheoryConstants(
        G=2.0, L=2.0, mu=0.5, a=0.5, b=0.0, theta=1.0, delta=0.1, q=1.0,
        C=2.0, eta0=0.5, eta=0.5, F0=1.0, m=16, beta=nan, alpha=nan, a0=nan,
        b0=nan, b1=nan, rho_hat=1.0, T0=5.0, m0=64.0, gamma_theory=8.0 / 7.0)
    problem = theory.make_pl_problem(d=10, mu=0.5, L=2.0, R=1.0, seed=0)
    ratios = []
    for seed in range(5):
        kept = theory.run_selection_stage(problem, None, constants, T=12,
                                          seed=seed, thresholded=True)
        plain = theory.run_selection_stage(problem, None, constants, T=12,
                                           seed=seed, thresholded=False)
        assert plain.F[-1] > 0.0
        ratios.append(kept.F[-1] / plain.F[-1])
    lo, hi = min(ratios), max(ratios)
    ok = all(0.1 <= r <= 10.0 for r in ratios)
    record_criterion(8, ok, f"final-loss ratio range [{lo:.3f}, {hi:.3f}] "
                            f"over 5 seeds")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: reruns are byte-identical

def test_criterion_09_determinism(tmp_path):
    train_args = ["--set", "data.n=48", "--set", "data.test_n=16",
                  "--set", "train.epochs=3", "--set", "model.hidden=4"]
    pair = []
    for tag in ("a", "b"):
        out = tmp_path / f"train-{tag}"
        assert cli.main(["train", "--out", str(out)] + train_args) == 0
        pair.append(out)
    metrics_same = ((pair[0] / "metrics.csv").read_bytes()
                    == (pair[1] / "metrics.csv").read_bytes())
    ckpt_same = ((pair[0] / "checkpoint.bin").read_bytes()
                 == (pair[1] / "checkpoint.bin").read_bytes())

    tv_args = ["--set", "T=3", "--set", "seeds=2"]
    reports = []
    for tag in ("a", "b"):
        out = tmp_path / f"tv-{tag}"
        assert cli.main(["theory-verify", "--out", str(out)] + tv_args) == 0
        reports.append((out / "report.json").read_bytes())
    report_same = reports[0] == reports[1]
    ok = metrics_same and ckpt_same and report_same
    record_criterion(9, ok, f"metrics={metrics_same}, checkpoint={ckpt_same}, "
                            f"report={report_same}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: constants match independently evaluated formulas

def test_criterion_10_constants_oracle():
    l2d = math.log(2.0 / 0.1)
    m_inline = math.ceil(max(math.sqrt(l2d / 0.5 ** 2),
                             math.sqrt(l2d / 0.5 ** 2),
                             math.sqrt(l2d / (0.5 * 0.5 ** 2))))
    m_got = theory.batch_parameter(0.5, 0.1, 2.0)
    m0_inline = 4.0 * 1.0 ** 2 / (0.1 * 1.0 * 0.5)
    m0_got = theory.warmup_batch(1.0, 0.1, 1.0, 0.5)
    g_inline = 1.0 / (1.0 - 0.1 * 1.0 / 2.0)
    g_got = theory.contraction_factor(0.1, 1.0)

    # the full derivation must agree with its own component formulas
    c = theory.derive_constants(G=4.0, L=2.0, mu=0.5, a=0.5, b=1e-4, theta=1.0,
                                delta=0.1, q=0.8, C=2.0, eta0=0.5, eta=0.5)
    consistent = (c.m == theory.batch_parameter(0.8, 0.1, 2.0)
                  and c.m0 == theory.warmup_batch(4.0, 0.1, 0.5, 0.5)
                  and c.gamma_theory == theory.contraction_factor(0.5, 0.5))

    ok = (m_got == m_inline == 5 and m0_got == m0_inline == 80.0
          and g_got == g_inline and abs(g_got - 20.0 / 19.0) < 1e-15
          and consistent)
    record_criterion(10, ok, f"m={m_got}, m0={m0_got:.0f}, "
                             f"gamma={g_got:.6f} (20/19={20 / 19:.6f})")
    assert m_got == m_inline == 5
    assert m0_got == m0_inline == 80.0
    assert g_got == g_inline
    assert abs(g_got - 20.0 / 19.0) < 1e-15
    assert consistent
