import importlib.util
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import reference
from dashssl import theory
from dashssl.errors import InfeasibleConstantsError
from dashssl.theory import (BoundReport, PLProblem, QDistribution,
                            TheoryConstants, batch_parameter,
                            concentration_alpha, concentration_beta,
                            contraction_factor, derive_constants,
                            make_pl_problem, make_q_distribution,
                            rho_hat_theoretical, run_selection_stage,
                            sample_mixture, verify_run,
                            warmup_batch, warmup_steps)

# inputs used by the envelope experiments; the derived values below were
# frozen from an independent hand evaluation of the formulas
ENVELOPE_INPUTS = dict(G=4.0, L=2.0, mu=0.5, a=0.5, b=1e-4, theta=1.0,
                       delta=0.1, q=0.8, C=2.0, eta0=0.5, eta=0.5)


class TestScalarFormulas:
    def test_batch_parameter_worked_example(self):
        q, delta, C = 0.5, 0.1, 2.0
        l2d = math.log(2.0 / delta)
        by_hand = max(math.sqrt(l2d / q ** 2),
                      math.sqrt(l2d / (1 - q) ** 2),
                      math.sqrt(l2d / (q * (1 - 1 / C) ** 2)))
        assert batch_parameter(q, delta, C) == math.ceil(by_hand) == 5

    def test_batch_parameter_validation(self, monkeypatch):
        # batch_parameter trusts its inputs; derive_constants, its only
        # caller, rejects a bad q, delta or C before the formula runs
        def unreachable(*args):
            raise AssertionError("batch_parameter reached with bad inputs")

        monkeypatch.setattr(theory, "batch_parameter", unreachable)
        for bad, msg in ((dict(q=0.0), "q must"), (dict(q=1.0), "q must"),
                         (dict(delta=0.0), "delta must"),
                         (dict(C=1.0), "C must")):
            with pytest.raises(ValueError, match=msg):
                derive_constants(**dict(ENVELOPE_INPUTS, **bad))

    def test_concentration_terms_match_formulas(self):
        q, delta, m, C = 0.8, 0.1, 9, 2.0
        l2d = math.log(2.0 / delta)
        want_beta = max(math.sqrt(l2d / (2 * q * q * m)),
                        math.sqrt(l2d / (2 * (1 - q) ** 2 * m)))
        want_alpha = math.sqrt(l2d / (q * m * (1 - 1 / C) ** 2))
        assert concentration_beta(q, delta, m) == pytest.approx(want_beta,
                                                                rel=1e-15)
        assert concentration_alpha(q, delta, m, C) == pytest.approx(want_alpha,
                                                                    rel=1e-15)

    def test_warmup_batch_worked_example(self):
        assert warmup_batch(1.0, 0.1, 1.0, 0.5) == pytest.approx(80.0)

    def test_warmup_steps(self):
        got = warmup_steps(F0=1.0, a=0.5, eta0=0.5, mu=0.5)
        want = math.log(4.0) / math.log(1 / 0.75)
        assert got == pytest.approx(want, rel=1e-15)
        # an already-satisfied target needs no steps
        assert warmup_steps(F0=0.2, a=1.0, eta0=0.5, mu=0.5) == 0.0
        with pytest.raises(ValueError):
            warmup_steps(F0=1.0, a=0.5, eta0=3.0, mu=1.0)

    def test_contraction_factor(self):
        assert contraction_factor(0.1, 1.0) == pytest.approx(20.0 / 19.0,
                                                             rel=1e-15)


class TestRhoHat:
    def test_theoretical_worked_example(self):
        got = rho_hat_theoretical(a=0.5, G=1.0, delta=0.1, mu=1.0, m=5,
                                  a0=0.05, b0=2.0)
        assert got == pytest.approx(320.0, rel=1e-12)

    def test_theoretical_lower_clamp(self):
        assert rho_hat_theoretical(a=1e6, G=1.0, delta=0.1, mu=1.0, m=5,
                                   a0=0.05, b0=2.0) == 1e6


class TestDeriveConstants:
    def test_envelope_configuration_frozen_values(self):
        c = derive_constants(**ENVELOPE_INPUTS)
        assert c.m == 9
        assert c.a0 == pytest.approx(0.12064707557964723, rel=1e-9)
        assert c.b0 == pytest.approx(5.451799034270337, rel=1e-9)
        assert c.rho_hat == pytest.approx(6962.891512875881, rel=1e-9)
        assert c.gamma_theory == pytest.approx(8.0 / 7.0, rel=1e-12)
        assert c.T0 == pytest.approx(4.818841679306419, rel=1e-9)
        assert c.m0 == pytest.approx(2560.0, rel=1e-12)
        assert c.b1 == pytest.approx(c.b0 / c.a0, rel=1e-15)

    def test_rho_hat_is_a_fixed_point(self):
        c = derive_constants(**ENVELOPE_INPUTS)
        b0 = 2.0 * ((1 - c.q) * (1 + c.beta) * c.b * c.rho_hat ** c.theta
                    + math.log(1.0 / c.delta))
        again = rho_hat_theoretical(c.a, c.G, c.delta, c.mu, c.m, c.a0, b0)
        assert again == pytest.approx(c.rho_hat, rel=1e-9)

    def test_input_validation(self):
        base = dict(ENVELOPE_INPUTS)
        for bad in (dict(mu=-1.0), dict(L=0.1), dict(G=0.0), dict(a=0.0),
                    dict(b=-1.0), dict(theta=0.0), dict(q=1.0), dict(C=1.0),
                    dict(eta=0.9), dict(eta0=2.0), dict(F0=0.0)):
            kw = dict(base, **bad)
            with pytest.raises(ValueError):
                derive_constants(**kw)

    def test_negative_signal_fraction_is_infeasible(self):
        with pytest.raises(InfeasibleConstantsError) as ei:
            derive_constants(G=4.0, L=2.0, mu=0.5, a=0.5, b=1e-4, theta=1.0,
                             delta=0.9, q=0.98, C=1.5, eta0=0.5, eta=0.5)
        assert "beta" in str(ei.value)

    def test_heavy_tail_has_no_fixed_point(self):
        kw = dict(ENVELOPE_INPUTS, b=0.1)
        with pytest.raises(InfeasibleConstantsError):
            derive_constants(**kw)

    def test_manual_construction_allowed(self):
        nan = float("nan")
        c = TheoryConstants(G=2.0, L=2.0, mu=0.5, a=0.5, b=0.0, theta=1.0,
                            delta=0.1, q=1.0, C=2.0, eta0=0.5, eta=0.5, F0=1.0,
                            m=16, beta=nan, alpha=nan, a0=nan, b0=nan, b1=nan,
                            rho_hat=1.0, T0=5.0, m0=64.0, gamma_theory=8 / 7)
        assert c.m == 16 and c.rho_hat == 1.0


@pytest.fixture(scope="module")
def problem():
    return make_pl_problem(d=10, mu=0.5, L=2.0, R=1.0, seed=0)


class TestPLProblem:
    def test_spectrum_spans_mu_to_l(self, problem):
        eigs = problem.eigenvalues
        assert eigs[0] == pytest.approx(0.5)
        assert eigs[-1] == pytest.approx(2.0)
        assert np.all(np.diff(eigs) > 0)
        assert problem.mu == pytest.approx(0.5)
        assert problem.smoothness == pytest.approx(2.0)
        assert problem.grad_bound == pytest.approx(4.0)

    def test_curvature_inequality_everywhere(self, problem):
        # 2*mu*(F(w) - F(w*)) <= |grad F(w)|^2 for the diagonal quadratic
        rng = np.random.default_rng(3)
        for _ in range(50):
            w = problem.w_star + rng.standard_normal(problem.dim)
            f = problem.objective(w)
            g = reference.objective_grad(problem, w)
            assert 2 * problem.mu * f <= float(g @ g) + 1e-12

    def test_objective_minimum_at_w_star(self, problem):
        assert problem.objective(problem.w_star) == 0.0
        assert np.all(reference.objective_grad(problem, problem.w_star) == 0.0)

    def test_example_losses_nonnegative(self, problem):
        rng = np.random.default_rng(4)
        w = problem.w_star + 0.5 * rng.standard_normal(problem.dim)
        centers, scales = problem.sample_p(rng, 500)
        assert np.all(problem.example_losses(w - centers, scales) >= 0.0)

    def test_example_grads_unbiased(self, problem):
        rng = np.random.default_rng(5)
        w = problem.w_star + 0.3 * np.ones(problem.dim) / math.sqrt(problem.dim)
        centers, scales = problem.sample_p(rng, 200_000)
        mc = problem.example_grads(w - centers, scales).mean(axis=0)
        assert np.max(np.abs(mc - reference.objective_grad(problem, w))) < 2e-3

    def test_jitter_bounded(self, problem):
        rng = np.random.default_rng(6)
        centers, scales = problem.sample_p(rng, 1000)
        assert np.max(np.abs(centers - problem.w_star)) <= problem.noise_half_width
        assert np.all(scales == 1.0)

    def test_project(self, problem):
        inside = problem.w_star + 0.1 * np.ones(problem.dim)
        assert np.array_equal(problem.project(inside), inside)
        outside = problem.w_star + 5.0 * np.ones(problem.dim)
        clipped = problem.project(outside)
        assert np.linalg.norm(clipped - problem.w_star) == pytest.approx(
            problem.radius, rel=1e-12)

    def test_make_validation(self):
        with pytest.raises(ValueError):
            make_pl_problem(0, 0.5, 2.0, 1.0, 0)
        with pytest.raises(ValueError):
            make_pl_problem(5, 2.0, 0.5, 1.0, 0)
        with pytest.raises(ValueError):
            make_pl_problem(5, 0.5, 2.0, -1.0, 0)
        with pytest.raises(ValueError):
            make_pl_problem(5, 0.5, 2.0, 1.0, 0, noise_scale=2.0)


class TestQDistribution:
    def test_scalar_offset_becomes_fixed_norm_vector(self, problem):
        qd = make_q_distribution(problem, "shifted-minimizer", offset=2.0)
        assert qd.offset.shape == (problem.dim,)
        assert np.linalg.norm(qd.offset) == pytest.approx(2.0, rel=1e-12)

    def test_shifted_transform(self, problem):
        qd = make_q_distribution(problem, "shifted-minimizer", offset=2.0)
        rng = np.random.default_rng(0)
        centers, scales = problem.sample_p(rng, 10)
        c2, s2 = centers.copy(), scales.copy()
        qd.transform(c2, s2, np.arange(10))
        assert np.allclose(c2 - centers, qd.offset)
        assert np.array_equal(s2, scales)

    def test_scaled_transform(self, problem):
        qd = make_q_distribution(problem, "scaled-loss", factor=100.0)
        rng = np.random.default_rng(0)
        centers, scales = problem.sample_p(rng, 10)
        c2, s2 = centers.copy(), scales.copy()
        qd.transform(c2, s2, np.arange(10))
        assert np.array_equal(c2, centers)
        assert np.allclose(s2, 100.0 * scales)

    def test_validation(self, problem):
        with pytest.raises(ValueError):
            make_q_distribution(problem, "banana")
        with pytest.raises(ValueError):
            make_q_distribution(problem, "shifted-minimizer", offset=None)
        with pytest.raises(ValueError):
            make_q_distribution(problem, "shifted-minimizer",
                                offset=np.ones(3))
        with pytest.raises(ValueError):
            make_q_distribution(problem, "scaled-loss", factor=0.0)


def _mixture(problem, qd, q, seed, n):
    """n draws in the selection stage's order: the indicators, then the rows."""
    rng = np.random.default_rng(seed)
    is_p = rng.random(n) < q
    centers, scales = sample_mixture(problem, qd, is_p, rng, n)
    return centers, scales, is_p


class TestSampleMixture:
    def test_q_one_draws_only_p(self, problem):
        qd = make_q_distribution(problem, "scaled-loss", factor=100.0)
        _, scales, is_p = _mixture(problem, qd, 1.0, 0, 500)
        assert is_p.all()
        assert np.all(scales == 1.0)

    def test_mixture_proportion(self, problem):
        qd = make_q_distribution(problem, "scaled-loss", factor=100.0)
        _, scales, is_p = _mixture(problem, qd, 0.8, 1, 20_000)
        assert is_p.mean() == pytest.approx(0.8, abs=0.01)
        assert np.all(scales[is_p] == 1.0)
        assert np.all(scales[~is_p] == 100.0)

    def test_deterministic(self, problem):
        qd = make_q_distribution(problem, "shifted-minimizer", offset=2.0)
        a = _mixture(problem, qd, 0.8, 7, 64)
        b = _mixture(problem, qd, 0.8, 7, 64)
        for xa, xb in zip(a, b):
            assert np.array_equal(xa, xb)

    def test_none_qdist_means_pure_p(self, problem):
        # without Q the indicators are not read: all-false still draws P
        centers, scales = sample_mixture(problem, None, np.zeros(200, dtype=bool),
                                         np.random.default_rng(2), 200)
        assert np.array_equal(centers,
                              problem.sample_p(np.random.default_rng(2), 200)[0])
        assert np.all(scales == 1.0)
        assert np.max(np.abs(centers - problem.w_star)) <= problem.noise_half_width


@pytest.fixture(scope="module")
def envelope_constants():
    return derive_constants(**ENVELOPE_INPUTS)


@pytest.fixture(scope="module")
def binding():
    """Problem and constants of the regime where the threshold binds.

    mu = L = 1 and eta = 1 give gamma = 2 and m = 9, so step t draws
    9 * 2**(t - 1) rows.
    """
    problem = make_pl_problem(d=10, mu=1.0, L=1.0, R=1.0, seed=0)
    c = derive_constants(**dict(ENVELOPE_INPUTS, G=problem.grad_bound,
                                L=1.0, mu=1.0, eta=1.0))
    assert (c.m, c.gamma_theory) == (9, 2.0)
    return problem, c


class TestSelectionStage:
    def test_record_invariants(self, problem, envelope_constants):
        c = envelope_constants
        qd = make_q_distribution(problem, "shifted-minimizer", offset=2.0)
        rec = run_selection_stage(problem, qd, c, T=6, seed=0)
        assert rec.steps == list(range(1, 7))
        gamma = c.gamma_theory
        want_env = [c.rho_hat * gamma ** (-t) for t in rec.steps]
        assert np.allclose(rec.envelope, want_env, rtol=1e-12)
        want_n = [int(math.floor(c.m * gamma ** (t - 1) + 1e-9))
                  for t in rec.steps]
        assert all(a + b <= n for a, b, n in zip(rec.A_rho, rec.B_rho, want_n))
        assert rec.samples_selection == sum(want_n)
        assert rec.samples_warmup == math.ceil(c.T0) * math.ceil(c.m0)
        assert all(f >= 0 for f in rec.F)

    def test_unthresholded_uses_every_draw(self, problem, envelope_constants):
        c = envelope_constants
        qd = make_q_distribution(problem, "shifted-minimizer", offset=2.0)
        rec = run_selection_stage(problem, qd, c, T=5, seed=1,
                                  thresholded=False)
        gamma = c.gamma_theory
        for t, a, b in zip(rec.steps, rec.A_rho, rec.B_rho):
            n_t = int(math.floor(c.m * gamma ** (t - 1) + 1e-9))
            assert a + b == n_t

    def test_pure_p_has_empty_noise_set(self, problem, envelope_constants):
        rec = run_selection_stage(problem, None, envelope_constants, T=5,
                                  seed=2)
        assert all(b == 0 for b in rec.B_rho)

    def test_threshold_schedule_validated(self, problem, envelope_constants):
        flat = replace(envelope_constants, C=1.0)
        with pytest.raises(ValueError, match="C must be > 1"):
            run_selection_stage(problem, None, flat, T=2, seed=0)
        run_selection_stage(problem, None, flat, T=2, seed=0, thresholded=False)

    def test_deterministic(self, problem, envelope_constants):
        qd = make_q_distribution(problem, "shifted-minimizer", offset=2.0)
        r1 = run_selection_stage(problem, qd, envelope_constants, T=4, seed=3)
        r2 = run_selection_stage(problem, qd, envelope_constants, T=4, seed=3)
        assert r1.schema_dict() == r2.schema_dict()

    def test_step_holds_one_draw_sized_array(self):
        # binding regime (gamma = 2, m = 9): the last of T = 12 steps draws
        # n = 9 * 2**11 rows of d = 10, and its float64 (n, d) arrays
        # dominate the peak
        problem = make_pl_problem(d=10, mu=1.0, L=1.0, R=1.0, seed=0)
        c = derive_constants(**dict(ENVELOPE_INPUTS, G=problem.grad_bound,
                                    L=1.0, mu=1.0, eta=1.0))
        qd = make_q_distribution(problem, "shifted-minimizer", offset=2.0)
        n_max = c.m * 2 ** 11
        assert (c.m, c.gamma_theory) == (9, 2.0) and n_max == 18_432
        tracemalloc.start()
        try:
            run_selection_stage(problem, qd, c, T=12, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n_max * problem.dim * 8

    def test_step_holds_chunk_sized_arrays(self, binding):
        # the last of T = 14 steps draws 9 * 2**13 = 73,728 rows, four
        # chunks' worth; only the chunk's (CHUNK, d) arrays may set the peak
        problem, c = binding
        qd = make_q_distribution(problem, "shifted-minimizer", offset=2.0)
        assert c.m * 2 ** 13 == 73_728 > 4 * theory.CHUNK
        tracemalloc.start()
        try:
            run_selection_stage(problem, qd, c, T=14, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * theory.CHUNK * problem.dim * 8

    @pytest.mark.parametrize("case", ["shifted-minimizer", "scaled-loss", "none",
                                      "d=1", "d=2"])
    def test_records_do_not_depend_on_chunk(self, monkeypatch, binding, case):
        problem, c = binding
        if case.startswith("d="):
            # one coordinate is one contiguous column, which numpy's
            # reductions would not sum row by row
            problem = make_pl_problem(int(case[2:]), 1.0, 1.0, 1.0, 0)
            case = "shifted-minimizer"
        qd, c, T = {
            "shifted-minimizer": (make_q_distribution(
                problem, "shifted-minimizer", offset=2.0), c, 13),
            "scaled-loss": (make_q_distribution(
                problem, "scaled-loss", factor=100.0), c, 10),
            # a lower threshold scale, so that it rejects in-distribution draws
            "none": (None, replace(c, rho_hat=0.3), 10),
        }[case]
        n_last = 9 * 2 ** (T - 1)
        assert n_last > 4 * 1_000
        records = []
        for chunk in (7, 1_000, 2 ** 20):
            monkeypatch.setattr(theory, "CHUNK", chunk)
            records.append(run_selection_stage(problem, qd, c, T=T, seed=0))
        first = records[0]
        # the largest step is partly rejected, so the masks cut across chunks
        assert 0 < first.A_rho[-1] + first.B_rho[-1] < n_last
        for rec in records[1:]:
            assert rec.F == first.F
            assert rec.A_rho == first.A_rho
            assert rec.B_rho == first.B_rho

    def test_schema_keys(self, problem, envelope_constants):
        rec = run_selection_stage(problem, None, envelope_constants, T=2,
                                  seed=0)
        assert set(rec.schema_dict()) == {"seed", "steps", "A_rho", "B_rho",
                                          "F", "envelope", "pass_envelope",
                                          "pass_A", "pass_B"}


class TestSelectionReference:
    """The selection stage's arithmetic against the forms in reference.py."""

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    @pytest.mark.parametrize("kind", theory.Q_KINDS)
    @pytest.mark.parametrize("q", [0.8, 1.0, 0.0], ids=["mixed", "all-P", "all-Q"])
    def test_sample_mixture(self, d, kind, q):
        problem = make_pl_problem(d, 0.5, 2.0, 1.0, 0)
        qd = make_q_distribution(problem, kind, offset=2.0, factor=100.0)
        is_p = np.random.default_rng(d).random(300) < q
        got = sample_mixture(problem, qd, is_p, np.random.default_rng(1), 300)
        want = reference.sample_mixture(problem, qd, is_p, np.random.default_rng(1), 300)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    @pytest.mark.parametrize("unit", [True, False])
    def test_example_losses_and_grads(self, d, unit):
        problem = make_pl_problem(d, 0.5, 2.0, 1.0, 0)
        rng = np.random.default_rng(d)
        diff = rng.standard_normal((50, d))
        scales = np.ones(50) if unit else rng.uniform(0.5, 100.0, 50)
        losses = problem.example_losses(diff, scales)
        assert losses.tobytes() == reference.example_losses(problem, diff, scales).tobytes()
        want = reference.example_grads(problem, diff, scales)
        grads = problem.example_grads(diff, scales)
        assert grads is diff
        assert grads.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_fold_is_the_row_loop(self, d):
        rng = np.random.default_rng(d)
        # magnitudes over 16 decades, so that any other order of the sum shows
        rows = rng.standard_normal((1000, d)) * 10.0 ** rng.integers(-8, 8, (1000, d))
        rows[:, 0] = -0.0  # the loop gives +0.0
        want = reference.row_sum(rows).tobytes()
        assert theory._fold_rows(None, rows.copy()).tobytes() == want
        acc = None
        for lo, hi in ((0, 1), (1, 380), (380, 381), (381, 1000)):
            acc = theory._fold_rows(acc, rows[lo:hi].copy())
        assert acc.tobytes() == want

    @pytest.mark.parametrize("case", ["d=1", "d=2", "d=3", "d=10", "scaled-loss",
                                      "all-P", "all-Q", "empty"])
    def test_selection_stage(self, monkeypatch, binding, case):
        _, c = binding
        d = int(case[2:]) if case.startswith("d=") else 10
        problem = make_pl_problem(d, 1.0, 1.0, 1.0, 0)
        qd = make_q_distribution(problem, "shifted-minimizer", offset=2.0)
        if case == "scaled-loss":
            qd = make_q_distribution(problem, "scaled-loss", factor=3.0)
        elif case == "all-P":
            qd, c = None, replace(c, rho_hat=0.3)
        elif case == "all-Q":
            qd = make_q_distribution(problem, "shifted-minimizer", offset=0.1)
            c = replace(c, q=0.0)
        elif case == "empty":
            c = replace(c, rho_hat=1e-9)
        # a step's draw spans several chunks
        monkeypatch.setattr(theory, "CHUNK", 1_000)
        rec = run_selection_stage(problem, qd, c, T=10, seed=0)
        a_rho, b_rho, f_vals = reference.selection_stage(problem, qd, c, T=10, seed=0)
        assert (rec.A_rho, rec.B_rho) == (a_rho, b_rho)
        assert np.array(rec.F).tobytes() == np.array(f_vals).tobytes()
        n_sel = sum(rec.A_rho) + sum(rec.B_rho)
        assert (n_sel == 0) == (case == "empty")
        assert (sum(rec.B_rho) == 0) == (case in ("all-P", "empty"))
        assert (sum(rec.A_rho) == 0) == (case in ("all-Q", "empty"))


class TestTraceContract:
    """benchmarks/tracing.py counts theory rows from positional arguments."""

    def test_traced_rows(self, binding):
        spec = importlib.util.spec_from_file_location(
            "tracing", os.path.join(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), "benchmarks", "tracing.py"))
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        from dashssl import augment, cli, dash, data, models
        tracer = tracing.Tracer({"cli": cli, "data": data, "augment": augment,
                                 "models": models, "dash": dash, "theory": theory})
        problem, c = binding
        qd = make_q_distribution(problem, "shifted-minimizer", offset=2.0)
        tracer.install()
        try:
            # the last step draws 9 * 2**12 rows, more than one chunk
            report = theory.verify_run(problem, qd, c, T=13, seeds=[0, 1])
        finally:
            tracer.remove()
        rows = {key: t.rows for key, t in tracer.totals.items()}
        drawn = sum(r.samples_selection for r in report.runs)
        selected = sum(sum(r.A_rho) + sum(r.B_rho) for r in report.runs)
        warmup = sum(r.samples_warmup for r in report.runs)
        assert drawn > theory.CHUNK and 0 < selected < drawn and warmup > 0
        assert rows["theory.sample_mixture"] == drawn
        assert rows["theory.PLProblem.example_losses"] == drawn
        assert rows["theory.PLProblem.example_grads"] == selected + warmup


class TestVerifyRun:
    def test_fractions_and_schema(self, problem, envelope_constants):
        qd = make_q_distribution(problem, "shifted-minimizer", offset=2.0)
        report = verify_run(problem, qd, envelope_constants, T=4,
                            seeds=range(3))
        assert isinstance(report, BoundReport)
        assert len(report.runs) == 3
        for frac in (report.pass_envelope, report.pass_A, report.pass_B):
            assert 0.0 <= frac <= 1.0
        d = report.schema_dict()
        assert set(d) == {"runs", "pass_envelope", "pass_A", "pass_B"}
        assert len(d["runs"]) == 3
