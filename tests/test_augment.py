import numpy as np
import pytest

import reference
from dashssl import dash, data, models
from dashssl.augment import (AugmentPolicy, sharpen, strong_augment_batch,
                             weak_augment_batch)


class TestPolicy:
    def test_weak_cannot_exceed_strong(self):
        with pytest.raises(ValueError):
            AugmentPolicy(weak_noise=0.2, strong_noise=0.1)

    def test_mask_prob_bounds(self):
        with pytest.raises(ValueError):
            AugmentPolicy(strong_mask_prob=0.6)
        with pytest.raises(ValueError):
            AugmentPolicy(strong_mask_prob=-0.1)

    def test_defaults_are_identity(self):
        pol = AugmentPolicy()
        rng = np.random.default_rng(0)
        X = np.array([[1.0, -2.0], [0.5, 3.0]])
        assert np.array_equal(weak_augment_batch(X, pol, rng), X)
        assert np.array_equal(strong_augment_batch(X, pol, rng), X)


class TestViews:
    def test_weak_noise_scale(self):
        pol = AugmentPolicy(weak_noise=0.3, strong_noise=0.3)
        rng = np.random.default_rng(1)
        X = np.zeros((4000, 3))
        out = weak_augment_batch(X, pol, rng)
        assert out.std() == pytest.approx(0.3, rel=0.05)

    def test_strong_mask_rate(self):
        pol = AugmentPolicy(strong_noise=0.0, strong_mask_prob=0.3)
        rng = np.random.default_rng(2)
        X = np.ones((5000, 4))
        out = strong_augment_batch(X, pol, rng)
        assert np.mean(out == 0.0) == pytest.approx(0.3, abs=0.02)

    def test_deterministic_given_rng(self):
        pol = AugmentPolicy(weak_noise=0.1, strong_noise=0.4, strong_mask_prob=0.2)
        X = np.array([[0.5, 1.5, -0.5], [2.0, 0.0, 1.0]])
        for view in (weak_augment_batch, strong_augment_batch):
            a = view(X, pol, np.random.default_rng(7))
            b = view(X, pol, np.random.default_rng(7))
            assert np.array_equal(a, b)
            assert not np.array_equal(a, X)

    def test_batch_matches_loop_draw_count(self):
        # batch form consumes one (n, d) noise draw + one (n, d) mask draw
        pol = AugmentPolicy(strong_noise=0.2, strong_mask_prob=0.1)
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        X = np.random.default_rng(4).standard_normal((5, 2))
        batch = strong_augment_batch(X, pol, rng1)
        noise = 0.2 * rng2.standard_normal((5, 2))
        mask = rng2.random((5, 2)) >= 0.1
        assert np.array_equal(batch, (X + noise) * mask)


class TestSharpen:
    def test_known_value(self):
        out = sharpen(np.array([[0.7, 0.3], [0.3, 0.7]]), 0.5)
        assert out[0, 0] == pytest.approx(49.0 / 58.0, rel=1e-12)
        assert out[0, 1] == pytest.approx(9.0 / 58.0, rel=1e-12)
        assert np.array_equal(out[1], out[0, ::-1])

    def test_temperature_one_is_identity(self):
        H = np.array([[0.2, 0.5, 0.3], [0.25, 0.25, 0.5]])
        assert np.array_equal(sharpen(H, 1.0), H)

    def test_low_temperature_concentrates(self):
        out = sharpen(np.array([[0.6, 0.4]]), 0.1)
        assert out[0, 0] > 0.98

    def test_preserves_argmax_and_normalization(self):
        H = np.random.default_rng(5).dirichlet(np.ones(5), size=50)
        out = sharpen(H, 0.5)
        assert np.array_equal(np.argmax(out, axis=1), np.argmax(H, axis=1))
        assert np.allclose(out.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)

    def test_underflow_gives_nonfinite_row(self):
        # the trainer turns a non-finite row into a DivergenceError
        with np.errstate(invalid="ignore"):
            out = sharpen(np.array([[0.5, 0.5], [0.9, 0.1]]), 0.0005)
        assert not np.isfinite(out[0]).any()
        assert np.array_equal(out[1], [1.0, 0.0])


class TestFixmatchLoss:
    """FixMatch's consistency loss as the trainer computes it: one-hot
    pseudo-labels from the weak view, loss on the strong view, rows kept
    when their confidence reaches tau."""

    def setup_method(self):
        pool = data.make_two_moons(120, 0.08, 0)
        spec = data.SplitSpec(labels_per_class=12, q=0.8,
                              ood_kind=data.OOD_LABEL_FLIP)
        self.bundle = data.split_ssl(pool, spec, 2)  # N_l = 24 > m = 16
        self.model = models.init_model(models.SOFTMAX_LINEAR, 2, 2, seed=1)

    def config(self, tau, T=6, lambda_u=0.0):
        return dash.DashConfig(
            algorithm=dash.ALGO_FIXMATCH, T=T, m=16, eta=0.2, tau=tau,
            lambda_u=lambda_u, seed=11, lr_schedule=dash.LR_CONSTANT, momentum=0.0,
            augment=AugmentPolicy(weak_noise=0.05, strong_noise=0.15,
                                  strong_mask_prob=0.05))

    def test_rng_consumption_independent_of_tau(self):
        # the views are drawn for the whole batch however many rows pass,
        # so the labeled minibatch draws after them stay aligned; with
        # lambda_u = 0 those draws alone decide the parameters
        m_lo, s_lo, _ = dash.dash_train(self.bundle, self.config(0.51), self.model)
        m_hi, s_hi, _ = dash.dash_train(self.bundle, self.config(0.999999),
                                        self.model)
        assert s_lo["n_selected"].sum() > 0
        assert s_hi["n_selected"].sum() == 0
        assert np.array_equal(m_lo.params, m_hi.params)

    def test_none_selected_returns_zero(self):
        _, metrics, _ = dash.dash_train(
            self.bundle, self.config(0.999999, lambda_u=1.0), self.model)
        assert metrics["n_selected"].tolist() == [0] * 6
        assert metrics["unlabeled_loss"].tolist() == [0.0] * 6

    def test_loss_matches_manual_computation(self):
        cfg = self.config(0.6, T=1)
        _, metrics, _ = dash.dash_train(self.bundle, cfg, self.model)
        # replay step 1's draws (T0 = 0, so warm-up draws nothing)
        rng = np.random.default_rng(cfg.seed)
        Xu, _ = data.examples_xy(self.bundle.unlabeled)
        X = Xu[rng.integers(0, len(Xu), size=cfg.m)]
        weak = weak_augment_batch(X, cfg.augment, rng)
        strong = strong_augment_batch(X, cfg.augment, rng)
        H = np.exp(models.log_softmax(models.forward_batch(self.model, weak)))
        sel = np.flatnonzero(H.max(axis=1) >= 0.6)
        assert metrics["n_selected"][0] == sel.size > 0
        want = np.mean([reference.cross_entropy(reference.one_hot(int(np.argmax(H[i])), 2),
                                                reference.forward(self.model, strong[i]))
                        for i in sel])
        assert metrics["unlabeled_loss"][0] == pytest.approx(float(want), rel=1e-12)
