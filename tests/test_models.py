import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

import reference
from dashssl.models import (MLP_1HIDDEN, SOFTMAX_LINEAR, Model, batch_losses,
                            error_rate, forward_batch, init_model, log_softmax,
                            loss_and_grad, mean_loss)
from reference import cross_entropy, forward, one_hot


def small_batch(model, n, seed):
    """(X, T): n standard-normal inputs with random one-hot targets."""
    rng = np.random.default_rng(seed)
    rows = [(rng.standard_normal(model.input_dim),
             one_hot(int(rng.integers(model.num_classes)), model.num_classes))
            for _ in range(n)]
    return np.stack([x for x, _ in rows]), np.stack([t for _, t in rows])


def bitwise_equal(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


class TestInit:
    def test_same_seed_same_params(self):
        a = init_model(MLP_1HIDDEN, 3, 4, hidden=5, seed=7)
        b = init_model(MLP_1HIDDEN, 3, 4, hidden=5, seed=7)
        assert np.array_equal(a.params, b.params)

    def test_different_seed_differs(self):
        a = init_model(SOFTMAX_LINEAR, 3, 4, seed=0)
        b = init_model(SOFTMAX_LINEAR, 3, 4, seed=1)
        assert not np.array_equal(a.params, b.params)

    def test_fan_in_bound(self):
        m = init_model(MLP_1HIDDEN, 9, 3, hidden=4, seed=0)
        assert np.all(np.abs(m.views["W1"]) <= 1.0 / 3.0 + 1e-12)
        assert np.all(np.abs(m.views["W2"]) <= 0.5 + 1e-12)

    def test_mlp_requires_hidden(self):
        with pytest.raises(ValueError):
            init_model(MLP_1HIDDEN, 3, 2, hidden=0, seed=0)

    def test_unknown_arch(self):
        with pytest.raises(ValueError):
            init_model("resnet", 3, 2, seed=0)


class TestForward:
    def test_shapes(self):
        m = init_model(MLP_1HIDDEN, 3, 4, hidden=5, seed=0)
        X = np.zeros((7, 3))
        assert forward_batch(m, X).shape == (7, 4)
        assert forward(m, np.zeros(3)).shape == (4,)

    def test_dim_mismatch(self):
        m = init_model(SOFTMAX_LINEAR, 3, 2, seed=0)
        with pytest.raises(ValueError):
            forward_batch(m, np.zeros((4, 5)))

    # (input_dim, num_classes, hidden, batch rows): two-moons and wide blobs
    @pytest.mark.parametrize("shape", [(2, 2, 32, 64), (2, 2, 32, 512),
                                       (64, 16, 128, 256), (64, 16, 128, 4000)])
    @pytest.mark.parametrize("arch", [SOFTMAX_LINEAR, MLP_1HIDDEN])
    def test_matches_out_of_place_reference_bitwise(self, arch, shape):
        d, k, h, n = shape
        m = init_model(arch, d, k, hidden=h, seed=3)
        X, T = small_batch(m, n, seed=4)
        X *= 3.0  # reach tanh's saturated range too
        assert bitwise_equal(forward_batch(m, X), reference.forward_batch(m, X))
        loss, grad = loss_and_grad(m, X, T)
        want_loss, want_grad = reference.loss_and_grad(m, X, T)
        assert np.float64(loss).view(np.int64) == np.float64(want_loss).view(np.int64)
        assert bitwise_equal(grad, want_grad)

    def test_linear_model_is_affine(self):
        m = init_model(SOFTMAX_LINEAR, 3, 2, seed=0)
        W, b = m.views.values()
        x = np.array([0.3, -1.2, 2.0])
        assert np.allclose(forward(m, x), W @ x + b)


class TestBoundViews:
    """The block views follow the params array they were bound to."""

    def test_in_place_update_reaches_the_forward(self):
        m = init_model(MLP_1HIDDEN, 3, 2, hidden=4, seed=0)
        X, T = small_batch(m, 5, seed=1)
        m.params -= loss_and_grad(m, X, T)[1]
        assert bitwise_equal(forward_batch(m, X), reference.forward_batch(m, X))

    @pytest.mark.parametrize("derive", [lambda m: m.copy(),
                                        lambda m: replace(m, params=m.params * 2.0),
                                        copy.deepcopy,
                                        lambda m: pickle.loads(pickle.dumps(m))],
                             ids=["copy", "replace", "deepcopy", "pickle"])
    def test_derived_model_has_its_own_views(self, derive):
        m = init_model(MLP_1HIDDEN, 3, 2, hidden=4, seed=0)
        X, _ = small_batch(m, 5, seed=1)
        before = forward_batch(m, X)
        other = derive(m)
        other.params += 1.0
        assert bitwise_equal(forward_batch(m, X), before)
        assert bitwise_equal(forward_batch(other, X), reference.forward_batch(other, X))

    def test_models_of_one_shape_do_not_share_views(self):
        # a view cache keyed on the shape, or on the model's id (which the
        # next model takes over once this one is freed), would read an
        # earlier model's parameters here
        X = np.random.default_rng(1).standard_normal((5, 3))
        arrays = [init_model(MLP_1HIDDEN, 3, 2, hidden=4, seed=s).params for s in range(4)]
        for params in arrays:
            m = Model(MLP_1HIDDEN, 3, 2, 4, params)
            assert bitwise_equal(forward_batch(m, X), reference.forward_batch(m, X))
            del m


class TestSoftmax:
    def test_log_softmax_normalized(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((20, 5)) * 3
        assert np.allclose(np.exp(log_softmax(Z)).sum(axis=1), 1.0)

    def test_extreme_logits_stay_finite(self):
        Z = np.array([[1e4, -1e4, 0.0]])
        ls = log_softmax(Z)
        assert np.all(np.isfinite(ls))
        assert ls[0, 0] == pytest.approx(0.0, abs=1e-12)


class TestCrossEntropy:
    def test_known_value(self):
        # independently computed: -0.3*ls[0] - 0.7*ls[1] for logits (0.1, -0.2)
        got = cross_entropy(np.array([0.3, 0.7]), np.array([0.1, -0.2]))
        assert got == pytest.approx(0.7643552444685271, rel=1e-14)

    def test_one_hot_reduces_to_nll(self):
        z = np.array([0.5, 1.5, -0.3])
        t = one_hot(1, 3)
        assert cross_entropy(t, z) == pytest.approx(-log_softmax(z[None])[0, 1])

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.5, 0.6]), np.zeros(2))
        with pytest.raises(ValueError):
            cross_entropy(np.array([-0.1, 1.1]), np.zeros(2))

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            z = rng.standard_normal(4) * 5
            assert cross_entropy(p, z) >= 0.0


class TestGradients:
    def test_linear_gradient_closed_form(self):
        m = init_model(SOFTMAX_LINEAR, 3, 2, seed=5)
        x = np.array([1.0, -0.5, 2.0])
        t = one_hot(0, 2)
        _, g = loss_and_grad(m, x[None], t[None])
        p = np.exp(log_softmax(forward(m, x)[None]))[0]
        d = p - t
        g_blocks = replace(m, params=g).views
        assert np.allclose(g_blocks["W"], np.outer(d, x))
        assert np.allclose(g_blocks["b"], d)

    def test_batch_gradient_is_mean(self):
        m = init_model(MLP_1HIDDEN, 3, 2, hidden=4, seed=2)
        X, T = small_batch(m, 4, seed=3)
        _, g_all = loss_and_grad(m, X, T)
        singles = [loss_and_grad(m, X[i:i + 1], T[i:i + 1])[1] for i in range(len(X))]
        assert np.allclose(g_all, np.mean(singles, axis=0), atol=1e-12)

    def test_loss_matches_mean_loss(self):
        m = init_model(MLP_1HIDDEN, 3, 2, hidden=4, seed=2)
        X, T = small_batch(m, 4, seed=3)
        loss, _ = loss_and_grad(m, X, T)
        assert loss == pytest.approx(mean_loss(m, X, T), rel=1e-12)

    def test_batch_losses_per_row(self):
        m = init_model(SOFTMAX_LINEAR, 3, 4, seed=1)
        X, T = small_batch(m, 6, seed=4)
        got = batch_losses(m, X, T)
        want = [cross_entropy(t, forward(m, x)) for x, t in zip(X, T)]
        assert np.allclose(got, want, atol=1e-12)


class TestPrediction:
    def test_argmax_tie_takes_lowest_index(self):
        m = init_model(SOFTMAX_LINEAR, 2, 3, seed=0)
        m.params[:] = 0.0
        X = np.ones((2, 2))
        assert error_rate(m, X, np.array([0, 0])) == 0.0
        assert error_rate(m, X, np.array([1, 2])) == 1.0

    def test_error_rate(self):
        m = init_model(SOFTMAX_LINEAR, 2, 2, seed=0)
        m.params[:] = 0.0
        W = m.views["W"]
        W[1, 0] = 1.0  # class 1 iff x0 > 0
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
        assert error_rate(m, X, np.array([1, 0, 0])) == pytest.approx(1 / 3)

    def test_error_rate_empty_is_nan(self):
        m = init_model(SOFTMAX_LINEAR, 2, 2, seed=0)
        assert math.isnan(error_rate(m, np.zeros((0, 2)), np.zeros(0, dtype=int)))


def test_model_copy_detaches_params():
    m = init_model(SOFTMAX_LINEAR, 2, 2, seed=0)
    c = m.copy()
    c.params[:] = 0.0
    assert not np.array_equal(m.params, c.params)


def test_one_hot_validation():
    assert one_hot(1, 3).tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        one_hot(3, 3)
    with pytest.raises(ValueError):
        one_hot(-1, 3)
