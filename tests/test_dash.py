import math
import os

import numpy as np
import pytest

import reference
from dashssl import dash, data, models
from dashssl.augment import AugmentPolicy
from dashssl.dash import (ALGO_DASH, ALGO_DASH_PL, ALGO_FIXMATCH, ALGO_PL,
                          LR_CONSTANT, LR_COSINE, DashConfig,
                          METRICS_COLUMNS, ThresholdSchedule, dash_train,
                          labeled_arrays, metrics_table, read_metrics_csv,
                          save_checkpoint, select, threshold,
                          truncated_gradient, warmup, write_metrics_csv)
from dashssl.errors import DivergenceError


def tiny_bundle(seed=0, n=120, labels=4, q=0.8, test_n=40):
    pool = data.make_two_moons(n, 0.08, seed)
    test = data.make_two_moons(test_n, 0.08, seed + 1)
    spec = data.SplitSpec(labels_per_class=labels, q=q,
                          ood_kind=data.OOD_LABEL_FLIP)
    return data.split_ssl(pool, spec, seed + 2, test=test)


def pseudo_batch(model, n, seed):
    """(X, T): n standard-normal views with random one-hot targets."""
    rng = np.random.default_rng(seed)
    rows = [(rng.standard_normal(model.input_dim),
             reference.one_hot(int(rng.integers(model.num_classes)),
                               model.num_classes))
            for _ in range(n)]
    return np.stack([x for x, _ in rows]), np.stack([t for _, t in rows])


class TestThresholdSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdSchedule(C=1.0, gamma=1.27)
        with pytest.raises(ValueError):
            ThresholdSchedule(C=2.0, gamma=1.0)
        with pytest.raises(ValueError):
            ThresholdSchedule(C=2.0, gamma=1.27, rho_hat=0.0)
        with pytest.raises(ValueError):
            ThresholdSchedule(C=2.0, gamma=1.27, floor=-0.1)
        with pytest.raises(ValueError):
            ThresholdSchedule(C=2.0, gamma=1.27, decay_every_epochs=0)

    def test_infinite_before_activation(self):
        s = ThresholdSchedule(C=2.0, gamma=1.5, rho_hat=1.0,
                              activation_epoch=3, steps_per_epoch=4)
        assert all(math.isinf(threshold(t, s)) for t in range(1, 13))
        assert threshold(13, s) == pytest.approx(2.0)

    def test_per_step_decay(self):
        s = ThresholdSchedule(C=1.5, gamma=2.0, rho_hat=4.0)
        assert threshold(1, s) == pytest.approx(6.0)
        assert threshold(2, s) == pytest.approx(3.0)
        assert threshold(3, s) == pytest.approx(1.5)

    def test_per_epoch_decay(self):
        s = ThresholdSchedule(C=2.0, gamma=2.0, rho_hat=1.0,
                              activation_epoch=1, decay_every_epochs=2,
                              steps_per_epoch=3)
        # epochs 1-2 -> k=0; epochs 3-4 -> k=1
        assert threshold(4, s) == pytest.approx(2.0)
        assert threshold(9, s) == pytest.approx(2.0)
        assert threshold(10, s) == pytest.approx(1.0)

    def test_floor_clamp(self):
        s = ThresholdSchedule(C=1.5, gamma=2.0, rho_hat=1.0, floor=0.2)
        assert threshold(10, s) == 0.2


class TestSelect:
    def test_boundary_inclusive(self):
        mask = select(np.array([0.5, 0.5 + 1e-9, 0.1]), 0.5)
        assert mask.tolist() == [True, False, True]

    def test_infinite_threshold_selects_all(self):
        assert select(np.array([1e300, 0.0]), math.inf).all()


class TestTruncatedGradient:
    def test_matches_mean_over_selected(self):
        m = models.init_model(models.MLP_1HIDDEN, 3, 2, hidden=4, seed=0)
        X, T = pseudo_batch(m, 8, seed=1)
        losses = np.array([reference.cross_entropy(t, reference.forward(m, x))
                           for x, t in zip(X, T)])
        rho = float(np.median(losses))
        got_losses = models.batch_losses(m, X, T)
        mask = select(got_losses, rho)
        grad = truncated_gradient(m, X, T, mask)
        assert np.allclose(got_losses, losses, atol=1e-12)
        assert mask.tolist() == (losses <= rho).tolist()
        sel = np.flatnonzero(mask)
        _, want = models.loss_and_grad(m, X[sel], T[sel])
        assert np.allclose(grad, want, atol=1e-12)

    def test_empty_selection_gives_zero_vector(self):
        m = models.init_model(models.SOFTMAX_LINEAR, 3, 2, seed=0)
        X, T = pseudo_batch(m, 4, seed=2)
        mask = select(models.batch_losses(m, X, T), 1e-12)
        grad = truncated_gradient(m, X, T, mask)
        assert not mask.any()
        assert np.all(grad == 0.0)
        assert grad.size == m.params.size


class TestTruncatedGradientWithLabeled:
    def test_pooled_average(self):
        m = models.init_model(models.SOFTMAX_LINEAR, 3, 2, seed=0)
        X, T = pseudo_batch(m, 10, seed=3)
        labeled = pseudo_batch(m, 3, seed=4)
        rho = 10.0  # select everything
        mask = select(models.batch_losses(m, X, T), rho)
        grad = truncated_gradient(m, X, T, mask, labeled)
        assert mask.all()
        _, g_u = models.loss_and_grad(m, X, T)
        _, g_s = models.loss_and_grad(m, *labeled)
        want = (10 * g_u + 3 * g_s) / 13
        assert np.allclose(grad, want, atol=1e-12)

    def test_nothing_selected_keeps_labeled_part(self):
        m = models.init_model(models.SOFTMAX_LINEAR, 3, 2, seed=0)
        X, T = pseudo_batch(m, 10, seed=3)
        labeled = pseudo_batch(m, 3, seed=4)
        mask = select(models.batch_losses(m, X, T), 1e-12)
        grad = truncated_gradient(m, X, T, mask, labeled)
        assert not mask.any()
        _, g_s = models.loss_and_grad(m, *labeled)
        assert np.allclose(grad, g_s, atol=1e-12)


class TestRhoHat:
    def test_practical_is_mean_labeled_loss(self):
        bundle = tiny_bundle()
        m = models.init_model(models.SOFTMAX_LINEAR, 2, 2, seed=0)
        got = models.mean_loss(m, *labeled_arrays(bundle.labeled, 2))
        X = bundle.labeled.X
        T = np.stack([reference.one_hot(int(y), 2) for y in bundle.labeled.y])
        assert got == pytest.approx(models.mean_loss(m, X, T), rel=1e-12)


class TestDashConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DashConfig(momentum=1.0)
        with pytest.raises(ValueError):
            DashConfig(tau=1.0)
        with pytest.raises(ValueError):
            DashConfig(m=0)
        with pytest.raises(ValueError):
            DashConfig(sharpen_temperature=0.0)


class TestWarmup:
    def test_zero_steps_copies_model(self):
        bundle = tiny_bundle()
        m = models.init_model(models.SOFTMAX_LINEAR, 2, 2, seed=0)
        cfg = DashConfig(T0=0)
        out = warmup(m, *labeled_arrays(bundle.labeled, 2), cfg,
                     np.random.default_rng(0))
        assert out is not m
        assert np.array_equal(out.params, m.params)

    def test_training_reduces_labeled_loss(self):
        bundle = tiny_bundle()
        m = models.init_model(models.SOFTMAX_LINEAR, 2, 2, seed=0)
        cfg = DashConfig(T0=50, m0=8, eta0=0.5, augment=AugmentPolicy())
        Xl, Tl = labeled_arrays(bundle.labeled, 2)
        out = warmup(m, Xl, Tl, cfg, np.random.default_rng(0))
        before = models.mean_loss(m, Xl, Tl)
        after = models.mean_loss(out, Xl, Tl)
        assert after < before

    def test_deterministic(self):
        bundle = tiny_bundle()
        m = models.init_model(models.MLP_1HIDDEN, 2, 2, hidden=4, seed=0)
        cfg = DashConfig(T0=10, m0=4, eta0=0.2, augment=AugmentPolicy())
        Xl, Tl = labeled_arrays(bundle.labeled, 2)
        a = warmup(m, Xl, Tl, cfg, np.random.default_rng(5))
        b = warmup(m, Xl, Tl, cfg, np.random.default_rng(5))
        assert np.array_equal(a.params, b.params)


def base_config(algo=ALGO_DASH, T=8, **kw):
    sched = kw.pop("schedule", None) or ThresholdSchedule(
        C=3.0, gamma=1.27, floor=0.05, activation_epoch=1, decay_every_epochs=9)
    pol = kw.pop("augment", None) or AugmentPolicy(weak_noise=0.05,
                                                   strong_noise=0.15,
                                                   strong_mask_prob=0.05)
    kw.setdefault("eta", 0.2)
    kw.setdefault("lr_schedule", LR_CONSTANT)
    kw.setdefault("momentum", 0.0)
    return DashConfig(algorithm=algo, schedule=sched, T=T, m=16,
                      seed=11, augment=pol, **kw)


class TestDashTrain:
    def test_missing_test_split_logs_nan(self, tmp_path):
        pool = data.make_two_moons(120, 0.08, 0)
        bundle = data.split_ssl(pool, data.SplitSpec(labels_per_class=4, q=0.8), 2)
        data.save_bundle(bundle, str(tmp_path))
        assert not (tmp_path / "test.csv").exists()
        for b in (bundle, data.load_bundle(str(tmp_path))):
            assert len(b.test) == 0 and b.test.X.shape == (0, 2)
            model = models.init_model(models.SOFTMAX_LINEAR, 2, 2, seed=1)
            _, metrics, _ = dash_train(b, base_config(T=2), model)
            assert metrics["test_error"].shape == (2,)
            assert np.isnan(metrics["test_error"]).all()

    def test_stats_shape_and_epochs(self):
        bundle = tiny_bundle()
        model = models.init_model(models.MLP_1HIDDEN, 2, 2, hidden=8, seed=1)
        spe = math.ceil(len(bundle.unlabeled) / 16)
        _, metrics, log = dash_train(bundle, base_config(T=3 * spe), model)
        assert list(metrics) == list(METRICS_COLUMNS)
        for name, kind in METRICS_COLUMNS.items():
            assert metrics[name].shape == (3 * spe,), name
            assert metrics[name].dtype == (np.int64 if kind is int else np.float64), name
        assert metrics["step"].tolist() == list(range(1, 3 * spe + 1))
        assert metrics["epoch"].tolist() == [e for e in range(3) for _ in range(spe)]
        assert set(log) == {"rho_hat", "steps_per_epoch"}
        assert log["rho_hat"] > 0 and log["steps_per_epoch"] == spe

    def test_input_model_not_mutated(self):
        bundle = tiny_bundle()
        model = models.init_model(models.MLP_1HIDDEN, 2, 2, hidden=8, seed=1)
        before = model.params.copy()
        dash_train(bundle, base_config(T=4), model)
        assert np.array_equal(model.params, before)

    def test_deterministic_rerun(self):
        bundle = tiny_bundle()
        model = models.init_model(models.MLP_1HIDDEN, 2, 2, hidden=8, seed=1)
        m1, s1, _ = dash_train(bundle, base_config(T=10), model)
        m2, s2, _ = dash_train(bundle, base_config(T=10), model)
        assert np.array_equal(m1.params, m2.params)
        assert list(s1) == list(s2) == list(METRICS_COLUMNS)
        for name in METRICS_COLUMNS:
            assert np.array_equal(s1[name], s2[name], equal_nan=True), name

    def test_fixmatch_logs_fixed_level(self):
        bundle = tiny_bundle()
        model = models.init_model(models.SOFTMAX_LINEAR, 2, 2, seed=1)
        _, metrics, _ = dash_train(bundle, base_config(algo=ALGO_FIXMATCH, T=5),
                                   model)
        assert metrics["rho_t"].tolist() == [-math.log(0.95)] * 5

    def test_pl_uses_raw_view(self):
        # with zero-noise policy, pl and dash-pl should see identical
        # confidences on the first step regardless of augment settings
        bundle = tiny_bundle()
        model = models.init_model(models.SOFTMAX_LINEAR, 2, 2, seed=1)
        quiet = AugmentPolicy()
        noisy = AugmentPolicy(weak_noise=0.3, strong_noise=0.9,
                              strong_mask_prob=0.5)
        _, s_quiet, _ = dash_train(bundle, base_config(algo=ALGO_PL, T=1,
                                                       augment=quiet), model)
        _, s_noisy, _ = dash_train(bundle, base_config(algo=ALGO_PL, T=1,
                                                       augment=noisy), model)
        assert s_quiet["n_selected"][0] == s_noisy["n_selected"][0]

    def test_model_bundle_shape_mismatch(self):
        bundle = tiny_bundle()
        model = models.init_model(models.SOFTMAX_LINEAR, 3, 2, seed=1)
        with pytest.raises(ValueError):
            dash_train(bundle, base_config(T=1), model)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_raises_with_step(self):
        bundle = tiny_bundle()
        model = models.init_model(models.SOFTMAX_LINEAR, 2, 2, seed=1)
        cfg = base_config(T=6, eta=1e160, weight_decay=1.0)
        with pytest.raises(DivergenceError) as ei:
            dash_train(bundle, cfg, model)
        assert ei.value.step >= 1
        assert "step" in str(ei.value)
        assert ei.value.metrics["step"].tolist() == list(range(1, ei.value.step))

    def test_counts_are_consistent(self):
        bundle = tiny_bundle()
        model = models.init_model(models.MLP_1HIDDEN, 2, 2, hidden=8, seed=1)
        _, metrics, _ = dash_train(bundle, base_config(T=12), model)
        n = metrics["n_selected"]
        assert n.sum() > 0
        assert np.array_equal(n, metrics["n_sel_P"] + metrics["n_sel_Q"])
        assert np.array_equal(n, metrics["n_sel_correct"] + metrics["n_sel_wrong"])
        assert ((0 <= n) & (n <= metrics["n_sampled"])).all()

    def test_cosine_lr_recorded(self):
        bundle = tiny_bundle()
        model = models.init_model(models.SOFTMAX_LINEAR, 2, 2, seed=1)
        cfg = base_config(T=8, lr_schedule=LR_COSINE)
        _, metrics, _ = dash_train(bundle, cfg, model)
        want = [0.2 * math.cos(7 * math.pi * t / (16 * 8)) for t in range(8)]
        assert np.allclose(metrics["lr"], want, atol=1e-15)
        assert metrics["lr"][0] == pytest.approx(0.2)


class TestMetricsCsv:
    def make_metrics(self):
        return metrics_table([(1, 0, math.inf, 4, 4, 3, 1, 3, 1, 0.6931, 0.25, 0.5, 0.1),
                              (2, 0, 1.5, 4, 2, 2, 0, 2, 0, 0.5, 0.125, 0.25, 0.09)])

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        metrics = self.make_metrics()
        write_metrics_csv(metrics, path)
        cols = read_metrics_csv(path)
        assert list(cols) == list(METRICS_COLUMNS)
        for name, kind in METRICS_COLUMNS.items():
            assert cols[name].dtype == (np.int64 if kind is int else np.float64), name
            assert np.array_equal(cols[name], metrics[name]), name
        assert cols["step"].tolist() == [1, 2]
        assert math.isinf(cols["rho_t"][0])
        assert cols["rho_t"][1] == 1.5
        assert cols["unlabeled_loss"].tolist() == [0.25, 0.125]

    def test_rows_written_exactly(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        write_metrics_csv(self.make_metrics(), path)
        with open(path) as fh:
            lines = fh.read().splitlines()[1:]
        assert lines == ["1,0,inf,4,4,3,1,3,1,0.6931,0.25,0.5,0.1",
                         "2,0,1.5,4,2,2,0,2,0,0.5,0.125,0.25,0.09"]

    def test_empty_table_round_trip(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        write_metrics_csv(metrics_table(()), path)
        with open(path) as fh:
            assert fh.read() == ",".join(METRICS_COLUMNS) + "\n"
        cols = read_metrics_csv(path)
        assert list(cols) == list(METRICS_COLUMNS)
        for name, kind in METRICS_COLUMNS.items():
            assert cols[name].shape == (0,), name
            assert cols[name].dtype == (np.int64 if kind is int else np.float64), name

    def test_header_written_exactly(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        write_metrics_csv(self.make_metrics(), path)
        with open(path) as fh:
            first = fh.readline().rstrip("\n")
        assert first == ("step,epoch,rho_t,n_sampled,n_selected,n_sel_correct,"
                         "n_sel_wrong,n_sel_P,n_sel_Q,labeled_loss,"
                         "unlabeled_loss,test_error,lr")

    def test_rejects_tampered_header(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        write_metrics_csv(self.make_metrics(), path)
        body = open(path).read().replace("rho_t", "rho")
        open(path, "w").write(body)
        with pytest.raises(ValueError):
            read_metrics_csv(path)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        m = models.init_model(models.MLP_1HIDDEN, 3, 2, hidden=4, seed=9)
        path = str(tmp_path / "checkpoint.bin")
        save_checkpoint(m.params, path)
        back = reference.load_checkpoint(path)
        assert np.array_equal(back, m.params)

    def test_file_layout(self, tmp_path):
        m = models.init_model(models.SOFTMAX_LINEAR, 2, 2, seed=0)
        path = str(tmp_path / "checkpoint.bin")
        save_checkpoint(m.params, path)
        raw = open(path, "rb").read()
        assert raw[:8] == b"DASHMODL"
        assert len(raw) == 16 + 8 * m.params.size

    def test_rejects_bad_magic(self, tmp_path):
        path = str(tmp_path / "c.bin")
        open(path, "wb").write(b"NOTMAGIC" + b"\0" * 16)
        with pytest.raises(ValueError):
            reference.load_checkpoint(path)

    def test_rejects_truncated(self, tmp_path):
        m = models.init_model(models.SOFTMAX_LINEAR, 2, 2, seed=0)
        path = str(tmp_path / "c.bin")
        save_checkpoint(m.params, path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-8])
        with pytest.raises(ValueError):
            reference.load_checkpoint(path)
