import ast
import csv
import dataclasses
import inspect
import json
import os
import sys
import warnings

import numpy as np
import pytest

from dashssl import cli, dash, data, models, theory
from dashssl.cli import OUT_ENV_VAR, main
from dashssl.errors import DivergenceError

TINY_DATA = ["--set", "data.n=48", "--set", "data.test_n=16"]
TINY = TINY_DATA + ["--set", "train.epochs=2", "--set", "model.hidden=4"]

TINY_THEORY = ["--set", "T=3", "--set", "seeds=2"]


def run(args):
    return main(args)


def assert_same_table(got, want):
    """Two metrics tables hold the same columns, dtypes and values."""
    assert list(got) == list(want) == list(dash.METRICS_COLUMNS)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name], equal_nan=True), name


class TestGenData:
    def test_writes_bundle(self, tmp_path):
        out = str(tmp_path / "ds")
        assert run(["gen-data", "--out", out] + TINY_DATA) == 0
        names = sorted(os.listdir(out))
        assert names == ["labeled.csv", "resolved-config.json", "test.csv",
                         "unlabeled.csv"]
        bundle = data.load_bundle(out)
        assert len(bundle.labeled) == 8
        assert len(bundle.unlabeled) == 40
        assert len(bundle.test) == 16

    def test_resolved_config_echoes_overrides(self, tmp_path):
        out = str(tmp_path / "ds")
        assert run(["gen-data", "--out", out, "--set", "data.n=48",
                    "--set", "data.noise=0.11"]) == 0
        cfg = json.load(open(os.path.join(out, "resolved-config.json")))
        assert cfg["data"]["n"] == 48
        assert cfg["data"]["noise"] == 0.11

    def test_blobs_kind(self, tmp_path):
        out = str(tmp_path / "ds")
        assert run(["gen-data", "--out", out, "--set", "data.kind=blobs",
                    "--set", "data.n=60", "--set", "data.test_n=12",
                    "--set", "data.num_classes=3", "--set", "data.dim=4"]) == 0
        bundle = data.load_bundle(out)
        assert bundle.num_classes == 3
        assert bundle.input_dim == 4

    @pytest.mark.parametrize("offset", ["1.5", "[1.5, -2.0]"])
    def test_cluster_shift_offset(self, tmp_path, offset):
        out = str(tmp_path / "ds")
        assert run(["gen-data", "--out", out, "--set", 'data.ood_kind="cluster-shift"',
                    "--set", f"data.ood_offset={offset}"] + TINY_DATA) == 0
        shift = np.broadcast_to(json.loads(offset), (2,))
        pool = data.make_two_moons(48, 0.08, 0).X
        unlabeled = data.load_bundle(out).unlabeled
        shifted = unlabeled.X[unlabeled.provenance == data.PROV_UNLABELED_Q]
        assert len(shifted)
        for x in shifted:
            assert np.abs(pool - (x - shift)).max(axis=1).min() < 1e-9

    @pytest.mark.parametrize("offset", ["[1.5]", "[1, 2, 3]", '"far"', "true", "NaN"])
    def test_bad_cluster_shift_offset_exit_code(self, tmp_path, capsys, offset):
        out = str(tmp_path / "ds")
        assert run(["gen-data", "--out", out, "--set", 'data.ood_kind="cluster-shift"',
                    "--set", f"data.ood_offset={offset}"] + TINY_DATA) == 2
        assert "data.ood_offset" in capsys.readouterr().err


class TestTrain:
    def test_exact_file_set(self, tmp_path):
        out = str(tmp_path / "run")
        assert run(["train", "--out", out] + TINY) == 0
        assert sorted(os.listdir(out)) == ["checkpoint.bin", "metrics.csv",
                                           "resolved-config.json"]

    def test_refuses_nonempty_out(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert run(["train", "--out", out] + TINY) == 0
        assert run(["train", "--out", out] + TINY) == 2
        assert "--overwrite" in capsys.readouterr().err
        assert run(["train", "--out", out, "--overwrite"] + TINY) == 0

    def test_unknown_override_key(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert run(["train", "--out", out, "--set", "train.bogus=1"]) == 2
        assert "train.bogus" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_malformed_override(self, tmp_path):
        out = str(tmp_path / "run")
        assert run(["train", "--out", out, "--set", "no-equals-sign"]) == 2

    def test_section_override_needs_an_object(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert run(["train", "--out", out, "--set", "augment=5"] + TINY) == 2
        assert "augment" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_section_override_merges_into_defaults(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert run(["train", "--out", out, "--set", 'schedule={"bogus": 1}']
                   + TINY) == 2
        assert "schedule.bogus" in capsys.readouterr().err
        assert run(["train", "--out", out, "--set", 'schedule={"C": 2.0}']
                   + TINY) == 0
        resolved = json.load(open(os.path.join(out, "resolved-config.json")))
        want = dict(cli._TRAIN_DEFAULTS["schedule"], C=2.0)
        assert resolved["schedule"] == want

    @pytest.mark.parametrize("assignment", ["train.eta=null", "schedule.C=null",
                                            "augment.weak_noise=null", "train.m=[1]",
                                            "train.epochs=2.5", "seed=true",
                                            'model.hidden="4"'])
    def test_mistyped_value_exit_code(self, tmp_path, capsys, assignment):
        out = str(tmp_path / "run")
        assert run(["train", "--out", out] + TINY + ["--set", assignment]) == 2
        assert assignment.split("=")[0] in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("assignment", ['mode="theory"', "train.T=10",
                                            "train.n_cap=10", "train.smoothness=1.0"])
    def test_removed_key_is_unknown(self, tmp_path, capsys, assignment):
        # train.epochs alone sets the run length; there is one trainer mode
        out = str(tmp_path / "run")
        assert run(["train", "--out", out] + TINY + ["--set", assignment]) == 2
        assert (f"unknown config key: {assignment.split('=')[0]}"
                in capsys.readouterr().err)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("kind,assignment", [
        ("two-moons", "data.n=null"), ("two-moons", "data.n=48.5"),
        ("two-moons", "data.test_n=16.5"), ("two-moons", "data.q=null"),
        ("two-moons", "data.labels_per_class=2.5"), ("two-moons", 'data.noise="x"'),
        ("blobs", "data.num_classes=2.5"), ("blobs", "data.dim=null"),
        ("blobs", "data.separation=[1]"), ("two-moons", "data.load_dir=5"),
        ("two-moons", "data.load_dir=true")])
    def test_mistyped_data_value_exit_code(self, tmp_path, capsys, kind, assignment):
        out = str(tmp_path / "run")
        args = TINY + ["--set", f'data.kind="{kind}"', "--set", assignment]
        assert run(["train", "--out", out] + args) == 2
        assert assignment.split("=")[0] in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_mistyped_value_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": {"x": 1}}))
        out = str(tmp_path / "run")
        assert run(["train", "--out", out, "--config", str(cfg)] + TINY) == 2
        assert "seed" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["train", "--out", str(tmp_path / "run"),
                    "--config", str(cfg)]) == 2

    def test_config_file_applied(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "data": {"n": 48, "test_n": 16},
                                   "train": {"epochs": 2},
                                   "model": {"hidden": 4}}))
        out = str(tmp_path / "run")
        assert run(["train", "--out", out, "--config", str(cfg)]) == 0
        resolved = json.load(open(os.path.join(out, "resolved-config.json")))
        assert resolved["seed"] == 3

    def test_out_env_var_resolves_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path))
        assert run(["train", "--out", "rel-run"] + TINY) == 0
        assert os.path.isfile(tmp_path / "rel-run" / "metrics.csv")

    def test_divergence_exit_code_and_cleanup(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        args = (["train", "--out", out, "--set", "train.eta=1e160",
                 "--set", "train.weight_decay=1.0",
                 "--set", "model.arch=softmax-linear"] + TINY)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run(args) == 3
        assert "error" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["error.json", "metrics.csv",
                                           "resolved-config.json"]
        error = json.load(open(os.path.join(out, "error.json")))
        assert set(error) == {"step", "detail"} and error["step"] >= 1
        steps = dash.read_metrics_csv(os.path.join(out, "metrics.csv"))["step"]
        assert steps.tolist() == list(range(1, error["step"]))
        resolved = json.load(open(os.path.join(out, "resolved-config.json")))
        assert resolved["train"]["eta"] == 1e160

    @pytest.mark.parametrize("algo", ["dash", "fixmatch", "pl", "dash-pl"])
    def test_metrics_csv_reads_back_the_trainer_table(self, tmp_path, monkeypatch, algo):
        returned = []
        trainer = dash.dash_train

        def recording(*args):
            result = trainer(*args)
            returned.append(result[1])
            return result

        monkeypatch.setattr(dash, "dash_train", recording)
        cfg = cli._load_config("train", None, TINY[1::2] + [f'algorithm="{algo}"'])
        out = tmp_path / "run"
        assert cli._run_train(cfg, str(out), False) is returned[0]
        assert_same_table(dash.read_metrics_csv(str(out / "metrics.csv")), returned[0])

    def test_diverged_run_keeps_its_metrics_table(self, tmp_path):
        cfg = cli._load_config("train", None, TINY[1::2] + [
            "train.epochs=8", "train.eta=1e100", "train.weight_decay=1.0",
            'model.arch="softmax-linear"'])
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DivergenceError) as ei:
                cli._run_train(cfg, str(out), False)
        metrics = ei.value.metrics
        assert ei.value.step > 2
        assert metrics["step"].tolist() == list(range(1, ei.value.step))
        assert_same_table(dash.read_metrics_csv(str(out / "metrics.csv")), metrics)

    def test_underflowing_sharpening_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        args = ["train", "--out", out, "--set", 'data.kind="blobs"',
                "--set", "data.n=120", "--set", "data.test_n=20",
                "--set", "data.labels_per_class=2", "--set", "data.num_classes=10",
                "--set", "data.dim=16", "--set", "train.sharpen_temperature=0.001",
                "--set", "train.epochs=2", "--set", "model.hidden=4"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run(args) == 3
        assert "sharpen_temperature" in capsys.readouterr().err
        error = json.load(open(os.path.join(out, "error.json")))
        assert error["step"] == 1 and "sharpen_temperature" in error["detail"]

    def test_empty_labeled_set_exit_code(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        ds.mkdir()
        for name in ("labeled.csv", "unlabeled.csv"):
            (ds / name).write_text("x0,x1,label,provenance\n")
        out = str(tmp_path / "run")
        assert run(["train", "--out", out,
                    "--set", "data.load_dir=" + json.dumps(str(ds))]) == 2
        assert "at least one labeled example" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_unlabeled_test_split_exit_code(self, tmp_path, capsys):
        # error_rate against -1 labels would report a test error of 1.0
        ds = tmp_path / "ds"
        assert run(["gen-data", "--out", str(ds)] + TINY_DATA) == 0
        lines = (ds / "test.csv").read_text().splitlines()
        (ds / "test.csv").write_text("".join(
            [lines[0] + "\n"] + [line.rsplit(",", 2)[0] + ",-1,unlabeled_P\n"
                                 for line in lines[1:]]))
        out = str(tmp_path / "run")
        assert run(["train", "--out", out,
                    "--set", "data.load_dir=" + json.dumps(str(ds))] + TINY) == 2
        assert "test examples must carry a true label" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_load_dir_config_holds_what_the_run_read(self, tmp_path):
        ds = tmp_path / "ds"
        assert run(["gen-data", "--out", str(ds), "--set", "data.n=200"]) == 0
        first = tmp_path / "first"
        assert run(["train", "--out", str(first),
                    "--set", "data.load_dir=" + json.dumps(str(ds)),
                    "--set", "train.epochs=2", "--set", "model.hidden=4"]) == 0
        resolved = first / "resolved-config.json"
        assert json.load(open(resolved))["data"] == {"load_dir": str(ds)}
        again = tmp_path / "again"
        assert run(["train", "--out", str(again), "--config", str(resolved)]) == 0
        for name in ("resolved-config.json", "metrics.csv", "checkpoint.bin"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

    def test_algorithms_all_runnable(self, tmp_path):
        for algo in ("dash", "fixmatch", "pl", "dash-pl"):
            out = str(tmp_path / algo)
            assert run(["train", "--out", out,
                        "--set", f"algorithm=\"{algo}\""] + TINY) == 0


class TestTrainDefaults:
    def test_dash_config_supplies_the_train_defaults(self):
        # 1000 unlabeled rows are 16 steps of m = 64 draws
        built = cli._build_dash_config(cli._TRAIN_DEFAULTS, n_unlabeled=1000)
        assert built == dataclasses.replace(dash.DashConfig(), T=45 * 16, seed=2)

    @staticmethod
    def default_run(algorithm, hidden=32, n=1008, test_n=512, **train):
        """(bundle, config, model) of the train defaults, with train overrides."""
        cfg = dict(cli._TRAIN_DEFAULTS, algorithm=algorithm,
                   data=dict(cli._TRAIN_DEFAULTS["data"], n=n, test_n=test_n))
        bundle = cli._build(cli._make_bundle, cfg["data"], "data", seed=0, at="")
        config = dataclasses.replace(cli._build_dash_config(cfg, len(bundle.unlabeled)),
                                     **train)
        model = models.init_model(cfg["model"]["arch"], bundle.input_dim,
                                  bundle.num_classes, hidden=hidden, seed=1)
        return bundle, config, model

    @pytest.mark.parametrize("algorithm", ["dash", "fixmatch", "pl", "dash-pl"])
    def test_trainer_runs_the_public_kernels(self, monkeypatch, algorithm):
        # every models kernel that dash.py names is called from dash.py: at the
        # defaults, where g_s takes every labeled row, and with m under the 8
        # labeled rows, where it takes a drawn subset; one warm-up step runs
        # loss_and_grad
        tree = ast.parse(open(dash.__file__).read())
        kernels = {node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and getattr(node.value, "id", None) == "models"
                   and inspect.isfunction(getattr(models, node.attr))}
        assert {"log_probs", "gradient", "batch_losses", "mean_loss", "loss_and_grad",
                "error_rate"} <= kernels
        calls = dict.fromkeys(kernels, 0)

        def counted(name, fn):
            def wrapper(*args):
                if sys._getframe(1).f_globals["__name__"] == dash.__name__:
                    calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(models, name, counted(name, getattr(models, name)))
        for m in (64, 4):
            dash.dash_train(*self.default_run(algorithm, hidden=4, n=48, test_n=16,
                                              T=3, T0=1, m=m))
        assert all(calls.values()), calls

    @pytest.mark.parametrize("algorithm, gradient_form, per_step", [
        ("dash", "unlabeled-only", 4), ("dash", "with-labeled", 4),
        ("fixmatch", "unlabeled-only", 4), ("pl", "unlabeled-only", 3),
        ("dash-pl", "unlabeled-only", 3), ("dash-pl", "with-labeled", 3)])
    def test_one_forward_per_batch_per_step(self, monkeypatch, algorithm, gradient_form,
                                            per_step):
        # a step forwards the weak view, the strong view (augmented algorithms
        # only), the labeled set and the test set once each, and a strict
        # subset of the loss view once more; the labeled forward before step 1
        # gives rho_hat and step 1's g_s.  The threshold acts from the start.
        bundle, config, model = self.default_run(algorithm, T=40)
        config = dataclasses.replace(
            config, gradient_form=gradient_form,
            schedule=dataclasses.replace(config.schedule, activation_epoch=0))
        calls = [0]
        forward = models._forward

        def counted(*args):
            calls[0] += 1
            return forward(*args)

        monkeypatch.setattr(models, "_forward", counted)
        _, metrics, _ = dash.dash_train(bundle, config, model)
        n_sel = metrics["n_selected"]
        subsets = np.count_nonzero((n_sel > 0) & (n_sel < config.m))
        assert calls[0] == config.T0 + 1 + per_step * config.T + subsets
        if algorithm == "dash-pl":
            assert subsets == 0  # it keeps every draw here: 3 forwards a step


class TestCompare:
    def test_tiny_grid(self, tmp_path):
        out = str(tmp_path / "cmp")
        args = (["compare", "--out", out,
                 "--set", 'grid=[["algorithm",["dash","pl"]]]',
                 "--set", "seeds=[0,1]",
                 "--set", "base.data.n=48", "--set", "base.data.test_n=16",
                 "--set", "base.train.epochs=2", "--set", "base.model.hidden=4"])
        assert run(args) == 0
        assert os.path.isfile(os.path.join(out, "table.csv"))
        assert os.path.isfile(os.path.join(out, "table.txt"))
        # runs/<point>-s<seed>; each run's config records its grid value and seed
        for point, algo in enumerate(("dash", "pl")):
            for seed in (0, 1):
                rd = os.path.join(out, "runs", f"{point}-s{seed}")
                assert os.path.isfile(os.path.join(rd, "metrics.csv"))
                cfg = json.load(open(os.path.join(rd, "resolved-config.json")))
                assert (cfg["algorithm"], cfg["seed"]) == (algo, seed)
        assert "seed" not in json.load(open(os.path.join(out, "resolved-config.json")))["base"]
        lines = open(os.path.join(out, "table.csv")).read().splitlines()
        assert lines[0] == "point,algorithm,mean_test_error,std_test_error,n_seeds"
        assert [line.split(",")[:2] for line in lines[1:]] == [["0", "dash"], ["1", "pl"]]

    def test_list_valued_axis_from_config_file(self, tmp_path):
        # a list value is one grid value and one CSV field
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": [["train.T0", [0, 2]], ["data.ood_offset", [0.5, [1.5, -2.0]]]],
            "seeds": [0],
            "base": {"data": {"n": 48, "test_n": 16, "ood_kind": "cluster-shift"},
                     "train": {"epochs": 1}, "model": {"hidden": 4}}}))
        out = tmp_path / "cmp"
        assert run(["compare", "--out", str(out), "--config", str(cfg)]) == 0
        with open(out / "table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["point", "train.T0", "data.ood_offset"]
        assert [row[:3] for row in rows[1:]] == [["0", "0", "0.5"], ["1", "0", "[1.5, -2.0]"],
                                                 ["2", "2", "0.5"], ["3", "2", "[1.5, -2.0]"]]
        run_cfg = json.load(open(out / "runs" / "3-s0" / "resolved-config.json"))
        assert (run_cfg["train"]["T0"], run_cfg["data"]["ood_offset"]) == (2, [1.5, -2.0])

    @pytest.mark.parametrize("assignment", ["seeds=3", "base.data.load_dir=5",
                                            "base.data.n=48.5"])
    def test_mistyped_value_exit_code(self, tmp_path, capsys, assignment):
        out = str(tmp_path / "cmp")
        assert run(["compare", "--out", out, "--set", assignment]) == 2
        assert assignment.split("=")[0] in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_unknown_algorithm(self, tmp_path, capsys):
        out = str(tmp_path / "cmp")
        assert run(["compare", "--out", out,
                    "--set", 'grid=[["algorithm",["submarine"]]]']) == 2
        assert "config key base.algorithm " in capsys.readouterr().err

    def test_load_dir_takes_one_label_budget(self, tmp_path, capsys):
        # labeled.csv fixes the labels per class, and a run that reads load_dir
        # records no other data key: a labels_per_class axis would train one
        # run under several labels
        ds = tmp_path / "ds"
        assert run(["gen-data", "--out", str(ds)] + TINY_DATA) == 0
        args = ["compare", "--set", "seeds=[0]",
                "--set", "base.data.load_dir=" + json.dumps(str(ds)),
                "--set", "base.train.epochs=2", "--set", "base.model.hidden=4"]
        out = str(tmp_path / "budgets")
        assert run(args + ["--out", out,
                           "--set", 'grid=[["data.labels_per_class",[2,4]]]']) == 2
        assert "error: config key grid.data.labels_per_class: " in capsys.readouterr().err
        assert not os.path.exists(out)
        out = str(tmp_path / "cmp")
        assert run(args + ["--out", out, "--set", 'grid=[["algorithm",["pl","dash"]]]']) == 0
        # each config names the data it read, and no generator keys
        for path in ("resolved-config.json", "runs/0-s0/resolved-config.json",
                     "runs/1-s0/resolved-config.json"):
            cfg = json.load(open(os.path.join(out, path)))
            assert cfg.get("base", cfg)["data"] == {"load_dir": str(ds)}


TINY_COMPARE = ["--set", 'grid=[["algorithm",["pl"]]]', "--set", "seeds=[0]",
                "--set", "base.data.n=48", "--set", "base.data.test_n=16",
                "--set", "base.train.epochs=1", "--set", "base.model.hidden=4"]


WITH_LABELED = 'gradient_form="with-labeled"'


class TestConfigBoundary:
    """Every invalid input exits 2 naming its key or section, before anything is
    written and before the trainer or a theory run is called."""

    @pytest.mark.parametrize("command,assignment,named", [
        ("train", "data.n=1", "data: "), ("train", "data.noise=-1", "data: "),
        ("train", "data.labels_per_class=0", "data: "),
        ("train", "data.labels_per_class=600", "data: "),
        ("train", "data.q=0", "data: "), ("train", "data.q=1.5", "data: "),
        ("train", 'data.ood_kind="x"', "data: "),
        ("train", "data.ood_kind=5", "config key data.ood_kind takes str, got 5"),
        ("train", 'data={"kind": "blobs", "dim": 1}', "data: "),
        ("train", 'data.kind="x"', "config key data.kind "),
        ("train", "seed=-1", "config key seed "),
        ("train", "schedule.C=1", "schedule: "), ("train", "schedule.gamma=1", "schedule: "),
        ("train", "augment.weak_noise=1", "augment: "),
        ("train", "train.tau=1", "train: "), ("train", "train.eta=0", "train: "),
        ("train", "train.m0=0", "train: "), ("train", "train.m=0", "train: "),
        ("train", "train.epochs=0", "config key train.epochs "),
        ("train", 'train.lr_schedule="x"', "train: "),
        ("train", 'model.arch="x"', "model: "), ("train", "model.hidden=0", "model: "),
        ("train", 'algorithm="x"', "config key algorithm "),
        # a float key takes only what float64 holds finite
        ("train", "schedule.floor=NaN", "config key schedule.floor "),
        ("train", "schedule.C=Infinity", "config key schedule.C "),
        ("train", "train.lambda_u=-Infinity", "config key train.lambda_u "),
        ("train", "data.noise=NaN", "config key data.noise "),
        ("train", "train.eta=1e400", "config key train.eta "),
        pytest.param("train", "train.eta=1" + "0" * 400, "config key train.eta ",
                     id="train-train.eta=10^400"),
        ("theory-verify", "q_dist.offset=NaN", "config key q_dist.offset "),
        # with TINY's 8 labeled rows, m = 8 leaves no unlabeled row in a pooled step
        pytest.param("train", ("train." + WITH_LABELED, "train.m=8"),
                     "train: with-labeled gradient needs n_t > N_l (got n_t=8, N_l=8)",
                     id="train-with-labeled-m=8"),
        ("theory-verify", "T=0", "config key T "),
        ("theory-verify", "seeds=0", "config key seeds "),
        ("theory-verify", "seeds=[]", "config key seeds "),
        ("theory-verify", "seeds=[-1]", "config key seeds "),
        ("theory-verify", "problem.d=0", "problem: "),
        ("theory-verify", "problem.mu=3", "problem: "),
        ("theory-verify", "constants.q=1", "constants: "),
        ("theory-verify", "constants.eta=5", "constants: "),
        ("theory-verify", 'constants.manual={"G": 1.0}', "constants.manual: "),
        ("theory-verify", 'q_dist.kind="x"', "q_dist: "),
        ("theory-verify", 'q_dist={"kind": "scaled-loss", "factor": 0}', "q_dist: "),
        ("theory-verify", "q_dist.offset=[1,2]", "q_dist: "),
        # m = 9, gamma = 2: 9 * 2^17 draws at step 18 are the first over the cap
        # 2^20, however long the run; 2^1999 is past every float
        pytest.param("theory-verify", ("problem.mu=1.0", "problem.L=1.0",
                                       "constants.eta=1.0", "T=18"),
                     "config key T: batch size 1179648 at step t=18 exceeds the cap 1048576",
                     id="theory-verify-binding-T=18"),
        pytest.param("theory-verify", ("problem.mu=1.0", "problem.L=1.0",
                                       "constants.eta=1.0", "T=2000"),
                     "config key T: batch size 1179648 at step t=18 exceeds the cap 1048576",
                     id="theory-verify-binding-T=2000"),
        # a repeated entry would train or count a run twice
        ("theory-verify", "seeds=[0,0]", "config key seeds "),
        ("compare", "seeds=[0,0,1]", "config key seeds "),
        pytest.param("compare", 'grid=[["algorithm",["pl","pl"]]]',
                     "config key grid.algorithm ", id="compare-grid-repeated-value"),
        # 4.0 is cast to the int 4: the same run twice
        pytest.param("compare", 'grid=[["data.labels_per_class",[4,4.0]]]',
                     "config key grid.data.labels_per_class ",
                     id="compare-grid-repeated-budget"),
        pytest.param("compare", 'grid=[["data.ood_offset",[[1,2],[1,2]]]]',
                     "config key grid.data.ood_offset ",
                     id="compare-grid-repeated-list-value"),
        pytest.param("compare", 'grid=[["algorithm",["pl"]],["algorithm",["dash"]]]',
                     "config key grid.algorithm ", id="compare-grid-repeated-key"),
        # a grid is a list of [dotted key, non-empty list of values] pairs
        pytest.param("compare", 'grid={"algorithm": ["pl"]}', "config key grid ",
                     id="compare-grid-mapping"),
        pytest.param("compare", 'grid=[["algorithm",[]]]', "config key grid ",
                     id="compare-grid-no-values"),
        pytest.param("compare", 'grid=[["algorithm"]]', "config key grid ",
                     id="compare-grid-no-value-list"),
        pytest.param("compare", 'grid=[[1,["pl"]]]', "config key grid ",
                     id="compare-grid-key-not-a-string"),
        # a grid key is a key under base, and base has no seed
        pytest.param("compare", 'grid=[["train.bogus",[1]]]',
                     "unknown config key: grid.train.bogus", id="compare-grid-unknown-key"),
        pytest.param("compare", 'grid=[["seed",[0,1]]]', "unknown config key: grid.seed",
                     id="compare-grid-seed"),
        ("compare", "base.seed=7", "unknown config key: base.seed"),
        ("compare", "seeds=[-1]", "config key seeds "),
        # a grid value is cast once, as the key under base it sets
        pytest.param("compare", 'grid=[["data.labels_per_class",[4.5]]]',
                     "config key base.data.labels_per_class takes int, got 4.5",
                     id="compare-grid-mistyped-value"),
        # every run's inputs are built before the first run writes anything
        pytest.param("compare", 'grid=[["data.labels_per_class",[4,0]]]',
                     "base.data: labels_per_class", id="compare-grid-budget-0"),
        pytest.param("compare", ('grid=[["algorithm",["dash"]]]', "base.train." + WITH_LABELED,
                                 "base.train.m=8"),
                     "base.train: with-labeled gradient needs n_t > N_l",
                     id="compare-with-labeled-m=8"),
        # the first point's runs are valid; the grid is still rejected before them
        pytest.param("compare", ('grid=[["algorithm",["dash"]],'
                                 '["data.labels_per_class",[1,4]]]',
                                 "base.train." + WITH_LABELED, "base.train.m=8"),
                     "base.train: with-labeled gradient needs n_t > N_l (got n_t=8, N_l=8)",
                     id="compare-labels_per_class=[1,4]-with-labeled-m=8")])
    def test_invalid_value_names_its_key(self, tmp_path, monkeypatch, capsys, command,
                                         assignment, named):
        def refuse(*args):
            raise AssertionError("an invalid input reached a run")

        monkeypatch.setattr(dash, "dash_train", refuse)
        monkeypatch.setattr(theory, "run_selection_stage", refuse)
        out = str(tmp_path / "out")
        tiny = {"train": TINY, "compare": TINY_COMPARE, "theory-verify": TINY_THEORY}
        assignments = [assignment] if isinstance(assignment, str) else assignment
        sets = [arg for a in assignments for arg in ("--set", a)]
        assert run([command, "--out", out] + tiny[command] + sets) == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_malformed_config_file_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1,}')
        out = str(tmp_path / "run")
        assert run(["train", "--out", out, "--config", str(cfg)]) == 2
        assert f"config file {cfg}" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_bad_metrics_header_names_the_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--out", str(out)] + TINY) == 0
        metrics = out / "metrics.csv"
        metrics.write_text(metrics.read_text().replace("rho_t", "rho", 1))
        assert run(["plot-data", str(out)]) == 2
        assert f"metrics.csv in {out}" in capsys.readouterr().err
        assert not os.path.exists(out / "series")

    def test_missing_load_dir_names_it(self, tmp_path, capsys):
        missing = json.dumps(str(tmp_path / "no-such-dir"))
        for command, args, named in (
                ("train", TINY, "data.load_dir"),
                ("compare", TINY_COMPARE, "base.data.load_dir")):
            out = str(tmp_path / command)
            assert run([command, "--out", out] + args
                       + ["--set", f"{named}={missing}"]) == 2
            assert f"error: {named}: " in capsys.readouterr().err
            assert not os.path.exists(out)

    def test_value_error_during_a_run_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(*args):
            raise ValueError("a bug inside the trainer")

        monkeypatch.setattr(dash, "dash_train", broken)
        with pytest.raises(ValueError, match="a bug inside the trainer"):
            run(["train", "--out", str(tmp_path / "run")] + TINY)


class TestTheoryVerify:
    def test_report_and_series_files(self, tmp_path):
        # report.json holds every series; nothing else is written beside it
        out = str(tmp_path / "tv")
        assert run(["theory-verify", "--out", out] + TINY_THEORY) == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert set(report) == {"runs", "pass_envelope", "pass_A", "pass_B"}
        assert len(report["runs"]) == 2
        for r in report["runs"]:
            assert set(r) == {"seed", "steps", "A_rho", "B_rho", "F",
                              "envelope", "pass_envelope", "pass_A", "pass_B"}
            assert r["steps"] == [1, 2, 3]
        assert sorted(os.listdir(out)) == ["report.json", "resolved-config.json"]

    def test_infeasible_constants_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "tv")
        assert run(["theory-verify", "--out", out,
                    "--set", "constants.b=0.1"] + TINY_THEORY) == 4
        assert "error" in capsys.readouterr().err

    def test_manual_mode_needs_constants(self, tmp_path):
        out = str(tmp_path / "tv")
        assert run(["theory-verify", "--out", out,
                    "--set", 'constants.mode="manual"'] + TINY_THEORY) == 2

    def test_bad_manual_constants(self, tmp_path):
        out = str(tmp_path / "tv")
        assert run(["theory-verify", "--out", out,
                    "--set", 'constants.manual={"G": 1.0}'] + TINY_THEORY) == 2

    def test_manual_constants_are_checked_before_the_runs(self, tmp_path, capsys):
        # the runs build their threshold schedule from them, which needs C > 1
        problem = cli._build(theory.make_pl_problem, cli._THEORY_DEFAULTS["problem"],
                             "problem")
        derived = cli._build_constants(cli._THEORY_DEFAULTS, problem)
        manual = json.dumps(dict(dataclasses.asdict(derived), C=0.5))
        out = str(tmp_path / "tv")
        assert run(["theory-verify", "--out", out,
                    "--set", f"constants.manual={manual}"] + TINY_THEORY) == 2
        assert "error: constants.manual: C must be > 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("assignment", ["constants.a=null", "problem.d=null",
                                            "seeds=2.5", "problem.d=2.5", "T=3.5",
                                            'thresholded="no"', "seeds=[0, 1.5]",
                                            "q_dist.factor=[1]"])
    def test_mistyped_value_exit_code(self, tmp_path, capsys, assignment):
        out = str(tmp_path / "tv")
        assert run(["theory-verify", "--out", out] + TINY_THEORY
                   + ["--set", assignment]) == 2
        assert assignment.split("=")[0] in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_whole_number_floats_are_ints(self, tmp_path):
        floats = ["--set", "problem.d=10.0", "--set", "T=3.0", "--set", "seeds=2.0"]
        for name, args in (("ints", TINY_THEORY), ("floats", floats)):
            assert run(["theory-verify", "--out", str(tmp_path / name)] + args) == 0
        assert ((tmp_path / "ints" / "report.json").read_bytes()
                == (tmp_path / "floats" / "report.json").read_bytes())

    def test_section_override_equals_dotted_keys(self, tmp_path):
        section = ["--set", 'q_dist={"kind": "scaled-loss", "factor": 3.0}']
        dotted = ["--set", 'q_dist.kind="scaled-loss"', "--set", "q_dist.factor=3.0"]
        for name, args in (("section", section), ("dotted", dotted)):
            assert run(["theory-verify", "--out", str(tmp_path / name)] + args
                       + TINY_THEORY) == 0
        assert ((tmp_path / "section" / "report.json").read_bytes()
                == (tmp_path / "dotted" / "report.json").read_bytes())

    def test_no_q_component(self, tmp_path):
        out = str(tmp_path / "tv")
        assert run(["theory-verify", "--out", out,
                    "--set", 'q_dist.kind="none"'] + TINY_THEORY) == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert all(b == 0 for r in report["runs"] for b in r["B_rho"])


class TestPlotData:
    def make_run(self, tmp_path, name="run"):
        out = str(tmp_path / name)
        assert run(["train", "--out", out] + TINY) == 0
        return out

    def test_series_extraction(self, tmp_path):
        out = self.make_run(tmp_path)
        assert run(["plot-data", out]) == 0
        series = os.path.join(out, "series")
        assert sorted(os.listdir(series)) == ["rho.dat", "selected-correct.dat",
                                              "selected-wrong.dat",
                                              "test-error.dat"]
        for name in os.listdir(series):
            rows = [line.split() for line in
                    open(os.path.join(series, name)) if line.strip()]
            xs = [float(r[0]) for r in rows]
            assert xs == sorted(xs) and len(set(xs)) == len(xs)
            assert all(len(r) == 2 for r in rows)

    def test_missing_metrics_writes_nothing(self, tmp_path):
        good = self.make_run(tmp_path, "good")
        bad = str(tmp_path / "bad")
        os.makedirs(bad)
        assert run(["plot-data", good, bad]) == 2
        assert not os.path.exists(os.path.join(good, "series"))

    def test_truncated_metrics_row_exit_code(self, tmp_path, capsys):
        out = self.make_run(tmp_path)
        path = os.path.join(out, "metrics.csv")
        lines = open(path).read().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:5])  # a row after a valid one
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert run(["plot-data", out]) == 2
        assert "5 fields" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "series"))
