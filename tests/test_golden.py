"""Golden outputs of the default training run and of a run from CSV files.

A default `train` with seed 0 must write byte-identical files for every
algorithm and with the `softmax-linear` model.  The
sha256 prefixes are the golden hashes listed in ROADMAP.md
(metrics.csv / checkpoint.bin, numpy 2.4, x86-64); a change that alters
them on purpose names the new ones there.  The CSV pins cover the other
data path: the files `gen-data` writes for a small blob pool, and
`train` runs that read them back through `data.load_dir`; and the files
each other split path (cluster shift, no OOD transform, q = 1) writes
for the same pool.  The `resolved-config.json` pins cover the defaults
that a default `train`, `gen-data` and `theory-verify` record, and the
`theory-verify` pins cover the bound-verification report.
"""
import hashlib

import pytest

from dashssl import data
from dashssl.cli import main

GOLDEN = {
    "dash": ("353567ae6976", "87697c078ca7"),
    "fixmatch": ("dab8dceca02a", "8e347f95d9db"),
    "pl": ("716d0093b08b", "e621428e3280"),
    "dash-pl": ("14175744a58e", "25fab438dac1"),
}
# the default dash run on the other model, and the trainer paths no default
# run takes: the pooled labeled gradient, a labeled batch drawn with
# rng.choice (n_l = 8 > m = 4) and weight decay
GOLDEN_VARIANTS = {
    "softmax-linear": (['model.arch="softmax-linear"'], ("0a37e13dea1f", "c9e0b1d48ee9")),
    "with-labeled": (['train.gradient_form="with-labeled"'],
                     ("39f2151d58ac", "b85187455c1a")),
    "dash-pl-with-labeled": (['algorithm="dash-pl"', 'train.gradient_form="with-labeled"'],
                             ("8095e8293147", "a4f4cf03dc89")),
    "pl-m4": (['algorithm="pl"', "train.m=4", "train.epochs=2"],
              ("07263ea05f44", "03f743996949")),
    "fixmatch-weight-decay": (['algorithm="fixmatch"', "train.weight_decay=0.0005"],
                              ("2d7827b07c6e", "858a07fcbe61")),
}
TRAIN_RUNS = {**{algorithm: ([f'algorithm="{algorithm}"'], want)
                 for algorithm, want in GOLDEN.items()}, **GOLDEN_VARIANTS}


def _sha256_prefix(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:12]


@pytest.mark.parametrize("run", sorted(TRAIN_RUNS))
def test_default_train_outputs_are_golden(tmp_path, run):
    overrides, want = TRAIN_RUNS[run]
    args = [a for o in overrides + ["seed=0"] for a in ("--set", o)]
    assert main(["train", "--out", str(tmp_path)] + args) == 0
    got = (_sha256_prefix(tmp_path / "metrics.csv"),
           _sha256_prefix(tmp_path / "checkpoint.bin"))
    assert got == want


GOLDEN_RESOLVED_CONFIG = {"train": "ec4bb99d41ca", "gen-data": "8cd626726e91",
                          "theory-verify": "efac30fee23f"}


@pytest.mark.parametrize("command", sorted(GOLDEN_RESOLVED_CONFIG))
def test_default_resolved_config_is_golden(tmp_path, command):
    assert main([command, "--out", str(tmp_path)]) == 0
    got = _sha256_prefix(tmp_path / "resolved-config.json")
    assert got == GOLDEN_RESOLVED_CONFIG[command]


GEN_BLOBS = ["--set", "seed=0", "--set", 'data.kind="blobs"', "--set", "data.n=400",
             "--set", "data.num_classes=4", "--set", "data.dim=8",
             "--set", "data.separation=2.0", "--set", "data.test_n=100"]
TRAIN_FROM_FILES = ["--set", "seed=0", "--set", "model.hidden=16",
                    "--set", "train.epochs=4", "--set", "train.m=32",
                    "--set", "schedule.activation_epoch=1",
                    "--set", "schedule.decay_every_epochs=1"]
GOLDEN_CSV = {"labeled.csv": "d0c6fc9f6e16", "unlabeled.csv": "949089adaece",
              "test.csv": "01476c7b0c48"}
GOLDEN_FROM_FILES = {"dash": ("3f6399f6367d", "ffd6875ad76b"),
                     "fixmatch": ("1364e7e9777a", "6867032da526")}


def test_load_dir_outputs_are_golden(tmp_path):
    pool = tmp_path / "pool"
    assert main(["gen-data", "--out", str(pool)] + GEN_BLOBS) == 0
    assert {name: _sha256_prefix(pool / name) for name in GOLDEN_CSV} == GOLDEN_CSV
    # the second pass reads the pool from the warm parsed-CSV cache
    for rerun in (False, True):
        misses = data._parse_examples_csv.cache_info().misses
        for algorithm, want in GOLDEN_FROM_FILES.items():
            out = tmp_path / f"{algorithm}-{int(rerun)}"
            assert main(["train", "--out", str(out), "--set", f'algorithm="{algorithm}"',
                         "--set", f'data.load_dir="{pool}"'] + TRAIN_FROM_FILES) == 0
            got = (_sha256_prefix(out / "metrics.csv"),
                   _sha256_prefix(out / "checkpoint.bin"))
            assert got == want, (algorithm, rerun)
    assert data._parse_examples_csv.cache_info().misses == misses


# The other split paths, on the same pool: only the unlabeled split changes.
GOLDEN_SPLITS = {
    "cluster-shift": (['data.ood_kind="cluster-shift"', "data.ood_offset=1.5"],
                      "61bf853372a3"),
    "ood-none": (['data.ood_kind="none"'], "cb73a1a13b64"),
    "q=1.0": (["data.q=1.0"], "f29a7307a1f7"),
}


@pytest.mark.parametrize("split", sorted(GOLDEN_SPLITS))
def test_gen_data_split_paths_are_golden(tmp_path, split):
    overrides, unlabeled = GOLDEN_SPLITS[split]
    args = [a for o in overrides for a in ("--set", o)]
    assert main(["gen-data", "--out", str(tmp_path)] + GEN_BLOBS + args) == 0
    want = dict(GOLDEN_CSV, **{"unlabeled.csv": unlabeled})
    assert {name: _sha256_prefix(tmp_path / name) for name in GOLDEN_CSV} == want


# theory-verify report.json at the default config, the binding regime
# (mu = L = 1, eta = 1, so the threshold binds; T = 17, seeds 0-4), a
# scaled-loss Q component and no Q component.
THEORY_BINDING = ["--set", "problem.mu=1.0", "--set", "problem.L=1.0",
                  "--set", "constants.eta=1.0", "--set", "T=17",
                  "--set", "seeds=[0,1,2,3,4]"]
GOLDEN_THEORY = {
    "default": ([], "0a14d5fc7a6c"),
    "binding": (THEORY_BINDING, "e5cf267a21c2"),
    "scaled-loss": (["--set", 'q_dist.kind="scaled-loss"',
                     "--set", "q_dist.factor=3.0"], "0a70f9c51fff"),
    "no-q": (["--set", 'q_dist.kind="none"'], "d908a28fc387"),
}


@pytest.mark.parametrize("config", sorted(GOLDEN_THEORY))
def test_theory_verify_report_is_golden(tmp_path, config):
    args, want = GOLDEN_THEORY[config]
    assert main(["theory-verify", "--out", str(tmp_path)] + args) == 0
    assert _sha256_prefix(tmp_path / "report.json") == want
