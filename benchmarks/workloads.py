"""The benchmark's workloads: inputs made from the seed, and rounds of operations.

``setup`` writes every input an operation reads and returns
``round_ops``: round number -> list of ``Op``, each one ``cli.main``
call.  The benchmark runs whole rounds; every round has the same
operations, and only moons-grid changes their training seeds from round
to round.  ``spec`` holds what the output checks need to know about the
operation, taken from the benchmark's own configuration, never from the
program's outputs.
"""

import json
import math
import os
from dataclasses import dataclass


@dataclass
class Op:
    name: str
    kind: str  # "train" or "theory"
    argv: list  # cli.main arguments without --out
    spec: dict


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _train_cfg(algorithm, data, hidden, train, schedule, **extra):
    return {"algorithm": algorithm, "data": data,
            "model": {"arch": "mlp-1hidden", "hidden": hidden},
            "train": train, "schedule": schedule, **extra}


def _train_spec(algorithm, data, hidden, train, schedule):
    n_unlabeled = data["n"] - data["num_classes"] * data["labels_per_class"]
    return {"algorithm": algorithm, "num_classes": data["num_classes"],
            "input_dim": data["dim"], "hidden": hidden, "m": train["m"],
            "epochs": train["epochs"], "tau": train["tau"],
            "steps_per_epoch": math.ceil(n_unlabeled / train["m"]), **schedule}


# ---------------------------------------------------------------------------
# moons-grid: the default two-moons train, all four algorithms.  Tiny
# shapes (d=2, hidden 32, m=64) leave per-call overhead dominant.
#
# dash, fixmatch and pl train on two fresh seeds per round, drawn from
# the benchmark seed: their cost moves by up to 20% with the seed (how
# much a run selects), so a run averages it over many seeds.
# dash-pl runs once per round, on a fixed seed: with the default
# schedule its threshold stays above log 2, the largest loss a one-hot
# pseudo-label on the raw view can have, so it never rejects a draw.  The
# benchmark counts that operation as failed; its inputs stay fixed so
# the failed share is the same in every run.

MOONS_DATA = {"kind": "two-moons", "n": 1008, "noise": 0.08, "num_classes": 2,
              "dim": 2, "test_n": 512, "labels_per_class": 4, "q": 0.8,
              "ood_kind": "label-flip"}
MOONS_TRAIN = {"epochs": 45, "m": 64, "T0": 0, "tau": 0.95}
MOONS_SCHEDULE = {"C": 3.0, "gamma": 1.27, "floor": 0.05, "activation_epoch": 10,
                  "decay_every_epochs": 9}
MOONS_SEEDED = ("dash", "fixmatch", "pl")
MOONS_FIXED = ("dash-pl", 0)
MOONS_SEEDS_PER_ROUND = 2
MOONS_MAX_ROUNDS = 1000


def moons_seeds(seed, round_no):
    """Training seeds of one round; distinct across rounds and benchmark seeds."""
    if round_no >= MOONS_MAX_ROUNDS:
        raise ValueError(f"moons-grid has seeds for {MOONS_MAX_ROUNDS} rounds")
    base = (seed * MOONS_MAX_ROUNDS + round_no) * MOONS_SEEDS_PER_ROUND
    return [base + j for j in range(MOONS_SEEDS_PER_ROUND)]


def setup_moons_grid(seed, workdir):
    configs, specs = {}, {}
    for algo in MOONS_SEEDED + (MOONS_FIXED[0],):
        cfg = _train_cfg(algo, MOONS_DATA, 32, MOONS_TRAIN, MOONS_SCHEDULE)
        configs[algo] = os.path.join(workdir, f"{algo}.json")
        _write_json(configs[algo], cfg)
        specs[algo] = _train_spec(algo, MOONS_DATA, 32, MOONS_TRAIN, MOONS_SCHEDULE)

    def op(algo, s):
        return Op(f"{algo}-s{s}", "train",
                  ["train", "--config", configs[algo], "--set", f"seed={s}"],
                  dict(specs[algo], data_seed=s))

    def round_ops(round_no):
        return ([op(algo, s) for s in moons_seeds(seed, round_no)
                 for algo in MOONS_SEEDED] + [op(*MOONS_FIXED)])
    return round_ops


# ---------------------------------------------------------------------------
# blobs-wide: a 16-class, 64-d blob pool written once to CSV, read back by
# every train.  Wide matmuls and the per-step test error dominate.

BLOBS_DATA = {"kind": "blobs", "n": 16000, "noise": 1.0, "num_classes": 16,
              "dim": 64, "separation": 5.0, "test_n": 4000,
              "labels_per_class": 8, "q": 0.8, "ood_kind": "label-flip"}
BLOBS_HIDDEN = 128
BLOBS_TRAIN = {"epochs": 3, "m": 256, "T0": 0, "tau": 0.95}
BLOBS_SCHEDULE = {"C": 3.0, "gamma": 1.27, "floor": 0.05, "activation_epoch": 1,
                  "decay_every_epochs": 1}
BLOBS_ALGORITHMS = ("dash", "fixmatch")


def blobs_data_dir(workdir):
    return os.path.join(workdir, "data")


def setup_blobs_wide(seed, workdir, cli_main):
    """Writes the pool; every round trains each algorithm on it with the same seed."""
    data_dir = blobs_data_dir(workdir)
    gen_cfg = os.path.join(workdir, "gen-data.json")
    _write_json(gen_cfg, {"seed": seed, "data": BLOBS_DATA})
    if cli_main(["gen-data", "--config", gen_cfg, "--out", data_dir,
                 "--overwrite"]) != 0:
        raise RuntimeError("gen-data failed during set-up")
    data = {"load_dir": os.path.abspath(data_dir)}
    ops = []
    for algo in BLOBS_ALGORITHMS:
        path = os.path.join(workdir, f"{algo}.json")
        _write_json(path, _train_cfg(algo, data, BLOBS_HIDDEN, BLOBS_TRAIN,
                                     BLOBS_SCHEDULE, seed=seed))
        ops.append(Op(f"{algo}-s{seed}", "train", ["train", "--config", path],
                      _train_spec(algo, BLOBS_DATA, BLOBS_HIDDEN, BLOBS_TRAIN,
                                  BLOBS_SCHEDULE)))
    return lambda round_no: ops


# ---------------------------------------------------------------------------
# theory-binding: theory-verify where the threshold binds (mu = L = 1,
# eta = 1, so gamma = 2 and m = 9); draws grow to 9 * 2^16 per step.

THEORY_PROBLEM = {"d": 10, "mu": 1.0, "L": 1.0, "R": 1.0, "noise_scale": 0.1}
THEORY_CONSTANTS = {"a": 0.5, "b": 1e-4, "theta": 1.0, "delta": 0.1, "q": 0.8,
                    "C": 2.0, "eta0": 0.5, "eta": 1.0, "F0": 1.0}
THEORY_T = 17
THEORY_SEEDS_PER_OP = 5


def setup_theory_binding(seed, workdir):
    seeds = [THEORY_SEEDS_PER_OP * seed + j for j in range(THEORY_SEEDS_PER_OP)]
    cfg = {"problem": dict(THEORY_PROBLEM, seed=seed),
           "q_dist": {"kind": "shifted-minimizer", "offset": 2.0},
           "constants": dict(THEORY_CONSTANTS, mode="derive", manual=None),
           "T": THEORY_T, "seeds": seeds, "thresholded": True}
    path = os.path.join(workdir, "theory.json")
    _write_json(path, cfg)
    spec = dict(THEORY_CONSTANTS, mu=THEORY_PROBLEM["mu"], L=THEORY_PROBLEM["L"],
                R=THEORY_PROBLEM["R"], T=THEORY_T, seeds=seeds)
    ops = [Op(f"theory-s{seed}", "theory", ["theory-verify", "--config", path], spec)]
    return lambda round_no: ops


WORKLOADS = ("moons-grid", "blobs-wide", "theory-binding")


def setup(workload, seed, workdir, cli_main):
    """Write the workload's inputs under workdir; returns round_ops."""
    os.makedirs(workdir, exist_ok=True)
    if workload == "moons-grid":
        return setup_moons_grid(seed, workdir)
    if workload == "blobs-wide":
        return setup_blobs_wide(seed, workdir, cli_main)
    if workload == "theory-binding":
        return setup_theory_binding(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
