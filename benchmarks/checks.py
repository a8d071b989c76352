"""Independent checks of the files a benchmark operation wrote.

Nothing here imports dashssl.  Each reader parses the program's output
format itself, and each rule is recomputed from the benchmark's own
description of the operation (its ``spec``) in plain numpy.  A broken
rule raises ``CheckError`` naming the file and the rule.
"""

import csv
import hashlib
import json
import math
import struct

import numpy as np

METRICS_HEADER = ["step", "epoch", "rho_t", "n_sampled", "n_selected",
                  "n_sel_correct", "n_sel_wrong", "n_sel_P", "n_sel_Q",
                  "labeled_loss", "unlabeled_loss", "test_error", "lr"]
_INT_COLUMNS = {"step", "epoch", "n_sampled", "n_selected", "n_sel_correct",
                "n_sel_wrong", "n_sel_P", "n_sel_Q"}
CHECKPOINT_MAGIC = b"DASHMODL"


class CheckError(Exception):
    """An output broke one of the benchmark's correctness rules."""


def _require(ok, where, rule):
    if not ok:
        raise CheckError(f"{where}: {rule}")


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# readers

def read_metrics(path):
    """metrics.csv as a dict of column arrays (ints stay ints)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == METRICS_HEADER, path, "unexpected header")
    body = rows[1:]
    _require(body, path, "no rows")
    _require(all(len(r) == len(METRICS_HEADER) for r in body), path,
             "row with the wrong number of fields")
    cols = {}
    for j, name in enumerate(METRICS_HEADER):
        if name in _INT_COLUMNS:
            cols[name] = np.array([int(r[j]) for r in body], dtype=np.int64)
        else:
            cols[name] = np.array([float(r[j]) for r in body])
    return cols


def read_checkpoint(path):
    """Flat float64 parameters behind the 8-byte magic + uint64 length header."""
    with open(path, "rb") as fh:
        blob = fh.read()
    _require(len(blob) >= 16 and blob[:8] == CHECKPOINT_MAGIC, path, "bad magic")
    (size,) = struct.unpack("<Q", blob[8:16])
    _require(len(blob) == 16 + 8 * size, path,
             f"length {len(blob)} does not hold {size} parameters")
    return np.frombuffer(blob, dtype="<f8", offset=16).astype(np.float64)


def read_examples_csv(path):
    """(X, y) from a dataset CSV: x0..x{d-1}, label, provenance.

    Parsed by numpy's C reader, so the check adds little to the peak
    memory the benchmark reports.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    d = len(header) - 2
    _require(d >= 1 and header == [f"x{i}" for i in range(d)]
             + ["label", "provenance"], path, "unexpected header")
    X = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(d), ndmin=2)
    y = np.loadtxt(path, delimiter=",", skiprows=1, usecols=d, dtype=np.int64, ndmin=1)
    return X, y


# ---------------------------------------------------------------------------
# training runs

def mlp_test_error(params, spec, X, y):
    """Test error of the one-hidden-layer tanh MLP stored as W1, b1, W2, b2."""
    d, h, k = spec["input_dim"], spec["hidden"], spec["num_classes"]
    sizes = [h * d, h, k * h, k]
    if params.size != sum(sizes):
        raise CheckError(f"checkpoint holds {params.size} parameters, "
                         f"the MLP needs {sum(sizes)}")
    W1, b1, W2, b2 = np.split(params, np.cumsum(sizes)[:-1])
    with np.errstate(all="ignore"):  # a corrupt checkpoint may overflow
        hidden = np.tanh(X @ W1.reshape(h, d).T + b1)
        logits = hidden @ W2.reshape(k, h).T + b2
    return float(np.mean(np.argmax(logits, axis=1) != y))


def _check_schedule(cols, spec, where):
    """Decaying-threshold rows: inf before activation, then the geometric decay."""
    rho, epoch = cols["rho_t"], cols["epoch"]
    active = epoch >= spec["activation_epoch"]
    _require(np.all(np.isinf(rho[~active])), where,
             "rho_t is not inf before activation")
    _require(np.all(cols["n_selected"][~active] == cols["n_sampled"][~active]),
             where, "a draw was rejected while rho_t = inf")
    _require(active.any() and np.all(np.isfinite(rho[active])), where,
             "rho_t is not finite after activation")
    first = rho[active][0]
    k = (epoch[active] - spec["activation_epoch"]) // spec["decay_every_epochs"]
    if first == spec["floor"]:
        expected = np.full(k.shape, spec["floor"])
    else:
        rho_hat = first / spec["C"]
        expected = np.maximum(spec["C"] * spec["gamma"] ** (-k.astype(float))
                              * rho_hat, spec["floor"])
    _require(np.allclose(rho[active], expected, rtol=1e-12, atol=0.0), where,
             "rho_t does not follow max(C * gamma^-k * rho_hat, floor)")
    _require(np.all(np.diff(rho[active]) <= 0.0), where, "rho_t increases")


def check_train(run_dir, spec, X_test, y_test):
    """Check one training run's metrics.csv and checkpoint.bin.

    Returns totals over all rows: ``examples`` (the sum of n_sampled),
    ``selected``, and for the decaying-threshold algorithms
    ``rejected_after_activation``.  The last one is not a rule here: a
    threshold that never rejects breaks no formula, but it makes the
    run's selection pointless, and the caller decides what that means.
    """
    where = f"{run_dir}/metrics.csv"
    cols = read_metrics(where)
    steps = spec["epochs"] * spec["steps_per_epoch"]
    _require(np.array_equal(cols["step"], np.arange(1, steps + 1)), where,
             f"steps are not 1..{steps}")
    _require(np.array_equal(cols["epoch"],
                            (cols["step"] - 1) // spec["steps_per_epoch"]),
             where, "epoch does not match step")
    _require(np.all(cols["n_sampled"] == spec["m"]), where,
             f"n_sampled is not the batch size {spec['m']}")
    sel = cols["n_selected"]
    _require(np.all(sel == cols["n_sel_P"] + cols["n_sel_Q"]), where,
             "n_selected != n_sel_P + n_sel_Q")
    _require(np.all(sel == cols["n_sel_correct"] + cols["n_sel_wrong"]), where,
             "n_selected != n_sel_correct + n_sel_wrong")
    _require(np.all((sel >= 0) & (sel <= cols["n_sampled"])), where,
             "n_selected outside [0, n_sampled]")
    totals = {"examples": int(cols["n_sampled"].sum()), "selected": int(sel.sum())}
    if spec["algorithm"] in ("dash", "dash-pl"):
        _check_schedule(cols, spec, where)
        active = cols["epoch"] >= spec["activation_epoch"]
        totals["rejected_after_activation"] = int(
            (cols["n_sampled"][active] - sel[active]).sum())
    else:
        _require(np.all(cols["rho_t"] == -math.log(spec["tau"])), where,
                 "rho_t is not -log(tau)")
    final = float(cols["test_error"][-1])
    _require(final < 1.0 - 1.0 / spec["num_classes"], where,
             f"final test error {final} is not below chance")
    params = read_checkpoint(f"{run_dir}/checkpoint.bin")
    recomputed = mlp_test_error(params, spec, X_test, y_test)
    _require(abs(recomputed - final) <= 1.0 / len(y_test) + 1e-12,
             f"{run_dir}/checkpoint.bin",
             f"forward pass gives test error {recomputed}, metrics.csv {final}")
    return totals


# ---------------------------------------------------------------------------
# theory-verify reports

def theory_constants(spec):
    """m, gamma, a0, b0, rho_hat and the warm-up schedule from the closed forms."""
    q, delta, C = spec["q"], spec["delta"], spec["C"]
    mu, G = spec["mu"], 2.0 * spec["L"] * spec["R"]
    l2d = math.log(2.0 / delta)
    m = math.ceil(max(math.sqrt(l2d) / q, math.sqrt(l2d) / (1.0 - q),
                      math.sqrt(l2d / (q * (1.0 - 1.0 / C) ** 2))))
    beta = max(math.sqrt(l2d / (2.0 * q * q * m)),
               math.sqrt(l2d / (2.0 * (1.0 - q) ** 2 * m)))
    alpha = math.sqrt(l2d / (q * m * (1.0 - 1.0 / C) ** 2))
    a0 = (1.0 - 1.0 / C) * (1.0 - beta) * (1.0 - alpha) * q

    def b0_at(rho):
        return 2.0 * ((1.0 - q) * (1.0 + beta) * spec["b"] * rho ** spec["theta"]
                      + math.log(1.0 / delta))

    rho = spec["a"]
    for _ in range(1000):
        new = max(spec["a"], 4.0 * G * G * (1.0 + delta * b0_at(rho) * m)
                  / (delta * mu * a0 * m))
        converged = abs(new - rho) <= 1e-10 * max(1.0, abs(rho))
        rho = new
        if converged:
            break
    T0 = max(0.0, math.log(2.0 * spec["F0"] / spec["a"])
             / math.log(1.0 / (1.0 - spec["eta0"] * mu)))
    return {"m": m, "gamma": 1.0 / (1.0 - spec["eta"] * mu / 2.0), "a0": a0,
            "b0": b0_at(rho), "rho_hat": rho, "warmup_steps": math.ceil(T0),
            "warmup_batch": max(1, math.ceil(4.0 * G * G / (delta * mu * spec["a"])))}


def theory_draws(spec, const):
    """(warm-up draws, selection-stage draws) of one seed."""
    selection = sum(max(1, math.floor(const["m"] * const["gamma"] ** (t - 1) + 1e-9))
                    for t in range(1, spec["T"] + 1))
    return const["warmup_steps"] * const["warmup_batch"], selection


def check_program_constants(const, program):
    """The program's derived constants agree with the closed forms."""
    _require(program["m"] == const["m"], "constants",
             f"m is {program['m']}, closed form {const['m']}")
    for name in ("gamma", "a0", "b0", "rho_hat"):
        _require(math.isclose(program[name], const[name], rel_tol=1e-9), "constants",
                 f"{name} is {program[name]}, closed form {const[name]}")


def check_theory(report_path, spec):
    """Check a theory-verify report.json.

    Returns totals over all seeds: ``examples`` (warm-up plus selection
    draws), ``selection_draws`` and ``selected``.
    """
    with open(report_path) as fh:
        report = json.load(fh)
    const = theory_constants(spec)
    gamma, m, T = const["gamma"], const["m"], spec["T"]
    runs = report["runs"]
    _require([r["seed"] for r in runs] == spec["seeds"], report_path,
             "seeds differ from the requested ones")
    steps = np.arange(1, T + 1)
    envelope = const["rho_hat"] * gamma ** (-steps.astype(float))
    lower = const["a0"] * m * gamma ** (steps - 1.0)
    upper = const["b0"] * m
    flags = {"pass_envelope": [], "pass_A": [], "pass_B": []}
    for run in runs:
        where = f"{report_path} seed {run['seed']}"
        _require(run["steps"] == steps.tolist(), where, f"steps are not 1..{T}")
        F, A, B = (np.array(run[key], dtype=float) for key in ("F", "A_rho", "B_rho"))
        _require(np.allclose(run["envelope"], envelope, rtol=1e-9, atol=0.0),
                 where, "envelope is not rho_hat * gamma^-t")
        _require(np.all(F <= envelope), where, "F exceeds rho_hat * gamma^-t")
        _require(B.max() > 0 and B[-1] == 0 and A[-1] > 0, where,
                 "the threshold does not bind: Q draws are not selected "
                 "early and all rejected at the last step while P draws pass")
        own = {"pass_envelope": bool(np.all(F <= envelope)),
               "pass_A": bool(np.all(A >= lower)),
               "pass_B": bool(np.all(B <= upper))}
        for name, value in own.items():
            _require(run[name] == value, where,
                     f"{name} is {run[name]}, recomputed {value}")
            flags[name].append(value)
    for name, values in flags.items():
        _require(report[name] == sum(values) / len(values), report_path,
                 f"{name} is {report[name]}, recomputed {sum(values) / len(values)}")
    warmup, selection = theory_draws(spec, const)
    return {"examples": len(runs) * (warmup + selection),
            "selection_draws": len(runs) * selection,
            "selected": sum(sum(r["A_rho"]) + sum(r["B_rho"]) for r in runs)}
