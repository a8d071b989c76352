"""The benchmark's output checks must be able to fail.

Each test runs real operations of the workloads once, then corrupts one
output (a metrics.csv row, a checkpoint byte, a report.json field) and
expects the matching check to catch it.
"""

import json
import os
import re
import shutil

import numpy as np
import pytest

import checks
import tracing
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def moons(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("moons"))
    round_ops = workloads.setup("moons-grid", 0, workdir, worker.quiet_main)
    ops = {op.name: op for op in round_ops(0)}
    kept = [ops["dash-s0"], ops["pl-s0"], ops["dash-pl-s0"]]
    runner = worker.Runner(lambda round_no: kept, workdir)
    for op in kept:
        assert runner.execute(op)[0] == 0
    return runner, ops


@pytest.fixture(scope="module")
def theory_run(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("theory"))
    round_ops = workloads.setup("theory-binding", 0, workdir, worker.quiet_main)
    (op,) = round_ops(0)
    runner = worker.Runner(round_ops, workdir)
    assert runner.execute(op)[0] == 0
    return runner, op


def _copy(runner, op, tmp_path):
    dst = tmp_path / op.name
    shutil.copytree(runner.out_dir(op), dst)
    return str(dst)


def _check_train(runner, op, run_dir):
    X, y = runner._test_set(op)
    return checks.check_train(run_dir, op.spec, X, y)


def _edit_metrics(run_dir, edit):
    path = os.path.join(run_dir, "metrics.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    edit(rows)
    with open(path, "w") as fh:
        fh.write("\n".join([lines[0]] + [",".join(r[c] for c in header)
                                         for r in rows]) + "\n")


def _bump(row, *cols, by=1):
    for col in cols:
        row[col] = str(int(row[col]) + by)


def _first_active(rows, spec):
    return next(r for r in rows if int(r["epoch"]) >= spec["activation_epoch"])


def test_clean_outputs_pass(moons, theory_run):
    runner, ops = moons
    for name in ("dash-s0", "pl-s0", "dash-pl-s0"):
        found = runner.check(ops[name])
        assert found["examples"] == 45 * 16 * 64
    assert runner.check(ops["dash-s0"])["rejected_after_activation"] > 0
    runner, op = theory_run
    found = runner.check(op)
    assert found["examples"] == 5 * (2 * 320 + 9 * (2 ** 17 - 1))


def test_threshold_that_never_rejects_is_reported(moons):
    runner, ops = moons
    assert runner.check(ops["dash-pl-s0"])["rejected_after_activation"] == 0
    totals = worker.new_totals()
    runner.run_op(ops["dash-pl-s0"], totals)
    assert totals["failed"] == 1 and totals["attempted"] == 1


def _rho_scaled(spec):
    def edit(rows):
        row = _first_active(rows, spec)
        row["rho_t"] = repr(float(row["rho_t"]) * 1.01)
    return edit


CORRUPT_ROWS = [
    ("P plus Q", lambda spec: lambda rows: _bump(rows[5], "n_sel_P"),
     "n_sel_P + n_sel_Q"),
    ("correct plus wrong", lambda spec: lambda rows: _bump(rows[5], "n_sel_wrong"),
     "n_sel_correct + n_sel_wrong"),
    ("more selected than sampled",
     lambda spec: lambda rows: _bump(rows[-1], "n_selected", "n_sel_P",
                                     "n_sel_correct", by=100),
     "outside [0, n_sampled]"),
    ("rejected while rho is inf",
     lambda spec: lambda rows: _bump(rows[0], "n_selected", "n_sel_P", "n_sel_correct",
                                     by=-1),
     "rejected while rho_t = inf"),
    ("finite rho before activation",
     lambda spec: lambda rows: rows[0].update(rho_t="5.0"), "inf before activation"),
    ("rho off the schedule", _rho_scaled,
     "rho_t does not follow"),
    ("missing step", lambda spec: lambda rows: rows.pop(100), "steps are not"),
    ("test error off the checkpoint",
     lambda spec: lambda rows: rows[-1].update(
         test_error=repr(float(rows[-1]["test_error"]) + 2.0 / 512)),
     "forward pass gives test error"),
]


@pytest.mark.parametrize("case,make_edit,message", CORRUPT_ROWS,
                         ids=[c[0] for c in CORRUPT_ROWS])
def test_corrupted_metrics_row_is_caught(moons, tmp_path, case, make_edit, message):
    runner, ops = moons
    op = ops["dash-s0"]
    run_dir = _copy(runner, op, tmp_path)
    _edit_metrics(run_dir, make_edit(op.spec))
    with pytest.raises(checks.CheckError, match=re.escape(message)):
        _check_train(runner, op, run_dir)


def test_fixed_confidence_rules_are_caught(moons, tmp_path):
    runner, ops = moons
    op = ops["pl-s0"]
    run_dir = _copy(runner, op, tmp_path)
    _edit_metrics(run_dir, lambda rows: rows[3].update(rho_t="0.5"))
    with pytest.raises(checks.CheckError, match=re.escape("-log(tau)")):
        _check_train(runner, op, run_dir)
    run_dir = _copy(runner, op, tmp_path / "chance")
    _edit_metrics(run_dir, lambda rows: rows[-1].update(test_error="0.5"))
    with pytest.raises(checks.CheckError, match="not below chance"):
        _check_train(runner, op, run_dir)


def _flip(path, offset, mask):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ mask]))


def test_flipped_checkpoint_byte_is_caught(moons, tmp_path):
    runner, ops = moons
    op = ops["dash-s0"]
    spec = op.spec
    d, h = spec["input_dim"], spec["hidden"]
    first_w2 = 16 + 8 * (h * d + h)

    run_dir = _copy(runner, op, tmp_path / "magic")
    _flip(os.path.join(run_dir, "checkpoint.bin"), 0, 0x01)
    with pytest.raises(checks.CheckError, match="bad magic"):
        _check_train(runner, op, run_dir)

    run_dir = _copy(runner, op, tmp_path / "exponent")
    for j in range(spec["num_classes"] * h):  # top exponent bit of every W2 weight
        _flip(os.path.join(run_dir, "checkpoint.bin"), first_w2 + 8 * j + 7, 0x40)
    with pytest.raises(checks.CheckError, match="forward pass gives test error"):
        _check_train(runner, op, run_dir)

    # A lowest-mantissa flip leaves every prediction unchanged; only the
    # byte-identity rule between runs of one seed sees it.
    path = os.path.join(runner.out_dir(op), "checkpoint.bin")
    saved = open(path, "rb").read()
    try:
        runner.check(op)
        _flip(path, first_w2, 0x01)
        _check_train(runner, op, runner.out_dir(op))
        with pytest.raises(checks.CheckError, match="differ from an earlier run"):
            runner.check(op)
    finally:
        with open(path, "wb") as fh:
            fh.write(saved)


def _tamper(runner, op, tmp_path, edit):
    run_dir = _copy(runner, op, tmp_path)
    path = os.path.join(run_dir, "report.json")
    with open(path) as fh:
        report = json.load(fh)
    edit(report)
    with open(path, "w") as fh:
        json.dump(report, fh)
    return path


def _set_last(key, value):
    return lambda r: r["runs"][0][key].__setitem__(-1, value)


TAMPERED_REPORTS = [
    ("overall pass_B", lambda r: r.update(pass_B=1.0), "pass_B is"),
    ("one run pass_A", lambda r: r["runs"][1].update(pass_A=not r["runs"][1]["pass_A"]),
     "pass_A is"),
    ("F above the envelope", lambda r: r["runs"][0]["F"].__setitem__(3, 1e3),
     "F exceeds"),
    ("envelope scaled", lambda r: r["runs"][0].update(
        envelope=[2.0 * e for e in r["runs"][0]["envelope"]]), "envelope is not"),
    ("Q selected at the end", _set_last("B_rho", 7), "does not bind"),
    ("seed list", lambda r: r["runs"][0].update(seed=99), "seeds differ"),
]


@pytest.mark.parametrize("case,edit,message", TAMPERED_REPORTS,
                         ids=[c[0] for c in TAMPERED_REPORTS])
def test_tampered_report_is_caught(theory_run, tmp_path, case, edit, message):
    runner, op = theory_run
    path = _tamper(runner, op, tmp_path, edit)
    with pytest.raises(checks.CheckError, match=re.escape(message)):
        checks.check_theory(path, op.spec)


def test_program_constants_mismatch_is_caught(theory_run):
    _, op = theory_run
    const = checks.theory_constants(op.spec)
    assert (const["m"], const["gamma"]) == (9, 2.0)
    checks.check_program_constants(const, dict(const))
    with pytest.raises(checks.CheckError, match="rho_hat"):
        checks.check_program_constants(const, dict(const, rho_hat=const["rho_hat"] * 1.01))


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracing.metric_names()
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "examples_per_s", "peak_rss_mb"}


def test_tracer_restores_the_program():
    from dashssl import augment, cli, dash, data, models, theory
    modules = {"cli": cli, "data": data, "augment": augment, "models": models,
               "dash": dash, "theory": theory}
    before = (models.forward_batch, theory.PLProblem.__dict__["project"])
    tracer = tracing.Tracer(modules)
    tracer.install()
    assert models.forward_batch is not before[0]
    logits = models.forward_batch(models.init_model("mlp-1hidden", 2, 2, 4), np.zeros((3, 2)))
    tracer.remove()
    assert (models.forward_batch, theory.PLProblem.__dict__["project"]) == before
    assert logits.shape == (3, 2)
    assert tracer.metrics()["models.forward_batch.rows"] == 3
