"""One measured benchmark process: set up, warm up, run timed rounds, check.

run.py starts this file in a fresh interpreter with BLAS threads pinned to
one.  It writes to its real stdout a line ``READY <time.monotonic()>``
once set-up is done and, unless ``--setup-only``, one JSON line with the
measurements.  Program output goes to a discarded buffer.

Timed operations are whole rounds of ``cli.main`` calls.  One untimed
warm-up operation comes first.  Every operation's outputs are checked
after it returns, outside the timed region, by ``checks``.  With
``--trace 1`` the timed rounds are followed by one traced round, and the
set-up is traced too.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

from dashssl import augment, cli, dash, data, models, theory  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_ROOT = os.path.join(ROOT, ".bench_out")


def quiet_main(argv):
    """cli.main with the program's own printing discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Runner:
    """Runs operations, checks their outputs and keeps the totals of a phase."""

    def __init__(self, round_ops, workdir):
        self.round_ops = round_ops
        self.workdir = workdir
        self.digests = {}
        self.pool_test_set = None
        self.errors = []
        self.faults = set()
        self.program_constants_checked = False

    def out_dir(self, op):
        return os.path.join(self.workdir, "ops", op.name)

    def execute(self, op):
        argv = op.argv + ["--out", self.out_dir(op), "--overwrite"]
        start = time.perf_counter()
        rc = quiet_main(argv)
        return rc, time.perf_counter() - start

    def _test_set(self, op):
        seed = op.spec.get("data_seed")
        if seed is not None:  # generated inside train from seed + 1
            d = workloads.MOONS_DATA
            return data.examples_xy(data.make_two_moons(d["test_n"], d["noise"], seed + 1))
        if self.pool_test_set is None:  # the test split gen-data wrote
            path = os.path.join(workloads.blobs_data_dir(self.workdir), "test.csv")
            self.pool_test_set = checks.read_examples_csv(path)
        return self.pool_test_set

    def _check_program_constants(self, spec):
        const = checks.theory_constants(spec)
        problem = theory.make_pl_problem(workloads.THEORY_PROBLEM["d"], spec["mu"],
                                         spec["L"], spec["R"], 0)
        program = theory.derive_constants(
            G=problem.grad_bound, L=spec["L"], mu=spec["mu"], a=spec["a"],
            b=spec["b"], theta=spec["theta"], delta=spec["delta"], q=spec["q"],
            C=spec["C"], eta0=spec["eta0"], eta=spec["eta"], F0=spec["F0"])
        checks.check_program_constants(const, {
            "m": program.m, "gamma": program.gamma_theory, "a0": program.a0,
            "b0": program.b0, "rho_hat": program.rho_hat})

    def check(self, op):
        """Check one finished operation; returns the totals of checks.py."""
        out = self.out_dir(op)
        if op.kind == "train":
            files = ["metrics.csv", "checkpoint.bin"]
            X, y = self._test_set(op)
            found = checks.check_train(out, op.spec, X, y)
        else:
            files = ["report.json"]
            if not self.program_constants_checked:
                self._check_program_constants(op.spec)
                self.program_constants_checked = True
            found = checks.check_theory(os.path.join(out, "report.json"), op.spec)
        digest = [checks.file_sha256(os.path.join(out, f)) for f in files]
        if self.digests.setdefault(op.name, digest) != digest:
            raise checks.CheckError(f"{out}: outputs differ from an earlier run "
                                    f"with the same seed")
        return found

    def run_op(self, op, totals):
        rc, seconds = self.execute(op)
        totals["attempted"] += 1
        totals["op_seconds"] += seconds
        if rc != 0:
            totals["failed"] += 1
            self.faults.add(f"{op.name}: exit code {rc}")
            return
        try:
            found = self.check(op)
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            self.errors.append(f"{op.name}: {exc}")
            return
        totals["examples"] += found["examples"]
        if op.kind == "train":
            totals["train_selected"] += found["selected"]
            totals["train_drawn"] += found["examples"]
        else:
            totals["theory_selected"] += found["selected"]
            totals["theory_drawn"] += found["selection_draws"]
        if found.get("rejected_after_activation") == 0:
            # Exits 0 and breaks no formula, but its threshold never acted.
            totals["failed"] += 1
            self.faults.add(f"{op.name}: the decaying threshold never rejected a draw")

    def run_round(self, round_no, totals):
        for op in self.round_ops(round_no):
            self.run_op(op, totals)
        totals["rounds"] += 1

    def run_for(self, seconds):
        """Whole rounds, from round 0, until `seconds` have passed."""
        totals = new_totals()
        start = time.monotonic()
        while totals["rounds"] == 0 or time.monotonic() - start < seconds:
            self.run_round(totals["rounds"], totals)
        return totals


def new_totals():
    return {"attempted": 0, "failed": 0, "examples": 0, "op_seconds": 0.0,
            "rounds": 0, "train_selected": 0, "train_drawn": 0,
            "theory_selected": 0, "theory_drawn": 0}


def _ratio(num, den):
    return num / den if den else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", default="run",
                        help="subdirectory of .bench_out/<workload> to work in")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    protocol = sys.stdout

    workdir = os.path.join(OUT_ROOT, args.workload, args.tag)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer({"cli": cli, "data": data, "augment": augment,
                                 "models": models, "dash": dash, "theory": theory})
        tracer.install()
    round_ops = workloads.setup(args.workload, args.seed, workdir, quiet_main)
    if tracer:
        tracer.remove()
    print(f"READY {time.monotonic()!r}", file=protocol, flush=True)
    if args.setup_only:
        return 0

    runner = Runner(round_ops, workdir)
    runner.run_op(round_ops(0)[0], new_totals())
    totals = runner.run_for(args.seconds)
    result = {"attempted": totals["attempted"], "failed": totals["failed"],
              "examples": totals["examples"], "op_seconds": totals["op_seconds"],
              "rounds": totals["rounds"]}
    if tracer:
        traced = new_totals()
        tracer.install()
        runner.run_round(0, traced)  # round 0 again: counts repeat exactly
        tracer.remove()
        for key in ("attempted", "failed"):
            result[key] += traced[key]
        untraced_eps = totals["examples"] / totals["op_seconds"]
        traced_eps = traced["examples"] / traced["op_seconds"]
        layers = tracer.metrics()
        layers["dash.selected_ratio"] = _ratio(traced["train_selected"],
                                               traced["train_drawn"])
        layers["theory.selected_ratio"] = _ratio(traced["theory_selected"],
                                                 traced["theory_drawn"])
        layers["trace.overhead_pct"] = (100.0 * (untraced_eps / traced_eps - 1.0)
                                        if traced_eps else 0.0)
        result["per_layer"] = layers
    result["correct"] = not runner.errors
    result["errors"] = runner.errors[:10]
    result["faults"] = sorted(runner.faults)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
