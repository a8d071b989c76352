"""dashssl benchmark.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Each measurement runs in a fresh interpreter (worker.py) with
BLAS/OpenMP threads pinned to one: a closed loop of one caller that runs
whole rounds of ``cli.main`` operations for S seconds after one untimed
warm-up operation, and checks every output.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones:

- ``setup_s``: interpreter start, imports, input generation and writing,
  up to the first timed operation; the median over SETUPS fresh
  interpreters (SETUPS - 1 that only set up, then the measured one);
- ``examples_per_s``: examples processed by the timed operations over
  their total time, the examples counted by the benchmark from the
  outputs or a closed form;
- ``peak_rss_mb``: peak resident memory of the measured process.

With ``--trace 1`` the metrics are the per-layer ones of tracing.py,
taken from set-up plus one traced round after the timed rounds.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUPS = 3
DEADLINE_S = 170.0
PINNED_ENV = dict({name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                          "NUMEXPR_NUM_THREADS")},
                  NUMPY_MADVISE_HUGEPAGE="0")


class BenchError(Exception):
    pass


def spawn_worker(args, tag, setup_only, deadline):
    """Run worker.py to completion; returns (set-up seconds, result or None)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tag", tag]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED_ENV)
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {tag} passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}")
    lines = out.splitlines()
    ready = [line for line in lines if line.startswith("READY ")]
    if not ready:
        raise BenchError(f"worker {tag} never finished set-up")
    setup_s = float(ready[0].split()[1]) - start
    return setup_s, None if setup_only else json.loads(lines[-1])


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    shutil.rmtree(os.path.join(OUT_ROOT, args.workload), ignore_errors=True)
    setups = []
    if not args.trace:
        for i in range(SETUPS - 1):
            tag = f"setup-{i}"
            setups.append(spawn_worker(args, tag, True, deadline)[0])
            shutil.rmtree(os.path.join(OUT_ROOT, args.workload, tag))
    setup_s, res = spawn_worker(args, "run", False, deadline)
    setups.append(setup_s)
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    for fault in res["faults"]:
        print(f"operation failed: {fault}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in tracing.metric_names()}
    else:
        eps = res["examples"] / res["op_seconds"] if res["op_seconds"] else 0.0
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "examples_per_s": {"value": eps, "unit": "1/s"},
                   "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}
    print(f"{args.workload} seed {args.seed}: {res['rounds']} rounds, "
          f"{res['attempted']} operations, {res['examples']} examples in "
          f"{res['op_seconds']:.3f} s; set-ups {[round(s, 3) for s in setups]}",
          file=sys.stderr)
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description="dashssl benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dashssl", "cli.py")):
        print(f"error: no dashssl sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
