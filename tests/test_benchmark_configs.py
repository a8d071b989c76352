"""The benchmark's configurations pass the command line's boundary.

Every operation of round 0 of each workload goes through ``cli.main`` with
the trainer and the theory runs replaced by a sentinel, so an operation
whose configuration the command line rejects fails here, not only when
the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

from dashssl import cli, dash, theory

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import workloads  # noqa: E402


class Reached(Exception):
    """A run started: its configuration passed the boundary."""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_zero_reaches_its_run(tmp_path, monkeypatch, workload):
    round_ops = workloads.setup(workload, 0, str(tmp_path / "work"), cli.main)

    def reached(*args):
        raise Reached

    monkeypatch.setattr(dash, "dash_train", reached)
    monkeypatch.setattr(theory, "run_selection_stage", reached)
    ops = round_ops(0)
    assert ops
    for op in ops:
        with pytest.raises(Reached):
            cli.main(op.argv + ["--out", str(tmp_path / "ops" / op.name)])
