"""Golden outputs of the default training run.

A default `train` with seed 0 must write byte-identical files for every
algorithm.  The sha256 prefixes are the golden hashes listed in
ROADMAP.md (metrics.csv / checkpoint.bin, numpy 2.4, x86-64); a change
that alters them on purpose names the new ones there.
"""
import hashlib

import pytest

from dashssl.cli import main

GOLDEN = {
    "dash": ("353567ae6976", "87697c078ca7"),
    "fixmatch": ("dab8dceca02a", "8e347f95d9db"),
    "pl": ("716d0093b08b", "e621428e3280"),
    "dash-pl": ("14175744a58e", "25fab438dac1"),
}


def _sha256_prefix(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:12]


@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_default_train_outputs_are_golden(tmp_path, algorithm):
    out = tmp_path / algorithm
    assert main(["train", "--out", str(out), "--set", f'algorithm="{algorithm}"',
                 "--set", "seed=0"]) == 0
    got = (_sha256_prefix(out / "metrics.csv"), _sha256_prefix(out / "checkpoint.bin"))
    assert got == GOLDEN[algorithm]
