"""Property-based invariants of the selection rule, the threshold schedule,
the theory harness's draw sizes, and the exact round-trips of example CSVs and
checkpoints."""

import math
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from dashssl.dash import ThresholdSchedule, save_checkpoint, select, threshold
from dashssl.data import PROVENANCES, Examples, load_examples_csv, save_examples_csv
from dashssl.theory import (DEFAULT_N_CAP, check_sample_cap, derive_constants,
                            theory_batch_size)

# derandomized so every run of the suite checks the same examples
PROPERTY = settings(deadline=None, derandomize=True, max_examples=200)

losses_st = st.lists(st.floats(min_value=0.0, allow_nan=False), min_size=1,
                     max_size=30)
rho_st = st.floats(min_value=0.0, allow_nan=False)


@PROPERTY
@given(losses=losses_st, rho_a=rho_st, rho_b=rho_st)
def test_select_is_monotone_in_rho(losses, rho_a, rho_b):
    lo, hi = sorted((rho_a, rho_b))
    small = select(np.array(losses), lo)
    large = select(np.array(losses), hi)
    assert not np.any(small & ~large)


schedule_st = st.builds(
    ThresholdSchedule,
    C=st.floats(min_value=1.0001, max_value=10.0),
    gamma=st.floats(min_value=1.0001, max_value=3.0),
    rho_hat=st.floats(min_value=1e-3, max_value=1e3),
    floor=st.floats(min_value=0.0, max_value=1.0),
    activation_epoch=st.integers(0, 3),
    decay_every_epochs=st.none() | st.integers(1, 3),
    steps_per_epoch=st.integers(1, 5))


@PROPERTY
@given(schedule=schedule_st)
def test_threshold_infinite_then_non_increasing_above_floor(schedule):
    start = schedule.activation_epoch * schedule.steps_per_epoch + 1
    horizon = start + 40
    rhos = [threshold(t, schedule) for t in range(1, horizon)]
    assert all(math.isinf(r) for r in rhos[:start - 1])
    active = rhos[start - 1:]
    assert all(math.isfinite(r) and r >= schedule.floor for r in active)
    assert all(b <= a for a, b in zip(active, active[1:]))


def _constants(m, gamma):
    """Constants that draw floor(m * gamma^(t-1)) examples at step t."""
    return replace(derive_constants(G=4.0, L=2.0, mu=0.5), m=m, gamma_theory=gamma)


@PROPERTY
@given(m=st.integers(1, 100), gamma=st.floats(min_value=1.01, max_value=3.0))
def test_theory_batch_size_grows_until_the_cap(m, gamma):
    sizes = [theory_batch_size(m, gamma, 1)]
    while sizes[-1] <= DEFAULT_N_CAP:
        sizes.append(theory_batch_size(m, gamma, len(sizes) + 1))
    assert sizes[0] == m
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    # the run of every step under the cap passes; any longer run names the
    # first step over it
    t = len(sizes)
    check_sample_cap(_constants(m, gamma), t - 1)
    for T in (t, t + 1, 2 * t):
        with pytest.raises(ValueError, match=f"^batch size {sizes[-1]} at step t={t} "
                                             f"exceeds the cap {DEFAULT_N_CAP}$"):
            check_sample_cap(_constants(m, gamma), T)


# step t's draw is past every float, so the uncapped size overflows there; the
# check of a run of t steps names the first step over the cap instead, which at
# gamma = 1e308 is step 2 itself (9 * 1e308 is inf)
@pytest.mark.parametrize("gamma,t", [(2.0, 2000), (1e308, 2)])
def test_theory_batch_size_past_every_float_is_over_the_cap(gamma, t):
    with pytest.raises(OverflowError):
        theory_batch_size(9, gamma, t)
    first = {2.0: "1179648 at step t=18", 1e308: "inf at step t=2"}[gamma]
    with pytest.raises(ValueError, match=f"^batch size {first} exceeds the cap "):
        check_sample_cap(_constants(9, gamma), t)


# any finite float64, with the edge values drawn often: signed zero, the
# smallest and largest subnormals and the largest magnitudes
finite_st = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308,
                             1e308, -1e308, 1.7976931348623157e308]) | st.floats(
    allow_nan=False, allow_infinity=False)


def _bits(X):
    return np.asarray(X, dtype=np.float64).view(np.int64)


@st.composite
def example_splits(draw):
    d = draw(st.integers(1, 8))
    k = draw(st.integers(2, 5))
    rows = draw(st.lists(st.tuples(st.lists(finite_st, min_size=d, max_size=d),
                                   st.integers(-1, k - 1), st.sampled_from(PROVENANCES)),
                         min_size=1, max_size=6))
    X, y, provenance = zip(*rows)
    return Examples(np.array(X), np.array(y), np.array(provenance))


@PROPERTY
@given(examples=example_splits())
def test_csv_round_trip_is_bitwise(examples):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "examples.csv")
        save_examples_csv(examples, path)
        back = load_examples_csv(path)
    assert len(back) == len(examples)
    assert np.array_equal(_bits(back.X), _bits(examples.X))
    assert back.y.tolist() == examples.y.tolist()
    assert back.provenance.tolist() == examples.provenance.tolist()


@PROPERTY
@given(values=st.lists(finite_st, max_size=50))
def test_checkpoint_round_trip_is_bitwise(values):
    params = np.array(values, dtype=np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint.bin")
        save_checkpoint(params, path)
        back = reference.load_checkpoint(path)
    assert np.array_equal(_bits(back), _bits(params))
