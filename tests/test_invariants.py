"""Property-based invariants of the selection rule, the threshold schedule,
the theory harness's draw sizes, and the exact round-trips of example CSVs and
checkpoints."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from dashssl.dash import (DEFAULT_N_CAP, ThresholdSchedule, save_checkpoint, select,
                          theory_batch_size, threshold)
from dashssl.data import PROVENANCES, Examples, load_examples_csv, save_examples_csv
from dashssl.errors import CapExceededError

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


@PROPERTY
@given(m=st.integers(1, 100), gamma=st.floats(min_value=1.01, max_value=3.0),
       n_cap=st.integers(1, 10 ** 5))
def test_theory_batch_size_grows_until_the_cap(m, gamma, n_cap):
    sizes = []
    t = 1
    while True:
        try:
            sizes.append(theory_batch_size(m, gamma, t, n_cap))
        except CapExceededError as exc:
            assert (exc.step, exc.cap) == (t, n_cap)
            assert exc.n_requested > n_cap
            break
        t += 1
    assert all(1 <= n <= n_cap for n in sizes)
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    with pytest.raises(CapExceededError):
        theory_batch_size(m, gamma, t + 1, n_cap)


@pytest.mark.parametrize("gamma,t", [(2.0, 2000), (1e308, 2)])
def test_theory_batch_size_past_every_float_is_over_the_cap(gamma, t):
    with pytest.raises(CapExceededError, match=f"batch size inf at step t={t} "):
        theory_batch_size(9, gamma, t, DEFAULT_N_CAP)


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
