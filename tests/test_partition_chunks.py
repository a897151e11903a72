"""Property test: the chunked partition scan across chunk edges.

``build_partition`` reads the schedule in slices of at most
``windows._CHUNK`` steps.  With the chunk set to 1, 3 and 7 steps, long
windows carry their running sum across slices, runs of equal-length
windows are accepted a few rows at a time, and forced single-step
stretches (alpha_k > T) span several slices.  Every case must still match
the brute-force per-window scan of ``test_partition_properties`` exactly,
including schedules whose window length changes inside one slice and
positive schedules that are not monotone.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgdmlab import StepSchedule, build_partition, windows
from sgdmlab.schedules import ScheduleExhaustedError
from test_partition_properties import brute_partition, cases

CHUNKS = (1, 3, 7)


class ListSchedule:
    """A finite positive sequence read like ``StepSchedule``, without its
    non-increasing check."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def at(self, ks):
        ks = np.asarray(ks)
        if ks.size and ks.max() > len(self.values):
            raise ScheduleExhaustedError(f"step {ks.max()} past the list")
        return self.values[ks - 1]

    def prefix(self, n):
        return self.at(np.arange(1, n + 1))

    def step_size(self, k):
        return float(self.at(np.array([k]))[0])


def _check(schedule, T, horizon, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(windows, "_CHUNK", chunk)
        part = build_partition(schedule, T, horizon)
    gammas, deltas, complete = brute_partition(schedule, T, horizon)
    assert part.gammas.tolist() == gammas
    assert part.deltas.tolist() == deltas
    assert part.complete.tolist() == complete


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_small_chunks_match_brute_force_scan(chunk, case):
    _check(*case, chunk)


@st.composite
def unordered_cases(draw):
    horizon = draw(st.integers(2, 120))
    n = horizon - 1 + draw(st.integers(0, 2))
    values = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    T = draw(st.floats(0.005, 3.0))
    return ListSchedule(values), T, horizon


@pytest.mark.parametrize("chunk", CHUNKS + (windows._CHUNK,))
@settings(max_examples=150, deadline=None)
@given(case=unordered_cases())
def test_non_monotone_schedules_match_brute_force_scan(chunk, case):
    _check(*case, chunk)


# plateaus of step sizes whose window lengths are 1, 2, 3, 6 and 12 under
# T = 0.6, with a forced single-step head (alpha = 0.9 > T) on some
PLATEAUS = {
    "lengths_1_2_3_6_12": [0.5] * 5 + [0.3] * 9 + [0.2] * 13 + [0.1] * 31 + [0.05] * 50,
    "forced_head": [0.9] * 11 + [0.3] * 7 + [0.2] * 4 + [0.1] * 20,
    "one_step_per_length": [0.5, 0.3, 0.3, 0.2, 0.2, 0.2, 0.1] + [0.05] * 12,
    "long_tail": [0.3] * 4 + [0.01] * 200,
}


@pytest.mark.parametrize("chunk", CHUNKS + (4, 12, 64))
@pytest.mark.parametrize("name", sorted(PLATEAUS))
def test_window_length_changes_inside_a_chunk(name, chunk):
    values = PLATEAUS[name]
    for horizon in (len(values) - 5, len(values), len(values) + 1):
        _check(StepSchedule.explicit(values), 0.6, horizon, chunk)


@pytest.mark.parametrize("chunk", CHUNKS + (windows._CHUNK,))
def test_power_weights_are_running_sums_of_the_schedule(chunk):
    # beta_k = (sum_{i<=k} alpha_i)^r at the anchors, summed in step order
    # across slices: the same bits as one cumsum over the horizon
    schedule = StepSchedule.polynomial(0.5, 2.0, 0.9)
    part = build_partition(schedule, 0.3, 400)
    s = np.linspace(0.1, 1.0, part.n_windows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(windows, "_CHUNK", chunk)
        prof = windows.summability_profile(s, part, schedule, beta=("power", 1.5))
    b = np.cumsum(schedule.prefix(399))[part.gammas[:-1] - 1] ** 1.5
    assert prof.terms.tobytes() == (b**2 * s**2).tobytes()
