"""StepSchedule.at, the one evaluator of alpha_k: every other read of a
schedule (step_size, prefix, partial_sum, the window anchors, the runner's
blocks) must give the same bits as it."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgdmlab import ScheduleExhaustedError, StepSchedule, build_partition

HORIZON = 3000
EXPLICIT = StepSchedule.explicit(np.linspace(0.2, 1e-4, HORIZON).tolist())
SCHEDULES = [StepSchedule.polynomial(0.3, 2.0, 0.8), StepSchedule.polynomial(2.0, 9.0, 1.0),
             StepSchedule.polynomial(0.5, 0.0, 0.5), StepSchedule.constant(0.05), EXPLICIT]


def _index_arrays(schedule):
    full = np.arange(1, HORIZON + 1)
    anchors = build_partition(schedule, 0.02, HORIZON).gammas[:-1]
    return [anchors, full[::7], full[5:HORIZON:13][::-1], np.array([HORIZON, 1, 2, 1]),
            np.arange(1001, 3001), np.array([], dtype=np.int64)]


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.variant)
def test_at_equals_prefix_bitwise(schedule):
    pre = schedule.prefix(HORIZON)
    for ks in _index_arrays(schedule):
        assert schedule.at(ks).tobytes() == pre[ks - 1].tobytes()
    assert [schedule.step_size(k) for k in (1, 2, 17, HORIZON)] \
        == pre[[0, 1, 16, HORIZON - 1]].tolist()


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(1e-3, 10.0), beta=st.floats(0.0, 20.0), gamma=st.floats(0.01, 1.0),
       ks=st.lists(st.integers(1, 10**6), min_size=1, max_size=40))
def test_polynomial_at_equals_prefix_on_random_indices(alpha, beta, gamma, ks):
    schedule = StepSchedule.polynomial(alpha, beta, gamma)
    ks = np.array(ks)
    pre = schedule.prefix(int(ks.max()))
    assert schedule.at(ks).tobytes() == pre[ks - 1].tobytes()


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.variant)
def test_partial_sum_adds_in_order(schedule):
    for m, n in ((1, 2), (3, 400), (100, HORIZON)):
        total = 0.0
        for a in schedule.prefix(HORIZON)[m - 1:n - 1].tolist():
            total += a
        assert schedule.partial_sum(m, n) == total


def test_at_raises_past_the_end_of_an_explicit_list():
    schedule = StepSchedule.explicit([0.5, 0.25, 0.1])
    assert schedule.at(np.array([3, 1])).tolist() == [0.1, 0.5]
    with pytest.raises(ScheduleExhaustedError, match="step 4"):
        schedule.at(np.array([1, 4, 2]))
    with pytest.raises(ScheduleExhaustedError):
        schedule.at(np.arange(1, 5))
    with pytest.raises(ValueError, match="k must be >= 1"):
        schedule.at(np.array([0, 1]))
