"""Property test: build_partition against a brute-force per-window scan.

The oracle applies the definition directly: from each anchor gamma_k it
scans every candidate right edge n, keeps the furthest one whose
accumulated step size delta(gamma_k, n) is at most T (at least
gamma_k + 1), and calls the window complete when one more step would have
crossed the budget.  Gammas, deltas and complete flags must match exactly
over polynomial, constant and explicit (cliff-shaped) schedules,
including explicit schedules of exactly horizon - 1 values.
"""

from itertools import accumulate

from hypothesis import given, settings, strategies as st

from sgdmlab import StepSchedule, build_partition
from sgdmlab.schedules import ScheduleExhaustedError


def brute_partition(schedule, T, horizon):
    """(gammas, deltas, complete) by scanning every window's candidate edges."""
    try:
        alphas = schedule.prefix(horizon).tolist()
    except ScheduleExhaustedError:
        alphas = schedule.prefix(horizon - 1).tolist()
    gammas, deltas, complete = [1], [], []
    g = 1
    while g < horizon:
        sums = list(accumulate(alphas[g - 1:horizon - 1]))     # delta(g, g+1..horizon)
        fits = [i for i, s in enumerate(sums) if s <= T]
        n = g + 1 + (max(fits) if fits else 0)
        delta = sums[n - g - 1]
        if n < horizon or not fits:
            closed = True               # the next step (or the first) crosses T
        else:
            closed = len(alphas) >= horizon and delta + alphas[horizon - 1] > T
        gammas.append(n)
        deltas.append(delta)
        complete.append(closed)
        g = n
    return gammas, deltas, complete


@st.composite
def cases(draw):
    horizon = draw(st.integers(2, 300))
    kind = draw(st.sampled_from(["polynomial", "constant", "explicit", "exact"]))
    if kind == "polynomial":
        schedule = StepSchedule.polynomial(draw(st.floats(0.01, 2.0)),
                                           draw(st.floats(0.0, 10.0)),
                                           draw(st.floats(0.3, 1.0)))
    elif kind == "constant":
        schedule = StepSchedule.constant(draw(st.floats(0.001, 1.0)))
    else:
        # cliff: a run of large steps, then small ones; "exact" holds
        # exactly horizon - 1 values, "explicit" a few more
        extra = 0 if kind == "exact" else draw(st.integers(1, 5))
        n = horizon - 1 + extra
        head = draw(st.integers(0, n))
        big = draw(st.floats(0.01, 1.0))
        small = big * draw(st.floats(0.001, 1.0))
        schedule = StepSchedule.explicit([big] * head + [small] * (n - head))
    a1 = schedule.prefix(1)[0]
    # budgets from below the first step (forced single-step windows) up to
    # several steps' worth
    T = a1 * draw(st.floats(0.05, 40.0))
    return schedule, T, horizon


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_partition_matches_brute_force_scan(case):
    schedule, T, horizon = case
    part = build_partition(schedule, T, horizon)
    gammas, deltas, complete = brute_partition(schedule, T, horizon)
    assert part.gammas.tolist() == gammas
    assert part.deltas.tolist() == deltas
    assert part.complete.tolist() == complete
    assert part.gammas[-1] == horizon


def test_exact_length_explicit_schedule_leaves_last_window_open():
    schedule = StepSchedule.explicit([0.1] * 9)         # horizon - 1 values
    part = build_partition(schedule, 1.0, 10)
    assert part.gammas.tolist() == [1, 10]
    assert part.complete.tolist() == [False]
    assert brute_partition(schedule, 1.0, 10) == ([1, 10], [part.deltas[0]], [False])
