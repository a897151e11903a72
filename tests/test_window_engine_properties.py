"""Property tests: the streaming window engine against the stored-history
oracles (aggregate_errors, iterate_spread, cauchy_profile and the anchor
quantities recomputed from the iterate history).

Random momentum weights, polynomial or cliff-shaped explicit schedules
and block sizes; some draws align a block edge with a window end, and
some use a schedule that makes every seed diverge a few steps in, so the
engine runs over frozen rows.  Every comparison is exact.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from sgdmlab import (MomentumParams, NoiseModel, RecordingPolicy, StepSchedule,
                     aggregate_errors, build_partition, cauchy_profile,
                     default_window, iterate_spread, make_problem, run_batch)
from sgdmlab.windows import _window_quantities

PROBLEM = make_problem("quadratic", 2, mu=0.5, l=2.0)
HORIZON = 400


@st.composite
def schedules(draw):
    if draw(st.booleans()):
        return StepSchedule.polynomial(draw(st.floats(0.01, 0.3)), draw(st.floats(0.0, 5.0)),
                                       draw(st.floats(0.5, 1.0)))
    # cliff: a run of large steps, then a long run of small ones
    head = draw(st.integers(1, 60))
    big = draw(st.floats(0.01, 0.3))
    small = big * draw(st.floats(0.001, 0.5))
    return StepSchedule.explicit([big] * head + [small] * (HORIZON - 1 - head))


DIVERGING = StepSchedule.explicit([3.0] * 20 + [1e-4] * (HORIZON - 21))


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.0, 0.95), nu=st.floats(0.0, 1.0), schedule=schedules(),
       diverge=st.booleans(), block=st.integers(2, 96), align=st.booleans(),
       edge=st.integers(0, 10**6))
def test_streaming_engine_matches_history_oracles(lam, nu, schedule, diverge, block,
                                                  align, edge):
    params = MomentumParams(lam, nu)
    if diverge:
        schedule = DIVERGING
    T = default_window(PROBLEM, params)
    part = build_partition(schedule, T, HORIZON)
    if align:
        # block edges fall on x^{1 + j * block}: end one block on a window end
        ends = part.gammas[1:-1] - 1
        ends = ends[ends >= 2]
        if len(ends):
            block = int(ends[edge % len(ends)])
    rp = RecordingPolicy(store_vectors=True, store_noise=True, window_detail="full",
                         window_profile=True, block_size=block, divergence_cap=1e3)
    batch = run_batch(PROBLEM, params, schedule, NoiseModel.gaussian(0.1), [5, 6],
                      HORIZON, recording=rp, partition=part)
    assert (batch.diverged_at > 0).all() == diverge
    for i in range(batch.n_seeds):
        traj = batch.trajectory(i)
        w = traj.window
        bare = dataclasses.replace(traj, window=None)
        assert np.array_equal(w.s, aggregate_errors(traj, part))
        assert np.array_equal(w.spread, iterate_spread(bare, part, lam))
        cp_stream = cauchy_profile(traj, part)
        cp_hist = cauchy_profile(bare, part)
        assert np.array_equal(cp_stream.boundary_steps, cp_hist.boundary_steps)
        assert np.array_equal(cp_stream.intra_max, cp_hist.intra_max)
        lo, s, spread, zx, gz, merit, gm2 = _window_quantities(bare, part, PROBLEM, params)
        assert lo == w.detail_lo == 1
        assert np.array_equal(w.zx, zx)
        assert np.array_equal(w.gz, gz)
        assert np.array_equal(w.merit, merit)
        assert np.array_equal(w.merit_grad_sq, gm2)
