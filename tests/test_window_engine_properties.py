"""Property tests: the streaming window engine against the stored-history
oracles in ``oracles.py`` (aggregate_errors, iterate_spread, cauchy_profile
and the anchor quantities recomputed from the iterate history).

Random momentum weights, polynomial or cliff-shaped explicit schedules
and block sizes; some draws align a block edge with a window end, and
some use a schedule that makes every seed diverge a few steps in, so the
engine runs over frozen rows.  Half the draws keep the per-window detail
from window 1 on (window_profile), the others only the default detail
range from K_T on, where the blocks before K_T skip the error sums; an
aligned draw of those puts a block edge at the first detail anchor.
Every comparison is exact.

The numpy twin of the window error sums, _cnoise.sums_numpy, has an
oracle of its own: per segment of a random segmentation, a from-scratch
np.cumsum of its weighted errors after the carried sum, as
oracles.aggregate_errors sums a window.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from sgdmlab import (MomentumParams, NoiseModel, RecordingPolicy, StepSchedule,
                     applicability_index, build_partition, cauchy_profile,
                     default_window, make_problem, run_batch, _cnoise)
from sgdmlab.runner import _WindowAccumulator
from sgdmlab.windows import DELTA_APPLICABILITY

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


@st.composite
def applicable_cliffs(draw, T):
    """Steps above T (single-step windows), then multi-step windows that
    are not applicable yet, then a tail with alpha <= (1 - delta) T: a
    heavy-ball or SGD run with budget T reaches K_T inside the horizon."""
    head = draw(st.integers(0, 60))
    mid = draw(st.integers(0, 150))
    big = T * draw(st.floats(1.5, 30.0))
    medium = T * draw(st.floats(0.05, 0.9))
    tail = (1.0 - DELTA_APPLICABILITY) * T * draw(st.floats(0.5, 0.99))
    return StepSchedule.explicit([big] * head + [medium] * mid
                                 + [tail] * (HORIZON - 1 - head - mid))


DIVERGING = StepSchedule.explicit([3.0] * 20 + [1e-4] * (HORIZON - 21))


@settings(max_examples=100, deadline=None)
@given(lam=st.floats(0.0, 0.95), nu=st.floats(0.0, 1.0), schedule=schedules(),
       diverge=st.booleans(), block=st.integers(2, 96), align=st.booleans(),
       edge=st.integers(0, 10**6), profile=st.booleans(), data=st.data())
def test_streaming_engine_matches_history_oracles(lam, nu, schedule, diverge, block,
                                                  align, edge, profile, data):
    params = MomentumParams(lam, nu)
    if diverge:
        schedule = DIVERGING
    elif not profile:
        # the drawn schedules seldom reach K_T, which leaves the default
        # detail range empty (the diverging one covers that case)
        params = MomentumParams(lam)
        schedule = data.draw(applicable_cliffs(default_window(PROBLEM, params)))
    T = default_window(PROBLEM, params)
    part = build_partition(schedule, T, HORIZON)
    K_T = applicability_index(part, schedule, PROBLEM, params)
    W = part.n_windows
    lo = 1 if profile else (W + 1 if K_T is None else K_T)
    if align:
        # block edges fall on x^{1 + j * block}: end one block on a window
        # end, or the first block on the first detail anchor
        ends = part.gammas[1:-1] - 1 if profile else part.gammas[lo - 1:lo] - 1
        ends = ends[ends >= 2]
        if len(ends):
            block = int(ends[edge % len(ends)])
    rp = RecordingPolicy(store_vectors=True, store_noise=True, window_profile=profile,
                         block_size=block, divergence_cap=1e3)
    batch = run_batch(PROBLEM, params, schedule, NoiseModel.gaussian(0.1), [5, 6],
                      HORIZON, recording=rp, partition=part)
    assert (batch.diverged_at > 0).all() == diverge
    nd = W - lo + 1                         # stored windows, and one anchor more
    anchors = slice(lo - 1, lo + nd if nd else lo - 1)
    w = batch.window
    bare = dataclasses.replace(batch, window=None)
    assert w.detail_lo == lo and w.K_T == K_T
    cp_stream = cauchy_profile(batch) if profile else None
    for i in range(batch.n_seeds):
        assert np.array_equal(w.s[:, i], oracles.aggregate_errors(batch, i, part)[lo - 1:])
        assert np.array_equal(w.spread[:, i],
                              oracles.iterate_spread(bare, i, part, params.lam)[lo - 1:])
        if profile:
            cp_hist = oracles.cauchy_profile(bare, i, part)
            assert np.array_equal(cp_stream.boundary_steps[:, i], cp_hist.boundary_steps)
            assert np.array_equal(cp_stream.intra_max[:, i], cp_hist.intra_max)
        _, s, spread, zx, gz, merit, gm2 = oracles.window_quantities(bare, i, part, PROBLEM,
                                                                     params)
        assert np.array_equal(w.zx[:, i], zx[anchors])
        assert np.array_equal(w.gz[:, i], gz[anchors])
        assert np.array_equal(w.merit[:, i], merit[anchors])
        assert np.array_equal(w.merit_grad_sq[:, i], gm2[anchors])


def test_error_scan_skips_blocks_before_the_detail_range():
    # SGD on a cliff schedule: K_T lies a few blocks in, so the first
    # blocks hold only windows whose s is never stored
    params = MomentumParams(0.0)
    T = default_window(PROBLEM, params)
    tail = (1.0 - DELTA_APPLICABILITY) * T / 4
    schedule = StepSchedule.explicit([2 * T] * 40 + [T / 3] * 30 + [tail] * (HORIZON - 71))
    part = build_partition(schedule, T, HORIZON)
    K_T = applicability_index(part, schedule, PROBLEM, params)
    rp = RecordingPolicy(store_vectors=True, store_noise=True)
    batch = run_batch(PROBLEM, params, schedule, NoiseModel.gaussian(0.1), [5], HORIZON,
                      recording=rp, partition=part)
    X, E = batch.X_hist, batch.E_hist
    a = schedule.prefix(HORIZON - 1)

    acc = _WindowAccumulator(part, K_T, PROBLEM, params, 1, K_T, False, HORIZON)
    acc.start(X[0])
    B, skipped = 16, 0
    for b0 in range(1, HORIZON, B):
        n = min(B, HORIZON - b0)
        plan = acc.error_plan(b0, n)
        if plan is not None:
            acc.process_noise(plan, _cnoise.sums_numpy(E[b0 - 1:b0 - 1 + n], a[b0 - 1:b0 - 1 + n],
                                                       plan[1], acc.psum, acc.smax))
        acc.process_block(b0, X[b0 - 1:b0 + n], n)
        # the window holding the block's last step, and whether it formed sums
        last = int(np.searchsorted(part.gammas, b0 + n - 1, side="right"))
        assert (plan is not None) == (last >= K_T)
        skipped += last < K_T
    assert K_T > 1 and skipped >= 2
    trace = acc.finish()
    assert np.array_equal(trace.s[:, 0], oracles.aggregate_errors(batch, 0, part)[K_T - 1:])


VALUES = [0.0, -0.0, 5e-324, 1e-160, 1e154, 1.7e308, -1e300, np.inf, -np.inf, np.nan]


def _same_bits(a, b) -> bool:
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all()
                and (a[~nan].view(np.int64) == b[~nan].view(np.int64)).all())


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), S=st.integers(1, 4), d=st.integers(1, 12), data=st.data())
def test_sums_numpy_matches_per_window_cumsums(n, S, d, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    share = data.draw(st.sampled_from([0.0, 0.05, 0.5]))

    def values(shape):
        v = rng.standard_normal(shape)
        special = rng.random(shape) < share
        v[special] = rng.choice(VALUES, int(special.sum()))
        return v

    cuts = data.draw(st.lists(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else []
    lo = np.array(sorted({0, *cuts}))
    E, a, psum, smax = values((n, S, d)), np.abs(values(n)), values((S, d)), np.abs(values(S))
    smax[rng.random(S) < 0.3] = np.nan          # a carried maximum may be NaN
    carry = psum.copy()
    with np.errstate(all="ignore"):
        got = _cnoise.sums_numpy(E, a, lo, carry, smax)
        for k, (l, h) in enumerate(zip(lo, np.append(lo[1:], n))):
            # the window's sums from scratch; the first one's after the carried sum
            W = E[l:h] * a[l:h, None, None]
            if k == 0:
                W = np.concatenate([psum[None], W])
            P = np.cumsum(W, axis=0)[1 if k == 0 else 0:]
            want = np.sqrt(np.einsum("...d,...d->...", P, P)).max(axis=0)
            assert _same_bits(got[k], np.maximum(want, smax) if k == 0 else want)
    assert _same_bits(carry, P[-1])             # the last window's sum, left in psum


@pytest.mark.parametrize("block", [4, 7, 2048])
@pytest.mark.parametrize("seeds", [[5], [5, 6, 7]])
def test_decade_sums_match_sequential_window_sums(block, seeds):
    # hundreds of short windows per decade, most of them in one block of
    # 2,048: a pairwise sum of a decade's run would differ from the
    # sequential one, also at a single seed
    params = MomentumParams(0.5)
    schedule = StepSchedule.polynomial(0.2, 1.0, 0.75)
    horizon = 3001
    part = build_partition(schedule, default_window(PROBLEM, params), horizon)
    rp = RecordingPolicy(store_vectors=True, block_size=block)
    batch = run_batch(PROBLEM, params, schedule, NoiseModel.gaussian(0.1), seeds, horizon,
                      recording=rp, partition=part)
    bare = dataclasses.replace(batch, window=None)
    for i in range(batch.n_seeds):
        sums, counts = oracles.decade_spread_sums(bare, i, part, params.lam)
        assert np.array_equal(batch.window.decade_d_sum[:, i], sums)
        assert np.array_equal(batch.window.decade_d_cnt, counts)
    assert counts.tolist() == [10, 90, 900, 1594]
