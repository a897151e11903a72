import dataclasses
import math

import numpy as np
import pytest

from oracles import aggregate_errors, iterate_spread, window_quantities
from sgdmlab import (InsufficientRecordingError, MomentumParams, NoiseModel,
                     RecordingPolicy, StepSchedule, WindowCapError, applicability_index,
                     build_partition, cauchy_profile, check_windows,
                     default_window, judge_windows,
                     make_problem, run_batch, run_trajectory, summability_profile,
                     tail_error_sums, verify_window_lengths)


def brute_partition(schedule, T, horizon):
    """Reference construction straight from the window definition."""
    gammas = [1]
    g = 1
    while g < horizon:
        s = 0.0
        n = g
        while n < horizon and s + schedule.step_size(n) <= T:
            s += schedule.step_size(n)
            n += 1
        gammas.append(max(g + 1, n))
        g = gammas[-1]
    return gammas


def test_partition_inverse_steps_unit_window():
    part = build_partition(StepSchedule.polynomial(1.0, 0.0, 1.0), 1.0, 600)
    assert part.gammas[:4].tolist() == [1, 2, 4, 10]
    assert part.deltas[0] == 1.0
    assert part.deltas[1] == pytest.approx(5 / 6, rel=1e-15)


def test_partition_constant_steps_increment_by_one():
    part = build_partition(StepSchedule.constant(0.05), 0.05, 12)
    assert np.array_equal(part.gammas, np.arange(1, 13))
    assert np.allclose(part.deltas, 0.05)
    assert part.complete.all()


def test_partition_forced_single_step():
    # budget below the first step size: the next-index clause fires
    part = build_partition(StepSchedule.constant(0.05), 0.01, 6)
    assert np.array_equal(part.gammas, np.arange(1, 7))
    assert np.allclose(part.deltas, 0.05)   # each window overshoots the budget


@pytest.mark.parametrize("schedule,T", [
    (StepSchedule.polynomial(1.0, 0.0, 1.0), 1.0),
    (StepSchedule.polynomial(0.5, 3.0, 0.7), 0.35),
    (StepSchedule.polynomial(0.2, 0.0, 0.51), 1.7),
    (StepSchedule.constant(0.095), 0.3),
    (StepSchedule.explicit([0.5] * 10 + [0.25] * 40 + [0.1] * 150), 0.8),
])
def test_partition_matches_brute_force(schedule, T):
    part = build_partition(schedule, T, 200)
    assert part.gammas.tolist() == brute_partition(schedule, T, 200)


def test_default_window_values():
    quad = make_problem("quadratic", 1, mu=1.0)
    assert default_window(quad, MomentumParams.sgd()) == pytest.approx(0.02)
    assert default_window(quad, MomentumParams.heavy_ball(0.5)) == pytest.approx(0.0025)
    assert default_window(quad, MomentumParams(0.0, 1.0)) == pytest.approx(1 / 450)


def test_window_length_report_inverse_steps():
    sched = StepSchedule.polynomial(1.0, 0.0, 1.0)
    part = build_partition(sched, 1.0, 3000)
    K, rep = verify_window_lengths(part, sched, 0.5)
    assert K == 1
    assert rep.violations == []
    K99, rep99 = verify_window_lengths(part, sched, 0.99)
    assert K99 > 2            # window 2 has length 5/6 < 0.99
    assert rep99.ok


def test_window_length_report_constant_at_budget():
    sched = StepSchedule.constant(0.05)
    part = build_partition(sched, 0.05, 40)
    for delta in (0.0, 0.5, 0.9):
        K, rep = verify_window_lengths(part, sched, delta)
        assert K == 1
        assert rep.violations == []


def test_window_length_guarantee_index():
    sched = StepSchedule.polynomial(1.0, 0.0, 1.0)
    part = build_partition(sched, 1.0, 3000)
    _, rep = verify_window_lengths(part, sched, 0.875)
    # alpha_k <= 1/8 from k = 8; the first anchor at or past that is gamma_4 = 10
    assert rep.K_guarantee == 4
    assert rep.violations == [(2, pytest.approx(5 / 6))]
    assert rep.violations_after_guarantee == []


def _short_run(lam=0.6, nu=0.2, seed=3, horizon=2001, sigma_c=0.08):
    prob = make_problem("quadratic", 2, mu=0.5, l=2.0)
    params = MomentumParams(lam, nu)
    sched = StepSchedule.polynomial(0.25, 0.0, 0.8)
    noise = NoiseModel.gaussian(sigma_c)
    T = default_window(prob, params)
    part = build_partition(sched, T, horizon)
    rp = RecordingPolicy(store_vectors=True, store_noise=True, window_profile=True)
    traj = run_trajectory(prob, params, sched, noise, seed, horizon,
                          recording=rp, partition=part)
    return prob, params, sched, part, traj


def test_aggregate_errors_zero_noise():
    prob = make_problem("quadratic", 2, mu=1.0, l=1.0)
    sched = StepSchedule.polynomial(0.25, 0.0, 0.8)
    part = build_partition(sched, 0.02, 500)
    t = run_trajectory(prob, MomentumParams.sgd(), sched, NoiseModel.none(), 0, 500,
                       recording=RecordingPolicy(store_noise=True), partition=part)
    assert np.array_equal(aggregate_errors(t, part), np.zeros(part.n_windows))


def test_aggregate_errors_single_impulse():
    prob, params, sched, part, traj = _short_run()
    k = 5   # tamper with the noise log: one unit impulse at gamma_5
    g5 = int(part.gammas[k - 1])
    E = np.zeros_like(traj.E_hist)
    E[g5 - 1, 0] = 1.0
    traj.E_hist = E
    s = aggregate_errors(traj, part)
    expect = np.zeros(part.n_windows)
    expect[k - 1] = sched.step_size(g5)
    assert np.allclose(s, expect, atol=0)


def test_aggregate_errors_matches_double_loop():
    prob, params, sched, part, traj = _short_run()
    s = aggregate_errors(traj, part)
    alphas = sched.prefix(traj.horizon - 1)
    # direct double-loop oracle
    for k in (0, 1, 2, len(s) // 2, len(s) - 1):
        lo, hi = int(part.gammas[k]), int(part.gammas[k + 1])
        best = 0.0
        for t in range(lo + 1, hi + 1):
            acc = np.zeros(2)
            for i in range(lo, t):
                acc = acc + alphas[i - 1] * traj.E_hist[i - 1]
            best = max(best, float(np.linalg.norm(acc)))
        assert s[k] == pytest.approx(best, rel=1e-12, abs=1e-15)


def test_aggregate_errors_sign_noise_window_three():
    # inverse steps with unit window: window 3 is (4, 10]; its aggregated
    # error is the largest partial sum max_{t in (4,10]} |sum_{i=4}^{t-1} s_i/i|
    # over the realized signs
    prob = make_problem("sin_toy")
    sched = StepSchedule.polynomial(1.0, 0.0, 1.0)
    part = build_partition(sched, 1.0, 200)
    assert part.gammas[:4].tolist() == [1, 2, 4, 10]
    rp = RecordingPolicy(store_noise=True)
    traj = run_trajectory(prob, MomentumParams.sgd(), sched,
                          NoiseModel.axis_rademacher(1), 5, 200, recording=rp)
    s = aggregate_errors(traj, part)
    signs = traj.E_hist[:, 1]
    best = 0.0
    for t in range(5, 11):
        acc = sum(signs[i - 1] / i for i in range(4, t))
        best = max(best, abs(acc))
    assert s[2] == pytest.approx(best, rel=1e-14)
    assert best > 0


def test_aggregate_errors_replays_stream_without_log():
    # without a stored noise log the op replays the per-seed stream and
    # must reproduce the streaming accumulator bitwise
    prob = make_problem("quadratic", 3, mu=0.5, l=2.0)
    params = MomentumParams(0.4, 0.1)
    sched = StepSchedule.polynomial(0.2, 0.0, 0.8)
    noise = NoiseModel.sphere(0.15)
    part = build_partition(sched, default_window(prob, params), 2001)
    rp = RecordingPolicy(window_profile=True)   # no store_noise
    traj = run_trajectory(prob, params, sched, noise, 21, 2001,
                          recording=rp, partition=part)
    assert traj.E_hist is None
    s = aggregate_errors(traj, part)
    assert np.array_equal(s, traj.window.s)


def test_pinned_trajectory_residuals_exactly_zero():
    # started at the minimizer with no noise nothing moves: both sides of
    # every window inequality are zero
    prob = make_problem("quadratic", 2, mu=1.0, l=1.0)
    params = MomentumParams.heavy_ball(0.5)
    sched = StepSchedule.polynomial(0.001, 0.0, 0.75)
    part = build_partition(sched, default_window(prob, params), 60001)
    rp = RecordingPolicy(window_profile=True)
    traj = run_trajectory(prob, params, sched, NoiseModel.none(), 0, 60001,
                          x0=np.zeros(2), recording=rp, partition=part)
    rep = check_windows(traj)
    assert rep.K_T is not None and rep.n_applicable > 0
    assert np.array_equal(rep.res_spread, np.zeros_like(rep.res_spread))
    assert np.array_equal(rep.res_gap, np.zeros_like(rep.res_gap))
    assert np.array_equal(rep.res_descent, np.zeros_like(rep.res_descent))
    assert np.array_equal(rep.ledger, np.zeros_like(rep.ledger))


def test_check_windows_vacuous_when_K_T_out_of_reach():
    # K_T lies far past the horizon: the trace stores no window detail and
    # the verdict asserts nothing
    prob = make_problem("quadratic", 2)
    params = MomentumParams.heavy_ball(0.9)
    sched = StepSchedule.polynomial(0.5, 0.0, 0.9)
    part = build_partition(sched, default_window(prob, params), 2001)
    traj = run_trajectory(prob, params, sched, NoiseModel.gaussian(0.05), 0, 2001,
                          partition=part)
    assert traj.window.s.shape[0] == 0
    rep = check_windows(traj)
    assert rep.K_T is None
    assert rep.n_applicable == 0
    assert rep.violations == [] and rep.ledger_violations == []


def test_diagnostics_need_the_streaming_trace():
    prob = make_problem("quadratic", 2)
    params = MomentumParams.sgd()
    sched = StepSchedule.polynomial(0.05, 0.0, 0.9)
    part = build_partition(sched, default_window(prob, params), 501)
    rp = RecordingPolicy(store_vectors=True, store_noise=True)
    bare = run_trajectory(prob, params, sched, NoiseModel.none(), 0, 501, recording=rp)
    with pytest.raises(InsufficientRecordingError):
        check_windows(bare)
    traj = run_trajectory(prob, params, sched, NoiseModel.none(), 0, 501, recording=rp,
                          partition=part)
    check_windows(traj)
    with pytest.raises(InsufficientRecordingError):   # no window profile
        cauchy_profile(traj)


def test_batch_verdict_columns_equal_seed_verdicts():
    # one check_windows over a seed batch against one per seed, bitwise; the
    # negative tolerance also flags tight windows, so the masks are not empty
    prob = make_problem("quadratic", 2, mu=1.0, l=1.0)
    params = MomentumParams.heavy_ball(0.5)
    sched = StepSchedule.polynomial(0.001, 0.0, 0.75)
    part = build_partition(sched, default_window(prob, params), 60001)
    batch = run_batch(prob, params, sched, NoiseModel.gaussian(0.05), [3, 4, 5], 60001,
                      recording=RecordingPolicy(window_profile=True), partition=part)
    for tol in (1e-8, -0.5):
        rep = check_windows(batch, tol)
        assert rep.K_T is not None and rep.n_applicable > 0
        if tol < 0:
            assert rep.bad_spread.any() and rep.bad_gap.any() and rep.bad_descent.any()
        for i in range(batch.n_seeds):
            one = check_windows(batch.trajectory(i), tol)
            assert one.K_T == rep.K_T
            assert np.array_equal(one.windows, rep.windows)
            assert np.array_equal(one.applicable, rep.applicable)
            for name in ("res_spread", "res_gap", "res_descent", "bad_spread", "bad_gap",
                         "bad_descent", "u", "ledger", "ledger_rise"):
                assert getattr(one, name).tobytes() == getattr(rep, name)[:, i].tobytes(), name
    cp = cauchy_profile(batch)
    for i in range(batch.n_seeds):
        one = cauchy_profile(batch.trajectory(i))
        assert one.boundary_cumsum.tobytes() == cp.boundary_cumsum[:, i].tobytes()
        assert one.intra_max.tobytes() == cp.intra_max[:, i].tobytes()


def _oracle_report(traj, part, prob, params):
    """judge_windows on the quantities recomputed from the stored history."""
    K_T = applicability_index(part, traj.config["schedule"], prob, params)
    lo, s, spread, zx, gz, merit, gm2 = window_quantities(traj, part, prob, params)
    return judge_windows(part, K_T, lo, params.lam, prob.L, s, spread, zx, gz, merit,
                         gm2, 1e-8)


def test_streaming_windows_match_vector_oracles():
    prob, params, sched, part, traj = _short_run()
    assert np.array_equal(traj.window.s, aggregate_errors(traj, part))
    # strip the trace: the oracles read the stored history only
    bare = dataclasses.replace(traj, window=None)
    assert np.array_equal(traj.window.spread, iterate_spread(bare, part, params.lam))
    # residual reports agree between the streaming trace and stored vectors
    rep1 = check_windows(traj)
    rep2 = _oracle_report(bare, part, prob, params)
    assert np.allclose(rep1.res_spread, rep2.res_spread, rtol=1e-12, atol=1e-15)
    assert np.allclose(rep1.res_gap, rep2.res_gap, rtol=1e-12, atol=1e-15)
    assert np.allclose(rep1.res_descent, rep2.res_descent, rtol=1e-12, atol=1e-15)
    assert np.allclose(rep1.ledger, rep2.ledger, rtol=1e-12, atol=1e-15)


def test_detail_boundary_at_single_step_block_edge():
    # cliff-shaped explicit schedule: the window right before the detail
    # range is still single-step, so the first stored anchor is created by
    # a block that contains only single-step windows
    prob = make_problem("quadratic", 2, mu=1.0, l=1.0)
    params = MomentumParams.sgd()
    T = default_window(prob, params)           # 0.02
    steps = [0.05] * 64 + [0.00015] * 2000     # alpha drops through 0.01*T at k=65
    sched = StepSchedule.explicit(steps)
    horizon = len(steps) + 1
    part = build_partition(sched, T, horizon)
    K_T = applicability_index(part, sched, prob, params)
    assert K_T is not None
    assert part.gammas[K_T - 1] == 65          # first anchor past the cliff
    assert (np.diff(part.gammas[:K_T]) == 1).all()   # all earlier windows single
    rp = RecordingPolicy(store_vectors=True, store_noise=True, block_size=64)
    traj = run_trajectory(prob, params, sched, NoiseModel.gaussian(0.05), 9,
                          horizon, recording=rp, partition=part)
    rb_stream = check_windows(traj)
    bare = dataclasses.replace(traj, window=None)
    rb_vec = _oracle_report(bare, part, prob, params)
    i0 = K_T - traj.window.detail_lo
    assert np.allclose(rb_stream.res_spread[i0:], rb_vec.res_spread[K_T - 1:],
                       rtol=1e-12, atol=1e-15)
    assert np.allclose(rb_stream.res_gap[i0:], rb_vec.res_gap[K_T - 1:],
                       rtol=1e-12, atol=1e-15)


def test_iterate_spread_zero_at_pinned_start():
    # starting at the minimizer with no noise: nothing ever moves
    prob = make_problem("quadratic", 2, mu=1.0, l=1.0)
    sched = StepSchedule.polynomial(0.25, 0.0, 0.8)
    part = build_partition(sched, 0.02, 300)
    t = run_trajectory(prob, MomentumParams.heavy_ball(0.5), sched, NoiseModel.none(),
                       0, 300, x0=np.zeros(2),
                       recording=RecordingPolicy(store_vectors=True, store_noise=True),
                       partition=part)
    assert np.array_equal(iterate_spread(t, part, 0.5), np.zeros(part.n_windows))


def test_spread_with_lam_zero_uses_iterates_only():
    prob, params, sched, part, traj = _short_run(lam=0.0, nu=0.0)
    d = iterate_spread(traj, part, 0.0)
    X = traj.X_hist
    for k in (0, len(d) // 2, len(d) - 1):
        lo, hi = int(part.gammas[k]), int(part.gammas[k + 1])
        dev = np.linalg.norm(X[lo:hi] - X[lo - 1], axis=1).max()
        assert d[k] == pytest.approx(dev, rel=0, abs=0)


def test_bounds_and_descent_reports_on_clean_run():
    prob, params, sched, part, traj = _short_run(lam=0.0, nu=0.0, horizon=40001)
    rep = check_windows(traj)
    assert rep.K_T is not None
    assert rep.n_applicable > 10
    assert rep.violations == []
    assert rep.ledger_violations == []
    # ledger tail decreases toward the optimum
    assert rep.ledger[-1] <= rep.ledger[max(rep.K_T - rep.windows[0], 0)]


def test_descent_monotone_for_deterministic_heavy_ball():
    prob = make_problem("quadratic", 1, mu=1.0)
    params = MomentumParams.heavy_ball(0.5)
    sched = StepSchedule.polynomial(0.02, 0.0, 0.75)
    T = default_window(prob, params)
    part = build_partition(sched, T, 20001)
    rp = RecordingPolicy(window_profile=True)
    traj = run_trajectory(prob, params, sched, NoiseModel.none(), 0, 20001,
                          recording=rp, partition=part)
    rep = check_windows(traj)
    assert rep.violations == []
    assert np.all(rep.res_spread[rep.applicable] >= 0)
    assert np.all(rep.res_gap[rep.applicable] >= 0)
    assert rep.K_T is not None
    led = rep.ledger[rep.K_T - 1:]
    drops = np.diff(led)
    assert np.all(drops <= 1e-12 * (1 + np.abs(led[:-1])))
    # strict decrease until the numerical floor
    early = led[:min(20, len(led) - 1)]
    assert np.all(np.diff(early) < 0)


def test_window_cap_enforced():
    prob = make_problem("quadratic", 1, mu=1.0)
    params = MomentumParams.heavy_ball(0.9)
    sched = StepSchedule.polynomial(0.05, 0.0, 0.9)
    part = build_partition(sched, 1.0, 500)   # far above the cap
    rp = RecordingPolicy(window_profile=True, store_noise=True, store_vectors=True)
    traj = run_trajectory(prob, params, sched, NoiseModel.none(), 0, 500,
                          recording=rp, partition=part)
    with pytest.raises(WindowCapError):
        check_windows(traj)


def test_applicability_index_rules():
    prob = make_problem("quadratic", 1, mu=1.0)
    sched = StepSchedule.polynomial(0.05, 0.0, 0.9)
    params = MomentumParams.sgd()
    T = default_window(prob, params)
    part = build_partition(sched, T, 200001)
    K = applicability_index(part, sched, prob, params)
    assert K is not None
    thr = 0.01 * T
    anchor = int(part.gammas[K - 1])
    assert sched.step_size(anchor) <= thr
    if K > 1:
        assert sched.step_size(int(part.gammas[K - 2])) > thr
    # extrapolation without inertia never satisfies the coupling condition
    params2 = MomentumParams(0.0, 0.5)
    part2 = build_partition(sched, default_window(prob, params2), 1000)
    assert applicability_index(part2, sched, prob, params2) is None


def test_cauchy_profile_pinned_and_noisy():
    prob = make_problem("quadratic", 2, mu=1.0, l=1.0)
    sched = StepSchedule.polynomial(0.25, 0.0, 0.8)
    part = build_partition(sched, 0.02, 300)
    rp = RecordingPolicy(store_vectors=True, store_noise=True, window_profile=True)
    pinned = run_trajectory(prob, MomentumParams.sgd(), sched, NoiseModel.none(),
                            0, 300, x0=np.zeros(2), recording=rp, partition=part)
    cp = cauchy_profile(pinned)
    assert np.array_equal(cp.boundary_cumsum, np.zeros(part.n_windows))
    assert np.array_equal(cp.intra_max, np.zeros(part.n_windows))

    prob2, params2, sched2, part2, noisy = _short_run(lam=0.0, nu=0.0, horizon=30001)
    cp = cauchy_profile(noisy)
    n = len(cp.intra_max)
    # convergent run: intra-window deviations decay, boundary sums flatten
    assert np.median(cp.intra_max[-n // 4:]) < 0.05 * np.max(cp.intra_max[:n // 4])
    inc_first = cp.boundary_cumsum[n // 2] - cp.boundary_cumsum[0]
    inc_last = cp.boundary_cumsum[-1] - cp.boundary_cumsum[n // 2]
    assert inc_last < inc_first


def test_boundary_vectors_stored_exactly_at_partition_indices():
    prob = make_problem("quadratic", 2, mu=0.5, l=2.0)
    params = MomentumParams(0.6, 0.2)
    sched = StepSchedule.polynomial(0.25, 0.0, 0.8)
    part = build_partition(sched, default_window(prob, params), 1501)
    rp = RecordingPolicy(store_vectors=True, store_noise=True,
                         store_boundary_vectors=True, window_profile=True)
    traj = run_trajectory(prob, params, sched, NoiseModel.gaussian(0.08), 3, 1501,
                          recording=rp, partition=part)
    bx, bxp = traj.window.boundary_x, traj.window.boundary_x_prev
    assert bx.shape == (part.n_windows + 1, 2)
    assert np.array_equal(bx, traj.X_hist[part.gammas - 1])
    prev_idx = np.maximum(part.gammas - 2, 0)
    assert np.array_equal(bxp, traj.X_hist[prev_idx])


def test_tail_error_sums_monotone_with_trailing_zero():
    u = tail_error_sums(np.array([0.1, 0.2, 0.05]), T=0.02, lam=0.5)
    assert len(u) == 4
    assert u[-1] == 0.0
    assert np.all(np.diff(u) <= 0)
    assert u[0] == pytest.approx(8 / (0.5 * 0.02) * (0.1**2 + 0.2**2 + 0.05**2))


def test_summability_plateau_and_negative_control():
    # summable weighting plateaus; a weighting past the admissible power
    # keeps growing through the last decade
    import sgdmlab as sl
    prob = make_problem("quadratic", 10, mu=1.0, l=1.0)
    params = MomentumParams.sgd()
    sched = StepSchedule.polynomial(0.5, 0.0, 0.9)
    noise = NoiseModel.gaussian(0.1 / math.sqrt(10))
    part = build_partition(sched, default_window(prob, params), 100_001)
    rp = RecordingPolicy(window_profile=True)
    batch = sl.run_batch(prob, params, sched, noise, range(100, 108), 100_001,
                         recording=rp, partition=part)
    unit, beyond = [], []
    for i in range(8):
        s = batch.trajectory(i).window.s
        unit.append(summability_profile(s, part, sched, beta="unit").last_decade_ratio)
        # gamma=0.9 admits powers below (2g-1)/(2(1-g)) = 4; use r = 6
        beyond.append(summability_profile(s, part, sched,
                                          beta=("power", 6.0)).last_decade_ratio)
    assert np.median(unit) < 0.1
    assert np.median(beyond) > 0.5
    assert np.median(beyond) > 5 * np.median(unit)


def test_tail_sums_vanish_on_converging_run():
    prob, params, sched, part, traj = _short_run(lam=0.0, nu=0.0, horizon=30001)
    rep = check_windows(traj)
    u = rep.u[:-1]
    assert np.all(np.diff(u) <= 0)
    assert u[-1] < 0.01 * u.max()


def test_summability_profile_zero_noise_and_specs():
    prob = make_problem("quadratic", 2, mu=1.0, l=1.0)
    sched = StepSchedule.polynomial(0.25, 0.0, 0.8)
    part = build_partition(sched, 0.02, 500)
    s = np.zeros(part.n_windows)
    prof = summability_profile(s, part, sched, beta="unit")
    assert np.array_equal(prof.partial_sums, np.zeros(part.n_windows))
    assert prof.last_decade_ratio == 0.0
    s = np.full(part.n_windows, 0.1)
    p_unit = summability_profile(s, part, sched, beta="unit")
    p_pow = summability_profile(s, part, sched, beta=("power", 1.0))
    assert p_pow.partial_sums[-1] > p_unit.partial_sums[-1]
    p_custom = summability_profile(s, part, sched, beta=lambda g: np.ones(len(g)))
    assert np.allclose(p_custom.partial_sums, p_unit.partial_sums)
    with pytest.raises(ValueError):
        summability_profile(s[:-1], part, sched)
