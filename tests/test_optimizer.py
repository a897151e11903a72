import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgdmlab import (MomentumParams, NoiseModel, NoiseStream, RecordingPolicy,
                     StepSchedule, auxiliary_z, make_problem, merit_gradient,
                     merit_value, merit_zeta, run_batch, run_trajectory)

QUAD1 = make_problem("quadratic", 1, mu=1.0)


@pytest.mark.parametrize("params,x3", [
    (MomentumParams.sgd(), 0.81),               # 0.9 - 0.09
    (MomentumParams.heavy_ball(0.5), 0.76),     # 0.9 - 0.09 + 0.5*(-0.1)
    (MomentumParams(0.5, 0.5), 0.765),         # lookahead 0.85: 0.9 - 0.085 - 0.05
], ids=["sgd", "heavy_ball", "extrapolation"])
def test_step_hand_values(params, x3):
    # f = x^2/2 from x^1 = 1 at alpha = 0.1: the first step is plain
    # gradient descent to x^2 = 0.9, the second one carries the momentum
    t = run_trajectory(QUAD1, params, StepSchedule.constant(0.1), NoiseModel.none(), 0, 3,
                       x0=np.ones(1), recording=RecordingPolicy(store_vectors=True))
    assert t.X_hist[1, 0] == pytest.approx(0.9, abs=1e-15)
    assert t.X_hist[2, 0] == pytest.approx(x3, abs=1e-15)


def test_momentum_params_domain():
    with pytest.raises(ValueError):
        MomentumParams(1.0)
    with pytest.raises(ValueError):
        MomentumParams(-0.1)
    with pytest.raises(ValueError):
        MomentumParams(0.5, -1.0)
    assert MomentumParams.sgd() == MomentumParams(0.0, 0.0)
    assert MomentumParams.heavy_ball(0.9).nu == 0.0
    assert MomentumParams.nesterov(0.5) == MomentumParams(0.5, 0.5)


def test_auxiliary_z_values():
    assert auxiliary_z(np.array([0.9]), 0.0, np.array([1.0]))[0] == 0.9
    z = auxiliary_z(np.array([0.9]), 0.5, np.array([1.0]))
    assert z[0] == pytest.approx(0.8, abs=1e-15)


def test_auxiliary_z_recursion_both_forms():
    # continuing the heavy-ball example: g = 0.9, alpha = 0.1, lam = 0.5
    z = 0.8
    z_next_recursion = z - 0.1 * 0.9 / 0.5
    x_next = 0.76
    z_next_direct = auxiliary_z(np.array([x_next]), 0.5, np.array([0.9]))[0]
    assert z_next_recursion == pytest.approx(0.62, abs=1e-15)
    assert z_next_direct == pytest.approx(0.62, abs=1e-12)


def test_merit_value_basics():
    params = MomentumParams.sgd()
    assert merit_zeta(QUAD1, params) == 3.0
    z = np.array([1.0])
    assert merit_value(QUAD1, params, z, z) == QUAD1.f(z)
    assert merit_value(QUAD1, params, np.array([0.0]), z) == pytest.approx(3.5)


def test_merit_gradient_blocks_and_expansion():
    params = MomentumParams.sgd()
    x, z = np.array([0.0]), np.array([1.0])
    gx, gz = merit_gradient(QUAD1, params, x, z)
    assert gx[0] == pytest.approx(-6.0)
    assert gz[0] == pytest.approx(7.0)
    norm_sq = gx @ gx + gz @ gz
    assert norm_sq == pytest.approx(85.0)
    zeta = merit_zeta(QUAD1, params)
    diff = z - x
    expansion = 8 * zeta**2 * (diff @ diff) + QUAD1.grad(z) @ QUAD1.grad(z) \
        + 4 * zeta * (QUAD1.grad(z) @ diff)
    assert norm_sq == pytest.approx(expansion, rel=1e-12)
    gx0, gz0 = merit_gradient(QUAD1, params, z, z)
    assert gx0[0] == 0.0 and gz0[0] == QUAD1.grad(z)[0]


def test_merit_gradient_finite_differences():
    prob = make_problem("quadratic", 3, mu=0.5, l=2.0)
    params = MomentumParams(0.3, 0.2)
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(10):
        x = rng.standard_normal(3)
        z = rng.standard_normal(3)
        gx, gz = merit_gradient(prob, params, x, z)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd_x = (merit_value(prob, params, x + e, z)
                    - merit_value(prob, params, x - e, z)) / (2 * h)
            fd_z = (merit_value(prob, params, x, z + e)
                    - merit_value(prob, params, x, z - e)) / (2 * h)
            assert fd_x == pytest.approx(gx[i], rel=1e-6, abs=1e-7)
            assert fd_z == pytest.approx(gz[i], rel=1e-6, abs=1e-7)


@settings(max_examples=100, deadline=None)
@given(lam=st.floats(0.0, 0.95), scale=st.floats(-2.0, 2.0),
       zshift=st.floats(-2.0, 2.0))
def test_merit_gradient_inequalities(lam, scale, zshift):
    prob = make_problem("quadratic", 2, mu=1.0, l=1.0)
    params = MomentumParams(lam)
    zeta = merit_zeta(prob, params)
    x = np.array([scale, -0.3])
    z = np.array([zshift, 0.7])
    gx, gz = merit_gradient(prob, params, x, z)
    gm2 = gx @ gx + gz @ gz
    diff_sq = (x - z) @ (x - z)
    gf_sq = prob.grad(z) @ prob.grad(z)
    slack = 1e-9 * (1 + gm2 + zeta**2 * diff_sq + gf_sq)
    assert 4 * zeta**2 * diff_sq <= gm2 + slack
    assert gf_sq <= 2 * gm2 + slack
    assert gm2 <= 12 * zeta**2 * diff_sq + 2 * gf_sq + slack


def test_update_identity_along_noisy_run():
    prob = make_problem("quadratic", 3, mu=0.5, l=2.0)
    params = MomentumParams(0.7, 0.3)
    sched = StepSchedule.polynomial(0.2, 0.0, 0.8)
    noise = NoiseModel.gaussian(0.1)
    rp = RecordingPolicy(store_vectors=True, store_noise=True)
    t = run_trajectory(prob, params, sched, noise, 5, 400, recording=rp)
    X, E = t.X_hist, t.E_hist
    alphas = sched.prefix(399)
    for k in range(1, 400):
        x, xp, xn = X[k - 1], X[k - 2] if k > 1 else X[0], X[k]
        look = x + params.nu * (x - xp)
        g = prob.grad(look) - E[k - 1]
        resid = xn - x + alphas[k - 1] * g - params.lam * (x - xp)
        assert np.all(np.abs(resid) <= 1e-12 * (1 + np.linalg.norm(x)))


def test_z_recursion_along_noisy_run():
    prob = make_problem("quadratic", 3, mu=0.5, l=2.0)
    params = MomentumParams(0.9, 0.0)
    sched = StepSchedule.polynomial(0.2, 0.0, 0.8)
    noise = NoiseModel.gaussian(0.1)
    rp = RecordingPolicy(store_vectors=True, store_noise=True)
    t = run_trajectory(prob, params, sched, noise, 5, 400, recording=rp)
    X, E = t.X_hist, t.E_hist
    alphas = sched.prefix(399)
    lam = params.lam
    z_prev = X[0].copy()
    for k in range(1, 399):
        z_next = auxiliary_z(X[k], lam, X[k - 1])
        look = X[k - 1] + params.nu * (X[k - 1] - (X[k - 2] if k > 1 else X[0]))
        g = prob.grad(look) - E[k - 1]
        resid = np.linalg.norm(z_next - z_prev + alphas[k - 1] * g / (1 - lam))
        assert resid <= 1e-10 * (1 + np.linalg.norm(z_prev))
        z_prev = z_next


def test_reduction_to_plain_sgd_bitwise():
    prob = make_problem("quadratic", 4, mu=0.5, l=2.0)
    sched = StepSchedule.polynomial(0.3, 0.0, 0.75)
    noise = NoiseModel.gaussian(0.2)
    rp = RecordingPolicy(store_vectors=True)
    t = run_trajectory(prob, MomentumParams.sgd(), sched, noise, 21, 300, recording=rp)
    # independent plain loop fed the same stream
    stream = NoiseStream(noise, 4, seed=21)
    x = np.ones(4)
    ref = [x.copy()]
    for k in range(1, 300):
        g = prob.grad(x) - stream.draw()
        x = x + (0.0 * (x - x) - sched.step_size(k) * g)
        ref.append(x.copy())
    assert np.array_equal(t.X_hist, np.array(ref))


def test_deterministic_heavy_ball_bitwise():
    prob = make_problem("quadratic", 2, mu=1.0, l=2.0)
    lam = 0.8
    sched = StepSchedule.polynomial(0.1, 0.0, 1.0)
    rp = RecordingPolicy(store_vectors=True)
    t = run_trajectory(prob, MomentumParams.heavy_ball(lam), sched,
                       NoiseModel.none(), 0, 200, recording=rp)
    x = np.ones(2)
    xp = x.copy()
    ref = [x.copy()]
    for k in range(1, 200):
        g = prob.grad(x)
        x, xp = x + (lam * (x - xp) - sched.step_size(k) * g), x
        ref.append(x.copy())
    assert np.array_equal(t.X_hist, np.array(ref))


def test_trajectory_determinism_same_seed():
    prob = make_problem("even_power", 1, p=2.0)
    params = MomentumParams(0.5, 0.5)
    sched = StepSchedule.polynomial(0.05, 0.0, 0.9)
    noise = NoiseModel.gaussian(0.05)
    a = run_trajectory(prob, params, sched, noise, 77, 500)
    b = run_trajectory(prob, params, sched, noise, 77, 500)
    assert np.array_equal(a.f, b.f)
    assert np.array_equal(a.grad_norm, b.grad_norm)
    assert np.array_equal(a.x_final, b.x_final)
    c = run_trajectory(prob, params, sched, noise, 78, 500)
    assert not np.array_equal(a.x_final, c.x_final)


def test_batch_slices_match_single_runs():
    prob = make_problem("quadratic", 3, mu=0.5, l=2.0)
    params = MomentumParams(0.9, 0.9)
    sched = StepSchedule.polynomial(0.05, 0.0, 0.9)
    noise = NoiseModel.sphere(0.1)
    batch = run_batch(prob, params, sched, noise, [3, 14, 15], 400)
    for i, seed in enumerate([3, 14, 15]):
        single = run_trajectory(prob, params, sched, noise, seed, 400)
        assert np.array_equal(batch.f[:, i], single.f)
        assert np.array_equal(batch.x_final[i], single.x_final)


def test_horizon_one_is_initial_record_only():
    t = run_trajectory(QUAD1, MomentumParams.sgd(), StepSchedule.constant(0.1),
                       NoiseModel.none(), 0, 1)
    assert t.ks.tolist() == [1]
    assert t.f[0] == QUAD1.f(np.ones(1))
    assert np.array_equal(t.x_final, np.ones(1))


def test_divergence_flagged_not_raised():
    prob = make_problem("even_power", 1, p=2.0)
    sched = StepSchedule.constant(1.0)   # wildly unstable for x^4
    t = run_trajectory(prob, MomentumParams.sgd(), sched, NoiseModel.none(),
                       0, 200, recording=RecordingPolicy(store_vectors=True))
    assert t.diverged
    assert t.diverged_at >= 1
    # frozen afterwards: trajectory stays finite
    assert np.all(np.isfinite(t.X_hist))
    assert np.all(np.isfinite(t.x_final))


def test_custom_x0():
    x0 = np.array([2.0, -3.0])
    prob = make_problem("quadratic", 2, mu=1.0, l=1.0)
    t = run_trajectory(prob, MomentumParams.sgd(), StepSchedule.constant(0.1),
                       NoiseModel.none(), 0, 1, x0=x0)
    assert np.array_equal(t.x_final, x0)
    with pytest.raises(ValueError):
        run_trajectory(prob, MomentumParams.sgd(), StepSchedule.constant(0.1),
                       NoiseModel.none(), 0, 1, x0=np.ones(3))
