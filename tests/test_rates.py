import math

import numpy as np
import pytest

from sgdmlab import (chung_bound_check, estimate_exponent, log_rate_case,
                     optimal_gamma, rate_Phi_Psi, tadic_Phi, transition_theta)


def test_polynomial_rates_examples():
    Phi, Psi = rate_Phi_Psi(0.9, 0.5)
    assert Psi == pytest.approx(0.8)    # plateau of the gamma=0.9 curve
    assert Phi == pytest.approx(0.35)
    Phi, Psi = rate_Phi_Psi(0.7, 0.9)
    assert Psi == pytest.approx(min(0.4, 0.3 / 0.8))
    assert transition_theta(0.8) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        rate_Phi_Psi(0.5, 0.6)
    with pytest.raises(ValueError):
        rate_Phi_Psi(1.0, 0.6)


def test_branch_continuity_at_transition():
    for gamma in (0.7, 0.8, 0.9, 0.999):
        tc = transition_theta(gamma)
        plateau = 2 * gamma - 1
        other = (1 - gamma) / (2 * tc - 1)
        assert abs(plateau - other) < 1e-12
        _, Psi = rate_Phi_Psi(gamma, tc)
        assert abs(Psi - plateau) < 1e-12


def test_value_rate_monotone_in_sharpness():
    for gamma in (0.7, 0.8, 0.9, 0.999):
        thetas = np.linspace(0.5, 0.99, 197)
        psis = [rate_Phi_Psi(gamma, t)[1] for t in thetas]
        assert all(b <= a + 1e-15 for a, b in zip(psis, psis[1:]))


def test_optimal_gamma_values():
    og = optimal_gamma(0.5)
    assert og.gamma_star == pytest.approx(1.0)
    assert og.Psi_at_star == pytest.approx(1.0)
    og = optimal_gamma(0.75)
    assert og.gamma_star == pytest.approx(0.75)
    assert og.Psi_at_star == pytest.approx(0.5)
    assert og.Phi_at_star == pytest.approx(0.125)
    assert og.tadic_gamma == pytest.approx(0.8)
    assert og.tadic_rate == pytest.approx(0.4)


def test_optimal_gamma_dominates_reference():
    for theta in np.linspace(0.51, 0.99, 49):
        og = optimal_gamma(theta)
        assert og.Psi_at_star >= og.tadic_rate - 1e-15
        assert og.Phi_at_star >= og.tadic_dist_rate - 1e-15


def test_reference_iterate_exponent_is_slower():
    # the comparison curve never beats the main one on its domain
    for gamma in (0.8, 0.85, 0.9, 0.95):
        for theta in np.linspace(0.5, 0.95, 20):
            assert tadic_Phi(gamma, theta) <= rate_Phi_Psi(gamma, theta)[0] + 1e-15


def test_log_rate_case_threshold():
    dec = log_rate_case(101.0, math.sqrt(2.0))
    assert dec.threshold == pytest.approx(100.0)
    assert dec.accepted
    assert dec.gap_rate == (1.0, 1.0)
    dec = log_rate_case(50.0, math.sqrt(2.0))
    assert not dec.accepted
    assert dec.threshold == pytest.approx(100.0)
    assert log_rate_case(1e12, 0.001).accepted
    with pytest.raises(ValueError):
        log_rate_case(1.0, 0.0)


def test_estimate_exponent_recovers_power_laws():
    ks = np.unique(np.rint(np.logspace(0, 6, 400)).astype(int))
    for p in (0.2, 0.5, 0.8, 1.0):
        vals = ks.astype(float) ** (-p)
        est = estimate_exponent(ks, vals, tail_fraction=0.5)
        assert est.exponent == pytest.approx(p, abs=1e-6)
        assert not est.clipped
    est = estimate_exponent(ks, np.full(len(ks), 3.7), tail_fraction=0.5)
    assert est.exponent == pytest.approx(0.0, abs=1e-9)


def test_estimate_exponent_under_noise():
    ks = np.unique(np.rint(np.logspace(0, 6, 400)).astype(int))
    rng = np.random.default_rng(0)
    for p in (0.2, 0.5, 0.8, 1.0):
        vals = ks.astype(float) ** (-p) * (1 + 0.01 * rng.standard_normal(len(ks)))
        est = estimate_exponent(ks, vals, tail_fraction=0.5)
        assert est.exponent == pytest.approx(p, abs=0.02)


def test_estimate_exponent_log_factor_drag():
    ks = np.unique(np.rint(np.logspace(4, 6, 200)).astype(int))
    vals = np.log(ks) / ks
    est = estimate_exponent(ks, vals, tail_fraction=0.5)
    assert 0.85 <= est.exponent <= 1.0


def test_estimate_exponent_validation():
    ks = np.arange(1, 30)
    with pytest.raises(ValueError):
        estimate_exponent(ks, np.ones(29), tail_fraction=0.1)   # < 10 tail points
    with pytest.raises(ValueError):
        estimate_exponent(ks[::-1], np.ones(29))
    with pytest.raises(ValueError):
        estimate_exponent(ks, -np.ones(29))
    tiny = np.full(40, 1e-20)
    est = estimate_exponent(np.arange(1, 41), tiny, tail_fraction=1.0)
    assert est.clipped


def test_chung_case_a_example():
    chk = chung_bound_check(q=2.0, p=1.0, s=1.0, t=1.5, beta=0.0, horizon=100_000)
    assert chk.case == "a"
    assert chk.bound_constant == pytest.approx(1 / 1.5)
    assert chk.bound_exponent == -0.5
    assert chk.passed
    assert chk.worst_tail_ratio <= 1.05


def test_chung_case_b_example():
    chk = chung_bound_check(q=1.0, p=1.0, s=0.5, t=1.5, beta=0.0, horizon=1_000_000)
    assert chk.case == "b"
    assert chk.bound_constant == pytest.approx(1.0)
    assert chk.bound_exponent == -1.0
    assert chk.passed


def test_chung_homogeneous_degenerate():
    chk = chung_bound_check(q=2.0, p=0.0, s=1.0, t=1.5, beta=2.0, horizon=50_000)
    assert chk.passed          # y_k (k+beta)^2 stays bounded


def test_chung_parameter_validation():
    with pytest.raises(ValueError):
        chung_bound_check(q=2.0, p=1.0, s=1.0, t=3.5, beta=0.0, horizon=10_000)
    with pytest.raises(ValueError):
        chung_bound_check(q=2.0, p=1.0, s=0.0, t=1.5, beta=0.0, horizon=10_000)
    with pytest.raises(ValueError):
        chung_bound_check(q=2.0, p=1.0, s=0.5, t=0.4, beta=0.0, horizon=10_000)
    with pytest.raises(ValueError):
        chung_bound_check(q=-1.0, p=1.0, s=0.5, t=1.5, beta=0.0, horizon=10_000)


def test_chung_simulation_matches_direct_recursion():
    from sgdmlab.rates import _simulate_decay_recursion
    for (q, p, s, t, beta) in [(2.0, 1.0, 1.0, 1.5, 0.0), (1.0, 0.5, 0.5, 1.2, 1.0),
                               (3.0, 2.0, 1.0, 1.8, 4.0)]:
        y = _simulate_decay_recursion(q, p, s, t, beta, 3000)
        ref = np.empty(3000)
        ref[0] = 1.0
        for k in range(1, 3000):
            a = 1.0 - q * (k + beta) ** (-s)
            ref[k] = a * ref[k - 1] + p * (k + beta) ** (-t)
        mask = ref > 1e-250
        assert np.allclose(y[mask], ref[mask], rtol=1e-9, atol=1e-250)
