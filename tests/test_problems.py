import math

import numpy as np
import pytest

from sgdmlab import (OutOfRegionError, UnknownProblemError, fd_gradient_check,
                     loja_residual, make_problem, problem_names)


def _region_samples(problem, rng, n):
    """Points inside the declared sharpness region of each suite problem."""
    name = problem.name
    if name == "quadratic":
        return rng.uniform(-2, 2, size=(n, problem.dim))
    if name == "even_power":
        r = problem.params["box_radius"]
        v = rng.standard_normal((n, problem.dim))
        scale = r * rng.uniform(0.01, 1.0, size=n) ** (1.0 / problem.dim)
        return v * (scale / np.linalg.norm(v, axis=1))[:, None]
    if name == "shifted_quartic":
        a = problem.params["a"]
        return a + rng.uniform(-1.5, 1.5, size=(n, 1))
    if name == "sin_toy":
        phase = rng.uniform(-0.99, 0.99, size=n)
        pts = np.stack([-np.pi / 2 + phase, rng.uniform(-5, 5, size=n)], axis=1)
        return pts
    if name == "rosenbrock":
        v = rng.standard_normal((n, 2))
        v *= (problem.rho * rng.uniform(0.05, 0.99, size=n) / np.linalg.norm(v, axis=1))[:, None]
        return problem.x_star + v
    raise AssertionError(name)


def _suite(rng=None):
    return [
        make_problem("quadratic", 1, mu=1.0),
        make_problem("quadratic", 5, mu=0.5, l=2.0),
        make_problem("even_power", 1, p=2.0),
        make_problem("even_power", 3, p=1.5),
        make_problem("sin_toy"),
        make_problem("rosenbrock"),
        make_problem("shifted_quartic", 1, a=1.0),
    ]


def test_registry_names():
    assert set(problem_names()) == {"quadratic", "even_power", "sin_toy",
                                    "rosenbrock", "shifted_quartic"}
    with pytest.raises(UnknownProblemError):
        make_problem("himmelblau")


def test_quadratic_1d_sharpness_identity():
    prob = make_problem("quadratic", 1, mu=1.0)
    assert prob.theta == 0.5
    assert prob.C_f == pytest.approx(math.sqrt(2.0))
    assert prob.L == 1.0
    for x in (0.3, -1.7, 0.01):
        g = abs(prob.grad(np.array([x]))[0])
        assert g == pytest.approx(math.sqrt(2.0) * (0.5 * x * x) ** 0.5, rel=1e-12)


def test_quadratic_spectrum_constants():
    prob = make_problem("quadratic", 5, mu=0.5, l=2.0)
    assert prob.L == 2.0
    assert prob.C_f == pytest.approx(math.sqrt(1.0))
    x = np.zeros(5)
    f, g = prob.f(x), prob.grad(x)
    assert f == 0.0
    assert np.array_equal(g, np.zeros(5))


def test_even_power_identity():
    prob = make_problem("even_power", 1, p=2.0)
    assert prob.theta == 0.75
    assert prob.C_f == 4.0
    x = np.array([2.0])
    f, g = prob.f(x), prob.grad(x)
    assert f == 16.0
    assert g[0] == 32.0
    # |f'| = 4|x|^3 = 4 f^{3/4} exactly
    for x in (0.1, 0.5, 1.2):
        f = prob.f(np.array([x]))
        assert abs(prob.grad(np.array([x]))[0]) == pytest.approx(4 * f**0.75, rel=1e-12)


def test_even_power_p1_reduces_to_sphere_quadratic():
    prob = make_problem("even_power", 3, p=1.0)
    assert prob.L == 2.0
    assert prob.theta == 0.5
    assert math.isinf(prob.box_radius)
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(prob.grad(x), 2 * x)


def test_sin_toy_values():
    prob = make_problem("sin_toy")
    assert prob.f(np.array([0.5, 7.0])) == pytest.approx(math.sin(0.5), rel=1e-15)
    g = prob.grad(np.array([0.5, 7.0]))
    assert g[0] == pytest.approx(math.cos(0.5), rel=1e-15)
    assert g[1] == 0.0
    x = np.array([-math.pi / 2, 3.0])
    f, g = prob.f(x), prob.grad(x)
    assert f == pytest.approx(-1.0, rel=1e-15)
    assert np.allclose(g, 0.0, atol=1e-15)
    assert prob.f_star == -1.0
    assert prob.L == 1.0


def test_shifted_quartic():
    prob = make_problem("shifted_quartic", 1, a=1.0)
    assert prob.theta == 0.75
    assert prob.C_f == 4.0
    x = np.array([2.0])
    f, g = prob.f(x), prob.grad(x)
    assert f == 1.0 and g[0] == 4.0


def test_dimension_checks():
    prob = make_problem("quadratic", 3, mu=1.0)
    with pytest.raises(ValueError):
        prob.f(np.ones(4))
    with pytest.raises(ValueError):
        make_problem("sin_toy", 3)
    with pytest.raises(ValueError):
        make_problem("quadratic", 2, mu=-1.0)
    with pytest.raises(ValueError):
        make_problem("quadratic", 2, mu=2.0, l=1.0)


def test_loja_residual_exact_cases():
    quad = make_problem("quadratic", 1, mu=1.0)
    assert abs(loja_residual(quad, np.array([0.3]))) < 1e-12
    quart = make_problem("even_power", 1, p=2.0)
    assert abs(loja_residual(quart, np.array([0.1]))) < 1e-12
    with pytest.raises(OutOfRegionError):
        loja_residual(quad, np.zeros(1))   # zero gap: outside the region


def test_fd_gradient_check_examples():
    assert fd_gradient_check(make_problem("quadratic", 2, mu=1.0),
                             np.array([0.4, -1.0]), 1e-5) <= 1e-8
    assert fd_gradient_check(make_problem("rosenbrock"),
                             np.array([1.2, 1.2]), 1e-5) <= 1e-5
    rng = np.random.default_rng(0)
    sin_toy = make_problem("sin_toy")
    for _ in range(5):
        x = rng.uniform(-3, 3, size=2)
        assert fd_gradient_check(sin_toy, x, 1e-5) <= 1e-7
    with pytest.raises(ValueError):
        fd_gradient_check(sin_toy, np.zeros(2), 0.0)


def test_sharpness_residual_region_sweep():
    rng = np.random.default_rng(7)
    for prob in _suite():
        pts = _region_samples(prob, rng, 1000)
        checked = 0
        for x in pts:
            try:
                r = loja_residual(prob, x)
            except OutOfRegionError:
                continue
            checked += 1
            assert r >= -1e-9, f"{prob.name} at {x}: residual {r}"
        assert checked > 100, prob.name


def test_fd_gradient_sweep():
    rng = np.random.default_rng(8)
    for prob in _suite():
        pts = _region_samples(prob, rng, 100)
        for x in pts:
            assert fd_gradient_check(prob, x, 1e-5) <= 1e-5, prob.name


def test_smoothness_spot_check():
    rng = np.random.default_rng(9)
    for prob in _suite():
        pts = _region_samples(prob, rng, 2000)
        a, b = pts[:1000], pts[1000:]
        ga = prob.grad_batch(a)
        gb = prob.grad_batch(b)
        lhs = np.linalg.norm(ga - gb, axis=1)
        rhs = prob.L * np.linalg.norm(a - b, axis=1) * (1 + 1e-9)
        assert np.all(lhs <= rhs), prob.name


def test_lower_bound_sampled():
    rng = np.random.default_rng(10)
    for prob in _suite():
        pts = rng.uniform(-3, 3, size=(500, prob.dim))
        assert np.all(prob.f_batch(pts) >= prob.lower_bound)
