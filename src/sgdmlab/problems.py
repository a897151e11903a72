"""Test objectives with analytic gradients and sharpness data.

Each problem carries a smoothness constant L for its gradient and, at a
designated minimizer, a gradient-domination certificate

    ||grad f(x)|| >= C_f * |f(x) - f_star|^theta

valid on the declared region (ball of radius rho around x_star, level gap
below eta).  For polynomial objectives of degree > 2 the constant L is only
valid on a declared box; runs leaving the box are flagged, not failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class UnknownProblemError(ValueError):
    pass


class OutOfRegionError(ValueError):
    """Point outside the declared sharpness region; callers skip it."""


@dataclass(frozen=True)
class Problem:
    name: str
    dim: int
    f_batch: Callable[[np.ndarray], np.ndarray]      # (..., d) -> (...)
    # grad_batch(x, out=None): (..., d) -> (..., d).  Given out (x's shape
    # and dtype, not overlapping x), the gradient is written into it and
    # out is returned; the step loop reuses one buffer this way.  Without
    # out the result is a new float64 array computed in float64, for
    # integer and float32 x too.  The
    # built-in gradients pass out to numpy by position and hold their exact
    # constants as 0-d float64 arrays: numpy dispatches both faster than a
    # keyword or a Python float, and the arithmetic is the same.
    grad_batch: Callable[..., np.ndarray]
    L: float
    f_star: float
    x_star: np.ndarray | None
    theta: float
    C_f: float
    eta: float
    rho: float
    lower_bound: float
    box_radius: float = math.inf   # Euclidean ball on which L is valid
    params: dict = None

    def f(self, x) -> float:
        x = self._check(x)
        return float(self.f_batch(x))

    def grad(self, x) -> np.ndarray:
        x = self._check(x)
        return np.asarray(self.grad_batch(x), dtype=float)

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"{self.name} has dimension {self.dim}, got {x.shape[-1]}")
        return x

    def in_region(self, x) -> bool:
        """Inside the declared sharpness region with 0 < f - f_star < eta."""
        x = self._check(x)
        gap = abs(self.f(x) - self.f_star)
        if not 0.0 < gap < self.eta:
            return False
        if self.x_star is not None and math.isfinite(self.rho):
            if np.linalg.norm(x - self.x_star) > self.rho:
                return False
        if self.name == "sin_toy":
            # region is a band around the first-coordinate minimizers
            phase = _wrap_angle(x[..., 0] + np.pi / 2)
            if abs(float(phase)) > self.rho:
                return False
        return True


def _wrap_angle(a):
    return (a + np.pi) % (2 * np.pi) - np.pi


def _make_quadratic(dim, mu=1.0, l=None, **_):
    l = mu if l is None else l
    if not 0 < mu < math.inf:
        raise ValueError("quadratic needs a finite mu > 0")
    if not mu <= l < math.inf:
        raise ValueError("quadratic needs a finite l >= mu")
    if dim == 1 and l != mu:
        raise ValueError("1-D quadratic needs mu == l")
    h = np.linspace(mu, l, dim) if dim > 1 else np.array([mu])
    mu_eff = float(h.min())

    def f_batch(x):
        return 0.5 * np.einsum("...d,d->...", x * x, h)

    def grad_batch(x, out=None):
        return np.multiply(x, h, out)

    grad_batch._c_form = ("mul", h)      # see _ckernel

    return Problem(
        name="quadratic", dim=dim, f_batch=f_batch, grad_batch=grad_batch,
        L=float(h.max()), f_star=0.0, x_star=np.zeros(dim),
        theta=0.5, C_f=math.sqrt(2 * mu_eff), eta=math.inf, rho=math.inf,
        lower_bound=0.0, params={"mu": mu, "l": float(h.max())})


def _make_even_power(dim, p=2.0, box_radius=1.5, **_):
    if not 1 <= p < math.inf:
        raise ValueError("even_power needs a finite p >= 1")
    if not box_radius > 0:
        raise ValueError("even_power needs box_radius > 0")

    def f_batch(x):
        r2 = np.einsum("...d,...d->...", x, x)
        return r2**p

    # exact small constants: a float32 out gets the same bits as with a
    # Python float.  The exponent p - 1 stays a Python float, so that a
    # float32 power keeps its float32 loop.
    two, c = np.array(2.0), np.array(2.0 * p)

    def grad_batch(x, out=None):
        # (2p) ||x||^(2p-2) x as ((2p) * r2 ** (p-1)) * x with r2 = ||x||^2
        if out is None:
            x = np.asarray(x, dtype=float)      # r2 is updated in place below
        if p == 1:
            return np.multiply(two, x, out)
        if dim == 1:
            r2 = np.multiply(x, x, out)         # the one-term sum of squares
        else:
            r2 = np.einsum("...d,...d->...", x, x)[..., None]
        if p != 2:                              # r2 ** 1 is r2
            r2 **= p - 1
        np.multiply(r2, c, r2)
        return np.multiply(r2, x, out)

    # the forms the compiled step kernel evaluates elementwise (see _ckernel);
    # the einsum sum of squares and the power stay with numpy
    if p == 1:
        grad_batch._c_form = ("mul", np.full(dim, 2.0))
    elif p == 2 and dim == 1:
        grad_batch._c_form = ("cube", np.array([float(c)]))

    if p == 1:
        L, box = 2.0, math.inf
    else:
        L, box = 2 * p * (2 * p - 1) * box_radius ** (2 * p - 2), box_radius
    return Problem(
        name="even_power", dim=dim, f_batch=f_batch, grad_batch=grad_batch,
        L=L, f_star=0.0, x_star=np.zeros(dim),
        theta=(2 * p - 1) / (2 * p), C_f=2 * p, eta=math.inf, rho=math.inf,
        lower_bound=0.0, box_radius=box, params={"p": p, "box_radius": box_radius})


def _make_sin_toy(dim, **_):
    if dim != 2:
        raise ValueError("sin_toy is two-dimensional")

    def f_batch(x):
        return np.sin(x[..., 0])

    def grad_batch(x, out=None):
        if out is None:
            x = np.asarray(x, dtype=float)      # a float32 x is computed in float64
        g = np.empty(np.shape(x)) if out is None else out
        np.cos(x[..., 0], g[..., 0])
        g[..., 1] = 0.0
        return g

    # sharpness certified near x_1 = -pi/2 (mod 2 pi):
    # ||grad|| = |cos x_1| = sqrt(gap * (2 - gap)) >= sqrt(gap) for gap <= 1
    return Problem(
        name="sin_toy", dim=2, f_batch=f_batch, grad_batch=grad_batch,
        L=1.0, f_star=-1.0, x_star=None,
        theta=0.5, C_f=1.0, eta=1.0, rho=1.0, lower_bound=-1.0,
        params={})


def _make_rosenbrock(dim, a=1.0, b=100.0, box_radius=2.0, **_):
    if dim != 2:
        raise ValueError("rosenbrock is two-dimensional")
    if not box_radius > 0:
        raise ValueError("rosenbrock needs box_radius > 0")

    def f_batch(x):
        x1, x2 = x[..., 0], x[..., 1]
        return (a - x1) ** 2 + b * (x2 - x1**2) ** 2

    def grad_batch(x, out=None):
        if out is None:
            x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        g = np.empty(np.shape(x)) if out is None else out
        r = x2 - x1**2
        g[..., 0] = -2 * (a - x1) - 4 * b * x1 * r
        np.multiply(2 * b, r, g[..., 1])
        return g

    # L on the sup-norm box: Gershgorin bound on the Hessian rows
    r = box_radius
    h11 = 2 + 12 * b * r**2 + 4 * b * r
    h12 = 4 * b * r
    L = max(h11 + h12, 2 * b + h12)
    # theta = 1/2 locally: the Hessian at the minimizer is positive definite
    # with smallest eigenvalue lam_min; C_f = sqrt(2 lam_min) deflated to
    # absorb third-order terms on a ball of radius rho = 3e-5.
    hess = np.array([[2 + 8 * b * a**2, -4 * b * a],
                     [-4 * b * a, 2 * b]])
    # (a rounded lam_min <= 0 gives C_f = 0, which make_problem rejects)
    lam_min = float(np.linalg.eigvalsh(hess).min())
    rho = 3e-5
    return Problem(
        name="rosenbrock", dim=2, f_batch=f_batch, grad_batch=grad_batch,
        L=float(L), f_star=0.0, x_star=np.array([a, a**2]),
        theta=0.5, C_f=0.8 * math.sqrt(max(2 * lam_min, 0.0)), eta=1e-7, rho=rho,
        lower_bound=0.0, box_radius=box_radius, params={"a": a, "b": b})


def _make_shifted_quartic(dim, a=1.0, box_radius=2.0, **_):
    if dim != 1:
        raise ValueError("shifted_quartic is one-dimensional")

    def f_batch(x):
        return (x[..., 0] - a) ** 4

    four = np.array(4.0)

    def grad_batch(x, out=None):
        if out is None:
            x = np.asarray(x, dtype=float)
        g = np.empty(np.shape(x)) if out is None else out
        t = np.subtract(x[..., 0], a, g[..., 0])
        t **= 3
        np.multiply(four, t, t)
        return g

    return Problem(
        name="shifted_quartic", dim=1, f_batch=f_batch, grad_batch=grad_batch,
        L=12 * box_radius**2, f_star=0.0, x_star=np.array([a]),
        theta=0.75, C_f=4.0, eta=math.inf, rho=math.inf,
        lower_bound=0.0, box_radius=box_radius, params={"a": a})


_REGISTRY = {
    "quadratic": (_make_quadratic, None),
    "even_power": (_make_even_power, 1),
    "sin_toy": (_make_sin_toy, 2),
    "rosenbrock": (_make_rosenbrock, 2),
    "shifted_quartic": (_make_shifted_quartic, 1),
}


def make_problem(name: str, dim: int | None = None, **params) -> Problem:
    if name not in _REGISTRY:
        raise UnknownProblemError(
            f"unknown problem {name!r}; choose from {sorted(_REGISTRY)}")
    maker, default_dim = _REGISTRY[name]
    if dim is None:
        dim = default_dim if default_dim is not None else 2
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    try:
        problem = maker(dim, **params)
    except OverflowError:       # a finite parameter whose power leaves the float range
        raise ValueError(f"{name}: a constant computed from {params} overflows "
                         "a float") from None
    # the sharpness certificate ||grad f|| >= C_f |f - f_star|^theta says
    # nothing unless C_f is a finite positive number (L = inf means no box)
    if not 0.0 < problem.C_f < math.inf:
        raise ValueError(f"{name} with {params} has the sharpness constant "
                         f"C_f = {problem.C_f!r}; it must be a finite number > 0")
    return problem


def problem_names() -> list[str]:
    return sorted(_REGISTRY)


def loja_residual(problem: Problem, x) -> float:
    """||grad f(x)|| - C_f |f(x) - f_star|^theta; >= -1e-9 inside the region."""
    if not problem.in_region(x):
        raise OutOfRegionError(f"{np.asarray(x)} outside declared region of {problem.name}")
    gap = abs(problem.f(x) - problem.f_star)
    return float(np.linalg.norm(problem.grad(x)) - problem.C_f * gap**problem.theta)
