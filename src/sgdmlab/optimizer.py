"""Momentum iteration core.

One step with momentum weights (lam, nu), step size a and error e:

    x_look = x + nu * (x - x_prev)
    g      = grad f(x_look) - e
    x_next = x + (lam * (x - x_prev) - a * g)

nu = 0 is the stochastic heavy-ball method, nu = lam the stochastic
Nesterov variant, lam = nu = 0 plain stochastic gradient descent.

The momentum-free interpolation z = x/(1-lam) - lam*x_prev/(1-lam)
follows the rescaled-gradient recursion z_next = z - a*g/(1-lam); the
merit function M(x, z) = f(z) + zeta*||z-x||^2 with zeta = 3L/(1-lam)
is the quantity that descends approximately across time windows.  The
runner forms z and M in batch; merit_zeta gives their shared weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .problems import Problem


@dataclass(frozen=True)
class MomentumParams:
    """Momentum weights: 0 <= lam < 1 (inertia), finite nu >= 0 (extrapolation)."""

    lam: float
    nu: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.lam < 1.0:
            raise ValueError("lam must lie in [0, 1)")
        if not 0.0 <= self.nu < math.inf:
            raise ValueError("nu must be finite and >= 0")

    @classmethod
    def sgd(cls):
        return cls(0.0, 0.0)

    @classmethod
    def heavy_ball(cls, lam):
        return cls(float(lam), 0.0)

    @classmethod
    def nesterov(cls, lam):
        return cls(float(lam), float(lam))


def merit_zeta(problem: Problem, params: MomentumParams) -> float:
    return 3.0 * problem.L / (1.0 - params.lam)
