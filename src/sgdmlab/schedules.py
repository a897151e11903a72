"""Step-size schedules and their summability checks.

A schedule emits a positive, non-increasing sequence alpha_1, alpha_2, ...
Partial sums of step sizes define the natural time scale used by the
window partition: delta(m, n) = sum_{i=m}^{n-1} alpha_i, with delta(m, m) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class ScheduleExhaustedError(ValueError):
    """Raised when an explicit schedule is asked for a step beyond its list."""


class InvalidRangeError(ValueError):
    """Raised when a partial sum is requested with m > n."""


@dataclass(frozen=True)
class StepSchedule:
    """Step-size sequence.

    Variants:
      polynomial -- alpha_k = alpha / (k + beta)^gamma, gamma in (0, 1]
      explicit   -- a finite positive non-increasing list
      constant   -- alpha_k = c for all k
    """

    variant: str
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 1.0
    c: float = 0.0
    values: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.variant == "polynomial":
            if not 0 < self.alpha < math.inf:
                raise ValueError("polynomial schedule needs a finite alpha > 0")
            if not 0 <= self.beta < math.inf:
                raise ValueError("polynomial schedule needs a finite beta >= 0")
            if not 0 < self.gamma <= 1:
                raise ValueError("polynomial schedule needs gamma in (0, 1]")
        elif self.variant == "constant":
            if not 0 < self.c < math.inf:
                raise ValueError("constant schedule needs a finite c > 0")
        elif self.variant == "explicit":
            vals = np.asarray(self.values, dtype=float)
            if vals.size == 0:
                raise ValueError("explicit schedule needs at least one value")
            if not np.all((vals > 0) & (vals < math.inf)):
                raise ValueError("explicit schedule values must be positive and finite")
            if np.any(np.diff(vals) > 0):
                raise ValueError("explicit schedule values must be non-increasing")
        else:
            raise ValueError(f"unknown schedule variant {self.variant!r}")

    @classmethod
    def polynomial(cls, alpha, beta=0.0, gamma=1.0):
        return cls("polynomial", alpha=float(alpha), beta=float(beta), gamma=float(gamma))

    @classmethod
    def constant(cls, c):
        return cls("constant", c=float(c))

    @classmethod
    def explicit(cls, values):
        return cls("explicit", values=tuple(float(v) for v in values))

    def at(self, ks) -> np.ndarray:
        """[alpha_k for k in ks] for an integer index array ks (each k >= 1),
        as a new array the caller may write to; the one evaluator every
        other read of the schedule goes through."""
        ks = np.asarray(ks)
        if ks.size and ks.min() < 1:
            raise ValueError("step index k must be >= 1")
        if self.variant == "polynomial":
            return self.alpha / (ks + self.beta) ** self.gamma
        if self.variant == "constant":
            return np.full(ks.shape, self.c)
        if ks.size and ks.max() > len(self.values):
            raise ScheduleExhaustedError(
                f"explicit schedule has {len(self.values)} entries, step {ks.max()} requested")
        return self._values[ks - 1]

    @cached_property
    def _values(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def step_size(self, k: int) -> float:
        """alpha_k for step index k >= 1."""
        return float(self.at(np.array([k]))[0])

    def prefix(self, n: int) -> np.ndarray:
        """Array [alpha_1, ..., alpha_n]."""
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        return self.at(np.arange(1, n + 1))

    def partial_sum(self, m: int, n: int) -> float:
        """delta(m, n) = sum_{i=m}^{n-1} alpha_i, summed in order; zero when m == n."""
        if m > n:
            raise InvalidRangeError(f"partial sum needs m <= n, got m={m}, n={n}")
        if m < 1:
            raise ValueError("indices must be >= 1")
        return float(np.cumsum(self.at(np.arange(m, n)))[-1]) if n > m else 0.0


@dataclass(frozen=True)
class ScheduleValidity:
    """Outcome of a summability check.

    ``valid`` is True/False for a closed-form decision and None when the
    schedule is an explicit finite list (asymptotics indeterminate).
    """

    valid: bool | None
    regime: str
    reason: str

    def __bool__(self):
        return self.valid is True


def validate_schedule(schedule: StepSchedule, regime: str, r: float | None = None,
                      growth: tuple | None = None) -> ScheduleValidity:
    """Closed-form summability decision for a schedule under a regime.

    regime:
      "global"  -- sum alpha_k = inf and sum alpha_k^2 < inf
      "loja"    -- additionally sum alpha_k^2 (sum_{i<=k} alpha_i)^{2r} < inf
                   for the given r > 1/2
      "rate"    -- sum alpha_k^2 g(Delta_k)^2 < inf for growth spec g;
                   growth = ("power", r) or ("exp", p, r) meaning
                   g(x) = x^r  or  g(x) = x^p * exp(r x)
    """
    if regime == "loja":
        if r is None:
            raise ValueError("loja regime needs the exponent r")
        if not r > 0.5:
            raise ValueError("loja regime needs r > 1/2")
    if regime == "rate":
        if growth is None:
            raise ValueError("rate regime needs a growth spec")

    if schedule.variant == "explicit":
        return ScheduleValidity(None, regime, "explicit finite list: asymptotics indeterminate")

    if schedule.variant == "constant":
        return ScheduleValidity(False, regime, "constant steps: sum alpha_k^2 divergent")

    g = schedule.gamma
    if regime == "global":
        if g <= 0.5:
            return ScheduleValidity(False, regime,
                                    f"gamma={g:g} <= 1/2: sum alpha_k^2 divergent")
        return ScheduleValidity(True, regime, f"gamma={g:g} in (1/2, 1]")

    if regime == "loja":
        if g <= 2 / 3:
            return ScheduleValidity(False, regime,
                                    f"gamma={g:g} outside (2/3, 1]")
        if g == 1.0:
            return ScheduleValidity(True, regime, "gamma=1 admits every r > 1/2")
        cap = (2 * g - 1) / (2 * (1 - g))
        if r >= cap:
            return ScheduleValidity(False, regime,
                                    f"r={r:g} >= cap {(cap):g} for gamma={g:g}")
        return ScheduleValidity(True, regime, f"r={r:g} below cap {cap:g}")

    if regime == "rate":
        kind = growth[0]
        if kind == "power":
            rr = float(growth[1])
            if not rr > 0.5:
                raise ValueError("power growth needs r > 1/2")
            return validate_schedule(schedule, "loja", r=rr)
        if kind == "exp":
            p, rr = float(growth[1]), float(growth[2])
            if p < 0 or rr <= 0:
                raise ValueError("exp growth needs p >= 0 and r > 0")
            if g < 1.0:
                return ScheduleValidity(False, regime,
                                        "exponential growth along Delta_k diverges unless gamma=1")
            cap = 1.0 / (2 * schedule.alpha)
            if rr >= cap:
                return ScheduleValidity(False, regime,
                                        f"r={rr:g} >= 1/(2 alpha) = {cap:g}")
            return ScheduleValidity(True, regime, f"gamma=1 and r={rr:g} < 1/(2 alpha)")
        raise ValueError(f"unknown growth spec {kind!r}")

    raise ValueError(f"unknown regime {regime!r}")
