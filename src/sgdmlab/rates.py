"""Closed-form decay-rate predictors and empirical exponent estimation.

For sharpness exponent theta in [1/2, 1) the asymptotic decay exponents
are minima of two branches; the branch 1/(2 theta - 1) is unbounded at
theta = 1/2 and is represented explicitly (None) in reports so the min
stays total without floating infinities leaking out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VALUE_FLOOR = 1e-14


def _loja_branch(theta: float, numer: float) -> float | None:
    """numer / (2 theta - 1), None when unbounded (theta = 1/2)."""
    if theta == 0.5:
        return None
    return numer / (2.0 * theta - 1.0)


def _min_with_unbounded(a: float, b: float | None) -> float:
    return a if b is None else min(a, b)


def transition_theta(gamma: float) -> float:
    """theta at which the two branches of the value-gap exponent meet."""
    return gamma / (4.0 * gamma - 2.0)


def rate_Phi_Psi(gamma: float, theta: float) -> tuple[float, float]:
    """Polynomial-schedule decay exponents in the step counter:
    Phi = min(3 gamma/2 - 1, (1-gamma)(1-theta)/(2 theta - 1)) for iterates,
    Psi = min(2 gamma - 1, (1-gamma)/(2 theta - 1)) for value gap and
    squared gradient norm."""
    if not 2.0 / 3.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (2/3, 1)")
    if not 0.5 <= theta < 1.0:
        raise ValueError("theta must lie in [1/2, 1)")
    Phi = _min_with_unbounded(1.5 * gamma - 1.0,
                              _loja_branch(theta, (1.0 - gamma) * (1.0 - theta)))
    Psi = _min_with_unbounded(2.0 * gamma - 1.0,
                              _loja_branch(theta, 1.0 - gamma))
    return Phi, Psi


def tadic_Phi(gamma: float, theta: float) -> float:
    """Earlier momentum-free iterate exponent min(2 gamma - 3/2, ...)."""
    if not 0.75 < gamma < 1.0:
        raise ValueError("gamma must lie in (3/4, 1)")
    if not 0.5 <= theta < 1.0:
        raise ValueError("theta must lie in [1/2, 1)")
    return _min_with_unbounded(2.0 * gamma - 1.5,
                               _loja_branch(theta, (1.0 - gamma) * (1.0 - theta)))


@dataclass(frozen=True)
class OptimalGamma:
    gamma_star: float
    Psi_at_star: float
    Phi_at_star: float
    tadic_gamma: float
    tadic_rate: float
    tadic_dist_rate: float


def optimal_gamma(theta: float) -> OptimalGamma:
    """Best polynomial decay gamma* = 2 theta/(4 theta - 1) and the rates
    there, with the earlier momentum-free comparison values."""
    if not 0.5 <= theta < 1.0:
        raise ValueError("theta must lie in [1/2, 1)")
    gs = 2.0 * theta / (4.0 * theta - 1.0)
    psi = 1.0 / (4.0 * theta - 1.0)
    phi = (1.0 - theta) / (4.0 * theta - 1.0)
    tg = (4.0 * theta - 1.0) / (6.0 * theta - 2.0)
    tr = 1.0 / (6.0 * theta - 2.0)
    td = (1.0 - theta) / (6.0 * theta - 2.0)
    assert psi >= tr
    return OptimalGamma(gamma_star=gs, Psi_at_star=psi, Phi_at_star=phi,
                        tadic_gamma=tg, tadic_rate=tr, tadic_dist_rate=td)


@dataclass(frozen=True)
class LogRateDecision:
    accepted: bool
    alpha: float
    C: float
    threshold: float
    # decay descriptors for accepted runs, as (power of k, power of log k)
    dist_rate: tuple[float, float] | None = None
    gap_rate: tuple[float, float] | None = None


def log_rate_case(alpha: float, C: float) -> LogRateDecision:
    """gamma = 1 borderline: accepted iff alpha > 200 / C^2, giving
    ||x - x*|| = o(log(k)^{1/2+eps}/sqrt(k)) and value gap / squared
    gradient = o(log(k)^{1+eps}/k)."""
    if C <= 0:
        raise ValueError("C must be > 0")
    thr = 200.0 / C**2
    if alpha > thr:
        return LogRateDecision(True, alpha, C, thr,
                               dist_rate=(0.5, 0.5), gap_rate=(1.0, 1.0))
    return LogRateDecision(False, alpha, C, thr)


@dataclass(frozen=True)
class EmpiricalRate:
    exponent: float                  # decay exponent (minus the log-log slope)
    fit_lo: int
    fit_hi: int
    n_points: int
    residual_rms: float
    clipped: bool                    # some values were at the floor


_MIN_TAIL_POINTS = 10          # fewest points a slope is fitted to


def estimate_exponent(ks, values, tail_fraction: float = 0.5) -> EmpiricalRate:
    """Least-squares slope of log(value) against log(k) over the trailing
    ``tail_fraction`` of the points; returns minus the slope."""
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    if len(ks) != len(values):
        raise ValueError("ks and values must have equal length")
    if np.any(np.diff(ks) <= 0):
        raise ValueError("ks must be strictly increasing")
    if np.any(values < 0):
        raise ValueError("values must be non-negative")
    n = len(ks)
    n_tail = max(int(math.ceil(tail_fraction * n)), 0)
    if n_tail < _MIN_TAIL_POINTS:
        raise ValueError(f"need at least {_MIN_TAIL_POINTS} tail points, got {n_tail}")
    k_t = ks[n - n_tail:]
    v_t = values[n - n_tail:]
    clipped = bool(np.any(v_t < VALUE_FLOOR))
    v_t = np.maximum(v_t, VALUE_FLOOR)
    lx = np.log(k_t)
    ly = np.log(v_t)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return EmpiricalRate(exponent=float(-slope), fit_lo=int(k_t[0]), fit_hi=int(k_t[-1]),
                         n_points=n_tail, residual_rms=float(np.sqrt(np.mean(resid**2))),
                         clipped=clipped)


@dataclass(frozen=True)
class ChungCheck:
    case: str
    passed: bool
    worst_tail_ratio: float
    bound_constant: float
    bound_exponent: float            # power of (k + beta) in the bound
    horizon: int


def chung_bound_check(q: float, p: float, s: float, t: float, beta: float,
                      horizon: int, tol: float = 0.05) -> ChungCheck:
    """Simulate y_{k+1} = (1 - q (k+beta)^{-s}) y_k + p (k+beta)^{-t} from
    y_1 = 1 and compare against the closed-form envelope:

      s = 1, t < q+1:  y_k <= p/(q+1-t) * (k+beta)^{1-t}  (+ lower order)
      s < 1:           y_k <= p/q       * (k+beta)^{s-t}  (+ lower order)

    Passes when the worst ratio over the last decade is <= 1 + tol.
    """
    if q <= 0 or p < 0:
        raise ValueError("need q > 0 and p >= 0")
    if not 0.0 < s <= 1.0:
        raise ValueError("s must lie in (0, 1]")
    if t <= s:
        raise ValueError("t must exceed s")
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if horizon < 100:
        raise ValueError("horizon too short")
    if s == 1.0:
        if not t < q + 1.0:
            raise ValueError("case s=1 needs t < q + 1")
        case, expo = "a", 1.0 - t
        const = p / (q + 1.0 - t)
    else:
        case, expo = "b", s - t
        const = p / q
    y = _simulate_decay_recursion(q, p, s, t, beta, horizon)
    ks = np.arange(1, horizon + 1, dtype=float)
    tail = ks >= horizon / 10.0
    if p == 0.0:
        # degenerate envelope: check the homogeneous decay rate instead
        if s == 1.0:
            scaled = y * (ks + beta) ** q
            ref = scaled[np.nonzero(ks >= 10)[0][0]]
            worst = float(scaled[tail].max() / ref) if ref > 0 else 0.0
        else:
            worst = 0.0 if float(y[tail].max()) <= y[9] else math.inf
        return ChungCheck(case=case, passed=worst <= 1.0 + tol,
                          worst_tail_ratio=worst, bound_constant=0.0,
                          bound_exponent=(-q if s == 1.0 else expo), horizon=horizon)
    bound = const * (ks + beta) ** expo
    worst = float((y[tail] / bound[tail]).max())
    return ChungCheck(case=case, passed=worst <= 1.0 + tol,
                      worst_tail_ratio=worst, bound_constant=const,
                      bound_exponent=expo, horizon=horizon)


def _simulate_decay_recursion(q, p, s, t, beta, horizon) -> np.ndarray:
    """Exact (equality) simulation of the recursion, stable in log space.

    A short direct prefix is used while the contraction factor may be
    outside (0, 1); the remainder uses cumulative log-sums so the
    homogeneous part can underflow without poisoning the tail.
    """
    ks = np.arange(1, horizon + 1, dtype=float)
    a = 1.0 - q * (ks + beta) ** (-s)
    b = p * (ks + beta) ** (-t)
    k_safe = int(math.ceil(max((2.0 * q) ** (1.0 / s) - beta, 1.0)))
    k_safe = min(max(k_safe, 2), horizon)
    y = np.empty(horizon)
    y[0] = 1.0
    for k in range(1, k_safe):
        y[k] = a[k - 1] * y[k - 1] + b[k - 1]
    if k_safe == horizon:
        return y
    # from k_safe on: y_k = P_k (y0 + sum b_i / P_{i+1}), in logs
    i0 = k_safe - 1
    loga = np.log(a[i0:horizon - 1])
    logP = np.concatenate([[0.0], np.cumsum(loga)])      # P relative to y[i0]
    y0 = max(y[i0], 0.0)                                 # upper envelope if negative
    with np.errstate(divide="ignore"):
        c = np.log(b[i0:horizon - 1]) - logP[1:]
        start = np.log(y0) if y0 > 0 else -np.inf
    acc = np.logaddexp.accumulate(np.concatenate([[start], c]))
    y[i0:] = np.exp(logP + acc)
    return y
