"""Time-window partition and trajectory diagnostics.

A window budget T (in accumulated step size) partitions the iterations:
gamma_1 = 1 and gamma_{k+1} is the furthest index n >= gamma_k with
delta(gamma_k, n) <= T, but at least gamma_k + 1.  Windows are
Gamma_k = (gamma_k, gamma_{k+1}].  Once alpha_k <= (1-delta)*T every
window's accumulated length lands in [delta*T, T].

Per window the diagnostics track the aggregated error s_k (max norm of
step-weighted partial error sums), the iterate spread d_k (max deviation
of x and of the interpolation z from the window anchor), and the merit
ledger at the anchors; ``judge_windows`` checks the spread /
interpolation-gap / descent inequalities and the ledger from the
applicability index K_T on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import NoiseStream
from .optimizer import MomentumParams, merit_zeta
from .problems import Problem
from .schedules import StepSchedule, ScheduleExhaustedError
from .trajectory import InsufficientRecordingError, Trajectory


class WindowCapError(ValueError):
    """Window budget exceeds the cap under which a bound applies."""


DELTA_APPLICABILITY = 0.99  # step-size margin defining the applicability index


def default_window(problem: Problem, params: MomentumParams) -> float:
    """Largest window budget under which all window diagnostics apply:
    T = (1-lam)^3 / (50 L (1+2 nu)^2).  Callers may override downward."""
    if problem.L <= 0:
        raise ValueError("problem needs L > 0")
    lam, nu = params.lam, params.nu
    return (1.0 - lam) ** 3 / (50.0 * problem.L * (1.0 + 2.0 * nu) ** 2)


@dataclass(frozen=True)
class WindowPartition:
    """Partition of (1, horizon] into windows (gamma_k, gamma_{k+1}].

    ``gammas`` holds gamma_1 .. gamma_{W+1}; ``deltas[k]`` is the
    accumulated step size of window k+1 (0-based), and ``complete[k]``
    records whether its right edge was determined by the budget rather
    than by running out of horizon (or of explicit schedule entries).
    """

    T: float
    horizon: int
    gammas: np.ndarray
    deltas: np.ndarray
    complete: np.ndarray

    @property
    def n_windows(self) -> int:
        return len(self.gammas) - 1

    def window_range(self, k: int) -> tuple[int, int]:
        """(gamma_k, gamma_{k+1}] for 1-based window index k."""
        return int(self.gammas[k - 1]), int(self.gammas[k])


def build_partition(schedule: StepSchedule, T: float, horizon: int) -> WindowPartition:
    """Construct the window partition by scanning accumulated step sizes."""
    if T <= 0:
        raise ValueError("window budget T must be > 0")
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    try:
        alphas = schedule.prefix(horizon)
    except ScheduleExhaustedError:
        alphas = schedule.prefix(min(horizon - 1, len(schedule.values)))
        if len(alphas) < horizon - 1:
            raise
    a = alphas.tolist()
    gammas = [1]
    deltas: list[float] = []
    complete: list[bool] = []
    g = 1
    while g < horizon:
        if a[g - 1] > T:
            # forced single-step stretch: alpha non-increasing, so windows
            # stay single-step until the first index with alpha <= T
            rest = alphas[g - 1:horizon - 1]
            below = np.nonzero(rest <= T)[0]
            stop = g + int(below[0]) if below.size else horizon
            gammas.extend(range(g + 1, stop + 1))
            deltas.extend(a[g - 1:stop - 1])
            complete.extend([True] * (stop - g))
            g = stop
            continue
        s = 0.0
        n = g
        while n < horizon and n - 1 < len(a) and s + a[n - 1] <= T:
            s += a[n - 1]
            n += 1
        if n < horizon and n - 1 < len(a):
            closed = True          # next step would exceed the budget
        elif n == horizon:
            closed = n - 1 < len(a) and s + a[n - 1] > T
        else:
            closed = False         # explicit schedule exhausted
        gammas.append(n)
        deltas.append(s)
        complete.append(closed)
        g = n
    return WindowPartition(T=float(T), horizon=horizon,
                           gammas=np.asarray(gammas, dtype=np.int64),
                           deltas=np.asarray(deltas, dtype=float),
                           complete=np.asarray(complete, dtype=bool))


@dataclass
class WindowLengthReport:
    """Observed and guaranteed stabilization of window lengths.

    The complete windows whose length leaves [delta*T, T] are held as two
    arrays; ``violations`` lists them as (window, length) pairs on request.
    """

    T: float
    delta: float
    K_delta: int | None                # observed: bounds hold from here on
    K_guarantee: int | None            # first window with alpha <= (1-delta)T
    violation_windows: np.ndarray      # 1-based indices, ascending
    violation_lengths: np.ndarray      # their accumulated step sizes
    first_after_guarantee: int         # first entry at or past K_guarantee (or none)
    n_checked: int

    @property
    def n_violations(self) -> int:
        return len(self.violation_windows)

    @property
    def n_violations_after_guarantee(self) -> int:
        return self.n_violations - self.first_after_guarantee

    def _pairs(self, start: int = 0) -> list[tuple[int, float]]:
        return list(zip(self.violation_windows[start:].tolist(),
                        self.violation_lengths[start:].tolist()))

    @property
    def violations(self) -> list[tuple[int, float]]:
        """All complete-window violations as (window, length) pairs."""
        return self._pairs()

    @property
    def violations_after_guarantee(self) -> list[tuple[int, float]]:
        return self._pairs(self.first_after_guarantee)

    @property
    def ok(self) -> bool:
        return self.n_violations_after_guarantee == 0


def _anchor_step_sizes(partition: WindowPartition, schedule: StepSchedule) -> np.ndarray:
    """alpha_{gamma_k} for every window anchor, read from the schedule prefix
    (an explicit schedule may hold exactly horizon - 1 values)."""
    return schedule.prefix(partition.horizon - 1)[partition.gammas[:-1] - 1]


def verify_window_lengths(partition: WindowPartition, schedule: StepSchedule,
                          delta: float) -> tuple[int | None, WindowLengthReport]:
    """Smallest window index after which delta*T <= Delta_k <= T holds for
    the remaining complete windows, with the violation list."""
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    T = partition.T
    lengths = partition.deltas
    bad = np.nonzero(partition.complete & ((lengths > T) | (lengths < delta * T)))[0]
    K_obs = int(bad[-1]) + 2 if bad.size else 1
    if K_obs > partition.n_windows:
        K_obs = None

    small = np.nonzero(_anchor_step_sizes(partition, schedule) <= (1.0 - delta) * T)[0]
    K_gua = int(small[0]) + 1 if small.size else None
    after = len(bad) if K_gua is None else int(np.searchsorted(bad, K_gua - 1))
    report = WindowLengthReport(
        T=T, delta=delta, K_delta=K_obs, K_guarantee=K_gua,
        violation_windows=bad + 1, violation_lengths=lengths[bad],
        first_after_guarantee=after, n_checked=int(partition.complete.sum()))
    return K_obs, report


def applicability_index(partition: WindowPartition, schedule: StepSchedule,
                        problem: Problem, params: MomentumParams,
                        delta: float = DELTA_APPLICABILITY) -> int | None:
    """First window index from which every proof-side step condition holds:

        alpha_{gamma_k} <= (1-delta) T
        L nu   alpha_{gamma_k} <= lam * iota,  iota = min(1/10, nu(1-lam)/(1+2nu))/10
        L nu^2 alpha_{gamma_k} <= lam^2 / 80

    Returns None when no in-horizon window qualifies (diagnostics are then
    vacuous for the run).
    """
    lam, nu, L = params.lam, params.nu, problem.L
    T = partition.T
    a = _anchor_step_sizes(partition, schedule)
    iota = min(0.1, nu * (1.0 - lam) / (1.0 + 2.0 * nu)) / 10.0
    ok = (a <= (1.0 - delta) * T) \
        & (L * nu * a <= lam * iota) \
        & (L * nu**2 * a <= lam**2 / 80.0)
    idx = np.nonzero(ok)[0]
    return int(idx[0]) + 1 if idx.size else None


# ---------------------------------------------------------------------------
# residual cores and the window verdict (array-valued, one seed or a batch)

def spread_residual(T, lam, s, zx, gz, spread):
    """RHS - LHS of the spread bound  d_k^2 <= 1.5 zx^2 + 15 (T^2 gz^2 + s^2)/(1-lam)^2."""
    lhs = spread**2
    rhs = 1.5 * zx**2 + 15.0 * (T**2 * gz**2 + s**2) / (1.0 - lam) ** 2
    return rhs - lhs, 1.0 + np.abs(lhs) + np.abs(rhs)


def gap_residual(T, lam, s, zx, gz, zx_next):
    """RHS - LHS of the interpolation-gap recursion
    zx_next^2 <= (1+lam)/2 zx^2 + 8 (T^2 gz^2 + 4 s^2)/(1-lam)^3."""
    lhs = zx_next**2
    rhs = 0.5 * (1.0 + lam) * zx**2 + 8.0 * (T**2 * gz**2 + 4.0 * s**2) / (1.0 - lam) ** 3
    return rhs - lhs, 1.0 + np.abs(lhs) + np.abs(rhs)


def descent_residual(T, lam, L, s, spread, merit, merit_next, merit_grad_sq):
    """RHS - LHS of the approximate merit descent
    M_{k+1} + L/12 d_k^2 + T ||grad M_k||^2 / (100 (1-lam)) <= M_k + 8 s_k^2/((1-lam) T)."""
    lhs = merit_next + (L / 12.0) * spread**2 + T * merit_grad_sq / (100.0 * (1.0 - lam))
    rhs = merit + 8.0 * s**2 / ((1.0 - lam) * T)
    return rhs - lhs, 1.0 + np.abs(merit)


def tail_error_sums(s: np.ndarray, T: float, lam: float) -> np.ndarray:
    """u_k = 8/((1-lam) T) * suffix sums of s_i^2 along axis 0, truncated at
    the horizon, for (windows,) or (windows, seeds) arrays.  Returned with
    one trailing row of zeros so it aligns with window anchors."""
    sq = np.asarray(s, dtype=float) ** 2
    suf = np.concatenate([np.cumsum(sq[::-1], axis=0)[::-1],
                          np.zeros((1,) + sq.shape[1:])])
    return 8.0 / ((1.0 - lam) * T) * suf


@dataclass
class WindowReport:
    """The window verdict over windows lo..W, for one seed ((window,)
    arrays) or a seed batch ((window, seed) arrays).

    Residuals are RHS - LHS for every window; only the ``applicable``
    windows (complete, at or past K_T) are asserted, and the ``bad_*``
    masks flag those whose residual is below -tol * scale.  The ledger
    M + u lives on anchors lo..W+1; ``ledger_rise[j]`` flags a rise from
    anchor lo+j to lo+j+1, counted from anchor K_T (offset ``start``) on.
    """

    K_T: int | None
    windows: np.ndarray                 # lo..W
    applicable: np.ndarray              # (window,)
    res_spread: np.ndarray
    res_gap: np.ndarray
    res_descent: np.ndarray
    bad_spread: np.ndarray
    bad_gap: np.ndarray
    bad_descent: np.ndarray
    u: np.ndarray                       # tail error sums at anchors, truncated
    ledger: np.ndarray                  # M_k + u_k at anchors
    ledger_rise: np.ndarray
    start: int                          # anchor offset the ledger is checked from

    @property
    def n_applicable(self) -> int:
        return int(self.applicable.sum())

    def _listed(self, mask, values, *name) -> list[tuple]:
        return [(int(self.windows[ix[0]]), *map(int, ix[1:]), *name, float(values[ix]))
                for ix in zip(*np.nonzero(mask))]

    @property
    def violations(self) -> list[tuple]:
        """Asserted violations as (window, [seed,] inequality, residual)."""
        return (self._listed(self.bad_spread, self.res_spread, "spread")
                + self._listed(self.bad_gap, self.res_gap, "gap")
                + self._listed(self.bad_descent, self.res_descent, "descent"))

    @property
    def ledger_violations(self) -> list[tuple]:
        """Ledger rises as (anchor, [seed,] rise)."""
        return self._listed(self.ledger_rise, np.diff(self.ledger, axis=0))


def judge_windows(partition: WindowPartition, K_T: int | None, lo: int,
                  lam: float, L: float, s, spread, zx, gz, merit, merit_grad_sq,
                  tol: float) -> WindowReport:
    """The spread, interpolation-gap and descent residuals of windows
    lo..W and the M + u ledger, judged from the applicability index K_T on
    (None: nothing is applicable).

    ``s`` and ``spread`` hold windows lo..W; ``zx``, ``gz``, ``merit`` and
    ``merit_grad_sq`` hold anchors lo..W+1.  Each is (window,) for one
    seed or (window, seed) for a batch; a batch report's columns equal
    the one-seed reports bitwise.
    """
    T, W = partition.T, partition.n_windows
    K = W + 1 if K_T is None else K_T
    idx = np.arange(lo, W + 1)
    applicable = partition.complete[lo - 1:] & (idx >= K)
    app = applicable.reshape((-1,) + (1,) * (np.ndim(s) - 1))
    rs, sc_s = spread_residual(T, lam, s, zx[:-1], gz[:-1], spread)
    rg, sc_g = gap_residual(T, lam, s, zx[:-1], gz[:-1], zx[1:])
    rd, sc_d = descent_residual(T, lam, L, s, spread, merit[:-1], merit[1:],
                                merit_grad_sq[:-1])
    u = tail_error_sums(s, T, lam)
    ledger = merit + u
    start = max(K - lo, 0)
    rise = ledger[1:] > ledger[:-1] + tol * (1.0 + np.abs(ledger[:-1]))
    rise[:start] = False
    return WindowReport(
        K_T=K_T, windows=idx, applicable=applicable,
        res_spread=rs, res_gap=rg, res_descent=rd,
        bad_spread=app & (rs < -tol * sc_s), bad_gap=app & (rg < -tol * sc_g),
        bad_descent=app & (rd < -tol * sc_d),
        u=u, ledger=ledger, ledger_rise=rise, start=start)


# ---------------------------------------------------------------------------
# trajectory-facing diagnostics

def _require_same_horizon(traj: Trajectory, partition: WindowPartition):
    if traj.horizon != partition.horizon:
        raise ValueError("partition horizon does not match trajectory horizon")


def _z_rows(X: np.ndarray, lam: float) -> np.ndarray:
    """Interpolation sequence from the iterate history; z^1 = x^1."""
    if lam == 0.0:
        return X
    c = 1.0 / (1.0 - lam)
    Z = np.empty_like(X)
    Z[0] = X[0]
    Z[1:] = X[1:] * c - (lam * c) * X[:-1]
    return Z


def aggregate_errors(traj: Trajectory, partition: WindowPartition) -> np.ndarray:
    """s_k = max_{t in Gamma_k} || sum_{i=gamma_k}^{t-1} alpha_i e^i || per window.

    Uses the stored noise log when present, otherwise replays the stream.
    """
    _require_same_horizon(traj, partition)
    schedule: StepSchedule = traj.config["schedule"]
    alphas = schedule.prefix(traj.horizon - 1)
    if traj.E_hist is not None:
        fetch = lambda lo, n: traj.E_hist[lo - 1:lo - 1 + n]
    else:
        noise = traj.config.get("noise")
        problem = traj.config.get("problem")
        if noise is None or problem is None:
            raise InsufficientRecordingError("no noise log and no replayable stream")
        stream = NoiseStream(noise, problem.dim, traj.seed)
        fetch = lambda lo, n: stream.take(n)
    out = np.empty(partition.n_windows)
    for k in range(partition.n_windows):
        lo, hi = partition.gammas[k], partition.gammas[k + 1]
        n = int(hi - lo)
        E = fetch(int(lo), n)
        W = E * alphas[lo - 1:hi - 1, None]
        P = np.cumsum(W, axis=0)
        out[k] = np.sqrt(np.einsum("nd,nd->n", P, P)).max()
    return out


def iterate_spread(traj: Trajectory, partition: WindowPartition, lam: float) -> np.ndarray:
    """d_k = max over the window of the deviations of x and z from the anchor."""
    _require_same_horizon(traj, partition)
    if traj.window is not None and traj.window.detail_lo == 1 \
            and traj.window.n_windows == partition.n_windows:
        return traj.window.spread.copy()
    if traj.X_hist is None:
        raise InsufficientRecordingError(
            "iterate spread needs stored vectors or streaming window detail")
    X = traj.X_hist
    Z = _z_rows(X, lam)
    out = np.empty(partition.n_windows)
    for k in range(partition.n_windows):
        lo, hi = int(partition.gammas[k]), int(partition.gammas[k + 1])
        dx = X[lo:hi] - X[lo - 1]
        dz = Z[lo:hi] - Z[lo - 1]
        mx = np.sqrt(np.einsum("nd,nd->n", dx, dx)).max()
        mz = np.sqrt(np.einsum("nd,nd->n", dz, dz)).max()
        out[k] = max(mx, mz)
    return out


def _window_quantities(traj: Trajectory, partition: WindowPartition,
                       problem: Problem, params: MomentumParams):
    """(lo, s, spread, zx, gz, merit, merit_grad_sq) for windows lo..W and
    anchors lo..W+1; from the streaming trace when available, else from the
    stored iterate history."""
    _require_same_horizon(traj, partition)
    w = traj.window
    if w is not None and w.n_windows == partition.n_windows and w.s.shape[0] > 0 \
            and w.zx.shape[0] == w.s.shape[0] + 1:
        return (w.detail_lo, w.s, w.spread, w.zx, w.gz, w.merit, w.merit_grad_sq)
    if traj.X_hist is None:
        raise InsufficientRecordingError(
            "window diagnostics need streaming window detail or stored vectors")
    lam = params.lam
    X = traj.X_hist
    Z = _z_rows(X, lam)
    s = aggregate_errors(traj, partition)
    spread = iterate_spread(traj, partition, lam)
    anchors = partition.gammas - 1          # rows of the anchor iterates
    ax = X[anchors]
    az = Z[anchors]
    diff = az - ax
    zx = np.sqrt(np.einsum("nd,nd->n", diff, diff))
    gzv = problem.grad_batch(az)
    gz = np.sqrt(np.einsum("nd,nd->n", gzv, gzv))
    zeta = merit_zeta(problem, params)
    merit = problem.f_batch(az) + zeta * zx**2
    gblock = gzv + (2.0 * zeta) * diff
    merit_grad_sq = (4.0 * zeta**2) * zx**2 + np.einsum("nd,nd->n", gblock, gblock)
    return (1, s, spread, zx, gz, merit, merit_grad_sq)


def check_windows(traj: Trajectory, partition: WindowPartition,
                  problem: Problem, params: MomentumParams,
                  tol: float = 1e-8) -> WindowReport:
    """The window verdict of one trajectory (see ``judge_windows``).

    Windows at or past the applicability index must have residual
    >= -tol * scale and the ledger M + u must not rise from there on;
    earlier windows are reported, not asserted.  The budget may not
    exceed ``default_window``, the cap under which every bound applies.
    """
    cap = default_window(problem, params)
    if partition.T > cap * (1 + 1e-12):
        raise WindowCapError(f"window budget {partition.T:g} exceeds cap {cap:g}")
    K_T = applicability_index(partition, traj.config["schedule"], problem, params)
    lo, s, spread, zx, gz, merit, gm2 = _window_quantities(traj, partition, problem, params)
    return judge_windows(partition, K_T, lo, params.lam, problem.L,
                         s, spread, zx, gz, merit, gm2, tol)


@dataclass
class CauchyProfile:
    windows: np.ndarray
    boundary_steps: np.ndarray          # ||x^{gamma_{k+1}} - x^{gamma_k}||
    boundary_cumsum: np.ndarray
    intra_max: np.ndarray               # max_{t in Gamma_k} ||x^t - x^{gamma_k}||
    step_norm_ok: int | None = None
    step_norm_total: float | None = None


def cauchy_profile(traj: Trajectory, partition: WindowPartition) -> CauchyProfile:
    """Boundary-sum partial sums and intra-window max deviations.

    The per-step lower-bound summary (count of steps moving at least
    alpha_k, total path length) is attached when the run tracked it.
    """
    _require_same_horizon(traj, partition)
    w = traj.window
    if w is not None and w.boundary_step is not None and w.detail_lo == 1 \
            and w.n_windows == partition.n_windows:
        bs = w.boundary_step
        intra = w.xdev
    elif w is not None and w.boundary_x is not None and w.detail_lo == 1 \
            and w.n_windows == partition.n_windows:
        diffs = w.boundary_x[1:] - w.boundary_x[:-1]
        bs = np.sqrt(np.einsum("...d,...d->...", diffs, diffs))
        intra = w.xdev
    elif traj.X_hist is not None:
        X = traj.X_hist
        anchors = partition.gammas - 1
        diffs = X[anchors[1:]] - X[anchors[:-1]]
        bs = np.sqrt(np.einsum("nd,nd->n", diffs, diffs))
        intra = np.empty(partition.n_windows)
        for k in range(partition.n_windows):
            lo, hi = int(partition.gammas[k]), int(partition.gammas[k + 1])
            dx = X[lo:hi] - X[lo - 1]
            intra[k] = np.sqrt(np.einsum("nd,nd->n", dx, dx)).max()
    else:
        raise InsufficientRecordingError(
            "cauchy profile needs boundary vectors or a window profile")
    return CauchyProfile(windows=np.arange(1, partition.n_windows + 1),
                         boundary_steps=bs, boundary_cumsum=np.cumsum(bs),
                         intra_max=intra,
                         step_norm_ok=traj.step_norm_ok,
                         step_norm_total=traj.step_norm_total)


@dataclass
class SummabilityProfile:
    partial_sums: np.ndarray
    terms: np.ndarray
    last_decade_ratio: float            # increment over the last step decade / total


def summability_profile(s, partition: WindowPartition, schedule: StepSchedule,
                        beta="unit") -> SummabilityProfile:
    """Partial sums of beta_{gamma_k}^2 s_k^2.

    beta: "unit", ("power", r) for beta_k = (sum_{i<=k} alpha_i)^r, or a
    callable on the anchor index array.  A plateauing stream (small
    last-decade ratio) is the finite-horizon face of summability.
    """
    s = np.asarray(s, dtype=float)
    if len(s) != partition.n_windows:
        raise ValueError("need one aggregated error per window")
    anchors = partition.gammas[:-1]
    if beta == "unit":
        b = np.ones(len(anchors))
    elif isinstance(beta, tuple) and beta[0] == "power":
        r = float(beta[1])
        csum = np.cumsum(schedule.prefix(partition.horizon - 1))
        b = csum[np.minimum(anchors, partition.horizon - 1) - 1] ** r
    elif callable(beta):
        b = np.asarray(beta(anchors), dtype=float)
    else:
        raise ValueError(f"unknown beta spec {beta!r}")
    terms = b**2 * s**2
    part = np.cumsum(terms)
    total = part[-1] if len(part) else 0.0
    if total > 0:
        cut = partition.horizon / 10.0
        before = part[anchors <= cut]
        base = before[-1] if len(before) else 0.0
        ratio = float((total - base) / total)
    else:
        ratio = 0.0
    return SummabilityProfile(partial_sums=part, terms=terms, last_decade_ratio=ratio)
