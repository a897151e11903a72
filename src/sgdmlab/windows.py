"""Time-window partition and trajectory diagnostics.

A window budget T (in accumulated step size) partitions the iterations:
gamma_1 = 1 and gamma_{k+1} is the furthest index n >= gamma_k with
delta(gamma_k, n) <= T, but at least gamma_k + 1.  Windows are
Gamma_k = (gamma_k, gamma_{k+1}].  Once alpha_k <= (1-delta)*T every
window's accumulated length lands in [delta*T, T].

``build_partition`` scans the schedule in chunks of at most ``_CHUNK``
steps and keeps gammas, deltas and flags in typed growable buffers, so
the partition holds O(windows + chunk) memory at any horizon: no
full-horizon array of step sizes is read here.  Every accumulated step
size is a running sum in step order, bitwise equal to adding the steps
one at a time.

Per window the diagnostics track the aggregated error s_k (max norm of
step-weighted partial error sums), the iterate spread d_k (max deviation
of x and of the interpolation z from the window anchor), and the merit
ledger at the anchors; ``judge_windows`` checks the spread /
interpolation-gap / descent inequalities and the ledger from the
applicability index K_T on, and ``WindowReport.reduce`` reduces a batch
verdict over the seeds that did not diverge.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .optimizer import MomentumParams
from .problems import Problem
from .schedules import StepSchedule, ScheduleExhaustedError
from .trajectory import InsufficientRecordingError, RunBatch, WindowTrace


class WindowCapError(ValueError):
    """Window budget exceeds the cap under which a bound applies."""


DELTA_APPLICABILITY = 0.99  # step-size margin defining the applicability index
DIAG_TOL = 1e-8             # relative tolerance of the window verdict
_CHUNK = 1 << 16            # most steps the partition scan reads from the schedule at once


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
    """Construct the window partition by scanning accumulated step sizes.

    The schedule is read in slices of at most ``_CHUNK`` steps, so the
    scan holds O(windows + chunk) memory.  A window's accumulated step
    size is a running sum in step order (``np.cumsum`` adds sequentially),
    carried from one slice to the next.  After a window of m steps the
    following windows of length m are tried a block at a time, as the rows
    of a (rows, m) row-wise cumsum; the block doubles after a full accept
    and halves after a reject.  A block is tried only after two windows of
    length m in a row, or while the last block accepted a row: where the
    length changes every window, a block tried after each one would be
    read and rejected each time.  Every row is checked against the budget
    on its own, so the schedule need not be monotone.
    """
    if T <= 0:
        raise ValueError("window budget T must be > 0")
    if horizon < 2:
        raise ValueError("horizon must be >= 2")

    def steps(lo, hi):
        return schedule.at(np.arange(lo, hi))

    gammas, deltas, complete = array("q", [1]), array("d"), bytearray()

    def closed(ends, sums):
        gammas.frombytes(np.asarray(ends, dtype=np.int64).tobytes())
        deltas.frombytes(sums.tobytes())
        complete.extend(b"\x01" * len(sums))

    g, m, rows = 1, 1, 1
    last, hit = 0, False    # length of the last window; whether the last block accepted a row
    while g < horizon:
        # the window anchored at g: accept steps while the running sum s
        # stays within T, in slices that grow up to _CHUNK
        n, s, size = g, 0.0, min(2 * m, _CHUNK)
        while True:
            a = steps(n, min(n + size, horizon))
            a[0] += s
            c = np.cumsum(a)
            k = int(np.searchsorted(c, T, side="right"))
            if k:
                n, s = n + k, c[k - 1]
            if k < len(c) or n == horizon:
                break
            size = min(2 * size, _CHUNK)
        if n == g:
            # alpha_g > T: single-step windows up to the first alpha <= T
            # in the next chunk
            a = steps(g, min(g + _CHUNK, horizon))
            below = np.flatnonzero(a <= T)
            k = int(below[0]) if below.size else len(a)
            closed(np.arange(g + 1, g + k + 1), a[:k])
            g, last = g + k, 1
            continue
        shut = True
        if n == horizon:
            # a window that ends at the horizon is closed only if
            # alpha_horizon is known and would cross the budget
            try:
                shut = bool(s + schedule.step_size(horizon) > T)
            except ScheduleExhaustedError:     # an explicit list may end at alpha_{horizon-1}
                shut = False
        gammas.append(n)
        deltas.append(s)
        complete.append(shut)
        m, g = n - g, n
        try_block, last = m == last or hit, m
        # windows of the same length m, up to ``rows`` at a time; each row
        # needs its sum within T and its sum plus the next step beyond T,
        # and the step after the last row must lie before the horizon
        while try_block and m <= _CHUNK:
            r = min(rows, _CHUNK // m, (horizon - 1 - g) // m)
            if r < 1:
                break
            a = steps(g, g + r * m + 1)
            sums = np.cumsum(a[:-1].reshape(r, m), axis=1)[:, -1]
            ok = (sums <= T) & (sums + a[m::m] > T)
            j = r if ok.all() else int(np.argmin(ok))
            closed(g + m * np.arange(1, j + 1), sums[:j])
            g, hit = g + j * m, j > 0
            if j < r:
                rows = max(r // 2, 1)
                break
            rows = 2 * r
    return WindowPartition(T=float(T), horizon=horizon,
                           gammas=np.frombuffer(gammas, dtype=np.int64),
                           deltas=np.frombuffer(deltas, dtype=float),
                           complete=np.frombuffer(complete, dtype=bool))


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


def verify_window_lengths(partition: WindowPartition, schedule: StepSchedule,
                          delta: float) -> WindowLengthReport:
    """The complete windows whose length leaves [delta*T, T], and ``K_delta``,
    the smallest window index after which delta*T <= Delta_k <= T holds for
    the remaining complete windows."""
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    T = partition.T
    lengths = partition.deltas
    bad = np.nonzero(partition.complete & ((lengths > T) | (lengths < delta * T)))[0]
    K_obs = int(bad[-1]) + 2 if bad.size else 1
    if K_obs > partition.n_windows:
        K_obs = None

    small = np.nonzero(schedule.at(partition.gammas[:-1]) <= (1.0 - delta) * T)[0]
    K_gua = int(small[0]) + 1 if small.size else None
    after = len(bad) if K_gua is None else int(np.searchsorted(bad, K_gua - 1))
    return WindowLengthReport(
        T=T, delta=delta, K_delta=K_obs, K_guarantee=K_gua,
        violation_windows=bad + 1, violation_lengths=lengths[bad],
        first_after_guarantee=after, n_checked=int(partition.complete.sum()))


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
    a = schedule.at(partition.gammas[:-1])
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

    def reduce(self, seed_ok: np.ndarray) -> dict:
        """A batch report reduced over the seeds in ``seed_ok`` (those that
        did not diverge).  With no applicable window or no such seed the
        verdict is vacuous.  Otherwise it counts their violations, takes
        each inequality's least residual over applicable windows and those
        seeds, and the median over them of u at the last window anchor
        over u's maximum from anchor K_T on."""
        out = {"K_T": self.K_T, "vacuous": True, "n_applicable": 0,
               "bounds_violations": 0, "descent_violations": 0,
               "ledger_violations": 0, "min_res_spread": None, "min_res_gap": None,
               "min_res_descent": None, "u_final_over_max": None}
        if not self.applicable.any() or not seed_ok.any():
            return out
        sel = np.ix_(self.applicable, seed_ok)
        umax = self.u[self.start:][:, seed_ok].max(axis=0)
        uend = self.u[-2][seed_ok]          # an applicable window: len(u) >= 2
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(umax > 0, uend / umax, 0.0)
        out.update(
            vacuous=False, n_applicable=self.n_applicable,
            bounds_violations=int(self.bad_spread[:, seed_ok].sum()
                                  + self.bad_gap[:, seed_ok].sum()),
            descent_violations=int(self.bad_descent[:, seed_ok].sum()),
            ledger_violations=int(self.ledger_rise[:, seed_ok].sum()),
            min_res_spread=float(self.res_spread[sel].min()),
            min_res_gap=float(self.res_gap[sel].min()),
            min_res_descent=float(self.res_descent[sel].min()),
            u_final_over_max=float(np.median(ratio)))
        return out


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
# run-facing diagnostics

def _window_trace(run: RunBatch) -> WindowTrace:
    if run.window is None:
        raise InsufficientRecordingError(
            "window diagnostics need the streaming trace of a run over a partition")
    return run.window


def check_windows(run: RunBatch, tol: float = DIAG_TOL) -> WindowReport:
    """The window verdict of a run (see ``judge_windows``), read from its
    streaming window trace with the partition, K_T, problem and momentum
    weights the run was recorded with.  The report's arrays are (window,
    seed); column i equals the report of seed i's one-seed run bitwise.

    Windows at or past the applicability index must have residual
    >= -tol * scale and the ledger M + u must not rise from there on;
    earlier windows are reported, not asserted.  The budget may not
    exceed ``default_window``, the cap under which every bound applies.
    """
    w = _window_trace(run)
    problem, params = run.config["problem"], run.config["params"]
    cap = default_window(problem, params)
    if w.partition.T > cap * (1 + 1e-12):
        raise WindowCapError(f"window budget {w.partition.T:g} exceeds cap {cap:g}")
    return judge_windows(w.partition, w.K_T, w.detail_lo, params.lam, problem.L,
                         w.s, w.spread, w.zx, w.gz, w.merit, w.merit_grad_sq, tol)


@dataclass
class CauchyProfile:
    windows: np.ndarray
    boundary_steps: np.ndarray          # ||x^{gamma_{k+1}} - x^{gamma_k}||
    boundary_cumsum: np.ndarray
    intra_max: np.ndarray               # max_{t in Gamma_k} ||x^t - x^{gamma_k}||
    step_norm_ok: np.ndarray | None = None      # (seed,)
    step_norm_total: np.ndarray | None = None


def cauchy_profile(run: RunBatch) -> CauchyProfile:
    """Boundary-sum partial sums and intra-window max deviations, read from
    a run recorded with a window profile, as (window, seed) arrays.

    The per-step lower-bound summary (count of steps moving at least
    alpha_k, total path length) is attached when the run tracked it.
    """
    w = _window_trace(run)
    if w.boundary_step is None:
        raise InsufficientRecordingError("cauchy profile needs a window profile")
    bs = w.boundary_step
    return CauchyProfile(windows=np.arange(1, w.n_windows + 1),
                         boundary_steps=bs, boundary_cumsum=np.cumsum(bs, axis=0),
                         intra_max=w.xdev,
                         step_norm_ok=run.step_norm_ok,
                         step_norm_total=run.step_norm_total)


@dataclass
class SummabilityProfile:
    partial_sums: np.ndarray
    terms: np.ndarray
    last_decade_ratio: float            # increment over the last step decade / total


def _running_sums(schedule: StepSchedule, ks: np.ndarray) -> np.ndarray:
    """sum_{i<=k} alpha_i for each k of the ascending index array ks, added
    in step order over slices of ``_CHUNK`` steps with the sum carried
    across slices: the same bits as ``np.cumsum(schedule.prefix(n))[ks - 1]``."""
    out = np.empty(len(ks))
    end = int(ks[-1]) + 1 if len(ks) else 1
    s = 0.0
    for lo in range(1, end, _CHUNK):
        hi = min(lo + _CHUNK, end)
        a = schedule.at(np.arange(lo, hi))
        a[0] += s
        c = np.cumsum(a)
        i, j = np.searchsorted(ks, [lo, hi])
        out[i:j] = c[ks[i:j] - lo]
        s = c[-1]
    return out


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
        b = _running_sums(schedule, np.minimum(anchors, partition.horizon - 1)) ** r
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
