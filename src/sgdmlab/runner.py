"""Seed-vectorized trajectory runner.

Trajectories are pure functions of (seed, config): every seed owns a
counter-addressed noise stream, the batched update applies the same
elementwise operations as the single-step reference, and independent
seeds evolve side by side in one array without interacting.  Running a
seed alone or inside a batch yields bitwise-identical records.

Per-window statistics (aggregated error, iterate spread, merit ledger at
anchors) are accumulated streaming so that million-step runs never hold
full iterate histories; a block buffer of recent iterates serves the
scalar record grid and the window segments.
"""

from __future__ import annotations

import numpy as np

from . import windows as win
from .noise import NoiseModel, NoiseStream
from .optimizer import MomentumParams, merit_zeta
from .problems import Problem
from .schedules import StepSchedule
from .trajectory import (RecordingPolicy, RunBatch, Trajectory, WindowTrace,
                         decade_of, n_decades, record_grid)

STEP_NORM_TOL = 1e-12


def _norms_sq(A):
    """Squared Euclidean norms over the trailing axis."""
    return np.einsum("...d,...d->...", A, A)


def _norms(A):
    """Euclidean norms over the trailing axis."""
    return np.sqrt(_norms_sq(A))


class _WindowAccumulator:
    """Streaming per-window statistics over a run batch.

    Each block of iterates is cut into the window segments it touches, and
    every statistic of those windows comes from a fixed number of array
    operations over the block (a segmented scan).  Only the first segment
    carries state in from the previous block and only the last carries
    state out; a single-step window is a segment of length one.
    """

    def __init__(self, partition: win.WindowPartition, K_T: int | None,
                 problem: Problem, params: MomentumParams, n_seeds: int,
                 detail_lo: int, profile: bool, horizon: int,
                 keep_boundaries: bool = False):
        self.part = partition
        self.K_T = K_T
        self.gammas = partition.gammas
        self.W = partition.n_windows
        self.problem = problem
        self.lam = params.lam
        self.zeta = merit_zeta(problem, params)
        self.detail_lo = detail_lo
        S, d = n_seeds, problem.dim
        Wd = max(self.W - detail_lo + 1, 0)
        self.s_arr = np.zeros((Wd, S))
        self.xdev_arr = np.zeros((Wd, S))
        self.zdev_arr = np.zeros((Wd, S))
        nb = Wd + 1 if Wd > 0 else 0
        self.zx_arr = np.zeros((nb, S))
        self.fz_arr = np.zeros((nb, S))
        self.gz_arr = np.zeros((nb, S))
        self.merit_arr = np.zeros((nb, S))
        self.gm2_arr = np.zeros((nb, S))
        self.boundary_step = np.zeros((self.W, S)) if profile else None
        self.boundary_x = np.zeros((self.W + 1, S, d)) if keep_boundaries else None
        self.boundary_xp = np.zeros((self.W + 1, S, d)) if keep_boundaries else None
        nd = n_decades(horizon)
        self.decade_d_sum = np.zeros((nd, S))
        self.decade_d_cnt = np.zeros(nd)
        # state of the open window, carried across block edges
        self.w = 1
        self.anchor_x = None
        self.anchor_z = None
        self.psum = np.zeros((S, d))
        self.smax = np.zeros(S)
        self.xmax = np.zeros(S)
        self.zmax = np.zeros(S)

    def start(self, X1: np.ndarray):
        self.anchor_x = X1.copy()
        self.anchor_z = X1.copy()      # the run starts from a standstill
        if self.boundary_x is not None:
            self.boundary_x[0] = X1
            self.boundary_xp[0] = X1   # x^0 = x^1
        self._anchor_eval(np.array([1]), X1[None], X1[None], np.array([0]))

    def _anchor_eval(self, bidx: np.ndarray, xrows: np.ndarray, zrows: np.ndarray,
                     rows: np.ndarray):
        """Merit ledger at anchors ``bidx`` (ascending), which are the
        iterates ``xrows[rows]`` and interpolations ``zrows[rows]``."""
        j = bidx - self.detail_lo
        keep = slice(np.searchsorted(j, 0), np.searchsorted(j, len(self.zx_arr)))
        j, rows = j[keep], rows[keep]
        if not len(j):
            return
        ax, az = xrows[rows], zrows[rows]
        diff = az - ax
        zx = _norms(diff)
        gzv = self.problem.grad_batch(az)
        fz = self.problem.f_batch(az)
        gblock = gzv + (2.0 * self.zeta) * diff
        self.zx_arr[j] = zx
        self.fz_arr[j] = fz
        self.gz_arr[j] = _norms(gzv)
        self.merit_arr[j] = fz + self.zeta * zx**2
        self.gm2_arr[j] = (4.0 * self.zeta**2) * zx**2 + _norms_sq(gblock)

    def _segment_error_max(self, wrows: np.ndarray, lo: np.ndarray, ln: np.ndarray,
                           seg_of_row: np.ndarray, carry_out: bool):
        """Per segment, the max norm of the restarted prefix sums of its
        rows of wrows, the first segment continuing from the carried partial
        sum; with the last segment's final partial sum if asked.

        Each sum stays sequential within its window, so it is bitwise equal
        to a per-window cumsum.  The rows are laid out position-major with
        the segments sorted by length, so the segments still running at
        position p are a prefix of those at p - 1: one add per position
        advances all of them, with no padding.
        """
        nseg = len(ln)
        order = np.argsort(-ln, kind="stable")
        rank = np.empty(nseg, dtype=np.int64)
        rank[order] = np.arange(nseg)
        running = np.cumsum(np.bincount(ln)[::-1])[::-1][1:]   # segments longer than p
        start = np.concatenate([[0], np.cumsum(running)[:-1]])
        dest = start[np.arange(len(wrows)) - lo[seg_of_row]] + rank[seg_of_row]
        P = np.empty_like(wrows)
        P[dest] = wrows
        P[rank[0]] += self.psum
        prev = 0
        for p0, a in zip(start[1:].tolist(), running[1:].tolist()):
            np.add(P[prev:prev + a], P[p0:p0 + a], out=P[p0:p0 + a])
            prev = p0
        smax = np.maximum.reduceat(_norms(P)[dest], lo, axis=0)
        smax[0] = np.maximum(smax[0], self.smax)
        psum = P[start[ln[-1] - 1] + rank[-1]].copy() if carry_out else None
        return smax, psum

    @staticmethod
    def _segment_dev_max(rows: np.ndarray, anchor: np.ndarray, carried: np.ndarray,
                         lo: np.ndarray, ln: np.ndarray, seg_of_row: np.ndarray):
        """Per-row deviations ||row - anchor of its window|| for rows 1..n and
        their per-segment maxima; the first segment continues from the
        carried anchor and maximum."""
        dev = np.take(rows, lo[seg_of_row], axis=0)
        dev[:ln[0]] = anchor
        np.subtract(rows[1:], dev, out=dev)
        dev = _norms(dev)
        dmax = np.maximum.reduceat(dev, lo, axis=0)
        dmax[0] = np.maximum(dmax[0], carried)
        return dev, dmax

    def process_block(self, b0: int, xrows: np.ndarray, zrows: np.ndarray,
                      wrows: np.ndarray, n: int):
        """Advance windows over iterates x^{b0}..x^{b0+n} (rows 0..n)."""
        w0 = self.w
        if w0 > self.W:
            return
        G = self.gammas
        end = b0 + n
        # windows w0..kc close in this block; an open window may follow
        kc = min(int(np.searchsorted(G, end, side="right")) - 1, self.W)
        open_tail = bool(kc < self.W and G[kc] < end)
        ks = np.arange(w0, kc + 1 + open_tail)
        lo = np.maximum(G[ks - 1] - b0, 0)     # segment rows lo+1 .. hi
        hi = np.minimum(G[ks] - b0, n)
        ln = hi - lo
        seg_of_row = np.repeat(np.arange(len(ks)), ln)

        smax, psum = self._segment_error_max(wrows[:n], lo, ln, seg_of_row, open_tail)
        xdev, xmax = self._segment_dev_max(xrows[:n + 1], self.anchor_x, self.xmax,
                                           lo, ln, seg_of_row)
        if self.lam == 0.0:
            zmax = xmax
        else:
            _, zmax = self._segment_dev_max(zrows[:n + 1], self.anchor_z, self.zmax,
                                            lo, ln, seg_of_row)

        nc = len(ks) - open_tail                # closed windows
        if nc:
            kk, rc = ks[:nc], hi[:nc]
            dst = kk - self.detail_lo
            det = slice(np.searchsorted(dst, 0), nc)
            self.s_arr[dst[det]] = smax[det]
            self.xdev_arr[dst[det]] = xmax[det]
            self.zdev_arr[dst[det]] = zmax[det]
            if self.boundary_step is not None:
                self.boundary_step[kk - 1] = xdev[rc - 1]
            if self.boundary_x is not None:
                self.boundary_x[kk] = xrows[rc]
                self.boundary_xp[kk] = xrows[rc - 1]
            dec = decade_of(G[kk - 1])
            np.add.at(self.decade_d_sum, dec, np.maximum(xmax[:nc], zmax[:nc]))
            np.add.at(self.decade_d_cnt, dec, 1.0)
            self._anchor_eval(kk + 1, xrows, zrows, rc)
            self.anchor_x = xrows[rc[-1]].copy()
            self.anchor_z = zrows[rc[-1]].copy()
            self.w = w0 + nc
        if open_tail:
            self.psum = psum
            self.smax, self.xmax, self.zmax = smax[-1], xmax[-1], zmax[-1]
        else:
            self.psum = np.zeros_like(self.psum)
            self.smax = self.xmax = self.zmax = np.zeros_like(self.smax)

    def finish(self) -> WindowTrace:
        return WindowTrace(
            n_windows=self.W, detail_lo=self.detail_lo,
            s=self.s_arr, xdev=self.xdev_arr, zdev=self.zdev_arr,
            zx=self.zx_arr, f_z=self.fz_arr, gz=self.gz_arr,
            merit=self.merit_arr, merit_grad_sq=self.gm2_arr,
            boundary_step=self.boundary_step,
            decade_d_sum=self.decade_d_sum, decade_d_cnt=self.decade_d_cnt,
            boundary_x=self.boundary_x, boundary_x_prev=self.boundary_xp,
            partition=self.part, K_T=self.K_T)


def run_batch(problem: Problem, params: MomentumParams, schedule: StepSchedule,
              noise: NoiseModel, seeds, horizon: int, x0=None,
              recording: RecordingPolicy | None = None,
              partition: win.WindowPartition | None = None) -> RunBatch:
    """Run one trajectory per seed, vectorized across seeds."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rp = recording or RecordingPolicy()
    seeds = [int(s) for s in seeds]
    S, d = len(seeds), problem.dim
    steps = horizon - 1
    alphas = schedule.prefix(steps)
    if x0 is None:
        x0 = np.ones(d)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (d,):
        raise ValueError(f"x0 must have shape ({d},)")
    noise.check_dim(d)

    config = {"problem": problem, "params": params, "schedule": schedule,
              "noise": noise, "x0": x0.copy(), "horizon": horizon}

    grid = record_grid(horizon, rp)
    G = len(grid)
    rec_f = np.empty((G, S))
    rec_g = np.empty((G, S))
    rec_xz = np.empty((G, S))
    rec_dist = np.empty((G, S)) if problem.x_star is not None else None

    acc = None
    if partition is not None:
        if partition.horizon != horizon:
            raise ValueError("partition horizon must equal the run horizon")
        K_T = win.applicability_index(partition, schedule, problem, params)
        if rp.window_profile or rp.window_detail == "full":
            detail_lo = 1
        elif rp.window_detail == "off" or K_T is None:
            detail_lo = partition.n_windows + 1
        else:
            detail_lo = K_T
        acc = _WindowAccumulator(partition, K_T, problem, params, S, detail_lo,
                                 rp.window_profile, horizon,
                                 keep_boundaries=rp.store_boundary_vectors)

    lam, nu = params.lam, params.nu
    c2 = lam / (1.0 - lam) if lam != 0.0 else 0.0
    streams = [NoiseStream(noise, d, s) for s in seeds]

    X = np.tile(x0, (S, 1))
    Xp = X.copy()
    active = np.ones(S, dtype=bool)
    all_active = True
    mask_col = active[:, None].astype(float)
    diverged_at = np.zeros(S, dtype=np.int64)
    box_exits = np.zeros(S, dtype=np.int64)
    box = problem.box_radius
    cap = rp.divergence_cap

    X_hist = np.empty((horizon, S, d)) if rp.store_vectors else None
    E_hist = np.empty((steps, S, d)) if rp.store_noise else None
    if X_hist is not None:
        X_hist[0] = X
    sn_ok = np.zeros(S, dtype=np.int64) if rp.track_step_norms else None
    sn_total = np.zeros(S) if rp.track_step_norms else None

    if acc is not None:
        acc.start(X)

    # records at k = 1
    gp = 0
    if G and grid[0] == 1:
        rec_f[0] = problem.f_batch(X)
        rec_g[0] = _norms(problem.grad_batch(X))
        rec_xz[0] = 0.0
        if rec_dist is not None:
            rec_dist[0] = _norms(X - problem.x_star)
        gp = 1

    B = max(rp.block_size, 2)
    xrows = np.empty((B + 1, S, d))
    prev_row = None
    for b0 in range(1, steps + 1, B):
        n = min(B, steps + 1 - b0)
        E = np.stack([st.take(n) for st in streams], axis=1)   # (n, S, d)
        if E_hist is not None:
            E_hist[b0 - 1:b0 - 1 + n] = E
        xrows[0] = X
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n):
                dX = X - Xp
                xl = X + nu * dX if nu else X
                g = problem.grad_batch(xl) - E[i]
                dXn = lam * dX - alphas[b0 - 1 + i] * g
                if not all_active:
                    np.multiply(dXn, mask_col, out=dXn)
                Xn = xrows[i + 1]
                np.add(X, dXn, out=Xn)
                Xp = X
                X = Xn
        rows = xrows[:n + 1]
        # divergence scan: non-finite values or norm beyond the cap
        with np.errstate(invalid="ignore", over="ignore"):
            rnorm = _norms(rows[1:])                           # (n, S)
            bad = ~np.isfinite(rows[1:]).all(axis=2) | ~np.isfinite(rnorm) | (rnorm > cap)
        if bad.any():
            for s_idx in np.nonzero(bad.any(axis=0) & active)[0]:
                ib = int(np.argmax(bad[:, s_idx])) + 1
                diverged_at[s_idx] = b0 + ib - 1
                rows[ib:, s_idx] = rows[ib - 1, s_idx]
                active[s_idx] = False
            all_active = False
            mask_col = active[:, None].astype(float)
            X = rows[n].copy()
            Xp = rows[n - 1].copy()
            rnorm = _norms(rows[1:])
        if np.isfinite(box):
            box_exits += (rnorm > box).sum(axis=0)

        if X_hist is not None:
            X_hist[b0:b0 + n] = rows[1:]

        # interpolation rows: z^t = x^t/(1-lam) - lam x^{t-1}/(1-lam)
        if lam == 0.0:
            zrows = rows
        else:
            c1 = 1.0 / (1.0 - lam)
            lagged = np.empty_like(rows)
            lagged[1:] = rows[:-1]
            lagged[0] = rows[0] if b0 == 1 else prev_row
            zrows = rows * c1 - (lam * c1) * lagged
            if b0 == 1:
                zrows[0] = rows[0]      # the run starts from a standstill
            prev_row = rows[n - 1].copy()

        if sn_ok is not None:
            dn = _norms(np.diff(rows, axis=0))
            sn_ok += (dn >= alphas[b0 - 1:b0 - 1 + n, None] - STEP_NORM_TOL).sum(axis=0)
            sn_total += dn.sum(axis=0)

        if acc is not None:
            wrows = E * alphas[b0 - 1:b0 - 1 + n, None, None]
            acc.process_block(b0, rows, zrows, wrows, n)

        while gp < G and grid[gp] <= b0 + n:
            row = int(grid[gp] - b0)
            xk = rows[row]
            rec_f[gp] = problem.f_batch(xk)
            rec_g[gp] = _norms(problem.grad_batch(xk))
            rec_xz[gp] = c2 * _norms(xk - rows[row - 1]) if lam != 0.0 else 0.0
            if rec_dist is not None:
                rec_dist[gp] = _norms(xk - problem.x_star)
            gp += 1

    return RunBatch(
        seeds=seeds, horizon=horizon, config=config, ks=grid,
        f=rec_f, grad_norm=rec_g, dist=rec_dist, xz=rec_xz,
        x_final=X.copy(), x_prev_final=Xp.copy(),
        diverged_at=diverged_at, box_exits=box_exits,
        window=acc.finish() if acc is not None else None,
        X_hist=X_hist, E_hist=E_hist,
        step_norm_ok=sn_ok, step_norm_total=sn_total)


def run_trajectory(problem: Problem, params: MomentumParams, schedule: StepSchedule,
                   noise: NoiseModel, seed: int, horizon: int, x0=None,
                   recording: RecordingPolicy | None = None,
                   partition: win.WindowPartition | None = None) -> Trajectory:
    """Single-seed run; identical to the matching slice of any batch."""
    batch = run_batch(problem, params, schedule, noise, [seed], horizon,
                      x0=x0, recording=recording, partition=partition)
    return batch.trajectory(0)
