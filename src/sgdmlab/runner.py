"""Seed-vectorized trajectory runner.

Trajectories are pure functions of (seed, config): every seed owns a
counter-addressed noise stream, the batched update applies the same
elementwise operations to every seed's row, and independent seeds
evolve side by side in one array without interacting.  A seed's run
alone, run_batch(..., [seed], ...), and its column of any batch are
bitwise identical.

Per-window statistics (aggregated error, iterate spread, merit ledger at
anchors) are accumulated streaming so that million-step runs never hold
full iterate histories; a ring of block buffers serves the scalar record
grid and the window segments.  The ring is shared by two threads (a
two-stage pipeline): a noise thread draws the noise ahead, and the caller
runs the momentum steps and then consumes each finished block itself.  The
ring holds row slots only: the noise thread draws a block's noise into rows
1..n of its slot, where the steps read it and overwrite it, and forms the
block's error sums at draw time; it reuses a slot only once the caller has
freed it.  A run's ring is RING_SLOTS (B+1) S d 8 bytes for blocks of B
steps, 9.8 MB at S = 20 seeds and d = 10.

The momentum steps, the window spreads, the error sums and gaussian
normals run in C where the one compiled library (_ckernel) loads, in numpy
elsewhere, with the same bits.  run_batch loads it before the noise thread
starts.  A block of steps is one C call where grad_batch
declares an exact elementwise form (quadratic; even_power with p = 1, or
p = 2 at d = 1), else _Steps in numpy; either writes the new rows' norms,
which the divergence scan reads.  The window spreads of a block
(interpolation rows, distances to the window anchors, per-window maxima)
are one C call for every problem (_ckernel.Spreads), else _Spreads in
numpy, and its record grid is one f_batch and one grad_batch call.  The
noise thread fills each block through the run's noise.BlockNoise, which
also returns the maxima s_k of the windows the block touches and carries
the open window's sum: gaussian noise in one C call, the block draw of
_cnoise, in tiles of rows that every seed fills in turn, with each tile's
error sums formed while it is in cache.  Other noise is drawn stream by
stream from numpy's Generator and summed by the same C call without
drawing.  Where the library does not load, numpy's Generator draws and
_cnoise.sums_numpy sums.
"""

from __future__ import annotations

import contextlib

import numpy as np

from . import windows as win
from .noise import BlockNoise, NoiseModel
from .optimizer import MomentumParams, merit_zeta
from .problems import Problem
from .schedules import StepSchedule
from .trajectory import (RecordingPolicy, RunBatch, WindowTrace, decade_of, n_decades,
                         record_grid)

STEP_NORM_TOL = 1e-12


def _norms_sq(A, out=None):
    """Squared Euclidean norms over the trailing axis."""
    return np.einsum("...d,...d->...", A, A, out=out)


def _norms(A, out=None):
    """Euclidean norms over the trailing axis."""
    return np.sqrt(_norms_sq(A, out), out=out)


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


def _interpolate(x: np.ndarray, xprev: np.ndarray, lam: float, out=None) -> np.ndarray:
    """The interpolations z = x/(1-lam) - lam xprev/(1-lam) of the iterates x
    from their predecessors xprev, as the compiled window spreads form them:
    x c1 - xprev (lam c1) with c1 = 1/(1-lam)."""
    c1 = 1.0 / (1.0 - lam)
    z = np.multiply(x, c1, out=out)
    return np.subtract(z, xprev * (lam * c1), out=z)


class _Spreads:
    """The numpy window spreads of a block: the fallback of the compiled
    pass (_ckernel.Spreads) where the library does not load, and its oracle.

    run(rows, lo, ax, xc, az, zc, last) takes the block's iterates
    x^{b0}..x^{b0+n} (rows 0..n) cut into segments, segment k the rows
    lo[k] + 1 .. lo[k + 1] (the last through n), each anchored at its row
    lo[k].  It returns, per segment and seed, the largest distance of an
    iterate to its anchor (xmax), the same for the interpolations z^t
    (zmax; xmax itself at lam = 0), and the distance at each segment's last
    row if last, else None.  The first segment's anchors ax, az and maxima
    xc, zc are carried from the block before, so z^{b0} is never read.
    """

    def __init__(self, lam: float):
        self.lam = lam

    def run(self, rows, lo, ax, xc, az, zc, last: bool):
        ln = np.diff(lo, append=len(rows) - 1)
        seg_of_row = np.repeat(np.arange(len(lo)), ln)
        xdev, xmax = _segment_dev_max(rows, ax, xc, lo, ln, seg_of_row)
        zmax = xmax
        if self.lam != 0.0:
            Z = np.empty_like(rows)
            _interpolate(rows[1:], rows[:-1], self.lam, out=Z[1:])
            _, zmax = _segment_dev_max(Z, az, zc, lo, ln, seg_of_row)
        return xmax, zmax, xdev[lo + ln - 1] if last else None


class _WindowAccumulator:
    """Streaming per-window statistics over a run batch.

    Each block of iterates is cut into the window segments it touches, and
    every statistic of those windows comes from a fixed number of array
    operations over the block (a segmented scan).  Only the first segment
    carries state in from the previous block and only the last carries
    state out; a single-step window is a segment of length one.  The
    aggregated errors s_k are formed where the noise is drawn: the noise
    thread's fill (noise.BlockNoise.fill) forms them over the segments of
    error_plan from the carried psum and smax, and process_noise only
    stores them.  The noise thread alone touches ew, psum, smax and s_arr
    until it has been joined; finish reads them after that.
    """

    def __init__(self, partition: win.WindowPartition, K_T: int | None,
                 problem: Problem, params: MomentumParams, n_seeds: int,
                 detail_lo: int, profile: bool, horizon: int,
                 keep_boundaries: bool = False, spreads=None):
        self.part = partition
        self.K_T = K_T
        self.gammas = partition.gammas
        self.W = partition.n_windows
        self.problem = problem
        self.lam = params.lam
        # the window spreads of a block: _Spreads, or its compiled counterpart
        self.spreads = _Spreads(params.lam) if spreads is None else spreads
        self.zeta = merit_zeta(problem, params)
        self.detail_lo = detail_lo
        S, d = n_seeds, problem.dim
        Wd = max(self.W - detail_lo + 1, 0)
        self.s_arr = np.zeros((Wd, S))
        self.xdev_arr = np.zeros((Wd, S))
        self.zdev_arr = np.zeros((Wd, S))
        nb = Wd + 1 if Wd > 0 else 0
        self.zx_arr = np.zeros((nb, S))
        self.gz_arr = np.zeros((nb, S))
        self.merit_arr = np.zeros((nb, S))
        self.gm2_arr = np.zeros((nb, S))
        self.boundary_step = np.zeros((self.W, S)) if profile else None
        self.boundary_x = np.zeros((self.W + 1, S, d)) if keep_boundaries else None
        self.boundary_xp = np.zeros((self.W + 1, S, d)) if keep_boundaries else None
        nd = n_decades(horizon)
        self.decade_d_sum = np.zeros((nd, S))
        self.decade_d_cnt = np.zeros(nd)
        # state of the open window, carried across block edges: the error
        # sums (cursor ew) run ahead of the iterate statistics (cursor w);
        # the noise fill keeps the open window's sum in psum, in place
        self.w = self.ew = 1
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
        if self.detail_lo == 1 and len(self.zx_arr):
            self._ledger(np.array([0]), X1[None], X1[None])

    def _z(self, xrows: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The interpolations z at rows (>= 1) of xrows."""
        if self.lam == 0.0:
            return xrows[rows]
        return _interpolate(xrows[rows], xrows[rows - 1], self.lam)

    def _anchor_eval(self, bidx: np.ndarray, xrows: np.ndarray, rows: np.ndarray):
        """Merit ledger at anchors ``bidx`` (ascending), which are the
        iterates ``xrows[rows]`` (rows >= 1)."""
        j = bidx - self.detail_lo
        keep = slice(np.searchsorted(j, 0), np.searchsorted(j, len(self.zx_arr)))
        if keep.start < keep.stop:
            rows = rows[keep]
            self._ledger(j[keep], xrows[rows], self._z(xrows, rows))

    def _ledger(self, j: np.ndarray, ax: np.ndarray, az: np.ndarray):
        """Merit ledger at the anchors j - detail_lo, the iterates ax and
        interpolations az."""
        diff = az - ax
        zx = _norms(diff)
        gzv = self.problem.grad_batch(az)
        fz = self.problem.f_batch(az)
        gblock = gzv + (2.0 * self.zeta) * diff
        self.zx_arr[j] = zx
        self.gz_arr[j] = _norms(gzv)
        self.merit_arr[j] = fz + self.zeta * zx**2
        self.gm2_arr[j] = (4.0 * self.zeta**2) * zx**2 + _norms_sq(gblock)

    def _segments(self, w0: int, b0: int, n: int):
        """The windows w0.. that a block's rows 1..n (x^{b0+1}..x^{b0+n}, or
        e^{b0}..e^{b0+n-1}) touch: their numbers ks, rows lo+1..hi, and
        whether the last window stays open past the block."""
        G = self.gammas
        end = b0 + n
        # windows w0..kc close in this block; an open window may follow
        kc = min(int(np.searchsorted(G, end, side="right")) - 1, self.W)
        open_tail = bool(kc < self.W and G[kc] < end)
        ks = np.arange(w0, kc + 1 + open_tail)
        lo = np.maximum(G[ks - 1] - b0, 0)
        hi = np.minimum(G[ks] - b0, n)
        return ks, lo, hi, open_tail

    def error_plan(self, b0: int, n: int):
        """The window segments (as _segments gives them) of the error sums
        over the noise e^{b0}..e^{b0+n-1}, or None if the block forms no
        sums.  The sums read only the noise and the step sizes, so they keep
        their own window cursor and carry; this advances the cursor."""
        w0 = self.ew
        if w0 > self.W:
            return None
        plan = self._segments(w0, b0, n)
        ks, open_tail = plan[0], plan[-1]
        self.ew = w0 + len(ks) - open_tail
        # s_k is stored only from detail_lo on: a block whose windows all lie
        # before it skips the sums, and the carry it leaves is never read
        return None if ks[-1] < self.detail_lo else plan

    def process_noise(self, plan, smax: np.ndarray):
        """Store the error-sum maxima smax (one row per window in plan) that
        the block's noise fill formed from the carried psum and smax; the
        fill left the open window's sum in psum."""
        ks, _, _, open_tail = plan
        nc = len(ks) - open_tail                # closed windows
        dst = ks[:nc] - self.detail_lo
        det = slice(np.searchsorted(dst, 0), nc)
        self.s_arr[dst[det]] = smax[det]
        if open_tail:
            self.smax = smax[-1]
        else:
            self.psum.fill(0.0)
            self.smax = np.zeros_like(self.smax)

    def process_block(self, b0: int, xrows: np.ndarray, n: int):
        """Advance the iterate statistics over x^{b0}..x^{b0+n} (rows 0..n)."""
        w0 = self.w
        if w0 > self.W:
            return
        G = self.gammas
        ks, lo, hi, open_tail = self._segments(w0, b0, n)
        xrows = xrows[:n + 1]
        xmax, zmax, xlast = self.spreads.run(xrows, lo, self.anchor_x, self.xmax,
                                             self.anchor_z, self.zmax,
                                             self.boundary_step is not None)

        nc = len(ks) - open_tail                # closed windows
        if nc:
            kk, rc = ks[:nc], hi[:nc]
            dst = kk - self.detail_lo
            det = slice(np.searchsorted(dst, 0), nc)
            self.xdev_arr[dst[det]] = xmax[det]
            self.zdev_arr[dst[det]] = zmax[det]
            if self.boundary_step is not None:
                self.boundary_step[kk - 1] = xlast[:nc]
            if self.boundary_x is not None:
                self.boundary_x[kk] = xrows[rc]
                self.boundary_xp[kk] = xrows[rc - 1]
            self._decade_sums(decade_of(G[kk - 1]), np.maximum(xmax[:nc], zmax[:nc]))
            self._anchor_eval(kk + 1, xrows, rc)
            self.anchor_x = xrows[rc[-1]].copy()
            self.anchor_z = self._z(xrows, rc[-1:])[0]
            self.w = w0 + nc
        if open_tail:
            self.xmax, self.zmax = xmax[-1], zmax[-1]
        else:
            self.xmax = self.zmax = np.zeros_like(self.xmax)

    def _decade_sums(self, dec: np.ndarray, d: np.ndarray):
        """Add the spreads d (rows, overwritten) of closed windows in
        decades dec (ascending) to the decade sums, in window order, and
        count them.  Each run of one decade is one add.accumulate down its
        rows, in place, from the decade's sum: the adds of np.add.at in its
        order.  add.reduce would sum pairwise at S = 1."""
        cuts = np.flatnonzero(np.diff(dec)) + 1
        for k, run in zip(dec[np.r_[0, cuts]].tolist(), np.split(d, cuts)):
            np.add(self.decade_d_sum[k], run[0], out=run[0])
            np.add.accumulate(run, axis=0, out=run)
            self.decade_d_sum[k] = run[-1]
        self.decade_d_cnt += np.bincount(dec, minlength=len(self.decade_d_cnt))

    def finish(self) -> WindowTrace:
        return WindowTrace(
            n_windows=self.W, detail_lo=self.detail_lo,
            s=self.s_arr, xdev=self.xdev_arr, zdev=self.zdev_arr,
            zx=self.zx_arr, gz=self.gz_arr,
            merit=self.merit_arr, merit_grad_sq=self.gm2_arr,
            boundary_step=self.boundary_step,
            decade_d_sum=self.decade_d_sum, decade_d_cnt=self.decade_d_cnt,
            boundary_x=self.boundary_x, boundary_x_prev=self.boundary_xp,
            partition=self.part, K_T=self.K_T)


# ---------------------------------------------------------------------------
# two-stage block pipeline
#
# run_batch draws the noise on one thread of its own while the caller runs
# the steps, and the two pass each block's ring slot back and forth.  The
# noise thread draws the block's noise into rows 1..n of its slot, forms the
# block's error sums from it there and then, and reports "block drawn".  The
# caller reads e^t in the step that overwrites its row with x^{t+1}, runs the
# divergence scan, whose frozen rows set the next block's start, and
# consumes the final rows: step norms, iterate window statistics and the
# record grid.  It then copies x^t and x^{t-1} out of the slot and frees it;
# only then does the noise thread draw a later block into it.  Block j lives
# in slot j % RING_SLOTS.  A block's gaussian draw is one C call, which
# releases the GIL, so the draw runs beside the caller's steps.

RING_SLOTS = 3          # blocks in flight between the two threads


def _slot(ring: np.ndarray, j: int, n: int):
    """Block j's rows 0..n in its ring slot, and the noise rows 1..n."""
    rows = ring[j % len(ring), :n + 1]
    return rows, rows[1:]


@contextlib.contextmanager
def _noise_thread(draw, n_blocks: int, slots: int):
    """Run draw(0), ..., draw(n_blocks - 1) on one daemon thread, draw(j)
    only once the caller has freed block j - slots.  Yields (drawn, free):
    drawn() waits for the next block and raises the exception that ended
    the thread, the same object; free() frees the oldest block's slot.  On
    exit the thread is stopped and joined; a draw under way finishes first."""
    import queue
    import threading        # here: importing sgdmlab stays as light as before
    slot_free, done, stop = threading.Semaphore(slots), queue.SimpleQueue(), []

    def main():
        try:
            for j in range(n_blocks):
                slot_free.acquire()
                if stop:
                    return
                draw(j)
                done.put(None)
        except BaseException as exc:    # the caller raises it
            done.put(exc)

    def drawn():
        exc = done.get()
        if exc is not None:
            raise exc

    thread = threading.Thread(target=main, name="sgdmlab-noise", daemon=True)
    thread.start()
    try:
        yield drawn, slot_free.release
    finally:
        stop.append(True)
        slot_free.release()             # wakes a thread that waits for a slot
        thread.join()


class _BlockConsumer:
    """The two sides of run_batch's ring slots.

    On the noise thread it draws each block's noise into rows 1..n of the
    block's ring slot, ahead of the step loop but never into a slot the
    caller still reads, and forms the block's error sums at once, before the
    caller overwrites those rows.  On the caller's thread it consumes the
    finished rows block by block, in order: step norms, iterate window
    statistics and the scalar record grid, one f_batch and one grad_batch
    call over the block's grid rows.
    """

    def __init__(self, problem: Problem, params: MomentumParams,
                 block_noise: BlockNoise, schedule: StepSchedule,
                 blocks: list[tuple[int, int]], ring: np.ndarray, X1: np.ndarray,
                 grid: np.ndarray, acc: _WindowAccumulator | None, track_step_norms: bool):
        self.problem, self.lam, self.block_noise = problem, params.lam, block_noise
        self.schedule, self.blocks = schedule, blocks
        self.ring = ring
        self.X1, self.grid, self.acc = X1, grid, acc
        G, S = len(grid), len(X1)
        self.rec_f = np.empty((G, S))
        self.rec_g = np.empty((G, S))
        self.rec_xz = np.empty((G, S))
        self.rec_dist = np.empty((G, S)) if problem.x_star is not None else None
        self.sn_ok = np.zeros(S, dtype=np.int64) if track_step_norms else None
        self.sn_total = np.zeros(S) if track_step_norms else None
        self.gp = 0                     # next record-grid point

    def _draw(self, j: int):
        """The noise thread's side of block j."""
        b0, n = self.blocks[j]
        _, E = _slot(self.ring, j, n)
        plan = None if self.acc is None else self.acc.error_plan(b0, n)
        if plan is None:
            self.block_noise.fill(E)
            return
        sums = (self.schedule.at(np.arange(b0, b0 + n)), plan[1], self.acc.psum, self.acc.smax)
        self.acc.process_noise(plan, self.block_noise.fill(E, sums))

    def start(self):
        """The records at x^1, the first grid point."""
        if self.acc is not None:
            self.acc.start(self.X1)
        self._record(self.X1[None], None)

    def consume(self, b0: int, rows: np.ndarray, step_sizes: np.ndarray):
        """The caller's side of a block: its final rows x^{b0}..x^{b0+n}
        (rows 0..n), reached with the step sizes a_{b0}..a_{b0+n-1}."""
        n = len(step_sizes)
        if self.sn_ok is not None:
            dn = _norms(np.diff(rows, axis=0))
            self.sn_ok += (dn >= step_sizes[:, None] - STEP_NORM_TOL).sum(axis=0)
            # each seed's norms summed as one contiguous row, pairwise, as a
            # lone seed's are: a sum down axis 0 is pairwise only at S = 1
            self.sn_total += np.ascontiguousarray(dn.T).sum(axis=1)

        if self.acc is not None:
            self.acc.process_block(b0, rows, n)

        grid = self.grid
        idx = grid[self.gp:np.searchsorted(grid, b0 + n, side="right")] - b0
        if len(idx):
            self._record(rows[idx], rows[idx - 1] if self.lam != 0.0 else None)

    def _record(self, P: np.ndarray, Pprev: np.ndarray | None):
        """Scalar records of the next len(P) grid points at their iterates
        P (g, S, d); ||x - z|| from the iterates Pprev before them, 0 at
        k = 1 and without momentum (Pprev None)."""
        at, problem, lam = slice(self.gp, self.gp + len(P)), self.problem, self.lam
        self.rec_f[at] = problem.f_batch(P)
        self.rec_g[at] = _norms(problem.grad_batch(P))
        self.rec_xz[at] = 0.0 if Pprev is None else lam / (1.0 - lam) * _norms(P - Pprev)
        if self.rec_dist is not None:
            self.rec_dist[at] = _norms(P - problem.x_star)
        self.gp = at.stop


class _Steps:
    """The numpy momentum step kernel: advances every seed through one block.
    It runs every gradient, and it is the oracle of the compiled kernel.

    Rows 1..n of ``rows`` receive x^{t+1} = x^t - a_t (grad f(x_look) - e_t)
    + lam (x^t - x^{t-1}) from x^t = X and x^{t-1} = Xp; seeds in ``frozen``
    stay put.  E may be rows[1:] itself: each step reads e_t before it
    writes x^{t+1} over it.  The buffers are allocated once per run.  Plain
    SGD (lam = nu = 0) runs x^{t+1} = x^t - a_t (grad f(x^t) - e_t) without
    the momentum terms: the same values, up to the sign of an exact zero.
    Given norms (n, S), run also writes the norms of rows 1..n there.

    Every call in the loops passes out by position, and lam and nu as 0-d
    float64 arrays: at (seeds x d) sizes numpy's dispatch costs more than
    the arithmetic, and these are its cheaper paths.  The operations and
    their order are the same as with keywords and Python floats.
    """

    def __init__(self, grad, params: MomentumParams, S: int, d: int):
        self.grad, self.lam, self.nu = grad, np.array(params.lam), np.array(params.nu)
        self.look_ahead = params.nu != 0.0
        self.g = np.empty((S, d))
        self.dX = np.empty((S, d))
        self.xl = np.empty((S, d))
        self.step = self._sgd if params.lam == 0.0 and params.nu == 0.0 else self._momentum

    def run(self, X, Xp, E, rows, step_sizes, frozen, norms=None):
        """The block's steps; then, unless norms is None, the norms of rows
        1..n into norms (n, S)."""
        self.step(X, Xp, E, rows, step_sizes, frozen)
        if norms is not None:
            _norms(rows[1:], out=norms)

    def _sgd(self, X, Xp, E, rows, step_sizes, frozen):
        grad, g, sub, mul = self.grad, self.g, np.subtract, np.multiply
        for e, Xn, a in zip(E, rows[1:], step_sizes.tolist()):
            sub(grad(X, g), e, g)
            mul(g, a, g)
            if frozen is not None:
                np.copyto(g, 0.0, where=frozen)
            sub(X, g, Xn)
            X = Xn

    def _momentum(self, X, Xp, E, rows, step_sizes, frozen):
        grad, g, dX, xl, lam, nu = self.grad, self.g, self.dX, self.xl, self.lam, self.nu
        look, sub, mul, add = self.look_ahead, np.subtract, np.multiply, np.add
        for e, Xn, a in zip(E, rows[1:], step_sizes.tolist()):
            sub(X, Xp, dX)
            if look:
                add(X, mul(dX, nu, xl), xl)
            sub(grad(xl if look else X, g), e, g)
            mul(dX, lam, dX)
            sub(dX, mul(g, a, g), dX)
            if frozen is not None:
                np.copyto(dX, 0.0, where=frozen)
            add(X, dX, Xn)
            Xp = X
            X = Xn


def run_batch(problem: Problem, params: MomentumParams, schedule: StepSchedule,
              noise: NoiseModel, seeds, horizon: int, x0=None,
              recording: RecordingPolicy | None = None,
              partition: win.WindowPartition | None = None) -> RunBatch:
    """Run one trajectory per seed, vectorized across seeds.

    The work is split over two threads: a noise thread draws the noise,
    and the calling thread runs the momentum steps and the divergence scan
    and then consumes each finished block; see _BlockConsumer.  The noise
    thread reuses a ring slot only after the caller frees it.  An exception
    on either side is raised here, the same object, and the noise thread
    has ended by the time run_batch returns or raises.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rp = recording or RecordingPolicy()
    seeds = [int(s) for s in seeds]
    S, d = len(seeds), problem.dim
    steps = horizon - 1
    if steps:
        schedule.at(np.array([steps]))  # an exhausted explicit list raises before any draw
    if x0 is None:
        x0 = np.ones(d)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (d,):
        raise ValueError(f"x0 must have shape ({d},)")
    noise.check_dim(d)

    config = {"problem": problem, "params": params, "schedule": schedule,
              "noise": noise, "x0": x0.copy(), "horizon": horizon}

    from . import _ckernel      # at the first run: importing sgdmlab stays as before
    lib = _ckernel.load()
    acc = None
    if partition is not None:
        if partition.horizon != horizon:
            raise ValueError("partition horizon must equal the run horizon")
        K_T = win.applicability_index(partition, schedule, problem, params)
        if rp.window_profile:
            detail_lo = 1
        else:
            detail_lo = partition.n_windows + 1 if K_T is None else K_T
        spreads = None if lib is None else _ckernel.Spreads(lib.window_spread, params.lam)
        acc = _WindowAccumulator(partition, K_T, problem, params, S, detail_lo,
                                 rp.window_profile, horizon,
                                 keep_boundaries=rp.store_boundary_vectors, spreads=spreads)

    X = np.tile(x0, (S, 1))             # x^t and x^{t-1} at the next block's start
    Xp = X.copy()
    active = np.ones(S, dtype=bool)
    frozen = None                       # (S, 1) mask of frozen seeds, once any
    diverged_at = np.zeros(S, dtype=np.int64)
    box_exits = np.zeros(S, dtype=np.int64)
    box = problem.box_radius
    cap = rp.divergence_cap

    X_hist = np.empty((horizon, S, d)) if rp.store_vectors else None
    E_hist = np.empty((steps, S, d)) if rp.store_noise else None
    if X_hist is not None:
        X_hist[0] = X

    B = max(rp.block_size, 2)
    blocks = [(b0, min(B, steps + 1 - b0)) for b0 in range(1, steps + 1, B)]
    ring = np.empty((max(min(RING_SLOTS, len(blocks)), 1), max(min(B, steps), 1) + 1, S, d))
    block_noise = BlockNoise(noise, d, seeds)       # drawn from on the noise thread only
    consumer = _BlockConsumer(problem, params, block_noise, schedule, blocks,
                              ring, X.copy(), record_grid(horizon, rp), acc,
                              rp.track_step_norms)

    grad = problem.grad_batch
    if lib is not None and getattr(grad, "_c_form", None) is not None:
        kernel = _ckernel.Steps(lib.sgdm_block, grad, params, S, d)
    else:
        kernel = _Steps(grad, params, S, d)
    rnorm_buf = np.empty((ring.shape[1] - 1, S))
    with _noise_thread(consumer._draw, len(blocks), len(ring)) as (drawn, free):
        consumer.start()
        for j, (b0, n) in enumerate(blocks):
            drawn()                     # this block's noise is in its slot
            rows, E = _slot(ring, j, n)
            if E_hist is not None:
                E_hist[b0 - 1:b0 - 1 + n] = E
            rows[0] = X
            # the steps, and the divergence scan over the norms of rows 1..n:
            # a NaN or +-inf coordinate makes its row's norm non-finite; a
            # finite norm may still exceed the cap
            rnorm = rnorm_buf[:n]                                   # (n, S)
            a = schedule.at(np.arange(b0, b0 + n))
            with np.errstate(over="ignore", invalid="ignore"):
                kernel.run(X, Xp, E, rows, a, frozen, rnorm)
                bad = ~np.isfinite(rnorm) | (rnorm > cap)
            if bad.any():
                for s_idx in np.nonzero(bad.any(axis=0) & active)[0]:
                    ib = int(np.argmax(bad[:, s_idx])) + 1
                    diverged_at[s_idx] = b0 + ib - 1
                    rows[ib:, s_idx] = rows[ib - 1, s_idx]
                    active[s_idx] = False
                frozen = ~active[:, None]
                rnorm = _norms(rows[1:], out=rnorm)
            if np.isfinite(box):
                box_exits += (rnorm > box).sum(axis=0)
            if X_hist is not None:
                X_hist[b0:b0 + n] = rows[1:]
            consumer.consume(b0, rows, a)
            # once freed, the slot takes a later block's noise
            np.copyto(X, rows[n])
            np.copyto(Xp, rows[n - 1])
            if j + len(ring) < len(blocks):
                free()

    return RunBatch(
        seeds=seeds, horizon=horizon, config=config, ks=consumer.grid,
        f=consumer.rec_f, grad_norm=consumer.rec_g, dist=consumer.rec_dist, xz=consumer.rec_xz,
        x_final=X.copy(),
        diverged_at=diverged_at, box_exits=box_exits,
        window=acc.finish() if acc is not None else None,
        X_hist=X_hist, E_hist=E_hist,
        step_norm_ok=consumer.sn_ok, step_norm_total=consumer.sn_total)
