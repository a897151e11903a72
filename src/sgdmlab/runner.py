"""Seed-vectorized trajectory runner.

Trajectories are pure functions of (seed, config): every seed owns a
counter-addressed noise stream, the batched update applies the same
elementwise operations as the single-step reference, and independent
seeds evolve side by side in one array without interacting.  Running a
seed alone or inside a batch yields bitwise-identical records.

Per-window statistics (aggregated error, iterate spread, merit ledger at
anchors) are accumulated streaming so that million-step runs never hold
full iterate histories; a ring of block buffers serves the scalar record
grid and the window segments.  The ring is shared by two processes: the
caller runs the momentum steps, a forked child draws the noise ahead and
consumes each finished block (a two-stage pipeline; it needs POSIX fork).
"""

from __future__ import annotations

import contextlib
import os
import pickle

import numpy as np

from . import windows as win
from .noise import NoiseModel, NoiseStream
from .optimizer import MomentumParams, merit_zeta
from .problems import Problem
from .schedules import StepSchedule
from .trajectory import (RecordingPolicy, RunBatch, Trajectory, WindowTrace,
                         decade_of, n_decades, record_grid)

STEP_NORM_TOL = 1e-12


def _norms_sq(A, out=None):
    """Squared Euclidean norms over the trailing axis."""
    return np.einsum("...d,...d->...", A, A, out=out)


def _norms(A, out=None):
    """Euclidean norms over the trailing axis."""
    return np.sqrt(_norms_sq(A, out), out=out)


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


# ---------------------------------------------------------------------------
# two-process block pipeline
#
# run_batch forks one child per call.  The parent runs the momentum steps
# and the divergence scan, whose frozen rows set the next block's start.
# The child draws every block's noise ahead into a slot of a ring shared
# with the parent, then consumes the block's finished rows in order.  Block
# j lives in slot j % RING_SLOTS; one token byte per block each way hands
# the slot over, and the child's result comes back pickled at the end.

RING_SLOTS = 3          # blocks in flight between the two processes
_NOISE, _ROWS, _RESULT, _ERROR = b"N", b"R", b"D", b"X"


class PipelineError(RuntimeError):
    """A process of the block pipeline ended before finishing its side."""


def _ring(slots: int, B: int, S: int, d: int):
    """Noise slots (slots, B, S, d) and row slots (slots, B+1, S, d) in one
    anonymous shared mapping, which a forked child shares with its parent."""
    import mmap     # here and below: importing sgdmlab stays as light as before
    ne, nr = slots * B * S * d, slots * (B + 1) * S * d
    flat = np.frombuffer(mmap.mmap(-1, 8 * max(ne + nr, 1)), dtype=float)
    return flat[:ne].reshape(slots, B, S, d), flat[ne:ne + nr].reshape(slots, B + 1, S, d)


def _send(fh, tag: bytes, payload=None):
    fh.write(tag)
    if payload is not None:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    fh.flush()


def _recv(fh):
    """The child's next message: None for a noise token, else its result.
    The child's exception is raised here, and so is its early death."""
    tag = fh.read(1)
    if tag == _NOISE:
        return None
    if tag == _RESULT:
        return pickle.load(fh)
    if tag == _ERROR:
        raise pickle.load(fh)
    raise PipelineError("the child process of run_batch exited without its result")


def _hand_over(rx, tx):
    """Tell the child that the current block's rows are final."""
    try:
        tx.write(_ROWS)
    except BrokenPipeError:
        while _recv(rx) is None:        # raises what ended the child
            pass
        raise


def _portable(exc: BaseException) -> BaseException:
    """exc with the child's traceback attached as a note; a RuntimeError
    naming it instead if it does not survive a pickle round trip."""
    import traceback
    note = ("raised in the child process of run_batch:\n"
            + "".join(traceback.format_exception(exc)))
    try:
        exc.add_note(note)
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        exc.add_note(note)
    return exc


@contextlib.contextmanager
def _forked(child_main):
    """Fork a child that runs child_main(rx, tx) and yield the parent's
    (rx, tx) pipe ends.  The child sends its exception before it ends and
    always ends with os._exit; the parent always reaps it, killing it first
    when the parent's side raised."""
    import signal
    child_rx, parent_tx = os.pipe()
    parent_rx, child_tx = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (child_rx, parent_tx, parent_rx, child_tx):
            os.close(fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(parent_tx)
            os.close(parent_rx)
            with open(child_rx, "rb") as rx, open(child_tx, "wb") as tx:
                try:
                    child_main(rx, tx)
                    status = 0
                except BaseException as exc:    # the parent raises it; this process ends
                    _send(tx, _ERROR, _portable(exc))
        finally:
            os._exit(status)
    os.close(child_rx)
    os.close(child_tx)
    finished = False
    try:
        with open(parent_rx, "rb") as rx, open(parent_tx, "wb", buffering=0) as tx:
            yield rx, tx
        finished = True
    finally:
        if not finished:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


class _BlockConsumer:
    """The child's side of run_batch.

    It draws each block's noise into the block's ring slot ahead of the
    step loop, then consumes the finished rows block by block, in order:
    interpolation rows, step norms, window statistics and the scalar
    record grid.  Its result is what the run recorded from the rows.
    """

    def __init__(self, problem: Problem, params: MomentumParams,
                 streams: list[NoiseStream], alphas: np.ndarray,
                 blocks: list[tuple[int, int]], E_ring: np.ndarray, row_ring: np.ndarray,
                 X1: np.ndarray, grid: np.ndarray, acc: _WindowAccumulator | None,
                 track_step_norms: bool):
        self.problem, self.lam, self.streams = problem, params.lam, streams
        self.alphas, self.blocks = alphas, blocks
        self.E_ring, self.row_ring = E_ring, row_ring
        self.X1, self.grid, self.acc = X1, grid, acc
        # the buffers below are first written in the child
        G, S = len(grid), len(streams)
        self.rec_f = np.empty((G, S))
        self.rec_g = np.empty((G, S))
        self.rec_xz = np.empty((G, S))
        self.rec_dist = np.empty((G, S)) if problem.x_star is not None else None
        self.sn_ok = np.zeros(S, dtype=np.int64) if track_step_norms else None
        self.sn_total = np.zeros(S) if track_step_norms else None
        self.gp = 0                     # next record-grid point
        self.prev_row = None            # last-but-one row of the previous block
        self.zbuf = np.empty_like(row_ring[0])
        self.tmp = np.empty_like(row_ring[0])

    def run(self, rx, tx):
        blocks, ahead = self.blocks, len(self.E_ring)
        for j in range(min(ahead, len(blocks))):
            self._draw(j)
            _send(tx, _NOISE)
        if self.acc is not None:
            self.acc.start(self.X1)
        if len(self.grid) and self.grid[0] == 1:
            self._record(self.X1, None)
        for j in range(len(blocks)):
            if rx.read(1) != _ROWS:
                raise PipelineError("the parent of run_batch ended before its last block")
            self._consume(j)
            if j + ahead < len(blocks):
                self._draw(j + ahead)
                _send(tx, _NOISE)
        trace = self.acc.finish() if self.acc is not None else None
        if trace is not None:
            trace.partition = None      # the parent holds it already
        _send(tx, _RESULT, (self.rec_f, self.rec_g, self.rec_xz, self.rec_dist,
                            trace, self.sn_ok, self.sn_total))

    def _draw(self, j: int):
        E = self.E_ring[j % len(self.E_ring), :self.blocks[j][1]]
        for s, stream in enumerate(self.streams):
            stream.take_into(E[:, s])

    def _consume(self, j: int):
        b0, n = self.blocks[j]
        slot = j % len(self.E_ring)
        rows = self.row_ring[slot, :n + 1]
        lam = self.lam
        # interpolation rows: z^t = x^t/(1-lam) - lam x^{t-1}/(1-lam); block
        # temporaries live in buffers kept across blocks, not fresh pages
        if lam == 0.0:
            zrows = rows
        else:
            c1 = 1.0 / (1.0 - lam)
            zrows, lagged = self.zbuf[:n + 1], self.tmp[:n + 1]
            np.multiply(rows, c1, out=zrows)
            np.multiply(rows[:-1], lam * c1, out=lagged[1:])
            np.multiply(rows[0] if b0 == 1 else self.prev_row, lam * c1, out=lagged[0])
            np.subtract(zrows, lagged, out=zrows)
            if b0 == 1:
                zrows[0] = rows[0]      # the run starts from a standstill
            self.prev_row = rows[n - 1].copy()

        a = self.alphas[b0 - 1:b0 - 1 + n, None]
        if self.sn_ok is not None:
            dn = _norms(np.diff(rows, axis=0))
            self.sn_ok += (dn >= a - STEP_NORM_TOL).sum(axis=0)
            self.sn_total += dn.sum(axis=0)

        if self.acc is not None:
            wrows = np.multiply(self.E_ring[slot, :n], a[..., None], out=self.tmp[:n])
            self.acc.process_block(b0, rows, zrows, wrows, n)

        grid = self.grid
        while self.gp < len(grid) and grid[self.gp] <= b0 + n:
            row = int(grid[self.gp] - b0)
            self._record(rows[row], rows[row - 1] if lam != 0.0 else None)

    def _record(self, xk: np.ndarray, xprev: np.ndarray | None):
        """Scalar records of the next grid point at iterate xk; ||x - z||
        from the previous iterate xprev, 0 at k = 1 and without momentum."""
        gp, problem, lam = self.gp, self.problem, self.lam
        self.rec_f[gp] = problem.f_batch(xk)
        self.rec_g[gp] = _norms(problem.grad_batch(xk))
        self.rec_xz[gp] = 0.0 if xprev is None else lam / (1.0 - lam) * _norms(xk - xprev)
        if self.rec_dist is not None:
            self.rec_dist[gp] = _norms(xk - problem.x_star)
        self.gp += 1


def run_batch(problem: Problem, params: MomentumParams, schedule: StepSchedule,
              noise: NoiseModel, seeds, horizon: int, x0=None,
              recording: RecordingPolicy | None = None,
              partition: win.WindowPartition | None = None) -> RunBatch:
    """Run one trajectory per seed, vectorized across seeds.

    The work is split over two processes (POSIX fork): this one runs the
    momentum steps and the divergence scan, a forked child draws the noise
    and consumes the finished blocks; see _BlockConsumer.  As with any
    fork, call it from a process whose other threads hold no locks the
    child could need.
    """
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
        # its arrays are first written in the child, so they take no pages here
        acc = _WindowAccumulator(partition, K_T, problem, params, S, detail_lo,
                                 rp.window_profile, horizon,
                                 keep_boundaries=rp.store_boundary_vectors)

    lam, nu = params.lam, params.nu
    X = np.tile(x0, (S, 1))
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
    E_ring, row_ring = _ring(max(min(RING_SLOTS, len(blocks)), 1),
                             max(min(B, steps), 1), S, d)
    # built here, drawn from in the child only: numpy.random then loads once
    # per process, not once per child
    streams = [NoiseStream(noise, d, s) for s in seeds]
    consumer = _BlockConsumer(problem, params, streams, alphas, blocks,
                              E_ring, row_ring, X, record_grid(horizon, rp), acc,
                              rp.track_step_norms)

    grad = problem.grad_batch
    sub, mul, add = np.subtract, np.multiply, np.add
    alist = alphas.tolist()
    dX, g = np.empty((S, d)), np.empty((S, d))
    xl = np.empty((S, d)) if nu else None
    rnorm_buf = np.empty((len(row_ring[0]) - 1, S))
    with _forked(consumer.run) as (rx, tx):
        for j, (b0, n) in enumerate(blocks):
            _recv(rx)                   # this block's noise is in its slot
            slot = j % len(E_ring)
            E, rows = E_ring[slot, :n], row_ring[slot, :n + 1]
            if E_hist is not None:
                E_hist[b0 - 1:b0 - 1 + n] = E
            rows[0] = X
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(n):
                    sub(X, Xp, out=dX)
                    if nu:
                        add(X, mul(dX, nu, out=xl), out=xl)
                    sub(grad(xl if nu else X), E[i], out=g)
                    mul(dX, lam, out=dX)
                    sub(dX, mul(g, alist[b0 - 1 + i], out=g), out=dX)
                    if frozen is not None:
                        np.copyto(dX, 0.0, where=frozen)
                    Xn = rows[i + 1]
                    add(X, dX, out=Xn)
                    Xp = X
                    X = Xn
            # divergence scan: a NaN or +-inf coordinate makes its row's norm
            # non-finite; a finite norm may still exceed the cap
            with np.errstate(invalid="ignore", over="ignore"):
                rnorm = _norms(rows[1:], out=rnorm_buf[:n])        # (n, S)
                bad = ~np.isfinite(rnorm) | (rnorm > cap)
            if bad.any():
                for s_idx in np.nonzero(bad.any(axis=0) & active)[0]:
                    ib = int(np.argmax(bad[:, s_idx])) + 1
                    diverged_at[s_idx] = b0 + ib - 1
                    rows[ib:, s_idx] = rows[ib - 1, s_idx]
                    active[s_idx] = False
                frozen = ~active[:, None]
                X = rows[n].copy()
                Xp = rows[n - 1].copy()
                rnorm = _norms(rows[1:], out=rnorm)
            if np.isfinite(box):
                box_exits += (rnorm > box).sum(axis=0)
            if X_hist is not None:
                X_hist[b0:b0 + n] = rows[1:]
            _hand_over(rx, tx)
        rec_f, rec_g, rec_xz, rec_dist, trace, sn_ok, sn_total = _recv(rx)
    if trace is not None:
        trace.partition = partition

    return RunBatch(
        seeds=seeds, horizon=horizon, config=config, ks=consumer.grid,
        f=rec_f, grad_norm=rec_g, dist=rec_dist, xz=rec_xz,
        x_final=X.copy(), x_prev_final=Xp.copy(),
        diverged_at=diverged_at, box_exits=box_exits, window=trace,
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
