"""Seed-vectorized trajectory runner.

Trajectories are pure functions of (seed, config): every seed owns a
counter-addressed noise stream, the batched update applies the same
elementwise operations to every seed's row, and independent seeds
evolve side by side in one array without interacting.  Running a
seed alone or inside a batch yields bitwise-identical records.

Per-window statistics (aggregated error, iterate spread, merit ledger at
anchors) are accumulated streaming so that million-step runs never hold
full iterate histories; a ring of block buffers serves the scalar record
grid and the window segments.  The ring is shared by three processes (a
three-stage pipeline; it needs POSIX fork): a forked noise child draws
the noise ahead, the caller runs the momentum steps, and a forked rows
child consumes each finished block.  The ring holds row slots only: the
noise child draws a block's noise into rows 1..n of its slot, where the
steps read it and overwrite it, and forms the block's error sums at draw
time; it reuses a slot only once the rows child has freed it.  A run
shares RING_SLOTS (B+1) S d 8 bytes for blocks of B steps, 9.8 MB at
S = 20 seeds and d = 10.

The momentum steps run in one of two kernels with the same bits.  Where
the problem's grad_batch declares an exact elementwise form (the built-in
quadratic, and even_power with p = 1, or p = 2 at d = 1), a block is one
call into C (_ckernel), compiled on the first such run of the process;
everywhere else, and wherever that kernel does not build or fails its
self-check, _Steps runs the same operations in numpy.
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
        # sums (cursor ew) run ahead of the iterate statistics (cursor w)
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

    def _segments(self, w0: int, b0: int, n: int):
        """The windows w0.. that a block's rows 1..n (x^{b0+1}..x^{b0+n}, or
        e^{b0}..e^{b0+n-1}) touch: their numbers ks, rows lo+1..hi and
        lengths ln, the segment of each row, and whether the last window
        stays open past the block."""
        G = self.gammas
        end = b0 + n
        # windows w0..kc close in this block; an open window may follow
        kc = min(int(np.searchsorted(G, end, side="right")) - 1, self.W)
        open_tail = bool(kc < self.W and G[kc] < end)
        ks = np.arange(w0, kc + 1 + open_tail)
        lo = np.maximum(G[ks - 1] - b0, 0)
        hi = np.minimum(G[ks] - b0, n)
        ln = hi - lo
        return ks, lo, hi, ln, np.repeat(np.arange(len(ks)), ln), open_tail

    def process_noise(self, b0: int, E: np.ndarray, a: np.ndarray, n: int,
                      wbuf: np.ndarray):
        """Advance the error sums over the noise e^{b0}..e^{b0+n-1} (rows of
        E), with the block's step sizes a (n, 1) and a buffer wbuf for the
        weighted errors a_t e^t.  The sums read only the noise and the step
        sizes, so they keep their own window cursor and carry."""
        w0 = self.ew
        if w0 > self.W:
            return
        ks, lo, hi, ln, seg_of_row, open_tail = self._segments(w0, b0, n)
        nc = len(ks) - open_tail                # closed windows
        self.ew = w0 + nc
        # s_k is stored only from detail_lo on: a block whose windows all lie
        # before it skips the sums, and the carry it leaves is never read
        if ks[-1] < self.detail_lo:
            return
        wrows = np.multiply(E, a[..., None], wbuf[:n])
        smax, psum = self._segment_error_max(wrows, lo, ln, seg_of_row, open_tail)
        dst = ks[:nc] - self.detail_lo
        det = slice(np.searchsorted(dst, 0), nc)
        self.s_arr[dst[det]] = smax[det]
        if open_tail:
            self.psum, self.smax = psum, smax[-1]
        else:
            self.psum = np.zeros_like(self.psum)
            self.smax = np.zeros_like(self.smax)

    def process_block(self, b0: int, xrows: np.ndarray, zrows: np.ndarray, n: int):
        """Advance the iterate statistics over x^{b0}..x^{b0+n} (rows 0..n)
        and interpolations zrows."""
        w0 = self.w
        if w0 > self.W:
            return
        G = self.gammas
        ks, lo, hi, ln, seg_of_row, open_tail = self._segments(w0, b0, n)
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
            self.xmax, self.zmax = xmax[-1], zmax[-1]
        else:
            self.xmax = self.zmax = np.zeros_like(self.xmax)

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
# three-stage block pipeline
#
# run_batch forks two children per call, and the three processes pass each
# block's ring slot on around a ring of pipes.  The noise child draws the
# block's noise into rows 1..n of its slot and forms the block's error sums
# from it there and then.  The parent reads e^t in the step that overwrites
# its row with x^{t+1} and runs the divergence scan, whose frozen rows set
# the next block's start; once the rows are final it copies x^t and x^{t-1}
# out of the slot and hands the slot on.  The rows child consumes the
# finished rows in order and hands the slot back to the noise child, which
# only then draws a later block into it.  Block j lives in slot
# j % RING_SLOTS; one token byte per block passes each hand-over: "noise in
# slot" (noise child to parent), "rows final" (parent to rows child) and
# "slot free" (rows child to noise child).  Each child's result comes back
# pickled at the end, on a report pipe of its own.  A run shares
# RING_SLOTS (B+1) S d 8 bytes: 9.8 MB at S = 20, d = 10 and B = 2048.

RING_SLOTS = 3          # blocks in flight between the three processes
_NOISE, _ROWS, _FREE, _RESULT, _ERROR = b"N", b"R", b"F", b"D", b"X"


class PipelineError(RuntimeError):
    """A process of the block pipeline ended before finishing its side."""


def _ring(slots: int, B: int, S: int, d: int) -> np.ndarray:
    """Row slots (slots, B+1, S, d) in one anonymous shared mapping, which
    forked children share with their parent."""
    import mmap     # here and below: importing sgdmlab stays as light as before
    size = slots * (B + 1) * S * d
    flat = np.frombuffer(mmap.mmap(-1, 8 * max(size, 1)), dtype=float)
    return flat[:size].reshape(slots, B + 1, S, d)


def _slot(ring: np.ndarray, j: int, n: int):
    """Block j's rows 0..n in its ring slot, and the noise rows 1..n."""
    rows = ring[j % len(ring), :n + 1]
    return rows, rows[1:]


def _send(fh, tag: bytes, *payload):
    fh.write(tag)
    for obj in payload:
        pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
    fh.flush()


def _report(reports, i: int):
    """Child i's result, read from its report pipe.  Its exception is raised
    here, and so is its early death.  A child that stopped only because the
    child before it in the ring ended raises what ended that one instead."""
    name, fh = reports[i]
    tag = fh.read(1)
    if tag == _RESULT:
        return pickle.load(fh)
    if tag == _ERROR:
        exc = pickle.load(fh)
        if isinstance(exc, PipelineError) and i > 0:
            _report(reports, i - 1)
        raise exc
    raise PipelineError(f"the {name} child of run_batch exited without its result")


def _recv(rx, reports):
    """Wait until the next block's noise is in its slot; if the noise child
    ended instead, raise what ended it."""
    if rx.read(1) != _NOISE:
        _report(reports, len(reports) - 1)
        raise PipelineError("the noise child of run_batch ended before its last block")


def _hand_over(reports, tx):
    """Tell the rows child that the current block's rows are final; if it
    has ended, raise what ended it."""
    try:
        tx.write(_ROWS)
    except BrokenPipeError:
        _report(reports, 0)
        raise


def _portable(exc: BaseException, name: str) -> BaseException:
    """exc with the child's traceback attached as a note; a RuntimeError
    naming it instead if it does not survive a pickle round trip."""
    import traceback
    note = (f"raised in the {name} child process of run_batch:\n"
            + "".join(traceback.format_exception(exc)))
    try:
        exc.add_note(note)
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        exc.add_note(note)
    return exc


def _child(name: str, main, rx_fd: int, tx_fd: int, report_fd: int, fds: list[int]):
    """A forked child's life: main(rx, tx) on its ring ends, then its result
    or its exception on its report pipe, then os._exit."""
    status = 1
    try:
        for fd in fds:
            if fd not in (rx_fd, tx_fd, report_fd):
                os.close(fd)    # a pipe end held open here would hide an EOF
        with open(rx_fd, "rb") as rx, open(tx_fd, "wb") as tx, \
                open(report_fd, "wb") as report:
            try:
                _send(report, _RESULT, main(rx, tx))
                status = 0
            except BaseException as exc:    # the parent raises it; this process ends
                _send(report, _ERROR, _portable(exc, name))
    finally:
        os._exit(status)


@contextlib.contextmanager
def _forked(**mains):
    """Fork one child per named main, joined with the parent in a ring of
    pipes: the parent writes to the first child, each child to the next and
    the last child to the parent.  A child runs main(rx, tx) on its ring ends
    and sends what it returns or raises on a report pipe of its own; it
    always ends with os._exit.  Yields the parent's ring ends (rx, tx) and
    the (name, report) read ends in ring order.  The parent always reaps
    every child, killing them first when its side raised."""
    import signal
    n = len(mains)
    ring = [os.pipe() for _ in range(n + 1)]    # pipe i is read by child i, pipe n by the parent
    reps = [os.pipe() for _ in range(n)]
    fds = [fd for pair in ring + reps for fd in pair]
    pids = []
    try:
        named = list(mains.items())
        for i in reversed(range(n)):    # the last child feeds the parent: it starts first
            pid = os.fork()
            if pid == 0:
                _child(*named[i], ring[i][0], ring[i + 1][1], reps[i][1], fds)
            pids.append(pid)
    except BaseException:       # a failed or interrupted fork: end the ones forked
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
        raise
    mine = [ring[n][0], ring[0][1]] + [r for r, _ in reps]
    for fd in fds:
        if fd not in mine:
            os.close(fd)
    finished = False
    try:
        with contextlib.ExitStack() as files:
            rx = files.enter_context(open(ring[n][0], "rb"))
            tx = files.enter_context(open(ring[0][1], "wb", buffering=0))
            reports = [(name, files.enter_context(open(r, "rb")))
                       for name, (r, _) in zip(mains, reps)]
            yield rx, tx, reports
        finished = True
    finally:
        if not finished:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


class _BlockConsumer:
    """The children's sides of run_batch.

    In the noise child it draws each block's noise into rows 1..n of the
    block's ring slot, ahead of the step loop but never into a slot the rows
    child still reads, and forms the block's error sums at once, before the
    parent overwrites those rows.  Its result is the error sums.  In the rows
    child it consumes the finished rows block by block, in order:
    interpolation rows, step norms, iterate window statistics and the scalar
    record grid.  Its result is everything else the run recorded.
    """

    def __init__(self, problem: Problem, params: MomentumParams,
                 streams: list[NoiseStream], schedule: StepSchedule,
                 blocks: list[tuple[int, int]], ring: np.ndarray, X1: np.ndarray,
                 grid: np.ndarray, acc: _WindowAccumulator | None, track_step_norms: bool):
        self.problem, self.lam, self.streams = problem, params.lam, streams
        self.schedule, self.blocks = schedule, blocks
        self.ring = ring
        self.X1, self.grid, self.acc = X1, grid, acc
        # the buffers below are first written in a child
        G, S = len(grid), len(streams)
        self.rec_f = np.empty((G, S))
        self.rec_g = np.empty((G, S))
        self.rec_xz = np.empty((G, S))
        self.rec_dist = np.empty((G, S)) if problem.x_star is not None else None
        self.sn_ok = np.zeros(S, dtype=np.int64) if track_step_norms else None
        self.sn_total = np.zeros(S) if track_step_norms else None
        self.gp = 0                     # next record-grid point
        self.prev_row = None            # last-but-one row of the previous block
        self.zbuf = np.empty_like(ring[0])
        self.tmp = np.empty_like(ring[0])

    def noise(self, rx, tx):
        """The noise child: block j's noise once the rows child has freed
        the slot of block j - RING_SLOTS."""
        for j in range(len(self.blocks)):
            if j >= len(self.ring) and rx.read(1) != _FREE:
                raise PipelineError("the rows child of run_batch ended before freeing a slot")
            self._draw(j)
            _send(tx, _NOISE)
        return self.acc.s_arr if self.acc is not None else None

    def rows(self, rx, tx):
        """The rows child: each block's final rows, in order."""
        blocks, ahead = self.blocks, len(self.ring)
        if self.acc is not None:
            self.acc.start(self.X1)
        if len(self.grid) and self.grid[0] == 1:
            self._record(self.X1, None)
        for j in range(len(blocks)):
            if rx.read(1) != _ROWS:
                raise PipelineError("the parent of run_batch ended before its last block")
            self._consume(j)
            if j + ahead < len(blocks):
                _send(tx, _FREE)
        trace = self.acc.finish() if self.acc is not None else None
        if trace is not None:
            trace.partition = trace.s = None    # the parent holds one, the noise child sends the other
        return (self.rec_f, self.rec_g, self.rec_xz, self.rec_dist,
                trace, self.sn_ok, self.sn_total)

    def _draw(self, j: int):
        b0, n = self.blocks[j]
        _, E = _slot(self.ring, j, n)
        for s, stream in enumerate(self.streams):
            stream.take_into(E[:, s])
        if self.acc is not None:
            a = self.schedule.at(np.arange(b0, b0 + n))[:, None]
            self.acc.process_noise(b0, E, a, n, self.tmp)

    def _consume(self, j: int):
        b0, n = self.blocks[j]
        rows, _ = _slot(self.ring, j, n)
        lam = self.lam
        # interpolation rows, for the window accumulator only: z^t =
        # x^t/(1-lam) - lam x^{t-1}/(1-lam); block temporaries live in
        # buffers kept across blocks, not fresh pages
        zrows = rows
        if lam != 0.0 and self.acc is not None:
            c1 = 1.0 / (1.0 - lam)
            zrows, lagged = self.zbuf[:n + 1], self.tmp[:n + 1]
            np.multiply(rows, c1, out=zrows)
            np.multiply(rows[:-1], lam * c1, out=lagged[1:])
            np.multiply(rows[0] if b0 == 1 else self.prev_row, lam * c1, out=lagged[0])
            np.subtract(zrows, lagged, out=zrows)
            if b0 == 1:
                zrows[0] = rows[0]      # the run starts from a standstill
            self.prev_row = rows[n - 1].copy()

        if self.sn_ok is not None:
            a = self.schedule.at(np.arange(b0, b0 + n))[:, None]
            dn = _norms(np.diff(rows, axis=0))
            self.sn_ok += (dn >= a - STEP_NORM_TOL).sum(axis=0)
            self.sn_total += dn.sum(axis=0)

        if self.acc is not None:
            self.acc.process_block(b0, rows, zrows, n)

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


class _Steps:
    """The numpy momentum step kernel: advances every seed through one block.
    It runs every gradient, and it is the oracle of the compiled kernel.

    Rows 1..n of ``rows`` receive x^{t+1} = x^t - a_t (grad f(x_look) - e_t)
    + lam (x^t - x^{t-1}) from x^t = X and x^{t-1} = Xp; seeds in ``frozen``
    stay put.  E may be rows[1:] itself: each step reads e_t before it
    writes x^{t+1} over it.  The buffers are allocated once per run.  Plain
    SGD (lam = nu = 0) runs x^{t+1} = x^t - a_t (grad f(x^t) - e_t) without
    the momentum terms: the same values, up to the sign of an exact zero.

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
        self.run = self._sgd if params.lam == 0.0 and params.nu == 0.0 else self._momentum

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

    The work is split over three processes (POSIX fork): a forked noise
    child draws the noise, this one runs the momentum steps and the
    divergence scan, and a forked rows child consumes the finished blocks;
    see _BlockConsumer.  The noise child reuses a ring slot only after the
    rows child sends it "slot free".  As with any fork, call it from a
    process whose other threads hold no locks the children could need.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rp = recording or RecordingPolicy()
    seeds = [int(s) for s in seeds]
    S, d = len(seeds), problem.dim
    steps = horizon - 1
    if steps:
        schedule.at(np.array([steps]))  # an exhausted explicit list raises before the fork
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
        if rp.window_profile:
            detail_lo = 1
        else:
            detail_lo = partition.n_windows + 1 if K_T is None else K_T
        # its arrays are first written in the children, so they take no pages here
        acc = _WindowAccumulator(partition, K_T, problem, params, S, detail_lo,
                                 rp.window_profile, horizon,
                                 keep_boundaries=rp.store_boundary_vectors)

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
    ring = _ring(max(min(RING_SLOTS, len(blocks)), 1), max(min(B, steps), 1), S, d)
    # built here, drawn from in the noise child only: numpy.random then
    # loads once per process, not once per child
    streams = [NoiseStream(noise, d, s) for s in seeds]
    consumer = _BlockConsumer(problem, params, streams, schedule, blocks,
                              ring, X.copy(), record_grid(horizon, rp), acc,
                              rp.track_step_norms)

    from . import _ckernel      # at the first run: importing sgdmlab stays as before
    kernel = _ckernel.steps(problem.grad_batch, params, S, d)
    if kernel is None:
        kernel = _Steps(problem.grad_batch, params, S, d)
    rnorm_buf = np.empty((ring.shape[1] - 1, S))
    with _forked(rows=consumer.rows, noise=consumer.noise) as (rx, tx, reports):
        for j, (b0, n) in enumerate(blocks):
            _recv(rx, reports)          # this block's noise is in its slot
            rows, E = _slot(ring, j, n)
            if E_hist is not None:
                E_hist[b0 - 1:b0 - 1 + n] = E
            rows[0] = X
            with np.errstate(over="ignore", invalid="ignore"):
                kernel.run(X, Xp, E, rows, schedule.at(np.arange(b0, b0 + n)), frozen)
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
                rnorm = _norms(rows[1:], out=rnorm)
            if np.isfinite(box):
                box_exits += (rnorm > box).sum(axis=0)
            if X_hist is not None:
                X_hist[b0:b0 + n] = rows[1:]
            # once handed over, the slot takes a later block's noise
            np.copyto(X, rows[n])
            np.copyto(Xp, rows[n - 1])
            _hand_over(reports, tx)
        rec_f, rec_g, rec_xz, rec_dist, trace, sn_ok, sn_total = _report(reports, 0)
        s = _report(reports, 1)
    if trace is not None:
        trace.partition, trace.s = partition, s

    return RunBatch(
        seeds=seeds, horizon=horizon, config=config, ks=consumer.grid,
        f=rec_f, grad_norm=rec_g, dist=rec_dist, xz=rec_xz,
        x_final=X.copy(),
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
