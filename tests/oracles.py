"""Reference recomputations of the window statistics from a stored
iterate history.

Each function loops over the windows of a partition and reads the full
iterate history ``traj.X_hist`` (and the noise log ``traj.E_hist``, or a
replay of the seed's noise stream), so it shares no code path with the
streaming window engine in ``sgdmlab.runner``.  The tests compare the
engine's ``WindowTrace`` against these, and feed ``window_quantities``
to ``judge_windows`` to check ``check_windows``.
"""

import numpy as np

from sgdmlab import InsufficientRecordingError, NoiseStream, merit_zeta
from sgdmlab.trajectory import decade_of, n_decades
from sgdmlab.windows import CauchyProfile


def _norms(A):
    return np.sqrt(np.einsum("nd,nd->n", A, A))


def _history(traj, partition):
    if traj.horizon != partition.horizon:
        raise ValueError("partition horizon does not match trajectory horizon")
    if traj.X_hist is None:
        raise InsufficientRecordingError("the oracles need stored vectors")
    return traj.X_hist


def z_rows(X, lam):
    """Interpolation sequence from the iterate history; z^1 = x^1."""
    if lam == 0.0:
        return X
    c = 1.0 / (1.0 - lam)
    Z = np.empty_like(X)
    Z[0] = X[0]
    Z[1:] = X[1:] * c - (lam * c) * X[:-1]
    return Z


def aggregate_errors(traj, partition):
    """s_k = max_{t in Gamma_k} || sum_{i=gamma_k}^{t-1} alpha_i e^i || per window.

    Uses the stored noise log when present, otherwise replays the stream.
    """
    if traj.horizon != partition.horizon:
        raise ValueError("partition horizon does not match trajectory horizon")
    alphas = traj.config["schedule"].prefix(traj.horizon - 1)
    if traj.E_hist is not None:
        fetch = lambda lo, n: traj.E_hist[lo - 1:lo - 1 + n]
    else:
        stream = NoiseStream(traj.config["noise"], traj.config["problem"].dim, traj.seed)
        fetch = lambda lo, n: stream.take(n)
    out = np.empty(partition.n_windows)
    for k in range(partition.n_windows):
        lo, hi = int(partition.gammas[k]), int(partition.gammas[k + 1])
        P = np.cumsum(fetch(lo, hi - lo) * alphas[lo - 1:hi - 1, None], axis=0)
        out[k] = _norms(P).max()
    return out


def iterate_spread(traj, partition, lam):
    """d_k = max over the window of the deviations of x and z from the anchor."""
    X = _history(traj, partition)
    Z = z_rows(X, lam)
    out = np.empty(partition.n_windows)
    for k in range(partition.n_windows):
        lo, hi = int(partition.gammas[k]), int(partition.gammas[k + 1])
        out[k] = max(_norms(X[lo:hi] - X[lo - 1]).max(),
                     _norms(Z[lo:hi] - Z[lo - 1]).max())
    return out


def decade_spread_sums(traj, partition, lam):
    """Per decade of the window starts gamma_k, the spreads d_k of its
    windows summed one at a time in window order, and their number."""
    d = iterate_spread(traj, partition, lam)
    dec = decade_of(partition.gammas[:-1])
    sums, counts = np.zeros(n_decades(traj.horizon)), np.zeros(n_decades(traj.horizon))
    for k in range(partition.n_windows):
        sums[dec[k]] += d[k]
        counts[dec[k]] += 1.0
    return sums, counts


def window_quantities(traj, partition, problem, params):
    """(lo, s, spread, zx, gz, merit, merit_grad_sq) for windows 1..W and
    anchors 1..W+1, in the argument order of ``judge_windows``."""
    X = _history(traj, partition)
    Z = z_rows(X, params.lam)
    anchors = partition.gammas - 1          # rows of the anchor iterates
    ax, az = X[anchors], Z[anchors]
    diff = az - ax
    zx = _norms(diff)
    gzv = problem.grad_batch(az)
    zeta = merit_zeta(problem, params)
    merit = problem.f_batch(az) + zeta * zx**2
    gblock = gzv + (2.0 * zeta) * diff
    merit_grad_sq = (4.0 * zeta**2) * zx**2 + np.einsum("nd,nd->n", gblock, gblock)
    return (1, aggregate_errors(traj, partition), iterate_spread(traj, partition, params.lam),
            zx, _norms(gzv), merit, merit_grad_sq)


def cauchy_profile(traj, partition):
    """Boundary steps ||x^{gamma_{k+1}} - x^{gamma_k}|| and intra-window
    maxima ||x^t - x^{gamma_k}|| from the iterate history."""
    X = _history(traj, partition)
    anchors = partition.gammas - 1
    bs = _norms(X[anchors[1:]] - X[anchors[:-1]])
    intra = np.empty(partition.n_windows)
    for k in range(partition.n_windows):
        lo, hi = int(partition.gammas[k]), int(partition.gammas[k + 1])
        intra[k] = _norms(X[lo:hi] - X[lo - 1]).max()
    return CauchyProfile(windows=np.arange(1, partition.n_windows + 1),
                         boundary_steps=bs, boundary_cumsum=np.cumsum(bs),
                         intra_max=intra)
