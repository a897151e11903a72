"""Run records produced by the runner.

A run is one ``RunBatch`` whatever its number of seeds: every array
carries a trailing seed axis, and a single-seed run is a one-seed batch,
``run_batch(..., [seed], ...)``, bitwise equal to that seed's column of
any batch.

Memory policy: per-step records are scalars sampled on a (geometric and/or
strided) index grid; full iterate vectors are kept only when explicitly
requested, and per-window statistics are accumulated streaming during the
run so million-step trajectories stay small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .windows import WindowPartition


class InsufficientRecordingError(ValueError):
    """A diagnostic needs data the trajectory was not asked to record."""


@dataclass(frozen=True)
class RecordingPolicy:
    """What a run keeps.

    stride             -- record scalars every ``stride`` steps (0 = off)
    points_per_decade  -- geometric scalar-record grid density
    store_vectors      -- keep the full iterate history (short runs only)
    store_noise        -- keep the realized error vectors
    store_boundary_vectors -- keep the iterate pair (x^gamma, x^{gamma-1})
                          at every window boundary
    track_step_norms   -- per-step ||x_{k+1} - x_k|| summary (count of steps
                          at least alpha_k, and the total path length)
    window_profile     -- keep per-window detail from window 1 on and the
                          boundary displacement norms for the Cauchy
                          profile; without it, per-window detail starts at
                          the applicability index K_T (none if K_T is None)
    divergence_cap     -- abort a seed once ||x|| exceeds this
    """

    stride: int = 0
    points_per_decade: int = 200
    store_vectors: bool = False
    store_noise: bool = False
    store_boundary_vectors: bool = False
    track_step_norms: bool = False
    window_profile: bool = False
    divergence_cap: float = 1e12
    block_size: int = 2048


def record_grid(horizon: int, policy: RecordingPolicy) -> np.ndarray:
    """Sorted unique record indices in [1, horizon]."""
    ks = {1, horizon}
    if policy.points_per_decade > 0 and horizon > 1:
        n = int(np.ceil(np.log10(horizon) * policy.points_per_decade)) + 1
        expo = np.linspace(0.0, np.log10(horizon), max(n, 2))
        ks.update(int(v) for v in np.rint(10.0**expo))
    if policy.stride > 0:
        ks.update(range(1, horizon + 1, policy.stride))
    arr = np.array(sorted(k for k in ks if 1 <= k <= horizon), dtype=np.int64)
    return arr


@dataclass
class WindowTrace:
    """Streaming per-window statistics for one run batch.

    Arrays are indexed (window, seed) for windows ``detail_lo .. n_windows``
    and (boundary, seed) for anchors ``detail_lo .. n_windows + 1``.  The
    decade aggregates cover every window regardless of the detail range.
    """

    n_windows: int
    detail_lo: int                      # first stored window (n_windows+1 = none)
    s: np.ndarray                       # aggregated error, (Wd, S)
    xdev: np.ndarray                    # max ||x^t - x^anchor|| in window
    zdev: np.ndarray                    # max ||z^t - z^anchor|| in window
    zx: np.ndarray                      # ||z - x|| at anchors, (Wd+1, S)
    gz: np.ndarray                      # ||grad f(z)|| at anchors
    merit: np.ndarray                   # M(x, z) at anchors
    merit_grad_sq: np.ndarray           # ||grad M||^2 at anchors
    boundary_step: np.ndarray | None    # ||x^{gamma_{k+1}} - x^{gamma_k}||, (W, S)
    decade_d_sum: np.ndarray            # (n_decades, S)
    decade_d_cnt: np.ndarray            # (n_decades,)
    boundary_x: np.ndarray | None = None        # x^{gamma_k}, (W+1, S, d)
    boundary_x_prev: np.ndarray | None = None   # x^{gamma_k - 1}
    partition: WindowPartition | None = None    # the partition the run used
    K_T: int | None = None                      # its applicability index

    @property
    def spread(self) -> np.ndarray:
        """d_k = max of the x- and z-deviation maxima."""
        return np.maximum(self.xdev, self.zdev)


@dataclass
class RunBatch:
    """Seed-vectorized run results; arrays carry a trailing seed axis."""

    seeds: list[int]
    horizon: int
    config: dict
    ks: np.ndarray
    f: np.ndarray                       # (G, S)
    grad_norm: np.ndarray
    dist: np.ndarray | None
    xz: np.ndarray
    x_final: np.ndarray                 # (S, d)
    diverged_at: np.ndarray             # (S,)
    box_exits: np.ndarray               # (S,)
    window: WindowTrace | None = None
    X_hist: np.ndarray | None = None    # (horizon, S, d)
    E_hist: np.ndarray | None = None
    step_norm_ok: np.ndarray | None = None      # (S,)
    step_norm_total: np.ndarray | None = None   # (S,)

    @property
    def n_seeds(self) -> int:
        return len(self.seeds)


def decade_of(k) -> np.ndarray:
    """Decade index of step k: 0 for k in [1, 10], 1 for (10, 100], ..."""
    k = np.asarray(k, dtype=float)
    return np.maximum(0, np.ceil(np.log10(k)) - 1).astype(np.int64)


def n_decades(horizon: int) -> int:
    return int(decade_of(horizon)) + 1
