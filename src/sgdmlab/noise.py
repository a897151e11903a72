"""Stochastic gradient error models.

Every model has conditional mean zero; its declared second-moment bound
sigma_sq equals E||e||^2 exactly (d*sigma_c^2 for gaussian, 1 for the
axis sign noise, sigma^2 for the sphere, 0 for none).

Streams are addressed per seed: the draw consumed at step k is a pure
function of (seed, k) for a fixed model and dimension, because every
variant consumes a fixed number of values per step.  The same stream can
therefore be replayed under different momentum parameters, and replays
are bitwise identical regardless of how the consumer chunks its reads.

Every seed's values come from Generator(Philox(key=seed)): its normals
for gaussian and sphere noise, its integers for the axis signs.  A
NoiseStream draws them with numpy, a buffer of rows at a time, and never
compiles anything.  A run's noise is a BlockNoise, which fills a block of
all its seeds' rows at once; for gaussian noise where the compiled
library loads (_ckernel.load) that is one call into C (_cnoise.block),
with numpy's bits and the block's error sums formed in the same pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DimensionMismatchError(ValueError):
    """Raised when a noise model is sampled at an incompatible dimension."""


@dataclass(frozen=True)
class NoiseModel:
    variant: str
    sigma_c: float = 0.0   # gaussian: per-coordinate std
    axis: int = 0          # axis_rademacher: coordinate carrying the +-1 sign
    sigma: float = 0.0     # sphere: radius

    def __post_init__(self):
        if self.variant == "gaussian":
            if not 0 <= self.sigma_c < math.inf:
                raise ValueError("gaussian noise needs a finite sigma_c >= 0")
        elif self.variant == "axis_rademacher":
            if self.axis < 0:
                raise ValueError("axis index must be >= 0")
        elif self.variant == "sphere":
            if not 0 <= self.sigma < math.inf:
                raise ValueError("sphere noise needs a finite sigma >= 0")
        elif self.variant != "none":
            raise ValueError(f"unknown noise variant {self.variant!r}")

    @classmethod
    def none(cls):
        return cls("none")

    @classmethod
    def gaussian(cls, sigma_c):
        return cls("gaussian", sigma_c=float(sigma_c))

    @classmethod
    def axis_rademacher(cls, axis):
        return cls("axis_rademacher", axis=int(axis))

    @classmethod
    def sphere(cls, sigma):
        return cls("sphere", sigma=float(sigma))

    def sigma_sq(self, dim: int) -> float:
        """Declared bound on E||e||^2 at dimension dim (met with equality)."""
        if self.variant == "none":
            return 0.0
        if self.variant == "gaussian":
            return dim * self.sigma_c**2
        if self.variant == "axis_rademacher":
            return 1.0
        return self.sigma**2

    def check_dim(self, dim: int):
        if dim < 1:
            raise DimensionMismatchError("dimension must be >= 1")
        if self.variant == "axis_rademacher" and self.axis >= dim:
            raise DimensionMismatchError(
                f"axis {self.axis} out of range for dimension {dim}")


def _draw_block(model: NoiseModel, gen, out: np.ndarray):
    """Fill out, shape (n, dim), with n consecutive draws of the numpy
    Generator gen, in place."""
    if model.variant == "gaussian":
        gen.standard_normal(out=out)
        np.multiply(out, model.sigma_c, out=out)
        return
    if model.variant == "sphere":
        # gaussian direction scaled onto the radius-sigma sphere
        gen.standard_normal(out=out)
        norms = np.sqrt(np.einsum("nd,nd->n", out, out))
        np.multiply(out, model.sigma, out=out)
        np.divide(out, norms[:, None], out=out)
        return
    out.fill(0.0)
    if model.variant == "axis_rademacher":
        out[:, model.axis] = 2.0 * gen.integers(0, 2, size=len(out)) - 1.0


class NoiseStream:
    """Per-seed stream of error vectors e^1, e^2, ...

    One vector is consumed per optimizer step, so the value at position k
    depends only on (seed, model, dim).  ``take`` may be called with any
    chunk sizes; the emitted sequence is identical either way.
    """

    _BLOCK = 4096

    def __init__(self, model: NoiseModel, dim: int, seed: int):
        model.check_dim(dim)
        self.model = model
        self.dim = dim
        self.seed = int(seed)
        self._buf = np.empty((self._BLOCK, dim))   # rows drawn ahead, refilled in place
        self.reset()

    def reset(self):
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))
        self._pos = self._BLOCK
        self.position = 0  # number of vectors emitted so far

    def take(self, n: int) -> np.ndarray:
        """Next n error vectors, shape (n, dim)."""
        return self.take_into(np.empty((n, self.dim)))

    def take_into(self, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (shape (n, dim), any strides) with the next n error
        vectors, copied from the draw buffer."""
        n = len(out)
        if out.shape[1:] != (self.dim,):
            raise DimensionMismatchError(f"out must have shape (n, {self.dim})")
        filled = 0
        while filled < n:
            if self._pos == len(self._buf):
                _draw_block(self.model, self._gen, self._buf)
                self._pos = 0
            m = min(n - filled, len(self._buf) - self._pos)
            out[filled:filled + m] = self._buf[self._pos:self._pos + m]
            self._pos += m
            filled += m
        self.position += n
        return out

    def draw(self) -> np.ndarray:
        """Next single error vector, shape (dim,)."""
        return self.take(1)[0]


class BlockNoise:
    """A run's noise: the next rows of S seeds' streams, a block at a time.

    Gaussian noise where the compiled library loads is drawn in C from the
    seeds' Philox states, the rows of one (S, _cnoise.STATE_WORDS) array;
    any other noise, and all noise where the library does not load, from
    the seeds' NoiseStreams.  Either way seed s's rows are those of
    NoiseStream(model, dim, s), bit for bit.  A fill may also form the
    block's window error sums s_k, with the same bits on every path: in
    the C draw's own pass, in a C pass over the streams' rows, or in
    numpy (_cnoise.sums_numpy).
    """

    def __init__(self, model: NoiseModel, dim: int, seeds):
        from . import _ckernel, _cnoise     # here: importing sgdmlab stays light
        model.check_dim(dim)
        self.model, self.dim, self.lib = model, dim, _ckernel.load()
        self.n_seeds = len(seeds)
        self.states = self.streams = None
        if self.lib is not None and model.variant == "gaussian":
            self.states = _cnoise.states(seeds)
        else:
            self.streams = [NoiseStream(model, dim, seed) for seed in seeds]

    def fill(self, E: np.ndarray, sums=None):
        """Fill E, shape (n, S, dim), with the next n error vectors of each
        seed, seed s in column s.  With sums = (a, lo, psum, smax), also
        form the block's window error sums (_cnoise.block): the restarted
        prefix sums of the weighted errors a[t] E[t] over the segments
        that start at rows lo, the first continuing from the carried sum
        psum (S, dim) and maximum smax (S,).  Returns each segment's
        largest norm per seed and leaves the last row's sums in psum;
        without sums, returns None.  Gaussian noise in C forms them in the
        draw's own pass, other noise in a second C pass over E, and
        _cnoise.sums_numpy where the library does not load."""
        from . import _cnoise
        if E.ndim != 3 or E.shape[1:] != (self.n_seeds, self.dim):
            raise DimensionMismatchError(f"E must have shape (n, {self.n_seeds}, {self.dim})")
        if self.streams is None:
            return _cnoise.block(self.lib.cnoise_block, self.states, E, self.model.sigma_c, sums)
        for s, stream in enumerate(self.streams):
            stream.take_into(E[:, s])
        if sums is None:
            return None
        if self.lib is None:
            return _cnoise.sums_numpy(E, *sums)
        return _cnoise.block(self.lib.cnoise_block, None, E, 0.0, sums)
