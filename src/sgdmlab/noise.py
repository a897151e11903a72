"""Stochastic gradient error models.

Every model has conditional mean zero; its declared second-moment bound
sigma_sq equals E||e||^2 exactly (d*sigma_c^2 for gaussian, 1 for the
axis sign noise, sigma^2 for the sphere, 0 for none).

Streams are addressed per seed: the draw consumed at step k is a pure
function of (seed, k) for a fixed model and dimension, because every
variant consumes a fixed number of values per step.  The same stream can
therefore be replayed under different momentum parameters, and replays
are bitwise identical regardless of how the consumer chunks its reads.
"""

from __future__ import annotations

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
            if self.sigma_c < 0:
                raise ValueError("gaussian noise needs sigma_c >= 0")
        elif self.variant == "axis_rademacher":
            if self.axis < 0:
                raise ValueError("axis index must be >= 0")
        elif self.variant == "sphere":
            if self.sigma < 0:
                raise ValueError("sphere noise needs sigma >= 0")
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


def _draw_block(model: NoiseModel, gen: np.random.Generator, out: np.ndarray):
    """Fill out, shape (n, dim), with n consecutive draws, in place."""
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
    """Buffered per-seed stream of error vectors e^1, e^2, ...

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
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))
        self._buf = np.empty((self._BLOCK, dim))   # refilled in place
        self._pos = self._BLOCK
        self.position = 0  # number of vectors emitted so far

    def take(self, n: int) -> np.ndarray:
        """Next n error vectors, shape (n, dim)."""
        return self.take_into(np.empty((n, self.dim)))

    def take_into(self, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (shape (n, dim), any strides) with the next n error
        vectors, straight from the draw buffer."""
        n = len(out)
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

    def reset(self):
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))
        self._pos = self._BLOCK
        self.position = 0


def sample_noise(model: NoiseModel, stream: NoiseStream, dim: int) -> np.ndarray:
    """One draw from the model; deterministic given the stream position."""
    if dim != stream.dim:
        raise DimensionMismatchError(
            f"stream built for dimension {stream.dim}, asked for {dim}")
    model.check_dim(dim)
    return stream.draw()
