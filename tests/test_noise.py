import os
import subprocess
import sys

import numpy as np
import pytest

from sgdmlab import DimensionMismatchError, NoiseModel, NoiseStream


def test_none_is_zero():
    stream = NoiseStream(NoiseModel.none(), 4, seed=0)
    assert np.array_equal(stream.take(10), np.zeros((10, 4)))


def test_axis_rademacher_support_and_balance():
    model = NoiseModel.axis_rademacher(axis=1)
    stream = NoiseStream(model, 2, seed=3)
    draws = stream.take(20000)
    assert np.array_equal(draws[:, 0], np.zeros(20000))
    assert set(np.unique(draws[:, 1])) == {-1.0, 1.0}
    frac = (draws[:, 1] > 0).mean()
    assert abs(frac - 0.5) < 0.02


def test_axis_out_of_range():
    model = NoiseModel.axis_rademacher(axis=2)
    with pytest.raises(DimensionMismatchError):
        NoiseStream(model, 2, seed=0)


def test_gaussian_monte_carlo_moments():
    # 1e6 draws in dimension 5 with unit per-coordinate std
    model = NoiseModel.gaussian(1.0)
    stream = NoiseStream(model, 5, seed=11)
    draws = stream.take(1_000_000)
    assert np.all(np.abs(draws.mean(axis=0)) < 4e-3)
    second = np.einsum("nd,nd->n", draws, draws).mean()
    assert abs(second - 5.0) < 0.05
    assert model.sigma_sq(5) == 5.0


def test_sphere_norm_exact():
    model = NoiseModel.sphere(0.3)
    stream = NoiseStream(model, 7, seed=5)
    draws = stream.take(5000)
    norms = np.linalg.norm(draws, axis=1)
    assert np.allclose(norms, 0.3, rtol=1e-12)
    assert np.all(np.abs(draws.mean(axis=0)) < 0.01)
    assert model.sigma_sq(7) == pytest.approx(0.09)


def test_declared_sigma_sq():
    assert NoiseModel.none().sigma_sq(3) == 0.0
    assert NoiseModel.gaussian(0.5).sigma_sq(4) == 1.0
    assert NoiseModel.axis_rademacher(0).sigma_sq(9) == 1.0


def test_stream_deterministic_and_chunk_invariant():
    model = NoiseModel.gaussian(1.0)
    a = NoiseStream(model, 3, seed=42).take(100)
    b_stream = NoiseStream(model, 3, seed=42)
    b = np.concatenate([b_stream.take(7), b_stream.take(13), b_stream.take(80)])
    assert np.array_equal(a, b)
    c_stream = NoiseStream(model, 3, seed=43)
    assert not np.array_equal(a, c_stream.take(100))


def test_stream_reset_replays():
    stream = NoiseStream(NoiseModel.gaussian(2.0), 2, seed=9)
    first = stream.take(50)
    stream.reset()
    assert np.array_equal(first, stream.take(50))
    assert stream.position == 50


def test_stream_dimension_checks():
    stream = NoiseStream(NoiseModel.gaussian(1.0), 3, seed=1)
    assert stream.draw().shape == (3,)
    assert stream.take(5).shape == (5, 3)
    with pytest.raises(DimensionMismatchError):
        NoiseStream(NoiseModel.gaussian(1.0), 0, seed=1)


def test_invalid_model_parameters():
    with pytest.raises(ValueError):
        NoiseModel.gaussian(-1.0)
    with pytest.raises(ValueError):
        NoiseModel.sphere(-0.1)
    with pytest.raises(ValueError):
        NoiseModel("smurf")


@pytest.mark.parametrize("model,dim", [
    (NoiseModel.gaussian(0.7), 4),
    (NoiseModel.axis_rademacher(0), 3),
    (NoiseModel.sphere(1.3), 6),
])
def test_conditional_moments_match_declared(model, dim):
    stream = NoiseStream(model, dim, seed=17)
    draws = stream.take(200_000)
    second = np.einsum("nd,nd->n", draws, draws).mean()
    assert second == pytest.approx(model.sigma_sq(dim), rel=2e-2)
    assert np.all(np.abs(draws.mean(axis=0)) < 0.02)


def test_streams_compile_nothing():
    # in a fresh process: importing sgdmlab and drawing from any stream
    # leaves the compiled library unbuilt and its modules unimported
    code = """
import sys
import numpy as np
import sgdmlab
for model in (sgdmlab.NoiseModel.gaussian(0.5), sgdmlab.NoiseModel.sphere(2.0),
              sgdmlab.NoiseModel.axis_rademacher(1)):
    stream = sgdmlab.NoiseStream(model, 3, 7)
    stream.take(5000)
    stream.take_into(np.empty((10, 2, 3))[:, 1])
loaded = sorted({"sgdmlab._ckernel", "sgdmlab._cnoise"} & set(sys.modules))
assert not loaded, loaded
"""
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
