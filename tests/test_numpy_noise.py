"""The golden digests once more, with the noise drawn by numpy.

Gaussian and sphere noise take their normals from the compiled noise
library wherever it loads; here its loader is stubbed to fail, as on a
machine without a C compiler, so every stream draws with numpy's
Generator, which must give the same digests.  The noise a run stores must
be the same bytes either way, for both variants that draw normals.
"""

import numpy as np
import pytest

from sgdmlab import (MomentumParams, NoiseModel, NoiseStream, RecordingPolicy,
                     StepSchedule, _cnoise, make_problem, run_batch)
from test_golden_outputs import *       # noqa: F401,F403  (collected again here)

VARIANTS = {"gaussian": NoiseModel.gaussian(0.1), "sphere": NoiseModel.sphere(0.5)}


def _run(noise):
    # 5000 steps in blocks of 993: the sphere's 4096-row draw buffer is
    # refilled inside a block; seeds with one and two Philox key words
    rp = RecordingPolicy(store_vectors=True, store_noise=True, block_size=993)
    return run_batch(make_problem("quadratic", 3, mu=0.5, l=2.0), MomentumParams(0.6),
                     StepSchedule.polynomial(0.3, 1.0, 0.6), noise,
                     [7, 2**64 + 3, 2**128 - 1], 5001, recording=rp)


@pytest.fixture(scope="module")
def compiled_runs():
    """Each variant's run with the compiled noise on; set up before the
    function fixture below turns it off."""
    if _cnoise.load() is None:
        pytest.skip("the compiled noise does not load here (no C compiler?)")
    assert isinstance(NoiseStream(VARIANTS["sphere"], 3, 1)._src, _cnoise.Philox)
    return {name: _run(noise) for name, noise in VARIANTS.items()}


@pytest.fixture(autouse=True)
def numpy_noise(monkeypatch):
    monkeypatch.setattr(_cnoise, "load", lambda: None)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_stored_noise_and_rows_match_the_compiled_noise(compiled_runs, variant):
    noise = VARIANTS[variant]
    assert isinstance(NoiseStream(noise, 3, 1)._src, np.random.Generator)
    numpy_run, compiled_run = _run(noise), compiled_runs[variant]
    for name in ("E_hist", "X_hist", "x_final", "f", "grad_norm"):
        assert getattr(numpy_run, name).tobytes() == getattr(compiled_run, name).tobytes(), name
