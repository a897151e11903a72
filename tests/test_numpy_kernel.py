"""The golden-digest and runner-pipeline tests once more, with the compiled
library stubbed off, as on a machine without a C compiler: the numpy step
kernel, the numpy error sums and numpy's normals together must give the
same digests, and a run must store the same noise bytes as with the
library, for both variants that draw normals.
"""

import os

import pytest

from sgdmlab import (MomentumParams, NoiseModel, RecordingPolicy, StepSchedule,
                     build_partition, default_window, make_problem, run_batch, runner,
                     _ckernel, _cnoise)
from test_golden_outputs import *       # noqa: F401,F403  (collected again here)
from test_runner_pipeline import *      # noqa: F401,F403

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
    """Each variant's run with the compiled library on; set up before the
    function fixture below turns it off."""
    if _ckernel.load() is None:
        pytest.skip("the compiled library does not load here (no C compiler?)")
    return {name: _run(noise) for name, noise in VARIANTS.items()}


@pytest.fixture(autouse=True)
def numpy_fallback(monkeypatch):
    monkeypatch.setattr(_ckernel, "load", lambda: None)


def test_stub_runs_the_numpy_error_scan(monkeypatch, tmp_path):
    def compiled(*args):
        raise AssertionError("compiled code ran with the library stubbed off")

    log, sums_numpy = tmp_path / "calls", _cnoise.sums_numpy

    def spy(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return sums_numpy(*args)

    monkeypatch.setattr(_cnoise, "sums_numpy", spy)
    monkeypatch.setattr(_ckernel, "Steps", compiled)        # quadratic declares a form
    monkeypatch.setattr(_ckernel, "Spreads", compiled)      # the run has windows
    monkeypatch.setattr(_cnoise, "states", compiled)        # gaussian noise draws normals
    monkeypatch.setattr(_cnoise, "block", compiled)         # and sums in the same call
    problem, params = make_problem("quadratic", 3, mu=1.0, l=2.0), MomentumParams(0.5)
    schedule = StepSchedule.constant(1e-3)
    part = build_partition(schedule, default_window(problem, params), 300)
    batch = run_batch(problem, params, schedule, NoiseModel.gaussian(0.1), [0, 1], 300,
                      partition=part, recording=RecordingPolicy(window_profile=True))
    assert batch.window.n_windows == part.n_windows
    calls = log.read_text().split()     # one call per block, in the noise child
    assert len(calls) == 1 and calls[0] != str(os.getpid())


def test_stub_runs_the_numpy_window_spreads_in_the_parent(monkeypatch):
    calls, segment_dev_max = [], runner._segment_dev_max

    def spy(*args):
        calls.append(os.getpid())
        return segment_dev_max(*args)

    monkeypatch.setattr(runner, "_segment_dev_max", spy)
    problem, params = make_problem("quadratic", 3, mu=1.0, l=2.0), MomentumParams(0.5)
    schedule = StepSchedule.constant(1e-3)
    part = build_partition(schedule, default_window(problem, params), 300)
    run_batch(problem, params, schedule, NoiseModel.gaussian(0.1), [0, 1], 300,
              partition=part, recording=RecordingPolicy(block_size=64))
    # the x and z rows of each of the five blocks, all in the parent
    assert calls == [os.getpid()] * 10


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_stored_noise_and_rows_match_the_compiled_noise(compiled_runs, variant):
    numpy_run, compiled_run = _run(VARIANTS[variant]), compiled_runs[variant]
    for name in ("E_hist", "X_hist", "x_final", "f", "grad_norm"):
        assert getattr(numpy_run, name).tobytes() == getattr(compiled_run, name).tobytes(), name
