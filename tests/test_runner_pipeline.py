"""The runner's two-process block pipeline: divergence freezing across
blocks, and failures on either side of the fork.

The parent process runs the momentum steps and the divergence scan; the
forked child draws the noise and evaluates the record grid and the window
statistics.  A failure in the child must come back as an exception of
its original type, a dead child must show as an exception rather than a
hang, and no run may leave a child process behind.
"""

import dataclasses
import os
import signal
import time

import numpy as np
import pytest

from sgdmlab import (MomentumParams, NoiseModel, NoiseStream, RecordingPolicy,
                     StepSchedule, make_problem, run_batch)
from sgdmlab.runner import PipelineError

QUAD = make_problem("quadratic", 2, mu=1.0, l=1.0)
SGD_HALF = (MomentumParams.sgd(), StepSchedule.constant(0.5))


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that runs longer than 30 s instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError("run_batch did not return")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def _nan_below(x):
    """grad of ||x||^2/2, with coordinate 1 NaN wherever x_0 < 0.01."""
    g = x.copy()
    g[..., 1] = np.where(x[..., 0] < 0.01, np.nan, x[..., 1])
    return g


def test_nan_gradient_coordinate_freezes_finite_rows():
    # x^k = 0.5^(k-1) (1, 1): x^8 is the first iterate with x_0 < 0.01, so
    # the step from x^8 makes x^9 NaN in one coordinate.  Blocks of four
    # steps put x^9 in the second block; the later eight blocks must stay
    # frozen at x^8 although the gradient there is NaN.
    prob = dataclasses.replace(QUAD, grad_batch=_nan_below)
    rp = RecordingPolicy(store_vectors=True, block_size=4)
    batch = run_batch(prob, *SGD_HALF, NoiseModel.none(), [0, 1], 41, recording=rp)
    assert batch.diverged_at.tolist() == [8, 8]
    X = batch.X_hist
    for k in range(1, 9):
        assert np.array_equal(X[k - 1], np.full((2, 2), 0.5 ** (k - 1)))
    assert np.isfinite(X).all()
    assert (X[8:] == X[7]).all()
    assert np.array_equal(batch.x_final, X[7])
    assert np.isfinite(batch.f).all()
    _assert_no_children()


def test_child_exception_keeps_its_type():
    calls = []

    def f_batch(x):                     # the record grid runs in the child
        calls.append(1)
        if len(calls) == 5:
            raise ValueError("record-grid evaluation failed")
        return QUAD.f_batch(x)

    prob = dataclasses.replace(QUAD, f_batch=f_batch)
    rp = RecordingPolicy(block_size=8)
    with pytest.raises(ValueError, match="record-grid evaluation failed") as info:
        run_batch(prob, *SGD_HALF, NoiseModel.gaussian(0.1), [0, 1], 200, recording=rp)
    assert any("child process" in note for note in info.value.__notes__)
    _assert_no_children()


def test_dead_child_raises_promptly():
    parent = os.getpid()

    def f_batch(x):
        if os.getpid() != parent:
            os._exit(3)
        return QUAD.f_batch(x)

    prob = dataclasses.replace(QUAD, f_batch=f_batch)
    t0 = time.perf_counter()
    with pytest.raises(PipelineError):
        run_batch(prob, *SGD_HALF, NoiseModel.gaussian(0.1), [0, 1], 5000)
    assert time.perf_counter() - t0 < 10.0
    _assert_no_children()


def test_parent_exception_kills_and_reaps_child():
    parent = os.getpid()
    calls = []

    def grad_batch(x):
        if os.getpid() == parent:       # the step loop runs in the parent
            calls.append(1)
            if len(calls) == 100:
                raise FloatingPointError("step kernel failed")
        return QUAD.grad_batch(x)

    prob = dataclasses.replace(QUAD, grad_batch=grad_batch)
    rp = RecordingPolicy(block_size=16)
    with pytest.raises(FloatingPointError, match="step kernel failed"):
        run_batch(prob, *SGD_HALF, NoiseModel.gaussian(0.1), [0, 1], 5000, recording=rp)
    _assert_no_children()


def test_ring_edges_keep_the_noise_streams():
    # no steps, one step, exactly one full block, one block and one step
    for horizon in (1, 2, 9, 10):
        rp = RecordingPolicy(store_vectors=True, store_noise=True, block_size=8)
        batch = run_batch(QUAD, *SGD_HALF, NoiseModel.gaussian(0.1), [3, 4], horizon,
                          recording=rp)
        assert batch.X_hist.shape == (horizon, 2, 2)
        assert batch.ks[-1] == horizon
        for i, seed in enumerate((3, 4)):
            stream = NoiseStream(NoiseModel.gaussian(0.1), 2, seed)
            assert np.array_equal(batch.E_hist[:, i], stream.take(horizon - 1))
    _assert_no_children()
