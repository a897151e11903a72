"""The runner's two-process block pipeline: divergence freezing across
blocks, and failures on either side of the fork.

The parent process runs the momentum steps and the divergence scan; the
forked child draws the noise and evaluates the record grid and the window
statistics.  A failure in the child must come back as an exception of
its original type, a dead child must show as an exception rather than a
hang, and no run may leave a child process behind.  The child draws each
block's noise into the block's row slot, which the parent then steps over;
a parent that lags the child still starts every block from its own rows.
"""

import dataclasses
import mmap
import os
import signal
import time

import numpy as np
import pytest

from sgdmlab import (MomentumParams, NoiseModel, NoiseStream, RecordingPolicy,
                     StepSchedule, build_partition, default_window, make_problem,
                     run_batch, runner)
from sgdmlab.runner import RING_SLOTS, PipelineError

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


def _nan_below(x, out=None):
    """grad of ||x||^2/2, with coordinate 1 NaN wherever x_0 < 0.01."""
    g = np.empty_like(x) if out is None else out
    g[...] = x
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


def test_replaced_grad_batch_is_called():
    # the built-in gradient declares a compiled form; a replacement, even
    # one computing the same values, runs the numpy kernel and is called
    calls = []
    parent = os.getpid()

    def grad_batch(x, out=None):
        if os.getpid() == parent:
            calls.append(1)
        return QUAD.grad_batch(x, out)

    rp = RecordingPolicy(store_vectors=True, block_size=8)
    runs = [run_batch(prob, *SGD_HALF, NoiseModel.gaussian(0.1), [0, 1], 41, recording=rp)
            for prob in (QUAD, dataclasses.replace(QUAD, grad_batch=grad_batch))]
    assert len(calls) == 40
    assert runs[0].X_hist.tobytes() == runs[1].X_hist.tobytes()
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

    def grad_batch(x, out=None):
        if os.getpid() == parent:       # the step loop runs in the parent
            calls.append(1)
            if len(calls) == 100:
                raise FloatingPointError("step kernel failed")
        return QUAD.grad_batch(x, out)

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


@pytest.mark.parametrize("params", [MomentumParams(0.6), MomentumParams.sgd()],
                         ids=["heavy_ball", "sgd"])
def test_delayed_parent_keeps_its_rows_when_the_slot_is_reused(params, monkeypatch):
    # ten blocks of four steps: once block j is handed over, the child draws
    # block j + RING_SLOTS's noise into the same slot, over the rows that
    # held x^t and x^{t-1}.  A parent that sleeps after every hand-over
    # lets it do so before the parent starts block j + 1.
    prob = make_problem("quadratic", 2, mu=0.5, l=2.0)
    schedule = StepSchedule.polynomial(0.3, 1.0, 0.6)
    horizon, B, seeds = 41, 4, [3, 4]
    part = build_partition(schedule, default_window(prob, params), horizon)
    rp = RecordingPolicy(store_vectors=True, store_noise=True, window_profile=True,
                         store_boundary_vectors=True, block_size=B)

    def run():
        return run_batch(prob, params, schedule, NoiseModel.gaussian(0.1), seeds, horizon,
                         recording=rp, partition=part)

    plain = run()
    rings = []
    ring, hand_over = runner._ring, runner._hand_over

    def delayed_hand_over(rx, tx):
        hand_over(rx, tx)
        time.sleep(0.05)

    monkeypatch.setattr(runner, "_ring", lambda *args: rings.append(ring(*args)) or rings[-1])
    monkeypatch.setattr(runner, "_hand_over", delayed_hand_over)
    delayed = run()
    _assert_no_children()

    assert (horizon - 1) // B >= 2 * RING_SLOTS
    for name in ("X_hist", "E_hist", "x_final", "f", "grad_norm", "xz"):
        assert getattr(delayed, name).tobytes() == getattr(plain, name).tobytes(), name
    for field in dataclasses.fields(plain.window):
        want = getattr(plain.window, field.name)
        if isinstance(want, np.ndarray):
            got = getattr(delayed.window, field.name)
            assert got.tobytes() == want.tobytes(), field.name

    # the noise rides in the row slots: one mapping, no separate noise slots
    (shared,) = rings
    for j in range(RING_SLOTS):
        rows, E = runner._slot(shared, j, B)
        assert np.shares_memory(E, rows) and np.shares_memory(rows, shared)
    base = shared
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base.obj, mmap.mmap)
    assert len(base.obj) == RING_SLOTS * (B + 1) * len(seeds) * prob.dim * 8
