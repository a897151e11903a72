"""The runner's two-stage block pipeline: divergence freezing across
blocks, the tokens on the two pipes, and failures in either process.

The forked noise child draws each block's noise into the block's row slot;
the parent runs the momentum steps and the divergence scan over it,
evaluates the record grid and the window statistics from the finished
rows, then frees the slot for the noise child to reuse.  run_batch forks
exactly one child.  A parent that frees a slot and then lags still starts
every block from its own rows, and a parent that lags before consuming a
block still reads it as its steps left it.  An exception in the noise child
must come back with its original type, a dead child must show as an
exception that names it rather than a hang, and no run, whichever side
fails, may leave a child process behind.
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
from sgdmlab.noise import BlockNoise
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

    def grad_batch(x, out=None):
        if x.ndim == 2:             # the step kernel's calls, not the record grid's
            calls.append(1)
        return QUAD.grad_batch(x, out)

    rp = RecordingPolicy(store_vectors=True, block_size=8)
    runs = [run_batch(prob, *SGD_HALF, NoiseModel.gaussian(0.1), [0, 1], 41, recording=rp)
            for prob in (QUAD, dataclasses.replace(QUAD, grad_batch=grad_batch))]
    assert len(calls) == 40
    assert runs[0].X_hist.tobytes() == runs[1].X_hist.tobytes()
    _assert_no_children()


def _failing(fn, n: int, exc: Exception):
    """fn, except that its n-th call raises exc."""
    calls = []

    def call(*args):
        calls.append(1)
        if len(calls) == n:
            raise exc
        return fn(*args)
    return call


def _assert_raised_as_is(name: str, n: int, exc: Exception):
    """A run whose problem's `name` fails on its n-th call raises exc itself,
    and leaves the noise child killed and reaped."""
    prob = dataclasses.replace(QUAD, **{name: _failing(getattr(QUAD, name), n, exc)})
    rp = RecordingPolicy(block_size=16)
    with pytest.raises(type(exc)) as info:
        run_batch(prob, *SGD_HALF, NoiseModel.gaussian(0.1), [0, 1], 5000, recording=rp)
    assert info.value is exc
    _assert_no_children()


def test_parent_exception_kills_and_reaps_child():
    # the step loop runs in the parent
    _assert_raised_as_is("grad_batch", 100, FloatingPointError("step kernel failed"))


def test_child_exception_keeps_its_type():
    # the record grid, once run in a child of its own, runs in the parent:
    # its failure keeps its type and object, not a pipeline error
    _assert_raised_as_is("f_batch", 5, ValueError("record-grid evaluation failed"))


def test_run_batch_forks_exactly_once(monkeypatch):
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    part = build_partition(StepSchedule.constant(0.5), default_window(QUAD, MomentumParams.sgd()),
                           200)
    run_batch(QUAD, *SGD_HALF, NoiseModel.gaussian(0.1), [0, 1], 200, partition=part,
              recording=RecordingPolicy(block_size=8, track_step_norms=True))
    assert len(forks) == 1
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
    # ten blocks of four steps: once block j's slot is free, the child draws
    # block j + RING_SLOTS's noise into it, over the rows that held x^t and
    # x^{t-1}.  A parent that sleeps after every "slot free" lets it do so
    # before the parent starts block j + 1.
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
    rings, frees = [], []
    ring, free = runner._ring, runner._free

    def delayed_free(tx):
        free(tx)
        frees.append(1)
        time.sleep(0.05)

    monkeypatch.setattr(runner, "_ring", lambda *args: rings.append(ring(*args)) or rings[-1])
    monkeypatch.setattr(runner, "_free", delayed_free)
    delayed = run()
    _assert_no_children()

    assert (horizon - 1) // B >= 2 * RING_SLOTS
    assert len(frees) == (horizon - 1) // B - RING_SLOTS     # every reused slot
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


def test_slow_consumer_in_the_parent_gets_every_block_before_its_slot_is_reused(monkeypatch):
    # ten blocks of four steps: the noise child may draw block j + RING_SLOTS
    # only into the slot the parent has freed.  A parent that sleeps before
    # consuming every block lets the noise child run ahead up to that wait.
    prob = make_problem("quadratic", 2, mu=0.5, l=2.0)
    params, schedule = MomentumParams(0.6), StepSchedule.polynomial(0.3, 1.0, 0.6)
    horizon, B = 41, 4
    part = build_partition(schedule, default_window(prob, params), horizon)
    rp = RecordingPolicy(store_vectors=True, store_noise=True, window_profile=True,
                         store_boundary_vectors=True, track_step_norms=True,
                         block_size=B)

    def run():
        return run_batch(prob, params, schedule, NoiseModel.gaussian(0.1), [3, 4], horizon,
                         recording=rp, partition=part)

    plain = run()
    consume = runner._BlockConsumer.consume

    def slow_consume(self, *args):
        time.sleep(0.05)
        consume(self, *args)

    monkeypatch.setattr(runner._BlockConsumer, "consume", slow_consume)
    slow = run()
    _assert_no_children()
    assert (horizon - 1) // B >= 2 * RING_SLOTS
    for name in ("X_hist", "E_hist", "x_final", "f", "grad_norm", "xz", "dist",
                 "step_norm_ok", "step_norm_total"):
        assert getattr(slow, name).tobytes() == getattr(plain, name).tobytes(), name
    for field in dataclasses.fields(plain.window):
        want = getattr(plain.window, field.name)
        if isinstance(want, np.ndarray):
            assert getattr(slow.window, field.name).tobytes() == want.tobytes(), field.name


def test_noise_child_exception_keeps_its_type(monkeypatch):
    parent, calls = os.getpid(), []
    fill = BlockNoise.fill

    def failing_fill(self, E, sums=None):       # each block's draw, in the noise child
        calls.append(1)
        if os.getpid() != parent and len(calls) == 5:
            raise KeyError("noise draw failed")
        return fill(self, E, sums)

    monkeypatch.setattr(BlockNoise, "fill", failing_fill)
    rp = RecordingPolicy(block_size=8)
    with pytest.raises(KeyError, match="noise draw failed") as info:
        run_batch(QUAD, *SGD_HALF, NoiseModel.gaussian(0.1), [0, 1], 200, recording=rp)
    assert any("noise child process" in note for note in info.value.__notes__)
    _assert_no_children()


def test_dead_noise_child_raises_promptly(monkeypatch):
    parent = os.getpid()
    fill = BlockNoise.fill

    def dying_fill(self, E, sums=None):
        if os.getpid() != parent:
            os._exit(3)
        return fill(self, E, sums)

    monkeypatch.setattr(BlockNoise, "fill", dying_fill)
    t0 = time.perf_counter()
    with pytest.raises(PipelineError, match="noise child"):
        run_batch(QUAD, *SGD_HALF, NoiseModel.gaussian(0.1), [0, 1], 5000)
    assert time.perf_counter() - t0 < 10.0
    _assert_no_children()
