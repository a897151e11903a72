"""The runner's two-stage block pipeline: divergence freezing across
blocks, the slots passed between the two threads, and failures on either
side.

The noise thread draws each block's noise into the block's row slot; the
caller runs the momentum steps and the divergence scan over it, evaluates
the record grid and the window statistics from the finished rows, then
frees the slot for the noise thread to reuse.  run_batch forks nothing.  A
caller that frees a slot and then lags still starts every block from its
own rows, and a caller that lags before consuming a block still reads it as
its steps left it.  An exception on either side, a SystemExit included,
must reach the caller as the same object rather than a hang, a signal must
stop a caller that waits for noise, and no run, however it ends, may leave
a thread or a child process behind.
"""

import contextlib
import dataclasses
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from sgdmlab import (MomentumParams, NoiseModel, NoiseStream, RecordingPolicy,
                     StepSchedule, build_partition, default_window, make_problem,
                     run_batch, runner)
from sgdmlab.noise import BlockNoise
from sgdmlab.runner import RING_SLOTS

QUAD = make_problem("quadratic", 2, mu=1.0, l=1.0)
SGD_HALF = (MomentumParams.sgd(), StepSchedule.constant(0.5))


def _assert_no_children():
    """No child process and no noise thread outlives the run."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.enumerate() == [threading.main_thread()]


def _on_noise_thread() -> bool:
    return threading.current_thread() is not threading.main_thread()


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
    and leaves the noise thread stopped and joined."""
    prob = dataclasses.replace(QUAD, **{name: _failing(getattr(QUAD, name), n, exc)})
    rp = RecordingPolicy(block_size=16)
    with pytest.raises(type(exc)) as info:
        run_batch(prob, *SGD_HALF, NoiseModel.gaussian(0.1), [0, 1], 5000, recording=rp)
    assert info.value is exc
    _assert_no_children()


def test_parent_exception_kills_and_reaps_child():
    # the step loop runs on the caller's thread
    _assert_raised_as_is("grad_batch", 100, FloatingPointError("step kernel failed"))


def test_child_exception_keeps_its_type():
    # the record grid, once run in a child process of its own, runs on the
    # caller's thread: its failure keeps its type and object
    _assert_raised_as_is("f_batch", 5, ValueError("record-grid evaluation failed"))


def test_run_batch_forks_nothing(monkeypatch):
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    part = build_partition(StepSchedule.constant(0.5), default_window(QUAD, MomentumParams.sgd()),
                           200)
    run_batch(QUAD, *SGD_HALF, NoiseModel.gaussian(0.1), [0, 1], 200, partition=part,
              recording=RecordingPolicy(block_size=8, track_step_norms=True))
    assert forks == []
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
    # ten blocks of four steps: once block j's slot is free, the noise thread
    # draws block j + RING_SLOTS's noise into it, over the rows that held x^t
    # and x^{t-1}.  A caller that sleeps after every "slot free" lets it do
    # so before the caller starts block j + 1.
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
    noise_thread, slot = runner._noise_thread, runner._slot

    @contextlib.contextmanager
    def delayed_noise_thread(*args):
        with noise_thread(*args) as (drawn, free):
            def delayed_free():
                free()
                frees.append(1)
                time.sleep(0.05)
            yield drawn, delayed_free

    def recorded_slot(ring, j, n):
        rings.append(ring)
        return slot(ring, j, n)

    monkeypatch.setattr(runner, "_noise_thread", delayed_noise_thread)
    monkeypatch.setattr(runner, "_slot", recorded_slot)
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

    # the noise rides in the row slots: one ndarray ring, no separate noise
    # slots, and every block's noise rows are a view of it
    shared = rings[0]
    assert all(ring is shared for ring in rings)
    assert type(shared) is np.ndarray and shared.base is None
    assert shared.nbytes == RING_SLOTS * (B + 1) * len(seeds) * prob.dim * 8
    for j in range(RING_SLOTS):
        rows, E = slot(shared, j, B)
        assert E.base is shared and rows.base is shared


def test_slow_consumer_in_the_parent_gets_every_block_before_its_slot_is_reused(monkeypatch):
    # ten blocks of four steps: the noise thread may draw block j + RING_SLOTS
    # only into the slot the caller has freed.  A caller that sleeps before
    # consuming every block lets the noise thread run ahead up to that wait.
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


def test_interleaved_threads_keep_the_bits():
    # a switch interval of 1 us lets the threads interleave almost anywhere:
    # three runs at once (six threads on fewer cores), in blocks of two steps
    # that go round the ring 100 times, must each give the bits of a run alone
    prob = make_problem("quadratic", 2, mu=0.5, l=2.0)
    params, schedule = MomentumParams(0.6), StepSchedule.polynomial(0.3, 1.0, 0.6)
    horizon = 601
    part = build_partition(schedule, default_window(prob, params), horizon)
    rp = RecordingPolicy(store_vectors=True, store_noise=True, window_profile=True,
                         block_size=2)

    def run():
        return run_batch(prob, params, schedule, NoiseModel.gaussian(0.1), [3, 4], horizon,
                         recording=rp, partition=part)

    alone, runs = run(), {}
    callers = [threading.Thread(target=lambda i=i: runs.update({i: run()})) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(20.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert sorted(runs) == [0, 1, 2]
    for batch in runs.values():
        for name in ("X_hist", "E_hist", "x_final", "f", "grad_norm", "xz"):
            assert getattr(batch, name).tobytes() == getattr(alone, name).tobytes(), name
        for field in dataclasses.fields(alone.window):
            want = getattr(alone.window, field.name)
            if isinstance(want, np.ndarray):
                got = getattr(batch.window, field.name)
                assert got.tobytes() == want.tobytes(), field.name
    _assert_no_children()


def test_noise_child_exception_keeps_its_type(monkeypatch):
    fill, calls = BlockNoise.fill, []
    exc = KeyError("noise draw failed")

    def failing_fill(self, E, sums=None):       # each block's draw, on the noise thread
        calls.append(1)
        if _on_noise_thread() and len(calls) == 5:
            raise exc
        return fill(self, E, sums)

    monkeypatch.setattr(BlockNoise, "fill", failing_fill)
    rp = RecordingPolicy(block_size=8)
    with pytest.raises(KeyError) as info:
        run_batch(QUAD, *SGD_HALF, NoiseModel.gaussian(0.1), [0, 1], 200, recording=rp)
    assert info.value is exc
    _assert_no_children()


def test_dead_noise_child_raises_promptly(monkeypatch):
    # a SystemExit on the noise thread ends the run like any exception, in
    # the caller; it must not end the thread silently and leave the caller
    # waiting for noise that never comes
    fill = BlockNoise.fill

    def exiting_fill(self, E, sums=None):
        if _on_noise_thread():
            raise SystemExit(3)
        return fill(self, E, sums)

    monkeypatch.setattr(BlockNoise, "fill", exiting_fill)
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        run_batch(QUAD, *SGD_HALF, NoiseModel.gaussian(0.1), [0, 1], 5000)
    assert time.perf_counter() - t0 < 10.0
    assert info.value.code == 3
    _assert_no_children()


def test_caller_exception_while_the_noise_thread_waits_for_a_slot(monkeypatch):
    # the caller's first consume lags until the noise thread has filled every
    # slot and waits for a free one, then raises: the run ends promptly, and
    # the noise thread draws no further block
    fill, draws = BlockNoise.fill, []
    exc = ValueError("consume failed")

    def counted_fill(self, E, sums=None):
        draws.append(1)
        return fill(self, E, sums)

    def failing_consume(self, *args):
        t0 = time.perf_counter()
        while len(draws) < RING_SLOTS and time.perf_counter() - t0 < 10.0:
            time.sleep(0.01)
        time.sleep(0.1)             # the noise thread waits for a slot by now
        raise exc

    monkeypatch.setattr(BlockNoise, "fill", counted_fill)
    monkeypatch.setattr(runner._BlockConsumer, "consume", failing_consume)
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as info:
        run_batch(QUAD, *SGD_HALF, NoiseModel.gaussian(0.1), [0, 1], 5000,
                  recording=RecordingPolicy(block_size=16))
    assert time.perf_counter() - t0 < 10.0
    assert info.value is exc
    assert len(draws) == RING_SLOTS
    _assert_no_children()


def test_signal_stops_a_caller_that_waits_for_noise(monkeypatch):
    # the noise thread stalls in block 1's draw and arms a SIGALRM, whose
    # handler raises in the caller, by then waiting for that block: the
    # signal must end the wait, and the run then joins the noise thread
    fill, gate = BlockNoise.fill, threading.Event()
    calls = []

    def stalled_fill(self, E, sums=None):
        if _on_noise_thread():
            calls.append(1)
            if len(calls) == 2:
                signal.setitimer(signal.ITIMER_REAL, 0.2)
                gate.wait(10.0)
        return fill(self, E, sums)

    def expire(signum, frame):
        gate.set()
        raise TimeoutError("stopped by a signal")

    monkeypatch.setattr(BlockNoise, "fill", stalled_fill)
    signal.signal(signal.SIGALRM, expire)       # the deadline fixture restores its own
    t0 = time.perf_counter()
    with pytest.raises(TimeoutError, match="stopped by a signal"):
        run_batch(QUAD, *SGD_HALF, NoiseModel.gaussian(0.1), [0, 1], 5000,
                  recording=RecordingPolicy(block_size=16))
    assert time.perf_counter() - t0 < 5.0
    _assert_no_children()
