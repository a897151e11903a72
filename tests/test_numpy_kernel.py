"""The golden-digest and runner-pipeline tests once more, on the numpy step
kernel and the numpy error scan.

The built-in quadratic and even_power (p = 1; p = 2 at d = 1) gradients run
the compiled step kernel, and every run with a window partition forms its
error sums with the compiled scan, wherever the library loads; here its
loader is stubbed to fail, as on a machine without a C compiler, so the same
tests run the numpy kernel and scan and must give the same digests.
"""

import pytest

from sgdmlab import (MomentumParams, NoiseModel, RecordingPolicy, StepSchedule,
                     build_partition, default_window, make_problem, run_batch, _ckernel)
from sgdmlab.runner import _WindowAccumulator
from test_golden_outputs import *       # noqa: F401,F403  (collected again here)
from test_runner_pipeline import *      # noqa: F401,F403


@pytest.fixture(autouse=True)
def numpy_kernel(monkeypatch):
    monkeypatch.setattr(_ckernel, "load", lambda: None)


def test_stub_runs_the_numpy_error_scan(monkeypatch):
    def compiled_scan(*args):
        raise AssertionError("the compiled error scan ran with the library stubbed off")

    monkeypatch.setattr(_WindowAccumulator, "_compiled_error_max", compiled_scan)
    problem, params = make_problem("quadratic", 3, mu=1.0, l=2.0), MomentumParams(0.5)
    schedule = StepSchedule.constant(1e-3)
    part = build_partition(schedule, default_window(problem, params), 300)
    batch = run_batch(problem, params, schedule, NoiseModel.gaussian(0.1), [0, 1], 300,
                      partition=part, recording=RecordingPolicy(window_profile=True))
    assert batch.window.n_windows == part.n_windows
