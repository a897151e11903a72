"""The golden-digest and runner-pipeline tests once more, on the numpy step
kernel.

The built-in quadratic and even_power (p = 1; p = 2 at d = 1) gradients run
the compiled kernel wherever it loads; here its loader is stubbed to fail,
as on a machine without a C compiler, so the same tests run the numpy
kernel and must give the same digests.
"""

import pytest

from sgdmlab import _ckernel
from test_golden_outputs import *       # noqa: F401,F403  (collected again here)
from test_runner_pipeline import *      # noqa: F401,F403


@pytest.fixture(autouse=True)
def numpy_kernel(monkeypatch):
    monkeypatch.setattr(_ckernel, "load", lambda: None)
