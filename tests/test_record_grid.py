"""The scalar record grid of run_batch on every built-in problem.

A block's grid points are evaluated together, with one f_batch and one
grad_batch call over a (g, S, d) gather of their rows.  Each record must
equal, bit for bit, the same function evaluated at that one grid point's
(S, d) iterates of the stored history: f, ||grad f||, ||x - z|| from the
iterate before it, and ||x - x_star||.
"""

import numpy as np
import pytest

from sgdmlab import (MomentumParams, NoiseModel, RecordingPolicy, StepSchedule,
                     make_problem, run_batch)

PROBLEMS = {
    "quadratic": make_problem("quadratic", 3, mu=0.5, l=2.0),
    **{f"even_power_p{p}_d{d}": make_problem("even_power", d, p=p)
       for p in (1, 1.5, 2) for d in (1, 3)},
    "sin_toy": make_problem("sin_toy"),
    "rosenbrock": make_problem("rosenbrock"),
    "shifted_quartic": make_problem("shifted_quartic"),
}


def _norm(v):
    return np.sqrt(np.einsum("...d,...d->...", v, v))


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_records_equal_pointwise_evaluation(name, lam):
    prob = PROBLEMS[name]
    rp = RecordingPolicy(store_vectors=True, stride=7, block_size=64)
    batch = run_batch(prob, MomentumParams(lam), StepSchedule.constant(1e-3),
                      NoiseModel.gaussian(0.1), [0, 1, 2], 500, recording=rp)
    assert not batch.diverged_at.any()
    assert len(batch.ks) > 200
    X = batch.X_hist
    for i, k in enumerate(batch.ks.tolist()):
        x = X[k - 1]
        assert batch.f[i].tobytes() == prob.f_batch(x).tobytes(), k
        assert batch.grad_norm[i].tobytes() == _norm(prob.grad_batch(x)).tobytes(), k
        xz = np.zeros(3) if lam == 0.0 or k == 1 else lam / (1.0 - lam) * _norm(x - X[k - 2])
        assert batch.xz[i].tobytes() == xz.tobytes(), k
        if prob.x_star is None:
            assert batch.dist is None
        else:
            assert batch.dist[i].tobytes() == _norm(x - prob.x_star).tobytes(), k
