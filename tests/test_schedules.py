import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgdmlab import (InvalidRangeError, ScheduleExhaustedError, StepSchedule,
                     validate_schedule)


def test_polynomial_step_sizes():
    sched = StepSchedule.polynomial(1.0, 0.0, 1.0)
    assert sched.step_size(2) == 0.5
    assert sched.step_size(1) == 1.0
    assert sched.step_size(10) == 0.1


def test_constant_step_size_everywhere():
    sched = StepSchedule.constant(0.02)
    assert sched.step_size(10**6) == 0.02
    assert sched.step_size(1) == 0.02


def test_polynomial_with_offset_and_sqrt_decay():
    sched = StepSchedule.polynomial(0.1, 9.0, 0.5)
    assert sched.step_size(1) == pytest.approx(0.1 / math.sqrt(10.0), rel=1e-15)


def test_prefix_matches_step_size_bitwise():
    for sched in (StepSchedule.polynomial(0.3, 2.0, 0.8),
                  StepSchedule.constant(0.5),
                  StepSchedule.explicit([0.5, 0.5, 0.25, 0.1])):
        pre = sched.prefix(4)
        assert [sched.step_size(k) for k in range(1, 5)] == pre.tolist()


def test_explicit_exhausted():
    sched = StepSchedule.explicit([0.5, 0.25])
    assert sched.step_size(2) == 0.25
    with pytest.raises(ScheduleExhaustedError):
        sched.step_size(3)
    with pytest.raises(ScheduleExhaustedError):
        sched.prefix(3)


def test_explicit_must_be_positive_non_increasing():
    with pytest.raises(ValueError):
        StepSchedule.explicit([0.1, 0.2])
    with pytest.raises(ValueError):
        StepSchedule.explicit([0.1, -0.1])
    with pytest.raises(ValueError):
        StepSchedule.explicit([])


def test_invalid_parameters():
    with pytest.raises(ValueError):
        StepSchedule.polynomial(0.0)
    with pytest.raises(ValueError):
        StepSchedule.polynomial(1.0, -1.0)
    with pytest.raises(ValueError):
        StepSchedule.polynomial(1.0, 0.0, 1.5)
    with pytest.raises(ValueError):
        StepSchedule.constant(0.0)


def test_partial_sum_basic():
    sched = StepSchedule.polynomial(1.0, 0.0, 1.0)
    assert sched.partial_sum(7, 7) == 0.0
    assert sched.partial_sum(2, 4) == pytest.approx(1 / 2 + 1 / 3, rel=1e-15)
    assert sched.partial_sum(1, 2) == 1.0
    with pytest.raises(InvalidRangeError):
        sched.partial_sum(4, 2)


@settings(max_examples=50, deadline=None)
@given(m=st.integers(1, 40), a=st.integers(0, 30), b=st.integers(0, 30),
       gamma=st.floats(0.5, 1.0))
def test_partial_sum_additivity(m, a, b, gamma):
    sched = StepSchedule.polynomial(0.7, 1.0, gamma)
    n, p = m + a, m + a + b
    lhs = sched.partial_sum(m, n) + sched.partial_sum(n, p)
    rhs = sched.partial_sum(m, p)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_validate_global_regime():
    assert validate_schedule(StepSchedule.polynomial(1.0, 0.0, 0.75), "global").valid
    rep = validate_schedule(StepSchedule.polynomial(1.0, 0.0, 0.5), "global")
    assert rep.valid is False
    assert "divergent" in rep.reason
    assert validate_schedule(StepSchedule.polynomial(1.0, 0.0, 1.0), "global").valid


def test_validate_loja_regime():
    # gamma = 2/3 is outside the admissible range regardless of r
    rep = validate_schedule(StepSchedule.polynomial(1.0, 0.0, 2 / 3), "loja", r=0.6)
    assert rep.valid is False
    # below the cap r < (2g-1)/(2(1-g)): gamma=0.75 gives cap 1
    assert validate_schedule(StepSchedule.polynomial(1.0, 0.0, 0.75), "loja", r=0.9).valid
    rep = validate_schedule(StepSchedule.polynomial(1.0, 0.0, 0.75), "loja", r=1.0)
    assert rep.valid is False
    # gamma = 1 admits every r
    assert validate_schedule(StepSchedule.polynomial(1.0, 0.0, 1.0), "loja", r=50.0).valid
    with pytest.raises(ValueError):
        validate_schedule(StepSchedule.polynomial(1.0, 0.0, 0.9), "loja", r=0.5)


def test_validate_constant_fails_all_regimes():
    const = StepSchedule.constant(0.1)
    for regime, kw in (("global", {}), ("loja", {"r": 1.0}),
                       ("rate", {"growth": ("power", 1.0)})):
        rep = validate_schedule(const, regime, **kw)
        assert rep.valid is False


def test_validate_explicit_indeterminate():
    rep = validate_schedule(StepSchedule.explicit([0.1, 0.05]), "global")
    assert rep.valid is None
    assert not rep


def test_validate_rate_regime_growth_specs():
    poly9 = StepSchedule.polynomial(0.5, 0.0, 0.9)
    assert validate_schedule(poly9, "rate", growth=("power", 2.0)).valid
    assert validate_schedule(poly9, "rate", growth=("power", 4.1)).valid is False
    # exponential growth along accumulated steps needs gamma = 1
    assert validate_schedule(poly9, "rate", growth=("exp", 0.0, 0.1)).valid is False
    poly1 = StepSchedule.polynomial(2.0, 0.0, 1.0)
    assert validate_schedule(poly1, "rate", growth=("exp", 1.0, 0.2)).valid
    assert validate_schedule(poly1, "rate", growth=("exp", 1.0, 0.3)).valid is False


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.01, 5.0), beta=st.floats(0.0, 10.0),
       gamma=st.floats(0.1, 1.0))
def test_prefix_positive_non_increasing(alpha, beta, gamma):
    sched = StepSchedule.polynomial(alpha, beta, gamma)
    pre = sched.prefix(200)
    assert np.all(pre > 0)
    assert np.all(np.diff(pre) <= 0)
