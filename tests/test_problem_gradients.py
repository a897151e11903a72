"""Property test: every built-in gradient, with and without ``out``, is
bitwise equal to the plain formula it replaced.

The oracles below are the gradients as first written, one expression
each, with fresh temporaries.  The library evaluates the same operations
in the same order into one buffer, skips ``r2 ** 1`` (which returns r2)
and, at d = 1, takes ||x||^2 as the product x * x instead of a
one-term einsum.  Inputs include signed zeros, subnormals, values whose
squares or powers overflow, infinities and NaN; results are compared as
raw 64-bit patterns, so a NaN must also keep its sign and payload.
Without ``out``, a float32 or integer input is computed in float64: its
gradient is the oracle's on the float64 upcast.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgdmlab import make_problem


def _quadratic(x, mu, l):
    d = x.shape[-1]
    h = np.linspace(mu, l, d) if d > 1 else np.array([mu])
    return x * h


def _even_power(x, p):
    if p == 1:
        return 2.0 * x
    r2 = np.einsum("...d,...d->...", x, x)
    return (2 * p) * r2[..., None] ** (p - 1) * x


def _sin_toy(x):
    g = np.zeros_like(x)
    g[..., 0] = np.cos(x[..., 0])
    return g


def _rosenbrock(x, a, b):
    x1, x2 = x[..., 0], x[..., 1]
    g = np.empty_like(x)
    g[..., 0] = -2 * (a - x1) - 4 * b * x1 * (x2 - x1**2)
    g[..., 1] = 2 * b * (x2 - x1**2)
    return g


def _shifted_quartic(x, a):
    g = np.empty_like(x)
    g[..., 0] = 4 * (x[..., 0] - a) ** 3
    return g


# (name, dim, make_problem params, oracle)
CASES = (
    [("quadratic", d, {"mu": 0.5, "l": 2.0 if d > 1 else 0.5},
      lambda x, d=d: _quadratic(x, 0.5, 2.0 if d > 1 else 0.5)) for d in (1, 2, 10)]
    + [("even_power", d, {"p": p}, lambda x, p=p: _even_power(x, p))
       for p in (1, 1.5, 2, 3) for d in (1, 2, 10)]
    + [("sin_toy", 2, {}, _sin_toy),
       ("rosenbrock", 2, {"a": 1.0, "b": 100.0}, lambda x: _rosenbrock(x, 1.0, 100.0)),
       ("shifted_quartic", 1, {"a": 1.0}, lambda x: _shifted_quartic(x, 1.0))]
)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, 1e154, -1e154, 1e200,
           1.7e308, -1.7e308, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0]
coords = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name,dim,params,oracle", CASES,
                         ids=[f"{c[0]}-d{c[1]}-{c[2].get('p', '')}" for c in CASES])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gradient_matches_oracle_bitwise(name, dim, params, oracle, data):
    prob = make_problem(name, dim, **params)
    rows = data.draw(st.integers(1, 6))
    x = np.array(data.draw(st.lists(coords, min_size=rows * dim, max_size=rows * dim)),
                 dtype=float).reshape(rows, dim)
    with np.errstate(all="ignore"):
        want = oracle(x)
        plain = prob.grad_batch(x)
        out = np.full_like(x, 7.0)
        into = prob.grad_batch(x, out)
        single = prob.grad_batch(x[0])
    assert into is out
    assert np.array_equal(_bits(plain), _bits(want))
    assert np.array_equal(_bits(out), _bits(want))
    assert single.shape == (dim,)
    assert np.array_equal(_bits(single), _bits(want[0]))


@pytest.mark.parametrize("name,dim,params,oracle", CASES,
                         ids=[f"{c[0]}-d{c[1]}-{c[2].get('p', '')}" for c in CASES])
def test_integer_input_gives_float_gradient(name, dim, params, oracle):
    # small integers: every product and sum is exact, in int64 as in float64
    prob = make_problem(name, dim, **params)
    x = np.arange(-3, 3 * dim - 3).reshape(3, dim)
    got = prob.grad_batch(x)
    assert got.dtype == np.float64
    assert np.array_equal(_bits(got), _bits(oracle(x.astype(float))))


coords32 = st.one_of(st.sampled_from(SPECIAL), st.floats(width=32, allow_nan=True,
                                                          allow_infinity=True,
                                                          allow_subnormal=True))


@pytest.mark.parametrize("name,dim,params,oracle", CASES,
                         ids=[f"{c[0]}-d{c[1]}-{c[2].get('p', '')}" for c in CASES])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_float32_input_is_computed_in_float64(name, dim, params, oracle, data):
    prob = make_problem(name, dim, **params)
    rows = data.draw(st.integers(1, 6))
    with np.errstate(all="ignore"):         # SPECIAL values overflow float32
        x = np.array(data.draw(st.lists(coords32, min_size=rows * dim,
                                        max_size=rows * dim)),
                     dtype=np.float32).reshape(rows, dim)
        got = prob.grad_batch(x)
        want = oracle(x.astype(float))
    assert got.dtype == np.float64
    assert np.array_equal(_bits(got), _bits(want))
