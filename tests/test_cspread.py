"""The compiled window spreads (_ckernel.Spreads) against the numpy scan they
replace, bit for bit.

The oracle is runner._segment_dev_max over the iterate rows and over the
interpolation rows z^t = x^t/(1-lam) - lam x^{t-1}/(1-lam), formed here
for the whole block, row 0 included: from the standstill z^1 = x^1 in a
run's first block, else from the last-but-one row of the block before.  The
pass never forms z^{b0}, and it need not: the first segment's anchor is
carried.  Maxima, z maxima and the
distance at each segment's last row must match, NaN where the oracle has
NaN (payloads are not compared), for any segment layout, carried state and
special values.  Malformed segment starts raise before any C call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdmlab import _ckernel, runner

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, -3.3e-157, 1e154, -1e200,
           1.7e308, np.inf, -np.inf, np.nan]    # 1e-160 squared is subnormal


@pytest.fixture(scope="module")
def library():
    lib = _ckernel.load()
    if lib is None:
        pytest.skip("the compiled library does not load here (no C compiler?)")
    return lib


def _bits_equal(a, b):
    nan = np.isnan(a)
    assert (nan == np.isnan(b)).all(), "NaN positions differ"
    assert (a[~nan].view(np.int64) == b[~nan].view(np.int64)).all(), "bits differ"


@st.composite
def spread_blocks(draw):
    """A block of iterate rows cut into segments, the state carried into it
    and the rows before it."""
    d, S = draw(st.sampled_from([1, 2, 3, 9, 10, 17])), draw(st.integers(1, 20))
    n = draw(st.integers(1, 48))
    layout = draw(st.sampled_from(["ones", "one", "mixed"]))
    if layout == "ones":
        ln = [1] * n
    elif layout == "one":
        ln = [n]
    else:
        cuts = draw(st.lists(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else []
        ln = np.diff([0, *sorted(set(cuts)), n]).tolist()
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()),
                         min_size=1, max_size=8))
    share = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(shape):
        v = rng.standard_normal(shape) * draw(st.sampled_from([1e-300, 1e-3, 1.0, 1e300]))
        special = rng.random(shape) < share
        v[special] = rng.choice(pool, int(special.sum()))
        return v

    lam = draw(st.sampled_from([0.0, 0.3, 0.9, 0.99]))
    rows, prev = values((n + 1, S, d)), values((S, d))
    first_block = draw(st.booleans())          # b0 = 1: z^1 = x^1
    Z = np.empty_like(rows)
    if lam == 0.0:
        Z[:] = rows
    else:
        c1 = 1.0 / (1.0 - lam)
        Z[0] = rows[0] if first_block else rows[0] * c1 - prev * (lam * c1)
        Z[1:] = rows[1:] * c1 - rows[:-1] * (lam * c1)
    if draw(st.booleans()):                    # a window open across the block edge
        ax, az = values((S, d)), values((S, d))
        xc, zc = np.abs(values(S)), np.abs(values(S))
    else:                                      # a window that starts at x^{b0}
        ax, az = rows[0].copy(), Z[0].copy()
        xc, zc = np.zeros(S), np.zeros(S)
    if lam == 0.0:                             # z is x
        az, zc = ax, xc
    lo = np.concatenate([[0], np.cumsum(ln)[:-1]])
    return rows, Z, lam, lo, np.array(ln), ax, xc, az, zc, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(spread_blocks())
def test_compiled_spreads_match_the_numpy_scan_bit_for_bit(library, block):
    rows, Z, lam, lo, ln, ax, xc, az, zc, last = block
    seg_of_row = np.repeat(np.arange(len(ln)), ln)
    inputs = [arr.tobytes() for arr in (rows, lo, ax, xc, az, zc)]
    with np.errstate(all="ignore"):
        xdev, xmax = runner._segment_dev_max(rows, ax, xc, lo, ln, seg_of_row)
        _, zmax = runner._segment_dev_max(Z, az, zc, lo, ln, seg_of_row)
        got = _ckernel.Spreads(library.window_spread, lam).run(rows, lo, ax, xc, az, zc, last)
    assert [arr.tobytes() for arr in (rows, lo, ax, xc, az, zc)] == inputs
    _bits_equal(xmax, got[0])
    _bits_equal(zmax, got[1])
    if last:
        _bits_equal(xdev[lo + ln - 1], got[2])
    else:
        assert got[2] is None


@pytest.mark.parametrize("lo", [
    np.array([0, 5, 3]),                    # unsorted
    np.array([0, 3, 3, 5]),                 # repeated
    np.array([0, 3, 8]),                    # a segment that starts at row n
    np.array([0, 3, 12]),                   # past it
    np.array([2, 3]),                       # not from row 0
    np.array([], dtype=np.int64),
    np.array([0, 3], dtype=np.int32),       # not C longs
    np.array([0.0, 3.0]),
    np.array([[0, 3]]),
])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_bad_segment_starts_raise_before_the_call(lo, lam):
    def never(*args):
        raise AssertionError("the compiled pass was called")

    S, d, n = 2, 3, 8
    rows, anchor, carried = np.zeros((n + 1, S, d)), np.zeros((S, d)), np.zeros(S)
    with pytest.raises(ValueError, match="segment starts"):
        _ckernel.Spreads(never, lam).run(rows, lo, anchor, carried, anchor, carried, True)
