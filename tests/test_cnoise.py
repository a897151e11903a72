"""The compiled block draw against numpy's Generator(Philox(key)).standard_normal,
bit for bit.

numpy is the oracle: for any keys below 2**128 (one or two key words) and
any split of a block of seeds into chunks, tile edges crossed, the noise
the block draw writes into seed s's column must be numpy's normals for
key s times sigma, the same bits as np.multiply.  A run's BlockNoise must
give each seed the rows of its NoiseStream, and the error sums it forms
must give the maxima and carry of the numpy scan,
runner._segment_error_max.  The slow paths (numpy's wedge and tail code,
reached from the compiled fast path with the buffer stepped back one
word) are checked to be taken.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdmlab import NoiseModel, NoiseStream, _ckernel, _cnoise, runner
from sgdmlab.noise import BlockNoise

KEYS = st.one_of(st.integers(0, 2**128 - 1), st.integers(0, 2**64 - 1),
                 st.sampled_from([0, 1, 2**64 - 1, 2**64, 2**128 - 1]))
SIGMAS = st.one_of(st.sampled_from([0.0, 1.0, 0.1, 1e-300, 1e300]),
                   st.floats(0.0, 1e6, allow_nan=False))


@pytest.fixture(scope="module")
def compiled():
    lib = _ckernel.load()
    if lib is None:
        pytest.skip("the compiled library does not load here (no C compiler?)")
    return lib.cnoise_block


def _numpy_normals(key: int, n: int, d: int, sigma: float) -> np.ndarray:
    out = np.random.Generator(np.random.Philox(key=key)).standard_normal((n, d))
    return np.multiply(out, sigma, out=out)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and (a.view(np.int64) == b.view(np.int64)).all()


def test_slow_paths_are_numpy_bits(compiled):
    # about 1.5% of the draws miss the fast path into the wedge and 2.6e-4
    # into the tail; 2^18 draws per key take both many times
    wedge = tail = 0
    for key in (3, 2**64 + 11, 2**128 - 2):
        st = _cnoise.states([key])
        got = np.empty((2**16, 1, 4))
        for lo, hi in ((0, 1), (1, 1000), (1000, 2**16)):
            _cnoise.block(compiled, st, got[lo:hi], 1.0)
        assert _same_bits(got[:, 0], _numpy_normals(key, 2**16, 4, 1.0))
        wedge, tail = wedge + int(st[0, _cnoise.WEDGE]), tail + int(st[0, _cnoise.TAIL])
    assert wedge > 1000 and tail > 20


def test_seed_beyond_philox_keys_raises_as_numpy_does(compiled):
    for seed in (-1, 2**128):
        with pytest.raises(ValueError):
            NoiseStream(NoiseModel.gaussian(1.0), 2, seed)
        with pytest.raises(ValueError):
            BlockNoise(NoiseModel.gaussian(1.0), 2, [0, seed])


def _tile_crossing(tile: int):
    """Chunk lengths up to three tiles, and lengths that end beside a tile edge."""
    return st.one_of(st.integers(0, 3 * tile), st.sampled_from([tile - 1, tile, tile + 1]))


@settings(max_examples=40, deadline=None)
@given(S=st.integers(1, 6), d=st.integers(1, 12), data=st.data(), sigma=SIGMAS)
def test_block_draws_match_numpy_per_seed(compiled, S, d, data, sigma):
    tile = _cnoise.tile_rows(S * d)
    chunks = data.draw(st.lists(_tile_crossing(tile), min_size=1, max_size=5))
    keys = data.draw(st.lists(KEYS, min_size=S, max_size=S))
    noise = BlockNoise(NoiseModel.gaussian(sigma), d, keys)
    assert noise.states is not None             # drawn in C, not from NoiseStreams
    n = sum(chunks)
    E = np.full((n, S, d), 7.0)
    lo = 0
    for m in chunks:
        assert noise.fill(E[lo:lo + m]) is False
        lo += m
    for s, key in enumerate(keys):
        assert _same_bits(E[:, s], _numpy_normals(key, n, d, sigma))


@settings(max_examples=60, deadline=None)
@given(S=st.integers(1, 5), d=st.integers(1, 6), data=st.data(),
       variant=st.sampled_from(["gaussian", "sphere"]))
def test_block_sums_match_the_numpy_scan(compiled, S, d, data, variant):
    # gaussian noise forms the sums in the draw's own pass; the sphere's
    # is taken stream by stream, then summed alone
    tile = _cnoise.tile_rows(S * d)
    n = data.draw(st.integers(1, 3 * tile))
    near = [t for e in range(tile, n, tile) for t in (e - 1, e, e + 1) if 0 < t < n]
    pool = st.integers(0, n - 1)
    if near:
        pool = st.one_of(st.sampled_from(near), pool)
    lo = np.array(sorted({0, *data.draw(st.lists(pool, max_size=12))}))
    ln = np.diff(np.append(lo, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    psum = rng.standard_normal((S, d)) if data.draw(st.booleans()) else np.zeros((S, d))
    smax = rng.random(S) * 3 if data.draw(st.booleans()) else np.zeros(S)
    carry_out = data.draw(st.booleans())
    a = rng.random(n) * 0.5
    model = NoiseModel.gaussian(0.1) if variant == "gaussian" else NoiseModel.sphere(0.5)
    E, P = np.empty((n, S, d)), np.empty((n, S, d))
    assert BlockNoise(model, d, range(S)).fill(E, (a, lo, psum, P)) is True
    want = runner._segment_error_max(psum, smax, E * a[:, None, None], lo, ln,
                                     np.repeat(np.arange(len(ln)), ln), carry_out)
    got = runner._compiled_error_max(smax, P, lo, carry_out)
    assert _same_bits(got[0], want[0])
    assert (got[1] is None and want[1] is None) or _same_bits(got[1], want[1])
    for s in range(S):
        assert _same_bits(E[:, s], NoiseStream(model, d, s).take(n))
