"""The compiled normals against numpy's Generator(Philox(key)).standard_normal,
bit for bit.

numpy is the oracle: for any key below 2**128 (one or two key words), any
split of the draws into chunks, and any seed column of a ring slot, the
noise a compiled stream writes must be numpy's normals times sigma, the
same bits as np.multiply.  That holds for a block of streams drawn in
tiles (take_block) too, with chunks that cross tile edges, and the error
sums that the block draw forms must give the maxima and carry of the
numpy scan, runner._WindowAccumulator._segment_error_max.  The slow paths
(numpy's wedge and tail code, reached from the compiled fast path with
the buffer stepped back one word) are checked to be taken.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdmlab import NoiseModel, NoiseStream, _ckernel, _cnoise
from sgdmlab.noise import take_block
from sgdmlab.runner import _WindowAccumulator

KEYS = st.one_of(st.integers(0, 2**128 - 1), st.integers(0, 2**64 - 1),
                 st.sampled_from([0, 1, 2**64 - 1, 2**64, 2**128 - 1]))
SIGMAS = st.one_of(st.sampled_from([0.0, 1.0, 0.1, 1e-300, 1e300]),
                   st.floats(0.0, 1e6, allow_nan=False))


@pytest.fixture(scope="module")
def compiled():
    lib = _ckernel.load()
    if lib is None:
        pytest.skip("the compiled library does not load here (no C compiler?)")
    return lib.cnoise_fill


def _numpy_normals(key: int, n: int, d: int, sigma: float) -> np.ndarray:
    out = np.random.Generator(np.random.Philox(key=key)).standard_normal((n, d))
    return np.multiply(out, sigma, out=out)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and (a.view(np.int64) == b.view(np.int64)).all()


@settings(max_examples=60, deadline=None)
@given(key=KEYS, d=st.integers(1, 12), S=st.integers(1, 5), data=st.data(),
       sigma=SIGMAS)
def test_strided_chunks_match_numpy(compiled, key, d, S, data, sigma):
    chunks = data.draw(st.lists(st.integers(0, 700), min_size=1, max_size=8))
    s = data.draw(st.integers(0, S - 1))
    n = sum(chunks)
    stream = NoiseStream(NoiseModel.gaussian(sigma), d, key)
    assert isinstance(stream._src, _cnoise.Philox)
    E = np.full((n, S, d), 7.0)
    lo = 0
    for m in chunks:
        stream.take_into(E[lo:lo + m, s])     # rows S d apart, straight from C
        lo += m
    assert stream.position == n
    assert _same_bits(E[:, s], _numpy_normals(key, n, d, sigma))
    others = np.delete(E, s, axis=1)
    assert (others == 7.0).all()                # nothing written outside column s


def test_slow_paths_are_numpy_bits(compiled):
    # about 1.5% of the draws miss the fast path into the wedge and 2.6e-4
    # into the tail; 2^18 draws per key take both many times
    wedge = tail = 0
    for key in (3, 2**64 + 11, 2**128 - 2):
        src = _cnoise.Philox(compiled, key)
        got = np.empty((2**16, 4))
        for lo, hi in ((0, 1), (1, 1000), (1000, 2**16)):
            src.fill(got[lo:hi], 1.0)
        assert _same_bits(got, _numpy_normals(key, 2**16, 4, 1.0))
        w, t = src.slow_paths
        wedge, tail = wedge + w, tail + t
    assert wedge > 1000 and tail > 20


def test_odd_layouts_go_through_a_contiguous_draw(compiled):
    key, sigma = 2**100 + 7, 0.25
    want = _numpy_normals(key, 30, 3, sigma)
    for make in (lambda: np.zeros((30, 3, 2))[:, :, 0],      # column stride 16
                 lambda: np.zeros((30, 3))[::-1],             # negative row stride
                 lambda: np.zeros((3, 30)).T):                # column-major
        out = make()
        _cnoise.Philox(compiled, key).fill(out, sigma)
        assert _same_bits(np.ascontiguousarray(out), want)


def test_seed_beyond_philox_keys_raises_as_numpy_does(compiled):
    for seed in (-1, 2**128):
        with pytest.raises(ValueError):
            NoiseStream(NoiseModel.gaussian(1.0), 2, seed)


def _tile_crossing(tile: int):
    """Chunk lengths up to three tiles, and lengths that end beside a tile edge."""
    return st.one_of(st.integers(0, 3 * tile), st.sampled_from([tile - 1, tile, tile + 1]))


@settings(max_examples=40, deadline=None)
@given(S=st.integers(1, 6), d=st.integers(1, 12), data=st.data(), sigma=SIGMAS)
def test_block_draws_match_numpy_per_seed(compiled, S, d, data, sigma):
    tile = _cnoise.tile_rows(S * d)
    chunks = data.draw(st.lists(st.tuples(_tile_crossing(tile), st.booleans()),
                                min_size=1, max_size=5))
    keys = data.draw(st.lists(KEYS, min_size=S, max_size=S))
    streams = [NoiseStream(NoiseModel.gaussian(sigma), d, key) for key in keys]
    n = sum(m for m, _ in chunks)
    E = np.full((n, S, d), 7.0)
    lo = 0
    for m, whole in chunks:     # a block at once, or each stream's column in turn
        if whole:
            assert take_block(streams, E[lo:lo + m]) is False
        else:
            for s, stream in enumerate(streams):
                stream.take_into(E[lo:lo + m, s])
        lo += m
    for s, (stream, key) in enumerate(zip(streams, keys)):
        assert stream.position == n
        assert _same_bits(E[:, s], _numpy_normals(key, n, d, sigma))
    if any(whole for _, whole in chunks):       # the states are the rows of one array
        states = streams[0]._src.state.base
        assert states.shape == (S, _cnoise.STATE_WORDS)
        assert all(np.shares_memory(stream._src.state, states[s])
                   for s, stream in enumerate(streams))


@settings(max_examples=60, deadline=None)
@given(S=st.integers(1, 5), d=st.integers(1, 6), data=st.data(),
       variant=st.sampled_from(["gaussian", "sphere"]))
def test_block_sums_match_the_numpy_scan(compiled, S, d, data, variant):
    # gaussian noise forms the sums in the draw's own pass; the sphere's
    # are taken stream by stream, then summed alone
    tile = _cnoise.tile_rows(S * d)
    n = data.draw(st.integers(1, 3 * tile))
    near = [t for e in range(tile, n, tile) for t in (e - 1, e, e + 1) if 0 < t < n]
    pool = st.integers(0, n - 1)
    if near:
        pool = st.one_of(st.sampled_from(near), pool)
    lo = np.array(sorted({0, *data.draw(st.lists(pool, max_size=12))}))
    ln = np.diff(np.append(lo, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    carried = dict(psum=rng.standard_normal((S, d)) if data.draw(st.booleans())
                   else np.zeros((S, d)),
                   smax=rng.random(S) * 3 if data.draw(st.booleans()) else np.zeros(S))
    carry_out = data.draw(st.booleans())
    a = rng.random(n) * 0.5
    model = NoiseModel.gaussian(0.1) if variant == "gaussian" else NoiseModel.sphere(0.5)
    streams = [NoiseStream(model, d, seed) for seed in range(S)]
    E, P = np.empty((n, S, d)), np.empty((n, S, d))
    acc = types.SimpleNamespace(**carried)
    assert take_block(streams, E, (a, lo, acc.psum, P)) is True
    want = _WindowAccumulator._segment_error_max(acc, E * a[:, None, None], lo, ln,
                                                 np.repeat(np.arange(len(ln)), ln), carry_out)
    got = _WindowAccumulator._compiled_error_max(acc, P, lo, carry_out)
    assert _same_bits(got[0], want[0])
    assert (got[1] is None and want[1] is None) or _same_bits(got[1], want[1])
    for s in range(S):
        assert _same_bits(E[:, s], NoiseStream(model, d, s).take(n))
