"""The compiled block draw against numpy's Generator(Philox(key)).standard_normal,
bit for bit.

numpy is the oracle: for any keys below 2**128 (one or two key words) and
any split of a block of seeds into chunks, tile edges crossed, the noise
the block draw writes into seed s's column must be numpy's normals for
key s times sigma, the same bits as np.multiply.  A run's BlockNoise must
give each seed the rows of its NoiseStream, and the window error sums it
forms must give the maxima and carried sum of their numpy twin,
_cnoise.sums_numpy.  The slow paths (numpy's wedge and tail code,
which reads the same words from the one that missed the compiled fast
path) are checked to be taken.

The draw runs in two phases, the Philox words of many counters ahead,
then the ziggurat over them, and the words past the last one consumed are
dropped.  So after every call the state must be numpy's state after the
same draws, from counters just below a carry and from every buffer
position, and on both paths: the AVX-512 one, eight counters per vector,
and the scalar one, compiled here with the vector path left out.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdmlab import NoiseModel, NoiseStream, _ckernel, _cnoise
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


# the source prefix that leaves the vector path out of the build
SCALAR = "#define CNOISE_SCALAR 1\n"


def build_scalar():
    """The library built with the vector path compiled out."""
    compile_library = _ckernel.compile_library
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ckernel, "compile_library", lambda source: compile_library(SCALAR + source))
        return _ckernel.build()


@pytest.fixture(scope="module", params=["vector", "scalar"])
def path(request, compiled):
    """The library of each draw path: the vector path where the CPU runs it."""
    if request.param == "scalar":
        return build_scalar()
    lib = _ckernel.load()
    if lib.cnoise_lanes() != 8:
        pytest.skip("the CPU lacks AVX-512F/DQ: the vector path does not run here")
    return lib


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
        assert noise.fill(E[lo:lo + m]) is None
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
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    psum = rng.standard_normal((S, d)) if data.draw(st.booleans()) else np.zeros((S, d))
    smax = rng.random(S) * 3 if data.draw(st.booleans()) else np.zeros(S)
    a = rng.random(n) * 0.5
    model = NoiseModel.gaussian(0.1) if variant == "gaussian" else NoiseModel.sphere(0.5)
    E, sums = np.empty((n, S, d)), [psum.copy(), psum.copy()]
    got = BlockNoise(model, d, range(S)).fill(E, (a, lo, sums[0], smax))
    want = _cnoise.sums_numpy(E, a, lo, sums[1], smax)
    assert _same_bits(got, want) and _same_bits(sums[0], sums[1])
    for s in range(S):
        assert _same_bits(E[:, s], NoiseStream(model, d, s).take(n))


def test_scalar_build_passes_the_block_probe(compiled):
    lib = build_scalar()
    assert lib.cnoise_lanes() == 1
    assert _cnoise.probe_block(lib.cnoise_block)


# counters just below a carry out of ctr[0], of ctr[0] and ctr[1], and of
# all four words (numpy's counter wraps to 0), or anywhere
COUNTERS = st.one_of(
    st.builds(lambda top, below: top - below,
              st.sampled_from([2**64, 2**128, 2**256]), st.integers(1, 40)),
    st.integers(0, 2**256 - 1))


def _state_row(gen) -> np.ndarray:
    bitgen, row = gen.bit_generator.state, np.empty(11, dtype=np.uint64)
    row[0:4], row[4:6] = bitgen["state"]["counter"], bitgen["state"]["key"]
    row[6:10], row[10] = bitgen["buffer"], bitgen["buffer_pos"]
    return row


@settings(max_examples=40, deadline=None)
@given(S=st.integers(1, 3), d=st.integers(1, 12), data=st.data())
def test_state_never_runs_ahead_of_numpy(path, S, d, data):
    # numpy draws 0-3 normals first, so the draw starts at every buffer
    # position; after each call the state row is numpy's state after the
    # same draws, and the words generated past it have left no trace
    gens = []
    for _ in range(S):
        gen = np.random.Generator(np.random.Philox(key=data.draw(KEYS),
                                                   counter=data.draw(COUNTERS)))
        gen.standard_normal(data.draw(st.integers(0, 3)))
        gens.append(gen)
    st_rows = np.zeros((S, _cnoise.STATE_WORDS), dtype=np.uint64)
    st_rows[:, :11] = [_state_row(gen) for gen in gens]
    tile = _cnoise.tile_rows(S * d)
    for n in data.draw(st.lists(_tile_crossing(tile), min_size=1, max_size=4)):
        E = np.full((n, S, d), 7.0)
        _cnoise.block(path.cnoise_block, st_rows, E, 1.0)
        for s, gen in enumerate(gens):
            assert _same_bits(E[:, s], gen.standard_normal((n, d)))
            assert (st_rows[s, :11] == _state_row(gen)).all()


@pytest.mark.parametrize("top", [2**64, 2**128, 2**256])
def test_draws_across_a_counter_carry_match_numpy(path, top):
    # every start from 40 counters below the carry up to it, at every
    # buffer position, so that the batches of counters start on each side
    # of it: a batch that would carry takes the scalar rounds
    for below in range(1, 41):
        for first in range(4):
            gen = np.random.Generator(np.random.Philox(key=below, counter=top - below))
            gen.standard_normal(first)
            st_rows = np.zeros((1, _cnoise.STATE_WORDS), dtype=np.uint64)
            st_rows[0, :11] = _state_row(gen)
            E = np.empty((150, 1, 1))
            _cnoise.block(path.cnoise_block, st_rows, E, 1.0)
            assert _same_bits(E[:, 0], gen.standard_normal((150, 1)))
            assert (st_rows[0, :11] == _state_row(gen)).all()


@pytest.mark.parametrize("lo", [
    np.array([0, 5, 3]),                    # unsorted
    np.array([0, 3, 3, 5]),                 # repeated
    np.array([0, 3, 8]),                    # a segment that starts at row n
    np.array([2, 3]),                       # not from row 0
    np.array([], dtype=np.int64),
    np.array([[0, 3]]),
])
def test_bad_segment_starts_raise_before_the_block_draw(lo):
    def never(*args):
        raise AssertionError("the compiled block draw was called")

    S, d, n = 2, 3, 8
    with pytest.raises(ValueError, match="segment starts"):
        _cnoise.block(never, _cnoise.states(range(S)), np.zeros((n, S, d)), 1.0,
                      (np.ones(n), lo, np.zeros((S, d)), np.zeros(S)))
