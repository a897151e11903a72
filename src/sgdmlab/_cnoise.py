"""Compiled Gaussian noise: Generator(Philox(key=seed)).standard_normal in C.

At d = 10 the noise child of run_batch sets the pace of a run, and most of
its time goes into numpy's normals: a Philox word fetched through a
function pointer, then numpy's ziggurat (Marsaglia and Tsang, 2000), whose
sign is a branch that mispredicts about half the time.  This module draws
the same normals, bit for bit, with less work per normal:

- Philox4x64-10 (Salmon et al., SC 2011) runs inline on a copy of numpy's
  own state for the key: counter, both key words, the four-word buffer
  and its position, so the words are numpy's words in numpy's order.
  Its ten rounds are written out, as in numpy's philox.h, not looped.
- The ziggurat's fast path takes 99% of the draws: x = rabs * wi[idx],
  returned when rabs < ki[idx].  Its sign comes from flipping the sign bit,
  without a branch; that is numpy's -x bit for bit, for 0 too.
- The tables wi and ki are numpy's.  Its static library libnpyrandom.a
  does not export them, so they are read out of its random_standard_normal
  when the library loads, with a bit generator that replays chosen words:
  wi[idx] is its output for the word (1 << 9) | idx, and ki[idx] is found
  by bisection on whether it reads a second word.
- When rabs >= ki[idx] (the wedge, or the tail when idx = 0), the buffer
  steps back one word and numpy's own random_standard_normal draws the
  value from the same state; the wedge and tail code is numpy's.
- A draw is written as scale * x straight into its place in the output,
  the single IEEE multiply of np.multiply(out, scale); rows may be
  strided, so a seed's noise lands in its column of a ring slot without a
  buffer or a copy.
- A block of S seeds is one call (cnoise_block), in tiles of rows of
  about TILE_BYTES: every seed draws its rows of a tile in turn, so the
  tile stays in cache while its rows fill, where one seed's whole column
  would sweep the slot once per seed.  The tile's weighted errors a_t e^t
  and their restarted prefix sums (the window error sums of runner) are
  formed in the same pass, before the tile leaves the cache.  Called
  without states, it forms the sums alone, over noise already drawn.

The block draw is the one place where normals are drawn in C: a run's
gaussian noise (noise.BlockNoise) calls it with the seeds' states, made
by states from numpy's own Philox.  The source is compiled with the step
kernel into the one library of _ckernel (see there), linked against
numpy's libnpyrandom.a, never at import.  One of the library's three probes
is here: probe_block draws the probe keys (zero, one and two key words)
in tiled blocks split over two calls, and passes only if every bit
matches numpy's normals and the slow paths are taken, but for no more
than their share of the draws; it checks the sums, formed in the draw's
pass and alone, with segments on and beside tile edges and over special
values, against the numpy scan.  Where the library does not load, and
in every NoiseStream, numpy's Generator draws: the same bits either way.
"""

from __future__ import annotations

import numpy as np

from . import _ckernel

# the state of one seed, as uint64 words: numpy's Philox counter (4),
# key (2), buffer (4) and buffer position, then the slow-path counts
STATE_WORDS = 13
WEDGE, TAIL = 11, 12
# the bytes of the slot in one tile of cnoise_block; the probe and tests
# place segment starts on tile edges through tile_rows
TILE_BYTES = 1 << 16

SOURCE = f"#define TILE_BYTES {TILE_BYTES}L\n" + r"""
#include <stdint.h>
#include "numpy/random/bitgen.h"

double random_standard_normal(bitgen_t *bitgen_state);     /* libnpyrandom.a */

typedef struct {
    uint64_t ctr[4], key[2], buffer[4], pos;   /* numpy's Philox state */
    uint64_t wedge, tail;                      /* slow-path draws */
} philox_t;

static double wi[256];          /* numpy's ziggurat tables, read by cnoise_init */
static uint64_t ki[256];

/* one Philox4x64 round on c0..c3 with key k0, k1, and the key bump that
   separates two rounds; numpy's philox.h applies them ten and nine times */
#define PHILOX_ROUND                                                    \
    do {                                                                \
        const __uint128_t p0 = (__uint128_t)0xD2E7470EE14C6C93ULL * c0; \
        const __uint128_t p1 = (__uint128_t)0xCA5A826395121157ULL * c2; \
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;                            \
        c1 = (uint64_t)p1;                                              \
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;                            \
        c3 = (uint64_t)p0;                                              \
    } while (0)
#define PHILOX_BUMP_ROUND                                               \
    do {                                                                \
        k0 += 0x9E3779B97F4A7C15ULL;                                    \
        k1 += 0xBB67AE8584CAA73BULL;                                    \
        PHILOX_ROUND;                                                   \
    } while (0)

/* numpy's philox_next64: the next buffered word; four new words from
   the next counter once the buffer is spent.  The ten rounds are written
   out: gcc -O2 keeps a loop over them, at about twice the cost per word. */
static inline uint64_t philox_next(philox_t *st)
{
    if (st->pos < 4)
        return st->buffer[st->pos++];
    if (++st->ctr[0] == 0 && ++st->ctr[1] == 0 && ++st->ctr[2] == 0)
        ++st->ctr[3];
    uint64_t c0 = st->ctr[0], c1 = st->ctr[1], c2 = st->ctr[2], c3 = st->ctr[3];
    uint64_t k0 = st->key[0], k1 = st->key[1];
    PHILOX_ROUND;
    PHILOX_BUMP_ROUND;
    PHILOX_BUMP_ROUND;
    PHILOX_BUMP_ROUND;
    PHILOX_BUMP_ROUND;
    PHILOX_BUMP_ROUND;
    PHILOX_BUMP_ROUND;
    PHILOX_BUMP_ROUND;
    PHILOX_BUMP_ROUND;
    PHILOX_BUMP_ROUND;
    st->buffer[0] = c0;
    st->buffer[1] = c1;
    st->buffer[2] = c2;
    st->buffer[3] = c3;
    st->pos = 1;
    return c0;
}

static uint64_t next_uint64(void *st)
{
    return philox_next(st);
}

static double next_double(void *st)     /* numpy's philox_next_double */
{
    return (philox_next(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* n rows of d standard normals times scale, row i at out + i * stride;
   random_standard_normal reads only next_uint64 and next_double */
static void cnoise_fill(philox_t *st, long n, long d, long stride, double scale, double *out)
{
    bitgen_t bitgen = {st, next_uint64, 0, next_double, next_uint64};
    for (long i = 0; i < n; i++) {
        double *row = out + i * stride;
        for (long j = 0; j < d; j++) {
            const uint64_t r = philox_next(st);
            const int idx = r & 0xff;
            const uint64_t rabs = (r >> 9) & 0x000fffffffffffffULL;
            union { double f; uint64_t u; } x;
            if (rabs < ki[idx]) {
                x.f = (double)(int64_t)rabs * wi[idx];
                x.u ^= (r & 0x100) << 55;
            } else {
                st->pos--;
                if (idx == 0)
                    st->tail++;
                else
                    st->wedge++;
                x.f = random_standard_normal(&bitgen);
            }
            row[j] = x.f * scale;
        }
    }
}

/* A block of n rows of S seeds' d-vectors, row t at E + t S d, in tiles of
   about TILE_BYTES of rows.  In each tile every seed s in turn draws its
   rows from its state st[s], times scale, unless st is 0 (the sums alone,
   over noise already in E).  Then, unless P is 0, the tile's weighted
   errors E[t] a[t] and their restarted prefix sums go to P while the
   tile is in cache.  Segment k starts at row lo[k], lo[0] = 0: row 0
   adds the carried sum psum, the first row of a later segment stays as it
   is, and every other row adds the sum of the row before it; these are
   the adds of runner's numpy scan, operand for operand. */
void cnoise_block(long n, long S, long d, philox_t *st, double scale, double *E,
                  const double *a, long nseg, const long *lo, const double *psum,
                  double *P)
{
    const long m = S * d;
    const long tile = TILE_BYTES / (8 * m) > 1 ? TILE_BYTES / (8 * m) : 1;
    long k = 1;
    for (long t0 = 0; t0 < n; t0 += tile) {
        const long t1 = n - t0 < tile ? n : t0 + tile;
        for (long s = 0; st && s < S; s++)
            cnoise_fill(st + s, t1 - t0, d, m, scale, E + t0 * m + s * d);
        for (long t = t0; P && t < t1; t++) {
            const double *e = E + t * m;
            double *p = P + t * m;
            const double at = a[t];
            if (t == 0) {
                for (long i = 0; i < m; i++)
                    p[i] = e[i] * at + psum[i];
            } else if (k < nseg && lo[k] == t) {
                k++;
                for (long i = 0; i < m; i++)
                    p[i] = e[i] * at;
            } else {
                for (long i = 0; i < m; i++)
                    p[i] = p[i - m] + e[i] * at;
            }
        }
    }
}

/* a bit generator that yields one chosen word, then zeros, and counts
   the reads; its doubles (0.5) end a tail draw at once */
typedef struct { uint64_t word; long reads; } replay_t;

static uint64_t replay_uint64(void *p)
{
    replay_t *r = p;
    return r->reads++ ? 0 : r->word;
}

static double replay_double(void *p)
{
    ((replay_t *)p)->reads++;
    return 0.5;
}

static int second_read(uint64_t word, double *x)
{
    replay_t r = {word, 0};
    bitgen_t bitgen = {&r, replay_uint64, 0, replay_double, replay_uint64};
    *x = random_standard_normal(&bitgen);
    return r.reads > 1;
}

/* read wi and ki out of numpy: the fast path returns rabs * wi[idx],
   without a second read, exactly when rabs < ki[idx] */
void cnoise_init(void)
{
    double x;
    for (uint64_t idx = 0; idx < 256; idx++) {
        uint64_t lo = 0, hi = 1ULL << 52;      /* lo reads one word; hi: none does */
        if (second_read(idx, &x))
            hi = 0;
        while (hi > lo + 1) {
            const uint64_t mid = lo + (hi - lo) / 2;
            if (second_read(mid << 9 | idx, &x))
                hi = mid;
            else
                lo = mid;
        }
        ki[idx] = hi;
        wi[idx] = 0.0;                         /* read only if ki[idx] > 1 */
        if (hi > 1 && !second_read(1ULL << 9 | idx, &x))
            wi[idx] = x;
    }
}
"""


def tile_rows(m: int) -> int:
    """The rows in one tile of cnoise_block for rows of m doubles."""
    return max(TILE_BYTES // (8 * m), 1)


def states(seeds) -> np.ndarray:
    """The states of Generator(Philox(key=seed)) for seeds, as the rows of
    one (S, STATE_WORDS) array, with no slow-path draws yet."""
    st = np.zeros((len(seeds), STATE_WORDS), dtype=np.uint64)
    for row, seed in zip(st, seeds):
        bitgen = np.random.Philox(key=seed).state      # numpy's own key check
        row[0:4] = bitgen["state"]["counter"]
        row[4:6] = bitgen["state"]["key"]
        row[6:10] = bitgen["buffer"]
        row[10] = bitgen["buffer_pos"]
    return st


def block(fn, st: np.ndarray | None, E: np.ndarray, scale: float, sums=None) -> None:
    """fn, the compiled cnoise_block, over the block E (n, S, d), in tiles:
    the next n rows of the seed whose state is st[s] times scale into
    column s, unless st is None; then, with sums = (a, lo, psum, P), the
    restarted prefix sums of the weighted errors a[t] E[t] into P (n, S, d),
    over the segments that start at rows lo, the first continuing from the
    carried sum psum (S, d)."""
    n, S, d = E.shape
    a = lo = psum = P = None
    checks = [(E, np.float64, E.shape)]
    if st is not None:
        checks.append((st, np.uint64, (S, STATE_WORDS)))
    if sums is not None:
        a, lo, psum, P = sums
        a = np.ascontiguousarray(a, dtype=np.float64)
        lo = np.ascontiguousarray(lo, dtype=np.dtype("l"))     # C long
        checks += [(a, np.float64, (n,)), (psum, np.float64, (S, d)), (P, np.float64, E.shape)]
    for arr, dtype, shape in checks:
        if arr.dtype != dtype or arr.shape != shape or not arr.flags.c_contiguous:
            raise ValueError(f"block draw needs a C-contiguous {np.dtype(dtype)} {shape} array")
    if any(arr is not None and not arr.flags.writeable for arr in (E, st, P)):
        raise ValueError("block draw needs writeable noise, states and sums")
    if E.size:
        address = _ckernel._address
        fn(n, S, d, address(st), scale, E.ctypes.data, address(a),
           0 if lo is None else len(lo), address(lo), address(psum), address(P))


PROBE_KEYS = (0, 20240501, 2**64 + 5, 2**128 - 1)
# the share of draws that may miss the fast path: 1.48% do on the probe
# keys, and all of them would with ziggurat tables that were never read
SLOW_SHARE = 0.05


def _sums_match(fn, st: np.ndarray | None, E: np.ndarray, scale: float,
                a: np.ndarray, lo: np.ndarray, carried: dict, carry_out: bool) -> bool:
    """Whether fn, drawing into E from the states st (unless None), forms
    sums whose maxima and carry are those of runner's numpy scan over E."""
    from . import runner
    P = np.empty_like(E)
    ln = np.diff(np.append(lo, len(E)))
    with np.errstate(all="ignore"):
        block(fn, st, E, scale, (a, lo, carried["psum"], P))
        want = runner._segment_error_max(carried["psum"], carried["smax"], E * a[:, None, None],
                                         lo, ln, np.repeat(np.arange(len(ln)), ln), carry_out)
        got = runner._compiled_error_max(carried["smax"], P, lo, carry_out)
    return (_ckernel.same_bits(want[0], got[0])
            and (not carry_out or _ckernel.same_bits(want[1], got[1])))


def probe_block(fn) -> bool:
    """Whether fn, the compiled cnoise_block, reproduces numpy: the probe
    keys, one seed each, drawn in two calls of more than two tiles each,
    every seed's rows strided S d apart, against numpy's normals, with
    both slow paths taken and no more than SLOW_SHARE of the draws on
    them; sums that restart on, just before and just after tile edges,
    against runner's numpy scan, then the sums alone over the same noise;
    and the sums alone over blocks of special values (+-0, subnormals,
    sums and products that overflow, +-inf and NaN): segments all of
    length one, one long segment and mixed lengths, a carried sum and
    maximum, with and without the carry out."""
    S, d, scale = len(PROBE_KEYS), 4, 0.3
    tile = tile_rows(S * d)
    n = 2 * tile + 5
    want = np.stack([np.random.Generator(np.random.Philox(key=key)).standard_normal((2 * n, d))
                     for key in PROBE_KEYS], axis=1) * scale
    st = states(PROBE_KEYS)
    a = 0.5 + np.sin(np.arange(n)) ** 2
    lo = np.array([0, 3, tile - 1, tile, tile + 1, 2 * tile - 1, 2 * tile, 2 * tile + 1])
    carried = dict(psum=np.cos(np.arange(S * d)).reshape(S, d), smax=np.full(S, 0.5))
    E = np.zeros((2 * n, S, d))
    for half in (E[:n], E[n:]):
        if not (_sums_match(fn, st, half, scale, a, lo, carried, True)
                and _sums_match(fn, None, half, 0.0, a, lo, carried, False)):
            return False
    slow = st[:, [WEDGE, TAIL]].sum(axis=0)
    if not (_ckernel.same_bits(want, E) and (slow > 0).all()
            and slow.sum() <= SLOW_SHARE * E.size):
        return False

    special = np.array([0.0, -0.0, 5e-324, -2.2e-308, 1e-160, 1e-3, -0.7, 1.3,
                        1e154, 1.7e308, -1e300, np.inf, -np.inf, np.nan])
    n = 23
    k = np.arange(n * S * d)
    a = np.resize([1.0, 0.5, 1e-3, 2.0, 5e-324, 1e300], n)
    for ln in ([1] * n, [n], [4, 1, 1, 7, 2, 1, 5, 2]):
        lo = np.concatenate([[0], np.cumsum(ln)[:-1]])
        for shift in range(0, len(special), 5):
            E = np.where(k % 5 == 0, np.resize(np.roll(special, shift), len(k)),
                         np.sin(k)).reshape(n, S, d)
            carried = dict(psum=np.resize(np.roll(special, -4 - shift), (S, d)),
                           smax=np.abs(np.resize(np.roll(special, 2 * shift), S)))
            for carry_out in (False, True):
                if not _sums_match(fn, None, E, 0.0, a, lo, carried, carry_out):
                    return False
    return True
