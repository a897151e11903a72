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

The source is compiled with the step kernel and the error scan into the
one library of _ckernel (see there), linked against numpy's
libnpyrandom.a, never at import.  Its probe, one of the library's three,
draws normals for fixed keys, one and two key words, unscaled and scaled
into strided rows, slow paths included, and passes only if every bit
matches numpy.  Where the library does not load, every stream of the
process draws with numpy's Generator: the same bits either way.
"""

from __future__ import annotations

import numpy as np

from . import _ckernel

# the state of one stream, as uint64 words: numpy's Philox counter (4),
# key (2), buffer (4) and buffer position, then the slow-path counts
STATE_WORDS = 13
WEDGE, TAIL = 11, 12

SOURCE = r"""
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
void cnoise_fill(philox_t *st, long n, long d, long stride, double scale, double *out)
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


class Philox:
    """One stream's normals: the state of Generator(Philox(key=seed)),
    drawn by the compiled library's fill function fn."""

    def __init__(self, fn, seed: int):
        bitgen = np.random.Philox(key=seed).state      # numpy's own key check
        st = np.zeros(STATE_WORDS, dtype=np.uint64)
        st[0:4] = bitgen["state"]["counter"]
        st[4:6] = bitgen["state"]["key"]
        st[6:10] = bitgen["buffer"]
        st[10] = bitgen["buffer_pos"]
        self.fn, self.state, self._ptr = fn, st, st.ctypes.data

    def fill(self, out: np.ndarray, scale: float) -> np.ndarray:
        """Fill out, shape (n, d), with the next n d normals times scale,
        row by row; rows of unit-stride float64 are written in place."""
        n, d = out.shape
        rs, cs = out.strides
        if n == 0 or d == 0:
            return out
        if (out.dtype != np.float64 or (cs != 8 and d > 1) or rs % 8
                or (rs < 8 * d and n > 1) or not out.flags.writeable):
            out[...] = self.fill(np.empty((n, d)), scale)
            return out
        self.fn(self._ptr, n, d, rs // 8, scale, out.ctypes.data)
        return out

    def standard_normal(self, out: np.ndarray) -> np.ndarray:
        """Generator.standard_normal(out=out) for a 2-D out."""
        return self.fill(out, 1.0)

    @property
    def slow_paths(self) -> tuple[int, int]:
        """Draws so far that went to numpy's wedge and tail code."""
        return int(self.state[WEDGE]), int(self.state[TAIL])


def philox(seed: int) -> Philox | None:
    """The compiled normal source for seed, or None if the library does
    not load in this process."""
    lib = _ckernel.load()
    return None if lib is None else Philox(lib.cnoise_fill, seed)


PROBE_KEYS = (0, 20240501, 2**64 + 5, 2**128 - 1)


def probe(fn) -> bool:
    """Whether fn reproduces Generator(Philox(key)).standard_normal for the
    probe keys: 2^15 normals in three chunks, the last scaled into strided
    rows, with both slow paths taken."""
    n, d, S, scale = 2**15, 4, 3, 0.3
    slow = np.zeros(2, dtype=np.int64)
    for key in PROBE_KEYS:
        want = np.random.Generator(np.random.Philox(key=key)).standard_normal((n // d, d))
        want[7:] *= scale
        src = Philox(fn, key)
        got = np.empty((n // d, S, d))
        src.fill(got[:1, 1], 1.0)
        src.fill(got[1:7, 1], 1.0)
        src.fill(got[7:, 1], scale)
        if not (got[:, 1].view(np.int64) == want.view(np.int64)).all():
            return False
        slow += src.slow_paths
    return bool((slow > 0).all())
