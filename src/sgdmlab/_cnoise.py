"""Compiled Gaussian noise: Generator(Philox(key=seed)).standard_normal in C,
and the window error sums s_k of the block it draws.

At d = 10 the noise thread of run_batch sets the pace of a run, and most of
its time goes into numpy's normals: a Philox word fetched through a
function pointer, then numpy's ziggurat (Marsaglia and Tsang, 2000), whose
sign is a branch that mispredicts about half the time.  This module draws
the same normals, bit for bit, with less work per normal.

- Each fill of one seed's rows runs in two phases.  First the Philox4x64-10
  words (Salmon et al., SC 2011) of the counters it needs, about 64
  counters per refill of a word buffer on the stack, from a copy of
  numpy's own state for the key: counter, both key words, the four-word
  buffer and its position.  Philox is counter-based, so the words of
  counters c+1, c+2, ... are independent: where the CPU has AVX-512F and
  DQ (cnoise_lanes() is 8) they run eight counters per vector, two vectors
  interleaved, with each 64 x 64-bit product formed from four 32 x 32-bit
  ones; elsewhere (cnoise_lanes() is 1) two counters interleave in scalar
  code.  Either way the ten rounds are written out, as in numpy's philox.h,
  and the words are numpy's words in numpy's order; a batch of counters
  that would carry out of ctr[0] takes the scalar rounds.  The AVX-512
  code is compiled for its target by a function attribute, so the flags
  of the library stay as they are, and the source defines CNOISE_SCALAR
  to leave it out (the tests build both paths).
- Then the ziggurat over the word buffer, eight words per vector on the
  AVX-512 path (the table lookups are gathers).  Its fast path takes 99%
  of the draws: x = rabs * wi[idx], returned when rabs < ki[idx].  Its
  sign comes from flipping the sign bit, without a branch; that is
  numpy's -x bit for bit, for 0 too.
- The tables wi and ki are numpy's.  Its static library libnpyrandom.a
  does not export them, so they are read out of its random_standard_normal
  when the library loads, with a bit generator that replays chosen words:
  wi[idx] is its output for the word (1 << 9) | idx, and ki[idx] is found
  by bisection on whether it reads a second word.
- A word with rabs >= ki[idx] (the wedge, or the tail when idx = 0) goes to
  numpy's own random_standard_normal, with a bit generator that reads
  the word buffer from that word on; the wedge and tail code is numpy's.
  The fast path resumes at the word where it stopped.
- At return the state is set to the last word consumed: its counter,
  that counter's four words as the buffer and the position after it.
  The words generated past it are dropped; counter addressing makes the
  next fill start exactly there, as numpy's next draw would.
- A draw is scale * x, the single IEEE multiply of np.multiply(out,
  scale), copied from a small buffer into its place in the output; rows
  may be strided, so a seed's noise lands in its column of a ring slot.
- A block of S seeds is one call (cnoise_block), in tiles of rows of
  about TILE_BYTES: every seed draws its rows of a tile in turn, so the
  tile stays in cache while its rows fill, where one seed's whole column
  would sweep the slot once per seed.
- The same pass forms the window error sums, before the tile leaves the
  cache: each row's weighted errors a_t e^t go into the restarted prefix
  sum of their window, kept in place in the carried sum, and each row's
  sums into its window's largest norm, as window_spread forms its
  maxima (_ckernel's sum_sq and nan_max).  Only the windows' maxima s_k
  and the open window's sum leave the call.  Called without states, it
  forms the sums alone, over noise already drawn.  sums_numpy does the
  same adds in numpy: the fallback, and the probe's oracle.

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
values, against sums_numpy.  Where the library does not load, and
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
#include <string.h>
#include "numpy/random/bitgen.h"

double random_standard_normal(bitgen_t *bitgen_state);     /* libnpyrandom.a */

typedef struct {
    uint64_t ctr[4], key[2], buffer[4], pos;   /* numpy's Philox state */
    uint64_t wedge, tail;                      /* slow-path draws */
} philox_t;

static double wi[256];          /* numpy's ziggurat tables, read by cnoise_init */
static uint64_t ki[256];
static int lanes = 1;           /* 8 where the AVX-512 path runs; set by cnoise_init */

#define NCTR 64                 /* counters per refill of the word buffer */
#define ZBUF 512                /* normals drawn ahead of their copy into the rows */

/* one Philox4x64 round on c0..c3 with key k0, k1, the key bump that
   separates two rounds, and numpy's ten rounds of philox.h written out
   (gcc -O2 keeps a loop over them, at about twice the cost per word) */
#define PHILOX_ROUND(c0, c1, c2, c3)                                    \
    do {                                                                \
        const __uint128_t p0 = (__uint128_t)0xD2E7470EE14C6C93ULL * c0; \
        const __uint128_t p1 = (__uint128_t)0xCA5A826395121157ULL * c2; \
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;                            \
        c1 = (uint64_t)p1;                                              \
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;                            \
        c3 = (uint64_t)p0;                                              \
    } while (0)
#define PHILOX_BUMP                                                     \
    do {                                                                \
        k0 += 0x9E3779B97F4A7C15ULL;                                    \
        k1 += 0xBB67AE8584CAA73BULL;                                    \
    } while (0)
#define PHILOX_TEN(ROUND, BUMP)                                         \
    do {                                                                \
        ROUND; BUMP; ROUND; BUMP; ROUND; BUMP; ROUND; BUMP; ROUND;      \
        BUMP; ROUND; BUMP; ROUND; BUMP; ROUND; BUMP; ROUND; BUMP; ROUND; \
    } while (0)

/* the counter c + k (k < 2^64) into out, which may be c: numpy's
   increment, carried through all four words, k times */
static inline void ctr_add(const uint64_t *c, uint64_t k, uint64_t *out)
{
    uint64_t carry = (out[0] = c[0] + k) < k;
    for (int i = 1; i < 4; i++) {
        out[i] = c[i] + carry;
        carry = carry && out[i] == 0;
    }
}

/* the four Philox4x64-10 words of counter ctr under key into w */
static inline void philox_words(const uint64_t *ctr, const uint64_t *key, uint64_t *w)
{
    uint64_t c0 = ctr[0], c1 = ctr[1], c2 = ctr[2], c3 = ctr[3];
    uint64_t k0 = key[0], k1 = key[1];
    PHILOX_TEN(PHILOX_ROUND(c0, c1, c2, c3), PHILOX_BUMP);
    w[0] = c0;
    w[1] = c1;
    w[2] = c2;
    w[3] = c3;
}

/* the words of the n counters c + 1 .. c + n into w, four each; two
   counters at a time, whose rounds interleave: one counter's chain of
   multiplies alone would leave the multiplier idle */
static void words_scalar(const uint64_t *c, const uint64_t *key, long n, uint64_t *w)
{
    uint64_t ctr[4];
    memcpy(ctr, c, sizeof ctr);
    long i = 0;
    for (; i + 2 <= n; i += 2) {
        ctr_add(ctr, 1, ctr);
        uint64_t c0 = ctr[0], c1 = ctr[1], c2 = ctr[2], c3 = ctr[3];
        ctr_add(ctr, 1, ctr);
        uint64_t d0 = ctr[0], d1 = ctr[1], d2 = ctr[2], d3 = ctr[3];
        uint64_t k0 = key[0], k1 = key[1];
        PHILOX_TEN(PHILOX_ROUND(c0, c1, c2, c3); PHILOX_ROUND(d0, d1, d2, d3), PHILOX_BUMP);
        uint64_t *out = w + 4 * i;
        out[0] = c0;
        out[1] = c1;
        out[2] = c2;
        out[3] = c3;
        out[4] = d0;
        out[5] = d1;
        out[6] = d2;
        out[7] = d3;
    }
    if (i < n) {
        ctr_add(ctr, 1, ctr);
        philox_words(ctr, key, w + 4 * i);
    }
}

/* From the words w, the fast draws of up to L normals times scale into
   z, up to the first word that misses the ziggurat's fast path (the wedge,
   or the tail when idx = 0); returns how many were drawn.  The sign is
   the flip of the sign bit, numpy's -x bit for bit, for 0 too. */
static long zig_scalar(const uint64_t *w, long L, double scale, double *z)
{
    for (long i = 0; i < L; i++) {
        const uint64_t r = w[i];
        const int idx = r & 0xff;
        const uint64_t rabs = (r >> 9) & 0x000fffffffffffffULL;
        union { double f; uint64_t u; } x;
        if (rabs >= ki[idx])
            return i;
        x.f = (double)(int64_t)rabs * wi[idx];
        x.u ^= (r & 0x100) << 55;
        z[i] = x.f * scale;
    }
    return L;
}

#if defined(__x86_64__) && defined(__GNUC__) && !defined(CNOISE_SCALAR)
#define CNOISE_AVX512
#include <immintrin.h>
#define AVX512 __attribute__((target("avx512f,avx512dq")))

/* x >> 32, as a dword shuffle: the multiplier's port stays free */
#define HI32(x) _mm512_maskz_shuffle_epi32(0x5555, x, _MM_PERM_CDAB)

/* the 128-bit products a m, m = mh 2^32 + ml, as high words and low
   words *lo, from four 32 x 32-bit products (mul_epu32 reads the low
   dwords, so m stands for ml) */
AVX512 static inline __m512i mul64(__m512i a, __m512i m, __m512i mh, __m512i *lo)
{
    const __m512i ah = _mm512_shuffle_epi32(a, _MM_PERM_CDAB);
    const __m512i ll = _mm512_mul_epu32(a, m), lh = _mm512_mul_epu32(a, mh);
    const __m512i hl = _mm512_mul_epu32(ah, m), hh = _mm512_mul_epu32(ah, mh);
    const __m512i t = _mm512_add_epi64(hl, HI32(ll));
    const __m512i u = _mm512_add_epi64(lh, _mm512_maskz_mov_epi32(0x5555, t));
    *lo = _mm512_mask_shuffle_epi32(ll, 0xAAAA, u, _MM_PERM_CDAB);
    return _mm512_add_epi64(_mm512_add_epi64(hh, HI32(t)), HI32(u));
}

/* PHILOX_ROUND and PHILOX_BUMP on eight counters, one per lane */
#define PHILOX8_ROUND(c0, c1, c2, c3)                                   \
    do {                                                                \
        __m512i l0, l1;                                                 \
        const __m512i h0 = mul64(c0, m0, m0h, &l0), h1 = mul64(c2, m1, m1h, &l1); \
        c0 = _mm512_ternarylogic_epi64(h1, c1, k0, 0x96);   /* h1 ^ c1 ^ k0 */ \
        c1 = l1;                                                        \
        c2 = _mm512_ternarylogic_epi64(h0, c3, k1, 0x96);               \
        c3 = l0;                                                        \
    } while (0)
#define PHILOX8_BUMP                                                    \
    do {                                                                \
        k0 = _mm512_add_epi64(k0, bump0);                               \
        k1 = _mm512_add_epi64(k1, bump1);                               \
    } while (0)

/* the words c0..c3 of eight counters, one per lane, into w in counter
   order: word j of lane i to w[4 i + j] */
AVX512 static inline void words8_out(__m512i c0, __m512i c1, __m512i c2, __m512i c3,
                                     uint64_t *w)
{
    const __m512i pair_lo = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
    const __m512i pair_hi = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
    const __m512i quad_lo = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
    const __m512i quad_hi = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
    const __m512i c01_lo = _mm512_permutex2var_epi64(c0, pair_lo, c1);
    const __m512i c01_hi = _mm512_permutex2var_epi64(c0, pair_hi, c1);
    const __m512i c23_lo = _mm512_permutex2var_epi64(c2, pair_lo, c3);
    const __m512i c23_hi = _mm512_permutex2var_epi64(c2, pair_hi, c3);
    _mm512_storeu_si512(w, _mm512_permutex2var_epi64(c01_lo, quad_lo, c23_lo));
    _mm512_storeu_si512(w + 8, _mm512_permutex2var_epi64(c01_lo, quad_hi, c23_lo));
    _mm512_storeu_si512(w + 16, _mm512_permutex2var_epi64(c01_hi, quad_lo, c23_hi));
    _mm512_storeu_si512(w + 24, _mm512_permutex2var_epi64(c01_hi, quad_hi, c23_hi));
}

/* words_scalar's words, sixteen counters at a time in two vectors whose
   rounds interleave; from sixteen that would carry out of ctr[0] on, the
   scalar rounds */
AVX512 static void words_avx512(const uint64_t *c, const uint64_t *key, long n, uint64_t *w)
{
    const __m512i m0 = _mm512_set1_epi64(0xD2E7470EE14C6C93LL);
    const __m512i m1 = _mm512_set1_epi64(0xCA5A826395121157LL);
    const __m512i m0h = _mm512_srli_epi64(m0, 32), m1h = _mm512_srli_epi64(m1, 32);
    const __m512i bump0 = _mm512_set1_epi64(0x9E3779B97F4A7C15LL);
    const __m512i bump1 = _mm512_set1_epi64(0xBB67AE8584CAA73BLL);
    const __m512i step = _mm512_set_epi64(8, 7, 6, 5, 4, 3, 2, 1);
    uint64_t ctr[4];
    memcpy(ctr, c, sizeof ctr);
    long i = 0;
    for (; i + 16 <= n && ctr[0] <= UINT64_MAX - 16; i += 16) {
        __m512i a0 = _mm512_add_epi64(_mm512_set1_epi64(ctr[0]), step);
        __m512i b0 = _mm512_add_epi64(a0, _mm512_set1_epi64(8));
        __m512i a1 = _mm512_set1_epi64(ctr[1]), a2 = _mm512_set1_epi64(ctr[2]);
        __m512i a3 = _mm512_set1_epi64(ctr[3]);
        __m512i b1 = a1, b2 = a2, b3 = a3;
        __m512i k0 = _mm512_set1_epi64(key[0]), k1 = _mm512_set1_epi64(key[1]);
        PHILOX_TEN(PHILOX8_ROUND(a0, a1, a2, a3); PHILOX8_ROUND(b0, b1, b2, b3), PHILOX8_BUMP);
        words8_out(a0, a1, a2, a3, w + 4 * i);
        words8_out(b0, b1, b2, b3, w + 4 * i + 32);
        ctr[0] += 16;
    }
    words_scalar(ctr, key, n - i, w + 4 * i);
}

/* zig_scalar on eight words per vector: the table lookups are gathers,
   and the lanes before the first slow one are stored */
AVX512 static long zig_avx512(const uint64_t *w, long L, double scale, double *z)
{
    const __m512i byte = _mm512_set1_epi64(0xff), sign = _mm512_set1_epi64(0x100);
    const __m512i mant = _mm512_set1_epi64(0x000fffffffffffffLL);
    const __m512d sc = _mm512_set1_pd(scale);
    for (long i = 0; i < L; i += 8) {
        const __mmask8 live = L - i >= 8 ? 0xff : (1u << (L - i)) - 1;
        const __m512i r = _mm512_maskz_loadu_epi64(live, w + i);
        const __m512i idx = _mm512_and_si512(r, byte);
        const __m512i rabs = _mm512_and_si512(_mm512_srli_epi64(r, 9), mant);
        const __mmask8 fast = _mm512_mask_cmplt_epu64_mask(
            live, rabs, _mm512_i64gather_epi64(idx, (const void *)ki, 8));
        __m512i x = _mm512_castpd_si512(_mm512_mul_pd(_mm512_cvtepi64_pd(rabs),
                                                      _mm512_i64gather_pd(idx, wi, 8)));
        x = _mm512_xor_si512(x, _mm512_slli_epi64(_mm512_and_si512(r, sign), 55));
        const __m512d y = _mm512_mul_pd(_mm512_castsi512_pd(x), sc);
        if (fast == live) {
            _mm512_mask_storeu_pd(z + i, live, y);
            continue;
        }
        const int first = __builtin_ctz(~(unsigned)fast);
        _mm512_mask_storeu_pd(z + i, (1u << first) - 1, y);
        return i + first;
    }
    return L;
}
#endif

static void words(const uint64_t *c, const uint64_t *key, long n, uint64_t *w)
{
#ifdef CNOISE_AVX512
    if (lanes == 8) {
        words_avx512(c, key, n, w);
        return;
    }
#endif
    words_scalar(c, key, n, w);
}

static long zig(const uint64_t *w, long L, double scale, double *z)
{
#ifdef CNOISE_AVX512
    if (lanes == 8)
        return zig_avx512(w, L, scale, z);
#endif
    return zig_scalar(w, L, scale, z);
}

/* The words ahead of one seed's draws: slot j of w holds the four words
   of counter ctr + j, slot 0 those of the state's counter (its buffer).
   q is the next word, end the end of the words, and left the normals
   still to draw, which size the next refill. */
typedef struct {
    uint64_t ctr[4], w[4 * (NCTR + 1)];
    const uint64_t *key;
    long q, end, left;
} ahead_t;

/* the words of the counters after the last slot's, which becomes slot 0:
   one per four normals left (the slow draws read more), a multiple of
   sixteen on the vector path, NCTR at most */
static void refill(ahead_t *b)
{
    const long last = b->end / 4 - 1;
    if (last) {
        ctr_add(b->ctr, last, b->ctr);
        memcpy(b->w, b->w + 4 * last, 4 * sizeof(uint64_t));
    }
    long n = b->left > 0 ? (b->left + 3) / 4 : 1;
    if (lanes == 8)
        n = (n + 15) & ~15L;
    n = n < NCTR ? n : NCTR;
    words(b->ctr, b->key, n, b->w + 4);
    b->q = 4;
    b->end = 4 * (n + 1);
}

/* numpy's philox_next64 and philox_next_double, over the words ahead:
   random_standard_normal reads only these */
static uint64_t next_uint64(void *p)
{
    ahead_t *b = p;
    if (b->q >= b->end)
        refill(b);
    return b->w[b->q++];
}

static double next_double(void *b)
{
    return (next_uint64(b) >> 11) * (1.0 / 9007199254740992.0);
}

/* m normals times scale into z: the fast draws from the words ahead, in
   runs up to a word that misses the fast path, from which numpy's
   random_standard_normal draws the value, reading the same words */
static void draw(philox_t *st, ahead_t *b, long m, double scale, double *z)
{
    bitgen_t bitgen = {b, next_uint64, 0, next_double, next_uint64};
    for (long k = 0; k < m;) {
        if (b->q >= b->end)
            refill(b);
        const long L = m - k < b->end - b->q ? m - k : b->end - b->q;
        const long f = zig(b->w + b->q, L, scale, z + k);
        k += f;
        b->q += f;
        b->left -= f;
        if (f == L)
            continue;
        if ((b->w[b->q] & 0xff) == 0)
            st->tail++;
        else
            st->wedge++;
        z[k++] = random_standard_normal(&bitgen) * scale;
        b->left--;
    }
}

/* the state st at the last word consumed: its counter, that counter's
   words as the buffer and the position after the word; the words
   generated past it are dropped */
static void words_out(philox_t *st, const ahead_t *b)
{
    const long q = b->q - 1;
    ctr_add(b->ctr, q / 4, st->ctr);
    memcpy(st->buffer, b->w + 4 * (q / 4), 4 * sizeof(uint64_t));
    st->pos = q % 4 + 1;
}

/* n rows of d standard normals times scale, row i at out + i * stride, in
   two phases: the Philox words ahead, then the ziggurat over them; the
   normals pass through z, ZBUF at a time, into the rows */
static void cnoise_fill(philox_t *st, long n, long d, long stride, double scale, double *out)
{
    const long total = n * d;
    ahead_t b;
    double z[ZBUF];
    if (total <= 0)
        return;
    memcpy(b.ctr, st->ctr, sizeof b.ctr);
    memcpy(b.w, st->buffer, 4 * sizeof(uint64_t));
    b.key = st->key;
    b.q = st->pos;
    b.end = 4;
    b.left = total;
    double *row = out;
    long j = 0;                 /* the next normal's place: row[j] */
    for (long k0 = 0; k0 < total; k0 += ZBUF) {
        const long m = total - k0 < ZBUF ? total - k0 : ZBUF;
        draw(st, &b, m, scale, z);
        for (long k = 0; k < m; k++) {
            row[j] = z[k];
            if (++j == d) {
                j = 0;
                row += stride;
            }
        }
    }
    words_out(st, &b);
}

/* A block of n rows of S seeds' d-vectors, row t at E + t S d, in tiles of
   about TILE_BYTES of rows.  In each tile every seed s in turn draws its
   rows from its state st[s], times scale, unless st is 0 (the sums alone,
   over noise already in E).  Then, unless lo is 0, the tile's weighted
   errors E[t] a[t] go into their restarted prefix sums, kept in psum
   (S d) in place, and each row's sums into its window's maximum, while
   the tile is in cache.  Segment k starts at row lo[k], 0 = lo[0] < ... <
   n: row 0 adds the carried sum psum, the first row of a later segment
   restarts the sums, and every other row adds to them; these are the
   adds of sums_numpy, operand for operand.  smax[k S + s] receives
   segment k's largest norm of seed s's sums, the first segment's also
   against the carried maximum scarry[s]; as in window_spread the maximum
   is taken over squared norms and rooted at the segment's last row.  At
   return psum holds the sums of row n - 1. */
void cnoise_block(long n, long S, long d, philox_t *st, double scale, double *E,
                  const double *a, long nseg, const long *lo, double *psum,
                  const double *scarry, double *smax)
{
    const long m = S * d;
    const long tile = TILE_BYTES / (8 * m) > 1 ? TILE_BYTES / (8 * m) : 1;
    long k = 0;
    for (long t0 = 0; t0 < n; t0 += tile) {
        const long t1 = n - t0 < tile ? n : t0 + tile;
        for (long s = 0; st && s < S; s++)
            cnoise_fill(st + s, t1 - t0, d, m, scale, E + t0 * m + s * d);
        for (long t = t0; lo && t < t1; t++) {
            const double *e = E + t * m;
            const double at = a[t];
            const int first = t == 0 || (k + 1 < nseg && lo[k + 1] == t);
            if (t == 0) {
                for (long i = 0; i < m; i++)
                    psum[i] = e[i] * at + psum[i];
            } else if (first) {
                k++;
                for (long i = 0; i < m; i++)
                    psum[i] = e[i] * at;
            } else {
                for (long i = 0; i < m; i++)
                    psum[i] = psum[i] + e[i] * at;
            }
            const int last = t + 1 == (k + 1 < nseg ? lo[k + 1] : n);
            double *q = smax + k * S;
            for (long s = 0; s < S; s++) {
                const double qs = sum_sq(0, psum + s * d, 0, 0, 0, 0.0, 0.0, d);
                q[s] = first ? qs : nan_max(q[s], qs);
                if (!last)
                    continue;
                q[s] = sqrt(q[s]);
                if (k == 0)
                    q[s] = nan_max(q[s], scarry[s]);
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
   without a second read, exactly when rabs < ki[idx]; and take the
   AVX-512 path where the CPU and the OS support AVX-512F and DQ */
void cnoise_init(void)
{
#ifdef CNOISE_AVX512
    __builtin_cpu_init();
    lanes = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") ? 8 : 1;
#endif
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

/* the lanes of the path that draws: 8 (AVX-512) or 1 */
int cnoise_lanes(void)
{
    return lanes;
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


def block(fn, st: np.ndarray | None, E: np.ndarray, scale: float, sums=None):
    """fn, the compiled cnoise_block, over the block E (n, S, d), in tiles:
    the next n rows of the seed whose state is st[s] times scale into
    column s, unless st is None.  Then, with sums = (a, lo, psum, smax),
    the window error sums of the weighted errors a[t] E[t] over the
    segments that start at rows lo, 0 = lo[0] < ... < n (else ValueError,
    before any call), the first continuing from the carried sum psum (S, d)
    and maximum smax (S,): returns each segment's largest norm per seed
    (len(lo), S) and leaves the sums of row n - 1 in psum.  Without sums,
    returns None."""
    n, S, d = E.shape
    _ckernel.check("block draw", np.float64, (E, E.shape))
    if st is not None:
        _ckernel.check("block draw", np.uint64, (st, (S, STATE_WORDS)))
    a = lo = psum = scarry = out = None
    if sums is not None:
        a, lo, psum, scarry = sums
        a = np.ascontiguousarray(a, dtype=np.float64)
        lo = np.ascontiguousarray(lo, dtype=np.dtype("l"))     # C long
        _ckernel.check_starts(lo, n)
        _ckernel.check("block draw", np.float64, (a, (n,)), (psum, (S, d)), (scarry, (S,)))
        out = np.empty((len(lo), S))
    if any(arr is not None and not arr.flags.writeable for arr in (E, st, psum)):
        raise ValueError("block draw needs writeable noise, states and sums")
    if E.size:
        address = _ckernel._address
        fn(n, S, d, address(st), scale, E.ctypes.data, address(a),
           0 if lo is None else len(lo), address(lo), address(psum), address(scarry),
           address(out))
    return out


def sums_numpy(E: np.ndarray, a: np.ndarray, lo: np.ndarray, psum: np.ndarray,
               smax: np.ndarray) -> np.ndarray:
    """The window error sums of block, sums = (a, lo, psum, smax), over the
    noise E, in numpy: the same adds in the same order, so the same bits.
    The fallback where the library does not load, and the oracle of its
    probe.  Each segment's sums are one add.accumulate down its rows, in
    place, the first segment's from row 0 plus the carried sum."""
    W = E * a[:, None, None]
    W[0] += psum
    ends = np.append(lo[1:], len(E))
    for k in np.flatnonzero(ends - lo > 1).tolist():
        run = W[lo[k]:ends[k]]
        np.add.accumulate(run, axis=0, out=run)
    out = np.maximum.reduceat(np.sqrt(np.einsum("...d,...d->...", W, W)), lo, axis=0)
    out[0] = np.maximum(out[0], smax)
    psum[...] = W[-1]
    return out


PROBE_KEYS = (0, 20240501, 2**64 + 5, 2**128 - 1)
# the share of draws that may miss the fast path: 1.48% do on the probe
# keys, and all of them would with ziggurat tables that were never read
SLOW_SHARE = 0.05


def _sums_match(fn, st: np.ndarray | None, E: np.ndarray, scale: float,
                a: np.ndarray, lo: np.ndarray, psum: np.ndarray, smax: np.ndarray) -> bool:
    """Whether fn, drawing into E from the states st (unless None), forms
    the maxima and the carried sum of sums_numpy over E."""
    got_sum, want_sum = psum.copy(), psum.copy()
    with np.errstate(all="ignore"):
        got = block(fn, st, E, scale, (a, lo, got_sum, smax))
        want = sums_numpy(E, a, lo, want_sum, smax)
    return _ckernel.same_bits(want, got) and _ckernel.same_bits(want_sum, got_sum)


def probe_block(fn) -> bool:
    """Whether fn, the compiled cnoise_block, reproduces numpy: the probe
    keys, one seed each, drawn in two calls of more than two tiles each,
    every seed's rows strided S d apart, against numpy's normals, with
    both slow paths taken and no more than SLOW_SHARE of the draws on
    them; sums that restart on, just before and just after tile edges,
    against sums_numpy, then the sums alone over the same noise; and the
    sums alone over blocks of _ckernel.SPECIAL values (+-0, subnormals,
    sums and products that overflow, +-inf and NaN): segments all of
    length one, one long segment and mixed lengths, with a carried sum
    and maximum."""
    S, d, scale = len(PROBE_KEYS), 4, 0.3
    tile = tile_rows(S * d)
    n = 2 * tile + 5
    want = np.stack([np.random.Generator(np.random.Philox(key=key)).standard_normal((2 * n, d))
                     for key in PROBE_KEYS], axis=1) * scale
    st = states(PROBE_KEYS)
    a = 0.5 + np.sin(np.arange(n)) ** 2
    lo = np.array([0, 3, tile - 1, tile, tile + 1, 2 * tile - 1, 2 * tile, 2 * tile + 1])
    psum, smax = np.cos(np.arange(S * d)).reshape(S, d), np.full(S, 0.5)
    E = np.zeros((2 * n, S, d))
    for half in (E[:n], E[n:]):
        if not (_sums_match(fn, st, half, scale, a, lo, psum, smax)
                and _sums_match(fn, None, half, 0.0, a, lo, psum, smax)):
            return False
    slow = st[:, [WEDGE, TAIL]].sum(axis=0)
    if not (_ckernel.same_bits(want, E) and (slow > 0).all()
            and slow.sum() <= SLOW_SHARE * E.size):
        return False

    special = _ckernel.SPECIAL
    n = 23
    k = np.arange(n * S * d)
    a = np.resize([1.0, 0.5, 1e-3, 2.0, 5e-324, 1e300], n)
    for ln in ([1] * n, [n], [4, 1, 1, 7, 2, 1, 5, 2]):
        lo = np.concatenate([[0], np.cumsum(ln)[:-1]])
        for shift in range(0, len(special), 5):
            E = np.where(k % 5 == 0, np.resize(np.roll(special, shift), len(k)),
                         np.sin(k)).reshape(n, S, d)
            psum = np.resize(np.roll(special, -4 - shift), (S, d))
            smax = np.abs(np.resize(np.roll(special, 2 * shift), S))
            if not _sums_match(fn, None, E, 0.0, a, lo, psum, smax):
                return False
    return True
