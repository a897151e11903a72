"""The one compiled library: runner._Steps's momentum loop and
runner._Spreads's window spreads here, and the block draw of _cnoise
(normals and window error sums), in C.

At d = 1 a step is a handful of numpy calls on 20-element rows, and their
dispatch, not the arithmetic, sets the pace of run_batch's step loop.  This
module runs a whole block in one C call for gradients that are exact
elementwise IEEE operations.  A built-in ``grad_batch`` declares such a form
in its attribute ``_c_form``:

    ("mul", h)    g_j = x_j * h_j                  quadratic; even_power p = 1 (h = 2)
    ("cube", h)   g_j = ((x_j * x_j) * h_j) * x_j  even_power p = 2, d = 1 (h = 4)

The attribute belongs to the function, not to the Problem, so a gradient
replaced with ``dataclasses.replace`` or wrapped in any way runs the numpy
kernel and is called as before.  The same call writes each new row's norm,
which the divergence scan reads.

The window spreads, which run_batch's caller forms after each block's
steps, are one C call per block too (window_spread): the interpolation rows, each row's distance to its
window's anchor and each window segment's maximum, in one pass over the
block's slot, for every problem.

The C loops perform numpy's operations in numpy's order.  They are compiled
without fast-math and without contraction into fused multiply-adds, so each
operation is one correctly rounded double operation, as in numpy, and the
bits are the same.  ``x * 2`` equals numpy's ``2 * x`` bit for bit: with one
NaN operand the product carries that operand's NaN either way.  A squared
norm adds its squares in the order of numpy's einsum (sum_sq), and a
maximum takes NaN as np.maximum does.  Since sqrt is correctly rounded and
monotone, the root of the largest squared norm is the largest norm.

SOURCE and _cnoise.SOURCE are one library, compiled with the system ``cc``
and linked against numpy's libnpyrandom.a once per process, by the first
run_batch before its noise thread starts (never at import), and loaded
with ctypes.  It is used only if its three probes match numpy bit for bit: the
step kernel and its norms on blocks of special values (probe), the tiled
block draw, its normals and its error sums (_cnoise.probe_block), and the
window spreads (probe_spread).  Otherwise every run of the process uses the
numpy kernel, spreads and error sums and numpy's normals: the same bits.  The
block draw picks its path when the library loads, and cnoise_lanes()
tells which: 8 where the CPU runs its AVX-512 code, else 1.  Its header
<immintrin.h> takes the one cc call from about 0.5 to 1.1 s.
"""

from __future__ import annotations

import functools
import os

import numpy as np

CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
FORMS = {"mul": 0, "cube": 1}
# the special values of the three probes: +-0, subnormals, values whose
# squares are subnormal or overflow, +-inf and NaN, among ordinary ones
SPECIAL = np.array([0.0, -0.0, 5e-324, -2.2e-308, 1e-160, 1e-3, -0.7, 1.3,
                    1e154, 1.7e308, -1e300, np.inf, -np.inf, np.nan])

SOURCE = r"""
#include <math.h>

#define INLINE static inline __attribute__((always_inline))

/* Element j of a row, by kind: v_j (0); v_j - a_j (1); z_j - a_j (2); z_j - y_j
   (3).  z_j = v_j c1 - w_j lc1 interpolates from x^t = v and x^{t-1} = w, and
   y_j = a_j c1 - b_j lc1 from the anchor's row a and the row b before it.
   Every call passes its kind as a constant, so each inlined copy is one
   expression. */
INLINE double elem(int kind, const double *v, const double *w, const double *a,
                   const double *b, double c1, double lc1, long j)
{
    const double u = kind >= 2 ? v[j] * c1 - w[j] * lc1 : v[j];
    if (kind == 0)
        return u;
    return u - (kind == 3 ? a[j] * c1 - b[j] * lc1 : a[j]);
}

/* The squared norm of a row of d elements, summed in the order of numpy's
   einsum "...d,...d->..." over contiguous float64 on its SSE baseline: two
   lanes (even and odd j); each chunk of 8 elements from its last pair to its
   first; the tail in pairs, the odd element out beside a zero; the lanes
   added last.  runner._norms is its oracle. */
INLINE double sum_sq(int kind, const double *v, const double *w, const double *a,
                     const double *b, double c1, double lc1, long d)
{
    double l0 = 0.0, l1 = 0.0, u;
    long i = 0;
    for (; i + 8 <= d; i += 8)
        for (long j = i + 6; j >= i; j -= 2) {
            u = elem(kind, v, w, a, b, c1, lc1, j);
            l0 = u * u + l0;
            u = elem(kind, v, w, a, b, c1, lc1, j + 1);
            l1 = u * u + l1;
        }
    for (; i < d; i += 2) {
        u = elem(kind, v, w, a, b, c1, lc1, i);
        l0 = u * u + l0;
        u = i + 1 < d ? elem(kind, v, w, a, b, c1, lc1, i + 1) : 0.0;
        l1 = u * u + l1;
    }
    return l0 + l1;
}

/* np.maximum(a, b): NaN if either is */
INLINE double nan_max(double a, double b)
{
    return a != a || a >= b ? a : b;
}

/* One block of n momentum steps for S seeds in dimension d, as runner._Steps
   computes it.  rows holds n + 1 rows of S x d doubles; row t + 1 receives
   x^{t+1}.  Step 0 reads x^t from X and x^{t-1} from Xp, step 1 reads x^{t-1}
   from X.  E may be rows + S d: each element reads its noise before it
   writes the iterate over it.  A seed with frozen[s] != 0 gets a zero update.
   Unless norms is 0, norms[t S + s] receives the norm of seed s's x^{t+1}. */
static double grad(int form, double x, double h)
{
    return form == 0 ? x * h : ((x * x) * h) * x;
}

void sgdm_block(long n, long S, long d, int form, const double *h,
                int momentum, int look, double lam, double nu,
                const double *a, const unsigned char *frozen,
                const double *X, const double *Xp, const double *E, double *rows,
                double *norms)
{
    const long m = S * d;
    for (long t = 0; t < n; t++) {
        const double *x = t == 0 ? X : rows + t * m;
        const double *xp = t == 0 ? Xp : t == 1 ? X : rows + (t - 1) * m;
        const double *e = E + t * m;
        double *xn = rows + (t + 1) * m;
        const double at = a[t];
        for (long s = 0; s < S; s++) {
            const int fz = frozen != 0 && frozen[s];
            for (long j = 0; j < d; j++) {
                const long i = s * d + j;
                if (momentum) {
                    double dx = x[i] - xp[i];
                    const double g = grad(form, look ? x[i] + dx * nu : x[i], h[j]) - e[i];
                    dx = dx * lam;
                    dx = dx - g * at;
                    if (fz)
                        dx = 0.0;
                    xn[i] = x[i] + dx;
                } else {
                    double g = grad(form, x[i], h[j]) - e[i];
                    g = g * at;
                    if (fz)
                        g = 0.0;
                    xn[i] = x[i] - g;
                }
            }
        }
        for (long s = 0; norms && s < S; s++)
            norms[t * S + s] = sqrt(sum_sq(0, xn + s * d, 0, 0, 0, 0.0, 0.0, d));
    }
}

/* The window spreads of one block, as runner._Spreads computes them.  rows
   holds x^{b0}..x^{b0+n}, n + 1 rows of S x d doubles, cut into nseg
   segments: segment k is rows lo[k] + 1 .. lo[k + 1] (the last one through
   row n), 0 = lo[0] < ... < n.  A row's anchor is row lo[k] of its segment,
   for the first segment ax.  xmax[k S + s] receives segment k's largest
   distance ||x - anchor|| of seed s, the first segment's also against the
   carried xc[s]; the maximum is taken over squared norms, and its root is
   the largest root.  Unless xlast is 0, xlast[k S + s] receives the
   distance at segment k's last row.  Unless az is 0, the interpolations
   z^t = x^t c1 - x^{t-1} lc1 (t >= 1) give zmax likewise, with the first
   segment's anchor az and maximum zc carried, and each later anchor formed
   from its rows lo[k] and lo[k] - 1. */
void window_spread(long n, long S, long d, const double *rows, long nseg, const long *lo,
                   const double *ax, const double *xc, double *xmax, double *xlast,
                   double c1, double lc1, const double *az, const double *zc, double *zmax)
{
    const long m = S * d;
    long k = 0;
    for (long t = 1; t <= n; t++) {
        if (k + 1 < nseg && lo[k + 1] < t)
            k++;
        const int first = t == lo[k] + 1, last = t == (k + 1 < nseg ? lo[k + 1] : n);
        const double *x = rows + t * m, *xa = k ? rows + lo[k] * m : ax;
        double *qx = xmax + k * S, *qz = az ? zmax + k * S : 0;
        for (long s = 0; s < S; s++) {
            const long i = s * d;
            const double q = sum_sq(1, x + i, 0, xa + i, 0, 0.0, 0.0, d);
            qx[s] = first ? q : nan_max(qx[s], q);
            if (az) {
                const double qt = k ? sum_sq(3, x + i, x + i - m, xa + i, xa + i - m, c1, lc1, d)
                                    : sum_sq(2, x + i, x + i - m, az + i, 0, c1, lc1, d);
                qz[s] = first ? qt : nan_max(qz[s], qt);
            }
            if (!last)
                continue;
            qx[s] = sqrt(qx[s]);
            if (k == 0)
                qx[s] = nan_max(qx[s], xc[s]);
            if (xlast)
                xlast[k * S + s] = sqrt(q);
            if (az) {
                qz[s] = sqrt(qz[s]);
                if (k == 0)
                    qz[s] = nan_max(qz[s], zc[s]);
            }
        }
    }
}
"""


def check(what: str, dtype, *arrays):
    """Raise ValueError unless each (array, shape) pair is a C-contiguous
    array of dtype and that shape."""
    for arr, shape in arrays:
        if arr.dtype != dtype or arr.shape != shape or not arr.flags.c_contiguous:
            raise ValueError(f"{what} needs a C-contiguous {np.dtype(dtype)} {shape} array")


def check_starts(lo: np.ndarray, n: int):
    """Raise ValueError unless lo, the segment starts of a block of n rows,
    are C longs with 0 = lo[0] < ... < n; the C passes trust them."""
    if (lo.dtype != np.dtype("l") or lo.ndim != 1 or not lo.flags.c_contiguous
            or not len(lo) or lo[0] != 0 or lo[-1] >= n or (np.diff(lo) <= 0).any()):
        raise ValueError("segment starts must be C longs with 0 = lo[0] < ... < n")


def _address(arr):
    return None if arr is None else arr.ctypes.data


class Steps:
    """The compiled counterpart of runner._Steps, with the same run()."""

    def __init__(self, fn, grad, params, S: int, d: int):
        form, h = grad._c_form
        self.fn, self.form, self.S, self.d = fn, FORMS[form], S, d
        self.h = np.array(h, dtype=float)       # C reads it on every call
        if self.h.shape != (d,):
            raise ValueError(f"_c_form coefficients must have shape ({d},)")
        self.lam, self.nu = float(params.lam), float(params.nu)
        self.momentum = int(params.lam != 0.0 or params.nu != 0.0)
        self.look = int(params.nu != 0.0)

    def run(self, X, Xp, E, rows, step_sizes, frozen, norms=None):
        n, S, d = len(E), self.S, self.d
        a = np.ascontiguousarray(step_sizes, dtype=np.float64)
        arrays = [(X, (S, d)), (Xp, (S, d)), (E, (n, S, d)), (rows, (n + 1, S, d)), (a, (n,))]
        if norms is not None:
            arrays.append((norms, (n, S)))
        check("step kernel", np.float64, *arrays)
        mask = None
        if frozen is not None:
            mask = np.ascontiguousarray(frozen, dtype=np.uint8).reshape(S)
        self.fn(n, S, d, self.form, self.h.ctypes.data, self.momentum, self.look,
                self.lam, self.nu, a.ctypes.data, _address(mask),
                X.ctypes.data, Xp.ctypes.data, E.ctypes.data, rows.ctypes.data, _address(norms))


class Spreads:
    """The compiled counterpart of runner._Spreads, with the same run().
    Its segment starts are checked (check_starts) before any call."""

    def __init__(self, fn, lam: float):
        self.fn, self.z = fn, lam != 0.0
        self.c1 = 1.0 / (1.0 - lam)         # the constants of runner._interpolate
        self.lc1 = lam * self.c1

    def run(self, rows, lo, ax, xc, az, zc, last: bool):
        n, S, d = len(rows) - 1, *rows.shape[1:]
        check_starts(lo, n)
        arrays = [(rows, (n + 1, S, d)), (ax, (S, d)), (xc, (S,))]
        if self.z:
            arrays += [(az, (S, d)), (zc, (S,))]
        else:
            az = zc = None
        check("window spread", np.float64, *arrays)
        xmax = np.empty((len(lo), S))
        zmax = np.empty_like(xmax) if self.z else None
        xlast = np.empty_like(xmax) if last else None
        self.fn(n, S, d, rows.ctypes.data, len(lo), lo.ctypes.data, ax.ctypes.data,
                xc.ctypes.data, xmax.ctypes.data, _address(xlast), self.c1, self.lc1,
                _address(az), _address(zc), _address(zmax))
        return xmax, xmax if zmax is None else zmax, xlast


@functools.cache
def load():
    """The checked library (sgdm_block, window_spread and cnoise_block), built
    on the first call; None if it cannot be built or fails any probe.
    Never retried within a process."""
    try:
        return build()
    except (OSError, RuntimeError):
        return None


def compile_library(source: str):
    """source compiled with CFLAGS and numpy's random headers into a shared
    library linked against numpy's libnpyrandom.a, in a private temporary
    directory, and loaded with ctypes.  Raises RuntimeError if cc fails
    (the link included), OSError if it cannot run or the library does not
    load."""
    import ctypes
    import shutil
    import subprocess
    import tempfile
    npyrandom = os.path.join(os.path.dirname(np.random.__file__), "lib", "libnpyrandom.a")
    tmp = tempfile.mkdtemp(prefix="sgdmlab-kernel-")
    try:
        src, lib = os.path.join(tmp, "lib.c"), os.path.join(tmp, "lib.so")
        with open(src, "w") as fh:
            fh.write(source)
        proc = subprocess.run(["cc", *CFLAGS, "-I", np.get_include(), src, "-o", lib,
                               npyrandom, "-lm"], capture_output=True, text=True)
        if proc.returncode:
            raise RuntimeError(f"cc failed with exit code {proc.returncode}:\n{proc.stderr}")
        return ctypes.CDLL(lib)         # the mapping outlives the file
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def build():
    """Compile and load the library, read numpy's ziggurat tables into it,
    and check the step kernel, the block draw and the window spreads on
    their probes; raises what went wrong."""
    import ctypes
    from . import _cnoise
    lib = compile_library(SOURCE + _cnoise.SOURCE)
    ptr, c_int, c_long, c_double = ctypes.c_void_p, ctypes.c_int, ctypes.c_long, ctypes.c_double
    for fn, argtypes in ((lib.sgdm_block, [c_long] * 3 + [c_int, ptr, c_int, c_int, c_double,
                                                          c_double] + [ptr] * 7),
                         (lib.window_spread, [c_long] * 3 + [ptr, c_long] + [ptr] * 5
                          + [c_double] * 2 + [ptr] * 3),
                         (lib.cnoise_init, []),
                         (lib.cnoise_block, [c_long] * 3 + [ptr, c_double, ptr, ptr, c_long]
                          + [ptr] * 4)):
        fn.argtypes, fn.restype = argtypes, None
    lib.cnoise_lanes.argtypes, lib.cnoise_lanes.restype = [], c_int
    lib.cnoise_init()
    if not probe(lib.sgdm_block):
        raise RuntimeError("the compiled step kernel differs from numpy on the probe block")
    if not _cnoise.probe_block(lib.cnoise_block):
        raise RuntimeError("the compiled block draw (its normals or its error sums) differs "
                           "from numpy's on the probe blocks")
    if not probe_spread(lib.window_spread):
        raise RuntimeError("the compiled window spreads differ from numpy on the probe blocks")
    return lib


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit where a is not NaN, and NaN where a is NaN.  NaN
    payloads are not compared: a diverged seed's rows are overwritten by
    the freeze before anything reads them."""
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all()
                and (a[~nan].view(np.int64) == b[~nan].view(np.int64)).all())


def probe(fn) -> bool:
    """Whether fn reproduces runner._Steps on a fixed block, the rows and
    their norms: both gradient forms, plain SGD, heavy ball and Nesterov,
    frozen seeds, and the noise in the row slots.  The iterates are SPECIAL
    values, and so is every fifth noise value among smooth ones."""
    from .optimizer import MomentumParams
    from .problems import make_problem
    from .runner import _Steps
    S, n = len(SPECIAL), 4
    a = np.array([0.5, 1e-3, 2.0, 0.1])
    frozen = (np.arange(S) % 3 == 1)[:, None]
    for problem in (make_problem("quadratic", 2, mu=0.5, l=2.0),
                    make_problem("even_power", 3, p=1.0),
                    make_problem("even_power", 1, p=2.0)):
        grad, d = problem.grad_batch, problem.dim
        X = np.resize(SPECIAL, (S, d))
        Xp = np.resize(SPECIAL[::-1], (S, d))
        k = np.arange(n * S * d)
        noise = np.where(k % 5 == 0, np.resize(np.roll(SPECIAL, 5), len(k)),
                         np.sin(k)).reshape(n, S, d)
        for params in (MomentumParams(0.0), MomentumParams(0.9), MomentumParams(0.5, 0.5)):
            for mask in (None, frozen):
                out = []
                for kernel in (_Steps(grad, params, S, d), Steps(fn, grad, params, S, d)):
                    rows, norms = np.empty((n + 1, S, d)), np.empty((n, S))
                    rows[0] = X
                    rows[1:] = noise
                    with np.errstate(all="ignore"):
                        kernel.run(X.copy(), Xp.copy(), rows[1:], rows, a, mask, norms)
                    out.append((rows, norms))
                if not all(map(same_bits, *out)):
                    return False
    return True


def probe_spread(fn) -> bool:
    """Whether fn, the compiled window_spread, reproduces runner._Spreads,
    its maxima and its last rows' distances, in blocks of d in (1, 2, 3, 9,
    10, 17) that mix smooth values with +-0, subnormals, squares that
    overflow, +-inf and NaN; segments all of length one, one long segment
    and mixed lengths; carried anchors and maxima; lam = 0 and 0.9."""
    from .runner import _Spreads
    S, n = 3, 23
    for d in (1, 2, 3, 9, 10, 17):
        k = np.arange((n + 3) * S * d)
        for shift in (0, 5):
            values = np.where(k % 5 == 0, np.resize(np.roll(SPECIAL, shift), len(k)),
                              np.sin(k)).reshape(n + 3, S, d)
            rows, ax, az = values[:-2], values[-2], values[-1]
            xc, zc = np.abs(np.resize(np.roll(SPECIAL, 3 * shift), (2, S)))
            for ln in ([1] * n, [n], [4, 1, 1, 7, 2, 1, 5, 2]):
                lo = np.concatenate([[0], np.cumsum(ln)[:-1]])
                for lam in (0.0, 0.9):
                    with np.errstate(all="ignore"):
                        out = [spreads.run(rows, lo, ax, xc, az, zc, True)
                               for spreads in (_Spreads(lam), Spreads(fn, lam))]
                    if not all(map(same_bits, *out)):
                        return False
    return True
