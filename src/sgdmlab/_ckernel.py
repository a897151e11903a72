"""The one compiled library: runner._Steps's momentum loop here, and the
block draw of _cnoise (normals and window error sums), in C.

At d = 1 a step is a handful of numpy calls on 20-element rows, and their
dispatch, not the arithmetic, sets the pace of the parent process.  This
module runs a whole block in one C call for gradients that are exact
elementwise IEEE operations.  A built-in ``grad_batch`` declares such a form
in its attribute ``_c_form``:

    ("mul", h)    g_j = x_j * h_j                  quadratic; even_power p = 1 (h = 2)
    ("cube", h)   g_j = ((x_j * x_j) * h_j) * x_j  even_power p = 2, d = 1 (h = 4)

The attribute belongs to the function, not to the Problem, so a gradient
replaced with ``dataclasses.replace`` or wrapped in any way runs the numpy
kernel and is called as before.

The C loop performs numpy's operations in numpy's order.  It is compiled
without fast-math and without contraction into fused multiply-adds, so each
operation is one correctly rounded double operation, as in numpy, and the
bits are the same.  ``x * 2`` equals numpy's ``2 * x`` bit for bit: with one
NaN operand the product carries that operand's NaN either way.

SOURCE and _cnoise.SOURCE are one library, compiled with the system ``cc``
and linked against numpy's libnpyrandom.a once per process, by the first
run_batch (never at import, never in a forked child), and loaded with
ctypes.  It is used only if both probes match numpy bit for bit: the step
kernel on blocks of special values (probe), and the tiled block draw,
its normals and its error sums (_cnoise.probe_block).  Otherwise every
run of the process uses the numpy kernel, the numpy scan and numpy's
normals: the same bits.
"""

from __future__ import annotations

import functools
import os

import numpy as np

CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
FORMS = {"mul": 0, "cube": 1}

SOURCE = r"""
/* One block of n momentum steps for S seeds in dimension d, as runner._Steps
   computes it.  rows holds n + 1 rows of S x d doubles; row t + 1 receives
   x^{t+1}.  Step 0 reads x^t from X and x^{t-1} from Xp, step 1 reads x^{t-1}
   from X.  E may be rows + S d: each element reads its noise before it
   writes the iterate over it.  A seed with frozen[s] != 0 gets a zero update. */
static double grad(int form, double x, double h)
{
    return form == 0 ? x * h : ((x * x) * h) * x;
}

void sgdm_block(long n, long S, long d, int form, const double *h,
                int momentum, int look, double lam, double nu,
                const double *a, const unsigned char *frozen,
                const double *X, const double *Xp, const double *E, double *rows)
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
    }
}
"""


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

    def run(self, X, Xp, E, rows, step_sizes, frozen):
        n, S, d = len(E), self.S, self.d
        a = np.ascontiguousarray(step_sizes, dtype=np.float64)
        for arr, shape in ((X, (S, d)), (Xp, (S, d)), (E, (n, S, d)),
                           (rows, (n + 1, S, d)), (a, (n,))):
            if arr.dtype != np.float64 or arr.shape != shape or not arr.flags.c_contiguous:
                raise ValueError(f"step kernel needs a C-contiguous float64 {shape} array")
        mask = None
        if frozen is not None:
            mask = np.ascontiguousarray(frozen, dtype=np.uint8).reshape(S)
        self.fn(n, S, d, self.form, self.h.ctypes.data, self.momentum, self.look,
                self.lam, self.nu, a.ctypes.data,
                None if mask is None else mask.ctypes.data,
                X.ctypes.data, Xp.ctypes.data, E.ctypes.data, rows.ctypes.data)


@functools.cache
def load():
    """The checked library (sgdm_block and cnoise_block), built
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
    and check the step kernel and the block draw on their probes; raises
    what went wrong."""
    import ctypes
    from . import _cnoise
    lib = compile_library(SOURCE + _cnoise.SOURCE)
    ptr, c_int, c_long, c_double = ctypes.c_void_p, ctypes.c_int, ctypes.c_long, ctypes.c_double
    for fn, argtypes in ((lib.sgdm_block, [c_long] * 3 + [c_int, ptr, c_int, c_int, c_double,
                                                          c_double] + [ptr] * 6),
                         (lib.cnoise_init, []),
                         (lib.cnoise_block, [c_long] * 3 + [ptr, c_double, ptr, ptr, c_long]
                          + [ptr] * 3)):
        fn.argtypes, fn.restype = argtypes, None
    lib.cnoise_init()
    if not probe(lib.sgdm_block):
        raise RuntimeError("the compiled step kernel differs from numpy on the probe block")
    if not _cnoise.probe_block(lib.cnoise_block):
        raise RuntimeError("the compiled block draw (its normals or its error sums) differs "
                           "from numpy's on the probe blocks")
    return lib


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit where a is not NaN, and NaN where a is NaN.  NaN
    payloads are not compared: a diverged seed's rows are overwritten by
    the freeze before anything reads them."""
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all()
                and (a[~nan].view(np.int64) == b[~nan].view(np.int64)).all())


def probe(fn) -> bool:
    """Whether fn reproduces runner._Steps on a fixed block: both gradient
    forms, plain SGD, heavy ball and Nesterov, frozen seeds, and the noise
    in the row slots; the values include +-0, subnormals, squares that
    are subnormal, products that overflow, +-inf and NaN."""
    from .optimizer import MomentumParams
    from .problems import make_problem
    from .runner import _Steps
    special = np.array([0.0, -0.0, 5e-324, -2.2e-308, 1e-160, 1e-3, -0.7, 1.3,
                        1e154, -1e300, np.inf, -np.inf, np.nan])
    S, n = len(special), 4
    a = np.array([0.5, 1e-3, 2.0, 0.1])
    frozen = (np.arange(S) % 3 == 1)[:, None]
    for problem in (make_problem("quadratic", 2, mu=0.5, l=2.0),
                    make_problem("even_power", 3, p=1.0),
                    make_problem("even_power", 1, p=2.0)):
        grad, d = problem.grad_batch, problem.dim
        X = np.resize(special, (S, d))
        Xp = np.resize(special[::-1], (S, d))
        for params in (MomentumParams(0.0), MomentumParams(0.9), MomentumParams(0.5, 0.5)):
            for mask in (None, frozen):
                out = []
                for kernel in (_Steps(grad, params, S, d), Steps(fn, grad, params, S, d)):
                    rows = np.empty((n + 1, S, d))
                    rows[0] = X
                    rows[1:] = np.resize(np.roll(special, 5), (n, S, d))
                    with np.errstate(all="ignore"):
                        kernel.run(X.copy(), Xp.copy(), rows[1:], rows, a, mask)
                    out.append(rows)
                if not same_bits(*out):
                    return False
    return True
