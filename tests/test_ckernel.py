"""The compiled step kernel against the numpy kernel it replaces, block by
block, bit for bit.

runner._Steps is the oracle: for every gradient form that a built-in
problem declares compiled, every momentum body and any frozen-seed mask,
one block through the compiled kernel must leave the same rows.  The values
include +-0, subnormals, products that overflow, +-inf and NaN.  Finite and
infinite entries must match bit for bit and NaN must match NaN; NaN payloads
are not compared, because a diverged seed's rows are overwritten by the
freeze before anything reads them.

The compiled error sums (the block draw of _cnoise called without states)
have their own oracle, their numpy twin _cnoise.sums_numpy: the same
window maxima and carried sum for any segment layout, step sizes, carry
and special values.  The library loads in the caller of run_batch, once per
process, and it loads only if its probes pass.
"""

import ctypes
import dataclasses
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdmlab import (MomentumParams, NoiseModel, RecordingPolicy, StepSchedule,
                     build_partition, default_window, make_problem, run_batch, runner,
                     _ckernel, _cnoise)
from sgdmlab.runner import _Steps

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, -3.3e-157, 1e154, -1e200,
           1.7e308, np.inf, -np.inf, np.nan]    # 1e-160 squared is subnormal
METHODS = [MomentumParams.sgd(), MomentumParams.heavy_ball(0.9),
           MomentumParams.heavy_ball(0.3), MomentumParams.nesterov(0.5),
           MomentumParams(0.75, 1.5)]


@pytest.fixture(scope="module")
def library():
    lib = _ckernel.load()
    if lib is None:
        pytest.skip("the compiled library does not load here (no C compiler?)")
    return lib


@pytest.fixture(scope="module")
def compiled(library):
    return library.sgdm_block


def _bits_equal(a, b):
    nan = np.isnan(a)
    assert (nan == np.isnan(b)).all(), "NaN positions differ"
    assert (a[~nan].view(np.int64) == b[~nan].view(np.int64)).all(), "bits differ"


@st.composite
def blocks(draw):
    form = draw(st.sampled_from(["quadratic", "even_power_p1", "even_power_p2"]))
    d = 1 if form == "even_power_p2" else draw(st.integers(1, 20))
    if form == "quadratic":
        problem = make_problem("quadratic", d, mu=0.5, l=0.5 if d == 1 else 3.0)
    else:
        problem = make_problem("even_power", d, p=1.0 if form == "even_power_p1" else 2.0)
    S, n = draw(st.integers(1, 20)), draw(st.integers(1, 64))
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()),
                         min_size=1, max_size=8))
    share = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(shape):
        v = rng.standard_normal(shape) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
        special = rng.random(shape) < share
        v[special] = rng.choice(pool, int(special.sum()))
        return v

    a = rng.random(n) * draw(st.sampled_from([1e-310, 1e-3, 0.5, 2.0, 1e300]))
    frozen = draw(st.sampled_from([None, 0.3, 1.0]))
    if frozen is not None:
        frozen = (rng.random(S) < frozen)[:, None]
    return (problem, draw(st.sampled_from(METHODS)), values((S, d)), values((S, d)),
            values((n, S, d)), a, frozen, draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_compiled_block_matches_numpy_bit_for_bit(compiled, block):
    problem, params, X, Xp, E, a, frozen, in_rows = block
    S, d = X.shape
    out = []
    for kernel in (_Steps(problem.grad_batch, params, S, d),
                   _ckernel.Steps(compiled, problem.grad_batch, params, S, d)):
        rows, norms = np.full((len(E) + 1, S, d), 7.0), np.full((len(E), S), 7.0)
        rows[0] = X
        if in_rows:             # the runner's layout: the noise rides in the row slots
            rows[1:] = E
            noise = rows[1:]
        else:
            noise = E.copy()
        X0, Xp0 = X.copy(), Xp.copy()
        with np.errstate(all="ignore"):
            kernel.run(X0, Xp0, noise, rows, a, frozen, norms)
        assert X0.tobytes() == X.tobytes() and Xp0.tobytes() == Xp.tobytes()
        out.append((rows, norms))
    _bits_equal(out[0][0], out[1][0])
    # the divergence scan's norms, written by the kernel in the same pass
    with np.errstate(all="ignore"):
        _bits_equal(runner._norms(out[1][0][1:]), out[1][1])
    _bits_equal(out[0][1], out[1][1])


def test_probe_passes_and_rejects_a_wrong_kernel(compiled):
    assert _ckernel.probe(compiled)

    def one_ulp_up(n, S, d, form, h, momentum, look, lam, nu, a, frozen, X, Xp, E, rows, norms):
        compiled(n, S, d, form, h, momentum, look, lam, nu, a, frozen, X, Xp, E, rows, norms)
        out = np.ctypeslib.as_array(ctypes.cast(rows, ctypes.POINTER(ctypes.c_double)),
                                    shape=((n + 1) * S * d,))[S * d:]
        out[:] = np.nextafter(out, np.inf)

    assert not _ckernel.probe(one_ulp_up)


@pytest.mark.parametrize("name, kw, compiled_form", [
    ("quadratic", dict(dim=3, mu=1.0, l=2.0), True),
    ("even_power", dict(dim=4, p=1.0), True),
    ("even_power", dict(dim=1, p=2.0), True),
    ("even_power", dict(dim=2, p=2.0), False),
    ("even_power", dict(dim=1, p=1.5), False),
    ("sin_toy", dict(), False),
    ("rosenbrock", dict(), False),
    ("shifted_quartic", dict(), False),
])
def test_run_batch_compiles_exactly_the_declared_forms(compiled, monkeypatch, name, kw,
                                                       compiled_form):
    calls = []
    run = _ckernel.Steps.run
    monkeypatch.setattr(_ckernel.Steps, "run",
                        lambda self, *args: calls.append(1) or run(self, *args))
    prob = make_problem(name, **kw)
    for p in (prob, dataclasses.replace(prob, grad_batch=lambda x, out=None:
                                        prob.grad_batch(x, out))):
        calls.clear()
        run_batch(p, MomentumParams.heavy_ball(0.5), StepSchedule.constant(1e-3),
                  NoiseModel.gaussian(0.1), [0, 1], 50)
        assert bool(calls) == (compiled_form and p is prob)


@st.composite
def scans(draw):
    """A block of noise and step sizes cut into segments, with the carried
    sum and maximum of the segment open at its start."""
    n, S, d = draw(st.integers(1, 64)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
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

    ln = np.array(ln)
    lo = np.concatenate([[0], np.cumsum(ln)[:-1]])
    a = draw(st.sampled_from(["ones", "steps", "values"]))
    a = {"ones": np.ones, "steps": lambda n: rng.random(n) * 0.5, "values": values}[a](n)
    psum = values((S, d)) if draw(st.booleans()) else np.zeros((S, d))
    smax = np.abs(values(S)) if draw(st.booleans()) else np.zeros(S)
    return values((n, S, d)), a, lo, psum, smax


@settings(max_examples=300, deadline=None)
@given(scans())
def test_compiled_error_scan_matches_numpy_bit_for_bit(library, scan):
    E, a, lo, psum, smax = scan
    noise = E.copy()
    sums = [psum.copy(), psum.copy()]
    with np.errstate(all="ignore"):
        got = _cnoise.block(library.cnoise_block, None, noise, 0.0, (a, lo, sums[0], smax))
        want = _cnoise.sums_numpy(E, a, lo, sums[1], smax)
    assert noise.tobytes() == E.tobytes()       # the sums alone leave the noise as it is
    assert got.shape == (len(lo), E.shape[1])
    _bits_equal(want, got)
    _bits_equal(sums[1], sums[0])               # the carried sum, left in psum


def test_scan_probe_passes_and_rejects_a_wrong_scan(library):
    fn = library.cnoise_block
    assert _cnoise.probe_block(fn)

    def one_segment(n, S, d, st, scale, E, a, nseg, lo, psum, scarry, smax):
        fn(n, S, d, st, scale, E, a, min(nseg, 1), lo, psum, scarry, smax)  # no restart

    def no_draw(n, S, d, st, scale, E, a, nseg, lo, psum, scarry, smax):
        fn(n, S, d, None, scale, E, a, nseg, lo, psum, scarry, smax)        # the sums alone

    assert not _cnoise.probe_block(one_segment)
    assert not _cnoise.probe_block(no_draw)


def test_build_raises_when_the_ziggurat_tables_are_not_read(library, monkeypatch):
    # with zero tables every draw takes numpy's slow path: the same bits,
    # but the fast path never runs, and the block probe's slow-path share
    # shows it
    compile_library = _ckernel.compile_library

    def without_tables(source):
        lib = compile_library(source)
        lib.cnoise_init = lambda: None
        return lib

    monkeypatch.setattr(_ckernel, "compile_library", without_tables)
    with pytest.raises(RuntimeError, match="block draw"):
        _ckernel.build()


SUM_SQ = re.compile(r"INLINE double sum_sq\(.*?\n}\n", re.S)
SEQUENTIAL_SUM_SQ = """INLINE double sum_sq(int kind, const double *v, const double *w,
                     const double *a, const double *b, double c1, double lc1, long d)
{
    double q = 0.0;
    for (long j = 0; j < d; j++) {
        const double u = elem(kind, v, w, a, b, c1, lc1, j);
        q = u * u + q;
    }
    return q;
}
"""


PROBES = {"probe": (_ckernel, "step kernel"), "probe_spread": (_ckernel, "window spreads"),
          "probe_block": (_cnoise, "block draw")}


@pytest.mark.parametrize("mutation, probe", [
    ("sequential", "probe"),            # the step kernel's norms, summed in index order
    ("sequential", "probe_spread"),     # the window spreads' distances likewise
    ("drops_nan", "probe_spread"),      # a maximum that keeps the later value over a NaN
    ("sequential", "probe_block"),      # the norms of the window error sums
    ("drops_nan", "probe_block"),       # their maxima
])
def test_build_raises_on_a_wrong_norm_or_maximum(library, monkeypatch, mutation, probe):
    # each probe alone must see it: the other two pass unchecked
    compile_library = _ckernel.compile_library
    assert len(SUM_SQ.findall(_ckernel.SOURCE)) == 1
    nan_max = ("return a != a || a >= b ? a : b;", "return a >= b ? a : b;")
    assert _ckernel.SOURCE.count(nan_max[0]) == 1
    mutate = {"sequential": lambda source: SUM_SQ.sub(SEQUENTIAL_SUM_SQ, source),
              "drops_nan": lambda source: source.replace(*nan_max)}[mutation]
    monkeypatch.setattr(_ckernel, "compile_library",
                        lambda source: compile_library(mutate(source)))
    for other, (module, _) in PROBES.items():
        if other != probe:
            monkeypatch.setattr(module, other, lambda fn: True)
    with pytest.raises(RuntimeError, match=PROBES[probe][1]):
        _ckernel.build()


@pytest.mark.parametrize("mutation", [
    # the scalar fast path's sign bit shifted, built with the vector path left out
    ("(r & 0x100) << 55", "(r & 0x100) << 54", "scalar"),
    ("s = 0; st && s < S", "s = t0 > 0; st && s < S", "native"),  # a later tile skips seed 0
    ("lo[k + 1] == t", "lo[k + 1] == -1", "native"),                # the sums never restart
    # the vector fast path's sign bit shifted
    ("_mm512_and_si512(r, sign), 55)", "_mm512_and_si512(r, sign), 54)", "vector"),
    ("    words_out(st, &b);\n", "", "native"),        # the state is never written back
    ("z[k++] = random_standard_normal", "b->q++;\n        z[k++] = random_standard_normal",
     "native"),                                                     # a slow lane one word late
    # the first window's maximum not folded with the carried one
    ("q[s] = nan_max(q[s], scarry[s]);", ";", "native"),
    ("psum[i] = e[i] * at + psum[i];", "psum[i] = e[i] * at;", "native"),  # no carried sum
])
def test_build_raises_on_a_wrong_block_draw(library, monkeypatch, mutation):
    old, new, path = mutation
    if path == "vector" and library.cnoise_lanes() != 8:
        pytest.skip("the CPU lacks AVX-512F/DQ: the vector path does not run here")
    prefix = "#define CNOISE_SCALAR 1\n" if path == "scalar" else ""
    compile_library = _ckernel.compile_library
    assert _cnoise.SOURCE.count(old) == 1
    monkeypatch.setattr(_ckernel, "compile_library",
                        lambda source: compile_library(prefix + source.replace(old, new)))
    with pytest.raises(RuntimeError, match="block draw"):
        _ckernel.build()


def _partitioned_run(name, noise, **kw):
    problem = make_problem(name, **kw)
    params, schedule, horizon = MomentumParams.heavy_ball(0.5), StepSchedule.constant(1e-3), 300
    part = build_partition(schedule, default_window(problem, params), horizon)
    return run_batch(problem, params, schedule, noise, [0, 1], horizon, partition=part,
                     recording=RecordingPolicy(window_profile=True))    # every window scanned


def test_run_batch_forms_the_error_sums_in_c(library, monkeypatch):
    # and the window spreads: neither numpy twin runs on either thread
    def numpy_scan(*args):
        raise AssertionError("a numpy twin ran although the library loads")

    monkeypatch.setattr(_cnoise, "sums_numpy", numpy_scan)
    monkeypatch.setattr(runner, "_segment_dev_max", numpy_scan)
    _partitioned_run("rosenbrock", NoiseModel.axis_rademacher(0))


@pytest.mark.parametrize("order", [("rosenbrock", "quadratic"), ("quadratic", "rosenbrock")])
def test_libraries_compile_once_and_never_in_a_child(library, monkeypatch, tmp_path, order):
    # the first run compiles the one library in this process, whatever it uses
    # of it (the rosenbrock run only the scan), and no later run compiles it
    # again
    log, compile_library = tmp_path / "compiles", _ckernel.compile_library

    def logged(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return compile_library(*args)

    monkeypatch.setattr(_ckernel, "compile_library", logged)
    _ckernel.load.cache_clear()
    runs = {"quadratic": lambda: _partitioned_run("quadratic", NoiseModel.gaussian(0.1),
                                                  dim=3, mu=1.0, l=2.0),
            "rosenbrock": lambda: _partitioned_run("rosenbrock",
                                                   NoiseModel.axis_rademacher(0))}
    for name in order:
        runs[name]()
    assert log.read_text().split() == [str(os.getpid())]
