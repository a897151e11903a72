"""Property test of the window verdict.

``judge_windows`` runs on crafted (window, seed) quantities with random
complete masks, detail starts ``lo`` and applicability indices ``K_T``
(None, below ``lo``, inside the range, and the last window), drawn from a
value set that makes every inequality and the ledger fail often.  The
batch report must equal the one-seed reports column by column, bitwise,
and both the report and its reduction over the seeds that did not diverge
(``WindowReport.reduce``, which the harness summary takes as it is) must
count the same violations as the per-window, per-seed loops kept below as
the oracle.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from sgdmlab import WindowPartition, judge_windows
from sgdmlab.windows import DIAG_TOL, descent_residual, gap_residual, spread_residual

# zeros make a right-hand side vanish, large values make a left-hand side win
VALUES = (0.0, 1e-3, 0.05, 0.5, 1.0, 3.0, 40.0)
MERITS = VALUES + tuple(-v for v in VALUES[1:])
ALPHA = 1e-3


def _oracle(part, K_T, lo, lam, L, s, spread, zx, gz, merit, gm2, tol):
    """One seed's verdict by explicit loops over windows and anchors."""
    T, W = part.T, part.n_windows
    idx = np.arange(lo, W + 1)
    rs, sc_s = spread_residual(T, lam, s, zx[:-1], gz[:-1], spread)
    rg, sc_g = gap_residual(T, lam, s, zx[:-1], gz[:-1], zx[1:])
    rd, sc_d = descent_residual(T, lam, L, s, spread, merit[:-1], merit[1:], gm2[:-1])
    applicable = [bool(part.complete[k - 1]) and K_T is not None and k >= K_T
                  for k in idx]
    violations = []
    for j in range(len(idx)):
        if not applicable[j]:
            continue
        if rs[j] < -tol * sc_s[j]:
            violations.append((int(idx[j]), "spread", float(rs[j])))
        if rg[j] < -tol * sc_g[j]:
            violations.append((int(idx[j]), "gap", float(rg[j])))
        if rd[j] < -tol * sc_d[j]:
            violations.append((int(idx[j]), "descent", float(rd[j])))
    sq = s**2
    u = 8.0 / ((1.0 - lam) * T) * np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])
    ledger = merit + u
    rises = []
    if K_T is not None:
        for j in range(max(K_T - lo, 0), len(ledger) - 1):
            if ledger[j + 1] > ledger[j] + tol * (1.0 + abs(ledger[j])):
                rises.append((int(lo + j), float(ledger[j + 1] - ledger[j])))
    app = np.array(applicable, dtype=bool)
    return SimpleNamespace(applicable=app, violations=violations, rises=rises,
                           res=(rs[app], rg[app], rd[app]))


def _partition(T, complete):
    W = len(complete)
    return WindowPartition(T=T, horizon=W + 1,
                           gammas=np.arange(1, W + 2, dtype=np.int64),
                           deltas=np.full(W, ALPHA),
                           complete=np.asarray(complete, dtype=bool))


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _check(part, K_T, lo, lam, L, q, diverged_at):
    """Assert batch == one-seed reports == oracle; return the summary."""
    s, spread, zx, gz, merit, gm2 = q
    S = s.shape[1]
    rep = judge_windows(part, K_T, lo, lam, L, s, spread, zx, gz, merit, gm2, DIAG_TOL)
    fields = ("res_spread", "res_gap", "res_descent", "bad_spread", "bad_gap",
              "bad_descent", "u", "ledger", "ledger_rise")
    oracles = []
    for i in range(S):
        one = judge_windows(part, K_T, lo, lam, L, *(a[:, i] for a in q), DIAG_TOL)
        for f in fields:
            assert _bits(getattr(rep, f)[:, i]) == _bits(getattr(one, f)), f
        assert np.array_equal(one.applicable, rep.applicable)
        assert np.array_equal(one.windows, rep.windows)
        orc = _oracle(part, K_T, lo, lam, L, *(a[:, i] for a in q), DIAG_TOL)
        assert np.array_equal(one.applicable, orc.applicable)
        assert sorted(one.violations) == sorted(orc.violations)
        assert one.ledger_violations == orc.rises
        oracles.append(orc)

    out = rep.reduce(diverged_at == 0)
    assert out["K_T"] == K_T
    ok = [orc for orc, d in zip(oracles, diverged_at) if d == 0]
    app = oracles[0].applicable
    if K_T is None or not app.any() or not ok:
        assert out["vacuous"] and out["n_applicable"] == 0
        assert out["bounds_violations"] == out["descent_violations"] \
            == out["ledger_violations"] == 0
        assert out["min_res_spread"] is None
        return out
    assert not out["vacuous"] and out["n_applicable"] == int(app.sum())
    assert out["bounds_violations"] == sum(
        sum(v[1] != "descent" for v in orc.violations) for orc in ok)
    assert out["descent_violations"] == sum(
        sum(v[1] == "descent" for v in orc.violations) for orc in ok)
    assert out["ledger_violations"] == sum(len(orc.rises) for orc in ok)
    for r, key in enumerate(("min_res_spread", "min_res_gap", "min_res_descent")):
        assert out[key] == min(float(orc.res[r].min()) for orc in ok)
    return out


@st.composite
def _cases(draw):
    W = draw(st.integers(1, 12))
    S = draw(st.integers(1, 3))
    lo = draw(st.integers(1, W))
    options = [st.none(), st.integers(lo, W), st.just(W)]
    if lo > 1:
        options.append(st.integers(1, lo - 1))
    K_T = draw(st.one_of(*options))
    complete = draw(st.lists(st.booleans(), min_size=W, max_size=W))
    lam = draw(st.sampled_from([0.0, 0.5, 0.9]))
    T = draw(st.sampled_from([1e-3, 0.02]))
    L = draw(st.sampled_from([1.0, 27.0]))
    Wd = W - lo + 1

    def arr(rows, values):
        flat = draw(st.lists(st.sampled_from(values), min_size=rows * S,
                             max_size=rows * S))
        return np.array(flat, dtype=float).reshape(rows, S)

    q = (arr(Wd, VALUES), arr(Wd, VALUES), arr(Wd + 1, VALUES),
         arr(Wd + 1, VALUES), arr(Wd + 1, MERITS), arr(Wd + 1, VALUES))
    diverged_at = np.array(draw(st.lists(st.sampled_from([0, 0, 7]),
                                         min_size=S, max_size=S)))
    return _partition(T, complete), K_T, lo, lam, L, q, diverged_at


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_judge_windows_matches_per_seed_reports_and_loop_oracle(case):
    _check(*case)


def test_crafted_violations_reach_the_summary():
    # four complete windows judged from K_T = 2 on, two seeds: window 1
    # violates everything but is not applicable; the ledger rises at
    # anchor 1 (before K_T, not counted) and at anchor 3
    part = _partition(0.02, [True, True, True, True])
    z = np.zeros((4, 2))
    spread = z.copy()
    spread[[0, 2], :] = 3.0                      # spread bound at windows 1, 3
    zx = np.zeros((5, 2))
    zx[3, :] = 1.0                               # gap recursion at window 3
    merit = np.array([0.0, 5.0, 5.0, 9.0, 9.0])[:, None] * np.ones(2)
    q = (z, spread, zx, np.zeros((5, 2)), merit, np.zeros((5, 2)))
    out = _check(part, 2, 1, 0.5, 1.0, q, np.array([0, 0]))
    assert out["n_applicable"] == 3
    assert out["bounds_violations"] == 2 * 2     # window 3, spread and gap
    assert out["descent_violations"] == 2 * 1    # window 3: merit rise and spread
    assert out["ledger_violations"] == 2 * 1     # anchor 3 -> 4
    # a diverged seed drops out of every count
    out = _check(part, 2, 1, 0.5, 1.0, q, np.array([0, 5]))
    assert (out["bounds_violations"], out["descent_violations"],
            out["ledger_violations"]) == (2, 1, 1)
