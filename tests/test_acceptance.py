"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The run matrix for the window diagnostics is suites.matrix: 18 configs
of 20 seeds at one million steps.
"""

import functools
import itertools
import time

import numpy as np
import pytest

import sgdmlab as sl
from sgdmlab import config
from sgdmlab.config import parse_config
from sgdmlab.harness import emit_rate_curves, run_experiment
from suites import BASE_SEED, HORIZON, SEEDS, config_text, matrix
from test_golden_outputs import CONFIGS as GOLDEN_CONFIGS

# suites.matrix key -> config_hash, recorded before the table moved to suites
MATRIX_HASHES = {
    ("quadratic", "sgd", 0.75): "3e3b7509707e3541",
    ("quadratic", "sgd", 0.9): "f20695637eba62d4",
    ("quadratic", "sgd", 1.0): "7e91dd5cf57baeea",
    ("quadratic", "shb", 0.75): "ab22238ace0db561",
    ("quadratic", "shb", 0.9): "77d14ab1646392ce",
    ("quadratic", "shb", 1.0): "1740676aaa54fa62",
    ("quadratic", "snag", 0.75): "571b1ba9a7bad659",
    ("quadratic", "snag", 0.9): "394f7083ba67ff71",
    ("quadratic", "snag", 1.0): "1187f548efae9516",
    ("even_power", "sgd", 0.75): "ba91936806c31a0c",
    ("even_power", "sgd", 0.9): "05737c8d84687d50",
    ("even_power", "sgd", 1.0): "77e0c85caf75f04c",
    ("even_power", "shb", 0.75): "52f618f18518b4bb",
    ("even_power", "shb", 0.9): "581ed2e1b8f92454",
    ("even_power", "shb", 1.0): "9577ee237f3193ff",
    ("even_power", "snag", 0.75): "febc5ad025d9eb32",
    ("even_power", "snag", 0.9): "f475f0f78e1d04d2",
    ("even_power", "snag", 1.0): "13a2666ea6b0a985",
}


def _matrix_config(pname, method, gamma, extra=""):
    return parse_config(config_text((pname, method, gamma), extra=extra))


def test_matrix_configs_are_frozen():
    assert {key: _matrix_config(*key).config_hash for key in matrix} == MATRIX_HASHES


def test_a_new_schema_key_moves_no_hash_unless_its_default_is_set(monkeypatch):
    # parse_config writes only the keys whose value is not None into the
    # canonical text, so an opt-in key with default None keeps every hash
    def hashes():
        return ({key: _matrix_config(*key).config_hash for key in matrix},
                {name: parse_config(text).config_hash
                 for name, (text, _) in GOLDEN_CONFIGS.items()})

    _, golden = hashes()
    for default, moved in ((None, False), (0.0, True)):
        monkeypatch.setattr(config, "_SCHEMA",
                            {**config._SCHEMA, "noise.sigma1": (config._parse_float, default)})
        got_matrix, got_golden = hashes()
        assert [got_matrix[key] != MATRIX_HASHES[key] for key in matrix] == [moved] * 18
        assert [got_golden[name] != golden[name] for name in golden] == [moved] * len(golden)


@functools.lru_cache(maxsize=1)
def _matrix_results():
    """Shared full-scale run of the 18-configuration diagnostics matrix."""
    t0 = time.time()
    results = {}
    for key in matrix:
        summary, _ = run_experiment(_matrix_config(*key))
        results[key] = summary.data
    return results, time.time() - t0


def _report(num, ok, detail=""):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_partition_first_indices():
    t0 = time.time()
    sched = sl.StepSchedule.polynomial(1.0, 0.0, 1.0)
    part = sl.build_partition(sched, 1.0, 10_000)
    elapsed = time.time() - t0
    ok = part.gammas[:4].tolist() == [1, 2, 4, 10] and elapsed < 1.0
    _report(1, ok, f"gammas={part.gammas[:4].tolist()}, {elapsed:.2f}s")


SUITE = [
    ("quadratic", dict(dim=10, mu=1.0, l=1.0)),
    ("quadratic", dict(dim=1, mu=1.0)),
    ("even_power", dict(dim=1, p=2.0)),
    ("sin_toy", dict()),
    ("rosenbrock", dict()),
    ("shifted_quartic", dict(dim=1, a=1.0)),
]


def test_criterion_02_algebraic_identity_suite():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    n = 10_000
    worst_update = worst_zrec = worst_merit = 0.0
    for name, kw in SUITE:
        prob = sl.make_problem(name, **kw)
        d = prob.dim
        lam, nu = 0.9, 0.3
        # one-step update identity on random states
        X = rng.uniform(-1.2, 1.2, size=(n, d))
        Xp = X + 0.1 * rng.standard_normal((n, d))
        E = rng.standard_normal((n, d))
        alpha = 0.05
        dX = X - Xp
        G = prob.grad_batch(X + nu * dX) - E
        Xn = X + (lam * dX - alpha * G)
        resid = np.abs(Xn - X + alpha * G - lam * dX)
        scale = 1.0 + np.linalg.norm(X, axis=1)
        worst_update = max(worst_update, float((resid / scale[:, None]).max()))
        # interpolation recursion along a noisy run (step scaled to L for
        # stability; the identity is exact regardless of dynamics)
        params = sl.MomentumParams(lam, nu)
        sched = sl.StepSchedule.polynomial(min(0.02, 0.2 / prob.L), 0.0, 0.9)
        noise = sl.NoiseModel.gaussian(0.05)
        rp = sl.RecordingPolicy(store_vectors=True, store_noise=True)
        traj = sl.run_batch(prob, params, sched, noise, [1], 1500, recording=rp)
        assert not traj.diverged_at[0] > 0, name
        Xh, Eh = traj.X_hist[:, 0], traj.E_hist[:, 0]
        alphas = sched.prefix(1499)
        c1 = 1.0 / (1.0 - lam)
        Z = np.empty_like(Xh)
        Z[0] = Xh[0]
        Z[1:] = Xh[1:] * c1 - lam * c1 * Xh[:-1]
        look = Xh[1:-1] + nu * (Xh[1:-1] - Xh[:-2])
        Gs = prob.grad_batch(look) - Eh[1:]
        zres = np.linalg.norm(Z[2:] - Z[1:-1] + alphas[1:, None] * Gs / (1 - lam), axis=1)
        zscale = 1.0 + np.linalg.norm(Z[1:-1], axis=1)
        worst_zrec = max(worst_zrec, float((zres / zscale).max()))
        # merit-gradient expansion and the three bounds on random pairs
        Xm = rng.uniform(-1.2, 1.2, size=(n, d))
        Zm = Xm + 0.3 * rng.standard_normal((n, d))
        zeta = sl.merit_zeta(prob, params)
        diff = Zm - Xm
        diff_sq = np.einsum("nd,nd->n", diff, diff)
        gf = prob.grad_batch(Zm)
        gf_sq = np.einsum("nd,nd->n", gf, gf)
        gblock = gf + 2 * zeta * diff
        gm2 = 4 * zeta**2 * diff_sq + np.einsum("nd,nd->n", gblock, gblock)
        expansion = 8 * zeta**2 * diff_sq + gf_sq + 4 * zeta * np.einsum("nd,nd->n", gf, diff)
        mscale = 1.0 + gm2 + zeta**2 * diff_sq + gf_sq
        worst_merit = max(worst_merit, float((np.abs(gm2 - expansion) / mscale).max()))
        slack = 1e-9 * mscale
        assert np.all(4 * zeta**2 * diff_sq <= gm2 + slack), name
        assert np.all(gf_sq <= 2 * gm2 + slack), name
        assert np.all(gm2 <= 12 * zeta**2 * diff_sq + 2 * gf_sq + slack), name
    elapsed = time.time() - t0
    ok = worst_update <= 1e-12 and worst_zrec <= 1e-10 \
        and worst_merit <= 1e-9 and elapsed < 10.0
    _report(2, ok, f"update={worst_update:.1e}, zrec={worst_zrec:.1e}, "
                   f"merit={worst_merit:.1e}, {elapsed:.1f}s")


def test_criterion_03_noise_dominated_step_lower_bound():
    t0 = time.time()
    prob = sl.make_problem("sin_toy")
    sched = sl.StepSchedule.polynomial(1.0, 0.0, 1.0)
    noise = sl.NoiseModel.axis_rademacher(1)
    rp = sl.RecordingPolicy(track_step_norms=True, points_per_decade=10)
    traj = sl.run_batch(prob, sl.MomentumParams.sgd(), sched, noise,
                        [0], 100_001, recording=rp)
    elapsed = time.time() - t0
    n_ok, total = int(traj.step_norm_ok[0]), float(traj.step_norm_total[0])
    ok = n_ok == 100_000 and total >= 12.0 and elapsed < 5.0
    _report(3, ok, f"{n_ok}/100000 steps, path={total:.3f}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_04_window_lengths_across_matrix():
    t0 = time.time()
    worst = 0
    missing_guarantee = 0
    for key in matrix:
        cfg = _matrix_config(*key)
        T = sl.default_window(cfg.problem, cfg.params)
        part = sl.build_partition(cfg.schedule, T, HORIZON)
        rep = sl.verify_window_lengths(part, cfg.schedule, 0.9)
        worst += len(rep.violations_after_guarantee)
        missing_guarantee += rep.K_guarantee is None
    elapsed = time.time() - t0
    ok = worst == 0 and elapsed < 60.0
    _report(4, ok, f"violations past guarantee: {worst}, "
                   f"configs without in-horizon guarantee: {missing_guarantee}, "
                   f"{elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_05_bounds_and_descent_across_matrix():
    results, elapsed = _matrix_results()
    bounds = sum(r["windows"]["bounds_violations"] for r in results.values())
    descent = sum(r["windows"]["descent_violations"] for r in results.values())
    ledger = sum(r["windows"]["ledger_violations"] for r in results.values())
    applicable = sum(r["windows"]["n_applicable"] for r in results.values())
    diverged = sum(r["n_diverged"] for r in results.values())
    ok = bounds == 0 and descent == 0 and ledger == 0 and applicable > 1000 \
        and diverged == 0 and elapsed < 600.0
    _report(5, ok, f"applicable windows: {applicable}, bounds={bounds}, "
                   f"descent={descent}, ledger={ledger}, run {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_06_decade_medians_across_matrix():
    results, _ = _matrix_results()
    bad = []
    for key, r in results.items():
        dec = r["decades"]
        if not (dec["final_decade_grad_median"] < 1e-2
                and dec["grad_decades_decreasing"]
                and dec["d_decades_monotone"]
                and dec["xz_decades_monotone"]):
            bad.append(key)
    worst_final = max(r["decades"]["final_decade_grad_median"]
                      for r in results.values())
    _report(6, not bad, f"worst final-decade gradient median {worst_final:.2e}, "
                        f"failing configs: {bad}")


@pytest.mark.slow
def test_criterion_07_rate_reproduction_flat_sharpness():
    t0 = time.time()
    Phi, Psi = sl.rate_Phi_Psi(0.9, 0.5)
    cfg = _matrix_config("quadratic", "shb", 0.9,
                         extra="rate.targets = f_gap,dist\n"
                               f"rate.f_gap_min = {Psi - 0.15}\n"
                               f"rate.dist_min = {Phi - 0.10}\n")
    summary, _ = run_experiment(cfg)
    elapsed = time.time() - t0
    fits = summary.data["rates"]
    ok = fits["f_gap"]["passed"] and fits["dist"]["passed"] and elapsed < 600.0
    _report(7, ok, f"f_gap {fits['f_gap']['median']:.3f} >= {Psi - 0.15:.2f}, "
                   f"dist {fits['dist']['median']:.3f} >= {Phi - 0.10:.2f}, "
                   f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_08_rate_reproduction_quartic_sharpness():
    t0 = time.time()
    og = sl.optimal_gamma(0.75)
    assert og.gamma_star == pytest.approx(0.75)
    threshold = og.Psi_at_star - 0.10
    cfg = parse_config(f"""problem.name = even_power
problem.dim = 1
problem.p = 2.0
opt.lambda = 0.5
schedule.alpha = 0.02
schedule.gamma = {og.gamma_star}
noise.variant = gaussian
noise.sigma = 0.05
run.horizon = {HORIZON}
run.seeds = {SEEDS}
run.base_seed = {BASE_SEED}
rate.targets = f_gap
rate.f_gap_min = {threshold}
""")
    summary, _ = run_experiment(cfg)
    elapsed = time.time() - t0
    fit = summary.data["rates"]["f_gap"]
    ok = fit["passed"] and elapsed < 600.0
    _report(8, ok, f"f_gap {fit['median']:.3f} >= {threshold:.2f}, {elapsed:.0f}s")


def test_criterion_09_rate_curve_golden_files(tmp_path):
    t0 = time.time()
    thetas = np.arange(0.50, 0.995, 0.01)
    gammas = [0.7, 0.8, 0.9, 0.999]
    paths = emit_rate_curves(thetas, gammas, str(tmp_path))
    worst = 0.0
    transitions = 0
    for row in open(paths[0]).read().splitlines()[1:]:
        th, g, psi, phi, flag = row.split(",")
        th, g = float(th), float(g)
        Phi, Psi = sl.rate_Phi_Psi(g, th)
        worst = max(worst, abs(float(psi) - Psi), abs(float(phi) - Phi))
        if int(flag):
            transitions += 1
            tc = sl.transition_theta(g)
            worst = max(worst, abs(th - tc),
                        abs((2 * g - 1) - (1 - g) / (2 * tc - 1)))
    for row in open(paths[1]).read().splitlines()[1:]:
        th, p_opt, p_ref = row.split(",")
        og = sl.optimal_gamma(float(th))
        worst = max(worst, abs(float(p_opt) - og.Psi_at_star),
                    abs(float(p_ref) - og.tadic_rate))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and transitions == 4 and elapsed < 1.0
    _report(9, ok, f"max deviation {worst:.1e}, transition points {transitions}, "
                   f"{elapsed:.2f}s")


def test_criterion_10_decay_recursion_checker():
    t0 = time.time()
    worst = 1.0
    for q, t_exp in itertools.product((1.5, 2.0, 3.0), (1.1, 1.3, 1.5)):
        chk = sl.chung_bound_check(q=q, p=1.0, s=1.0, t=t_exp, beta=3.0,
                                   horizon=1_000_000)
        assert chk.passed, (q, t_exp)
        worst = max(worst, chk.worst_tail_ratio)
    for s_exp, dt in itertools.product((0.4, 0.5, 0.6), (0.5, 0.8, 1.1)):
        chk = sl.chung_bound_check(q=1.0, p=1.0, s=s_exp, t=s_exp + dt, beta=1.0,
                                   horizon=1_000_000)
        assert chk.passed, (s_exp, dt)
        worst = max(worst, chk.worst_tail_ratio)
    elapsed = time.time() - t0
    ok = worst <= 1.05 and elapsed < 10.0
    _report(10, ok, f"worst tail ratio {worst:.4f}, {elapsed:.1f}s")


def test_criterion_11_exponent_estimator_oracle():
    t0 = time.time()
    ks = np.unique(np.rint(np.logspace(0, 6, 500)).astype(int))
    rng = np.random.default_rng(99)
    worst_clean = worst_noisy = 0.0
    for p in (0.2, 0.5, 0.8, 1.0):
        vals = ks.astype(float) ** (-p)
        est = sl.estimate_exponent(ks, vals, tail_fraction=0.5)
        worst_clean = max(worst_clean, abs(est.exponent - p))
        noisy = vals * (1 + 0.01 * rng.standard_normal(len(ks)))
        est = sl.estimate_exponent(ks, noisy, tail_fraction=0.5)
        worst_noisy = max(worst_noisy, abs(est.exponent - p))
    elapsed = time.time() - t0
    ok = worst_clean <= 1e-6 and worst_noisy <= 0.02 and elapsed < 5.0
    _report(11, ok, f"clean {worst_clean:.1e}, noisy {worst_noisy:.3f}, "
                    f"{elapsed:.1f}s")


def test_criterion_12_negative_controls():
    t0 = time.time()
    rep = sl.validate_schedule(sl.StepSchedule.polynomial(1.0, 0.0, 0.5), "global")
    ok1 = rep.valid is False
    const = sl.StepSchedule.constant(0.05)
    ok2 = all(sl.validate_schedule(const, reg, **kw).valid is False
              for reg, kw in (("global", {}), ("loja", {"r": 1.0}),
                              ("rate", {"growth": ("power", 1.0)})))
    try:
        parse_config("problem.name = quadratic\nproblem.dim = 2\n"
                     "run.horizon = 100\nopt.lambda = 1.0\n")
        ok3 = False
    except sl.ConfigError:
        ok3 = True
    try:
        parse_config("problem.name = quadratic\nproblem.dim = 2\n"
                     "run.horizon = 100\nschedule.gamma = 0.5\n"
                     "rate.targets = f_gap\n")
        ok4 = False
    except sl.ConfigError as e:
        ok4 = "(2/3, 1]" in str(e)
    elapsed = time.time() - t0
    ok = ok1 and ok2 and ok3 and ok4 and elapsed < 1.0
    _report(12, ok, f"controls rejected: {[ok1, ok2, ok3, ok4]}, {elapsed:.2f}s")
