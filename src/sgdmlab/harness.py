"""Experiment orchestration: multi-seed runs, diagnostics, rate fits, outputs.

Seeds evolve in one vectorized batch (a deterministic stand-in for fanning
out trials in parallel); aggregation is ordered by seed index.  Every output
byte is a pure function of the config, so reruns are bit-identical.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import windows as win
from .config import ExperimentConfig
from .rates import estimate_exponent, rate_Phi_Psi
from .runner import run_batch
from .schedules import ScheduleExhaustedError
from .trajectory import RecordingPolicy, RunBatch, decade_of, n_decades

DIAG_TOL = 1e-8
MONOTONE_SLACK = 1e-9


@dataclass
class RunSummary:
    data: dict

    @property
    def passed(self) -> bool:
        return self.data["overall_pass"]

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2) + "\n"


def _median_ok(arr: np.ndarray, ok: np.ndarray) -> float | None:
    vals = arr[ok]
    return float(np.median(vals)) if len(vals) else None


def _decade_means_from_grid(ks: np.ndarray, series: np.ndarray, horizon: int):
    """Per-seed per-decade means of a grid-recorded series, (n_dec, S)."""
    nd = n_decades(horizon)
    dec = decade_of(ks)
    S = series.shape[1]
    sums = np.zeros((nd, S))
    cnts = np.zeros(nd)
    np.add.at(sums, dec, series)
    np.add.at(cnts, dec, 1.0)
    means = np.full((nd, S), np.nan)
    present = cnts > 0
    means[present] = sums[present] / cnts[present, None]
    return means, present


def _monotone_medians(medians: list[float | None], strict: bool):
    chain = [m for m in medians if m is not None]
    for a, b in zip(chain, chain[1:]):
        if strict:
            if not b < a:
                return False
        elif b > a * (1 + MONOTONE_SLACK) + 1e-300:
            return False
    return True


def _window_verdicts(batch: RunBatch, cfg: ExperimentConfig) -> dict:
    problem, params = cfg.problem, cfg.params
    trace = batch.window
    partition, K_T = trace.partition, trace.K_T
    K_obs, wl = win.verify_window_lengths(partition, cfg.schedule, cfg.window_delta)
    out = {
        "n_windows": partition.n_windows,
        "K_delta": K_obs,
        "K_guarantee": wl.K_guarantee,
        "length_violations": len(wl.violations),
        "length_violations_after_guarantee": len(wl.violations_after_guarantee),
        "K_T": K_T,
        "vacuous": True,
        "n_applicable": 0,
        "bounds_violations": 0,
        "descent_violations": 0,
        "ledger_violations": 0,
        "min_res_spread": None,
        "min_res_gap": None,
        "min_res_descent": None,
        "u_final_over_max": None,
    }
    if len(trace.s) == 0 or K_T is None:
        return out
    lo = trace.detail_lo
    W = partition.n_windows
    idx = np.arange(lo, W + 1)
    complete = partition.complete[lo - 1:]
    app = complete & (idx >= K_T)
    seed_ok = batch.diverged_at == 0
    if not app.any() or not seed_ok.any():
        return out
    T, lam, L = partition.T, params.lam, problem.L
    s, spread = trace.s, trace.spread
    zx, gz = trace.zx, trace.gz
    M, gm2 = trace.merit, trace.merit_grad_sq
    rs, sc_s = win.spread_residual(T, lam, s, zx[:-1], gz[:-1], spread)
    rg, sc_g = win.gap_residual(T, lam, s, zx[:-1], gz[:-1], zx[1:])
    rd, sc_d = win.descent_residual(T, lam, L, s, spread, M[:-1], M[1:], gm2[:-1])
    sel = np.ix_(app, seed_ok)
    nb = int((rs[sel] < -DIAG_TOL * sc_s[sel]).sum() + (rg[sel] < -DIAG_TOL * sc_g[sel]).sum())
    ndv = int((rd[sel] < -DIAG_TOL * sc_d[sel]).sum())
    u = win.tail_error_sums_batch(s, T, lam)
    ledger = M + u
    start = max(K_T - lo, 0)
    led = ledger[start:][:, seed_ok]
    slack = DIAG_TOL * (1.0 + np.abs(led[:-1]))
    nled = int((led[1:] > led[:-1] + slack).sum())
    umax = u[start:][:, seed_ok].max(axis=0)
    uend = u[-2][seed_ok] if len(u) >= 2 else umax * 0
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(umax > 0, uend / umax, 0.0)
    out.update(
        vacuous=False, n_applicable=int(app.sum()),
        bounds_violations=nb, descent_violations=ndv, ledger_violations=nled,
        min_res_spread=float(rs[sel].min()), min_res_gap=float(rg[sel].min()),
        min_res_descent=float(rd[sel].min()),
        u_final_over_max=float(np.median(ratio)))
    return out


def _decade_verdicts(batch: RunBatch, cfg: ExperimentConfig) -> dict:
    seed_ok = batch.diverged_at == 0
    horizon = cfg.horizon
    grad_means, gpresent = _decade_means_from_grid(batch.ks, batch.grad_norm, horizon)
    xz_means, _ = _decade_means_from_grid(batch.ks, batch.xz, horizon)
    grad_med = [_median_ok(grad_means[j], seed_ok) if gpresent[j] else None
                for j in range(len(grad_means))]
    xz_med = [_median_ok(xz_means[j], seed_ok) if gpresent[j] else None
              for j in range(len(xz_means))]
    d_med = None
    if batch.window is not None:
        w = batch.window
        with np.errstate(invalid="ignore"):
            dm = np.where(w.decade_d_cnt[:, None] > 0,
                          w.decade_d_sum / np.maximum(w.decade_d_cnt[:, None], 1), np.nan)
        d_med = [_median_ok(dm[j], seed_ok) if w.decade_d_cnt[j] > 0 else None
                 for j in range(len(dm))]
    final_grad = next((m for m in reversed(grad_med) if m is not None), None)
    out = {
        "grad_decade_medians": grad_med,
        "xz_decade_medians": xz_med,
        "d_decade_medians": d_med,
        "final_decade_grad_median": final_grad,
        "grad_decades_decreasing": _monotone_medians(grad_med, strict=True),
        "xz_decades_monotone": _monotone_medians(xz_med, strict=False),
        "d_decades_monotone": _monotone_medians(d_med, strict=False) if d_med else None,
    }
    return out


def _rate_fits(batch: RunBatch, cfg: ExperimentConfig) -> dict:
    horizon = cfg.horizon
    lo_k = horizon / 10**cfg.rate_tail_decades
    m = batch.ks >= max(lo_k, 1)
    ks = batch.ks[m]
    series = {}
    if "f_gap" in cfg.rate_targets:
        series["f_gap"] = np.maximum(batch.f[m] - cfg.problem.f_star, 0.0)
    if "grad_sq" in cfg.rate_targets:
        series["grad_sq"] = batch.grad_norm[m] ** 2
    if "dist" in cfg.rate_targets:
        series["dist"] = batch.dist[m]
    seed_ok = batch.diverged_at == 0
    out = {}
    for name, vals in series.items():
        per_seed = []
        for i in range(batch.n_seeds):
            if not seed_ok[i]:
                per_seed.append(None)
                continue
            est = estimate_exponent(ks, vals[:, i], tail_fraction=1.0)
            per_seed.append(float(est.exponent))
        good = [e for e in per_seed if e is not None]
        med = float(np.median(good)) if good else None
        entry = {"per_seed": per_seed, "median": med}
        if cfg.schedule.variant == "polynomial" and 2 / 3 < cfg.schedule.gamma < 1:
            Phi, Psi = rate_Phi_Psi(cfg.schedule.gamma, cfg.problem.theta)
            entry["predicted"] = Phi if name == "dist" else Psi
        thr = cfg.rate_mins.get(name)
        if thr is not None:
            entry["min_required"] = thr
            entry["passed"] = med is not None and med >= thr
        out[name] = entry
    return out


def run_experiment(cfg: ExperimentConfig, seed_offset: int = 0) -> tuple[RunSummary, RunBatch]:
    """Run all seeds, evaluate diagnostics and rate targets."""
    policy = RecordingPolicy(
        stride=cfg.stride, points_per_decade=cfg.points_per_decade,
        store_vectors=cfg.store_vectors,
        store_boundary_vectors=cfg.store_boundary_vectors,
        track_step_norms=cfg.track_step_norms,
        window_profile=cfg.window_profile)
    partition = None
    if cfg.window_enabled and cfg.horizon >= 2:
        T = cfg.window_T if cfg.window_T is not None \
            else win.default_window(cfg.problem, cfg.params)
        partition = win.build_partition(cfg.schedule, T, cfg.horizon)
    seeds = cfg.seed_list(seed_offset)
    batch = run_batch(cfg.problem, cfg.params, cfg.schedule, cfg.noise, seeds,
                      cfg.horizon, x0=cfg.x0, recording=policy, partition=partition)
    data = {
        "config_hash": cfg.config_hash,
        "problem": cfg.problem.name,
        "dim": cfg.problem.dim,
        "lambda": cfg.params.lam,
        "nu": cfg.params.nu,
        "horizon": cfg.horizon,
        "seeds": seeds,
        "n_diverged": int((batch.diverged_at > 0).sum()),
        "diverged_at": [int(v) for v in batch.diverged_at],
        "box_exit_steps": [int(v) for v in batch.box_exits],
    }
    criteria = []
    if partition is not None:
        wv = _window_verdicts(batch, cfg)
        data["windows"] = wv
        data["window_T"] = partition.T
        criteria.append(("window_lengths", wv["length_violations_after_guarantee"] == 0))
        criteria.append(("iterate_bounds", wv["bounds_violations"] == 0))
        criteria.append(("descent", wv["descent_violations"] == 0
                         and wv["ledger_violations"] == 0))
    data["decades"] = _decade_verdicts(batch, cfg)
    if cfg.rate_targets:
        fits = _rate_fits(batch, cfg)
        data["rates"] = fits
        for name, entry in fits.items():
            if "passed" in entry:
                criteria.append((f"rate_{name}", entry["passed"]))
    if cfg.track_step_norms:
        data["step_norms"] = {
            "n_steps": cfg.horizon - 1,
            "count_at_least_alpha": [int(v) for v in batch.step_norm_ok],
            "total_path_length": [float(v) for v in batch.step_norm_total],
        }
    data["criteria"] = [{"name": n, "passed": bool(p)} for n, p in criteria]
    data["overall_pass"] = all(p for _, p in criteria)
    return RunSummary(data), batch


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def emit_outputs(summary: RunSummary, batch: RunBatch, cfg: ExperimentConfig,
                 outdir: str) -> list[str]:
    """Write the requested output files; returns the paths written."""
    os.makedirs(outdir, exist_ok=True)
    written = []
    if "summary" in cfg.out_formats:
        path = os.path.join(outdir, "summary.json")
        with open(path, "w") as fh:
            fh.write(summary.to_json())
        written.append(path)
    if "step_csv" in cfg.out_formats:
        path = os.path.join(outdir, "steps.csv")
        with open(path, "w") as fh:
            fh.write("k,alpha_k,f_gap,grad_norm,dist_to_min\n")
            for j, k in enumerate(batch.ks):
                k = int(k)
                try:
                    a = cfg.schedule.step_size(k)
                except ScheduleExhaustedError:
                    a = None
                gap = batch.f[j, 0] - cfg.problem.f_star
                dist = batch.dist[j, 0] if batch.dist is not None else None
                fh.write(f"{k},{_fmt(a)},{_fmt(gap)},{_fmt(batch.grad_norm[j, 0])},"
                         f"{_fmt(dist)}\n")
        written.append(path)
    if "window_csv" in cfg.out_formats and batch.window is not None:
        path = os.path.join(outdir, "windows.csv")
        _write_window_csv(path, batch, cfg)
        written.append(path)
    return written


def _write_window_csv(path: str, batch: RunBatch, cfg: ExperimentConfig):
    """Per-window diagnostics for the first seed over the stored range."""
    trace = batch.window
    partition, K_T, T = trace.partition, trace.K_T, trace.partition.T
    lo = trace.detail_lo
    with open(path, "w") as fh:
        fh.write("k,gamma_k,gamma_next,Delta,s_k,d_k,u_k,M_k,gradM_norm,"
                 "res_36,res_37,res_descent,applicable_flag\n")
        if len(trace.s) == 0:
            return
        lam, L = cfg.params.lam, cfg.problem.L
        s = trace.s[:, 0]
        spread = trace.spread[:, 0]
        zx, gz = trace.zx[:, 0], trace.gz[:, 0]
        M, gm2 = trace.merit[:, 0], trace.merit_grad_sq[:, 0]
        rs, _ = win.spread_residual(T, lam, s, zx[:-1], gz[:-1], spread)
        rg, _ = win.gap_residual(T, lam, s, zx[:-1], gz[:-1], zx[1:])
        rd, _ = win.descent_residual(T, lam, L, s, spread, M[:-1], M[1:], gm2[:-1])
        u = win.tail_error_sums(s, T, lam)
        for j in range(len(s)):
            k = lo + j
            g0, g1 = partition.window_range(k)
            app = int(partition.complete[k - 1] and K_T is not None and k >= K_T)
            fh.write(",".join([
                str(k), str(g0), str(g1), _fmt(partition.deltas[k - 1]),
                _fmt(s[j]), _fmt(spread[j]), _fmt(u[j]), _fmt(M[j]),
                _fmt(math.sqrt(gm2[j])), _fmt(rs[j]), _fmt(rg[j]), _fmt(rd[j]),
                str(app)]) + "\n")


def emit_rate_curves(thetas, gammas, outdir: str) -> list[str]:
    """Value-rate curves over a (theta, gamma) grid with the branch-meeting
    points marked, plus the optimal-gamma comparison curves."""
    from .rates import optimal_gamma, transition_theta
    os.makedirs(outdir, exist_ok=True)
    thetas = np.asarray(sorted(thetas), dtype=float)
    paths = []
    path = os.path.join(outdir, "rate_curves.csv")
    with open(path, "w") as fh:
        fh.write("theta,gamma,Psi,Phi,transition\n")
        for g in gammas:
            tc = transition_theta(g)
            grid = sorted(set(float(t) for t in thetas) | {tc})
            for th in grid:
                if not 0.5 <= th < 1.0:
                    continue
                Phi, Psi = rate_Phi_Psi(g, th)
                flag = 1 if th == tc else 0
                fh.write(f"{repr(float(th))},{repr(float(g))},{repr(Psi)},"
                         f"{repr(Phi)},{flag}\n")
    paths.append(path)
    path = os.path.join(outdir, "rate_optimal.csv")
    with open(path, "w") as fh:
        fh.write("theta,psi_at_gamma_star,psi_reference\n")
        for th in thetas:
            og = optimal_gamma(float(th))
            fh.write(f"{repr(float(th))},{repr(og.Psi_at_star)},{repr(og.tadic_rate)}\n")
    paths.append(path)
    return paths
